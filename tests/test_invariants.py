"""Source-level invariants of the library."""

import ast
import glob
import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "msgkit")


def test_library_has_no_assert_statements():
    # invariants must be raised errors: `python -O` strips asserts
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_sampling_seed_constant_is_written_once():
    # one seed rule for the library and the CLI: a second copy could drift
    count = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, "r", encoding="utf-8") as fh:
            count += len(re.findall(r"0x[aA]5[aA]5[aA]5[aA]5", fh.read()))
    assert count == 1
