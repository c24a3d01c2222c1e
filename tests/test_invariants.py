"""Library invariants must be raised errors: `python -O` strips asserts."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "msgkit")


def test_library_has_no_assert_statements():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
