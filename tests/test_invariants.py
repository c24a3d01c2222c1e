"""Source-level invariants of the library."""

import ast
import glob
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "msgkit")


def _parsed(*patterns):
    """(path, syntax tree) of every file matching the patterns under the repo root."""
    paths = sorted(p for pattern in patterns for p in glob.glob(os.path.join(ROOT, pattern)))
    assert paths
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            yield path, ast.parse(fh.read(), filename=path)


def test_library_has_no_assert_statements():
    # invariants must be raised errors: `python -O` strips asserts
    found = []
    for path, tree in _parsed("src/msgkit/*.py"):
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_library_writes_private_attributes_only_on_self():
    # an object's private state is written by its own methods only; a
    # write through another name (say, into a matrix's cache) couples two
    # classes behind their backs
    found = []
    for path, tree in _parsed("src/msgkit/*.py"):
        targets = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets += node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets.append(node.target)
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif (isinstance(target, ast.Attribute) and target.attr.startswith("_")
                  and not (isinstance(target.value, ast.Name) and target.value.id == "self")):
                found.append(f"{os.path.basename(path)}:{target.lineno}")
    assert found == []


def _definitions(tree):
    """(line, name) of every function and class in `tree`, and of every class-body
    alias `name = method` of a function defined in the same class body: an alias is
    one more name, and it needs a caller of its own."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            methods = {stmt.name for stmt in node.body if isinstance(stmt, functions)}
            yield from ((target.lineno, target.id) for stmt in node.body
                        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                        and stmt.value.id in methods
                        for target in stmt.targets if isinstance(target, ast.Name))


def _uncalled(library, callers):
    """`file:line name` of each definition in the `library` files, dunder names
    aside, that no `callers` file reads.  A name is read by an `ast.Name` or an
    attribute that is loaded, not assigned; words in comments and docstrings do
    not count, nor do imports.  A `self.<name>` load outside the `library` files
    reads that file's own attribute, not a library name: a caller class's
    `self.stack` is no read of `Matrix.stack`."""
    library = list(_parsed(*library))
    library_paths, used = {path for path, _ in library}, set()
    for path, tree in _parsed(*callers):
        own = path in library_paths
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and (
                    own or not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                used.add(node.attr)
    return [f"{os.path.basename(path)}:{line} {name}"
            for path, tree in library for line, name in _definitions(tree)
            if not (name.startswith("__") and name.endswith("__")) and name not in used]


def test_every_library_function_has_a_caller():
    # a name is used when program code reads it: the library, the demos and
    # the benchmark; a function, class or class-body alias that only tests/
    # reaches belongs in tests/conftest.py
    assert _uncalled(["src/msgkit/*.py"], ["src/msgkit/*.py", "demos/*.py", "perfbench/*.py",
                                            "perfbench/tests/*.py"]) == []


def test_the_caller_scan_reports_a_class_body_alias_nothing_reads(tmp_path):
    # `alias = method` names the method a second time: the alias is reported
    # when nothing reads it, as a def would be, and the method counts as read
    # through it; a dunder alias and a plain class constant are not definitions,
    # and a caller's `self.alias` reads its own attribute, not the library's
    library, caller = tmp_path / "planted.py", tmp_path / "caller.py"
    library.write_text("class Thing:\n"
                       "    size = 3\n"
                       "\n"
                       "    def method(self):\n"
                       "        return self.size\n"
                       "\n"
                       "    alias = method\n"
                       "    __call__ = method\n", encoding="utf-8")
    files = [str(library), str(caller)]
    caller.write_text("print(Thing().method())\n", encoding="utf-8")
    assert _uncalled([str(library)], files) == ["planted.py:7 alias"]
    caller.write_text("print(Thing().alias())\n", encoding="utf-8")
    assert _uncalled([str(library)], files) == []
    caller.write_text("print(Thing)\n", encoding="utf-8")
    assert _uncalled([str(library)], files) == ["planted.py:7 alias"]
    caller.write_text("class Tracer:\n"
                      "    alias = 0\n"
                      "\n"
                      "    def run(self):\n"
                      "        return self.alias\n"
                      "\n"
                      "print(Thing().method(), Tracer().run())\n", encoding="utf-8")
    assert _uncalled([str(library)], files) == ["planted.py:7 alias"]


def test_sampling_seed_constant_is_written_once():
    # one seed rule for the library and the CLI: a second copy could drift
    count = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, "r", encoding="utf-8") as fh:
            count += len(re.findall(r"0x[aA]5[aA]5[aA]5[aA]5", fh.read()))
    assert count == 1


def test_cli_import_loads_neither_the_pool_nor_dataclasses():
    # every CLI process pays for what `import msgkit.cli` loads: the pool
    # module is imported where a pool starts, result records are plain
    # classes, and the package is its eight modules
    probe = ("import sys, msgkit.cli; "
             "print(sorted({'concurrent.futures', 'dataclasses'} & set(sys.modules))); "
             "print(sorted(name for name in sys.modules if name.split('.')[0] == 'msgkit'))")
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", str(["msgkit", *(f"msgkit.{name}" for name in (
        "cli", "fields", "matrices", "numerology", "polynomials", "symplectic", "tangent"))])]


def test_library_imports_only_what_it_reads():
    # an import no code reads is dead weight a refactor left behind; the
    # package's __init__ re-exports by importing, and __future__ imports are
    # directives
    unread = []
    for path, tree in _parsed("src/msgkit/*.py"):
        if os.path.basename(path) == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{os.path.basename(path)}:{node.lineno} {alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in read]
    assert unread == []


def test_only_the_budget_reads_the_environment():
    # MSGKIT_BUDGET is read where it is enforced, at the call: no function
    # takes a budget argument, so a second reader of the environment would be
    # a second place that decides it
    reads = []

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if ((isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
                or (isinstance(node, ast.Name) and node.id in ("environ", "getenv"))
                or (isinstance(node, ast.alias) and node.name in ("environ", "getenv"))):
            reads.append((os.path.basename(path), function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path, tree in _parsed("src/msgkit/*.py"):
        visit(tree, path, None)
    assert reads == [("symplectic.py", "enumeration_budget")]
