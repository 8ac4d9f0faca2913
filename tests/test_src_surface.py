"""Every definition in src/critex is used somewhere in src/critex.

A function, class or method that only the tests call belongs in the tests
(see tests/_oracles.py).  Uses are matched by name: a Name, an Attribute or
an import alias anywhere in the package counts, whatever object it refers to.

The package also keeps to one numeric backend: numpy alone.  scipy serves only
the test oracles.  It writes 17-digit numbers in three places only: its
CSV writer, its printed numbers and its snapshot header.  And only the
certificate, which hashes its forcing on a worker thread, imports threading.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "critex"

# Kept only for perfbench, which times or records them (ROADMAP item 1).
BENCHMARK_HELD = {
    "kernels.backend_name",
    "kernels.reaction_rk4_plain",
    "kernels.reaction_rk4_forced",
    "kernels.reaction_rk4_tau",
    "semigroup.Propagator.apply_values",
    "semigroup.Propagator.laplacian_values",
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _definitions(module, tree):
    for node in filter(_is_def, tree.body):
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in filter(_is_def, node.body):
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def unused_definitions():
    defs, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs.extend(_definitions(path.stem, tree))
        used.update(_used_names(tree))
    return {qual for qual, name in defs if name not in used}


def test_every_definition_has_a_caller_in_src():
    assert unused_definitions() == BENCHMARK_HELD


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy":
                yield from (f"scipy.{alias.name}" for alias in node.names)
            else:
                yield node.module


def test_src_imports_no_scipy():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(name for name in _imported_modules(tree)
                     if name.split(".")[0] == "scipy")
    assert found == set(), found


def test_only_the_certificate_starts_threads():
    # the benchmark tracer keeps one span stack, so no traced function may
    # run on a second thread; certificate.stream_forcing's worker calls none
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(name.split(".")[0] in ("threading", "queue") for name in _imported_modules(tree)):
            found.add(path.name)
    assert found == {"certificate.py"}, found


def test_cli_import_loads_no_scipy():
    code = ("import sys, critex.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]", out.stdout


def test_seventeen_digit_format_has_one_home_per_format():
    # CSV tables go through config.csv_text, printed numbers through
    # cli._fmt, and field.py writes the snapshot header
    found = {path.name: path.read_text().count(".17g") for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in found.items() if n} == {
        "config.py": 1, "cli.py": 1, "field.py": 1}
