"""Every name the package and its modules advertise in ``__all__`` exists,
every package export has a caller outside the unit tests, and every name
a module imports is used there or re-exported."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import awgshuffle

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(awgshuffle.__path__) if not name.startswith("_")
)


def test_module_exports_resolve():
    assert {"awg", "shuffle", "topology"} <= set(MODULES)
    missing = {}
    for name in MODULES:
        module = importlib.import_module(f"awgshuffle.{name}")
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if stale:
            missing[name] = stale
    assert missing == {}


def test_package_exports_resolve_once():
    assert [n for n in awgshuffle.__all__ if not hasattr(awgshuffle, n)] == []
    assert len(set(awgshuffle.__all__)) == len(awgshuffle.__all__)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used_or_exported():
    sources = sorted(Path(awgshuffle.__file__).parent.glob("*.py"))
    assert {"__init__.py", "__main__.py", "awg.py"} <= {path.name for path in sources}
    unused = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        idle = set(imported_names(tree)) - used - exported_names(tree)
        if idle:
            unused[path.name] = sorted(idle)
    assert unused == {}


def test_every_package_export_has_a_caller_outside_the_unit_tests():
    # A caller is a use in a package module (not an import, a definition
    # or an ``__all__`` entry), an import of the acceptance tests, or the
    # name anywhere in the benchmark, which resolves some names as strings.
    repo = Path(__file__).resolve().parents[1]
    used = set()
    for path in Path(awgshuffle.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    acceptance = repo / "tests" / "test_acceptance.py"
    used.update(imported_names(ast.parse(acceptance.read_text(encoding="utf-8"))))
    for path in (repo / "perfbench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert sorted(set(awgshuffle.__all__) - used) == []
