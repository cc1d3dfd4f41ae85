"""Every name the package and its modules advertise in ``__all__`` exists,
each module exports exactly its names in the package's table, every
package export has a caller outside the unit tests, every name a
module imports is used there or re-exported, every private helper a
module defines is read somewhere in the package, and the package, which
imports its modules lazily, returns what an eager one would."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module", sorted(set(awgshuffle._HOME.values())))
def test_each_module_exports_exactly_its_names_in_the_table(module):
    names = sorted(name for name, home in awgshuffle._HOME.items() if home == module)
    assert sorted(importlib.import_module(f"awgshuffle.{module}").__all__) == names
    bound = {}
    exec(f"from awgshuffle.{module} import *", bound)
    assert sorted(set(bound) - {"__builtins__"}) == names


def test_a_module_run_as_main_reads_its_names_by_its_import_name(child_env):
    done = subprocess.run([sys.executable, "-m", "awgshuffle.cli"], env=child_env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_package_exports_resolve_once():
    assert [n for n in awgshuffle.__all__ if not hasattr(awgshuffle, n)] == []
    assert len(set(awgshuffle.__all__)) == len(awgshuffle.__all__)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def exported_names(path):
    """The ``__all__`` of the module in ``path``, read at run time: the package derives its own."""
    name = awgshuffle.__name__ if path.stem == "__init__" else f"awgshuffle.{path.stem}"
    return set(getattr(importlib.import_module(name), "__all__", ()))


def test_every_import_is_used_or_exported():
    sources = sorted(Path(awgshuffle.__file__).parent.glob("*.py"))
    assert {"__init__.py", "__main__.py", "awg.py"} <= {path.name for path in sources}
    unused = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        idle = set(imported_names(tree)) - used - exported_names(path)
        if idle:
            unused[path.name] = sorted(idle)
    assert unused == {}


def loaded_names(tree):
    """Every name ``tree`` reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_package_export_has_a_caller_outside_the_unit_tests():
    # A caller is a use in a package module (not an import, a definition
    # or an ``__all__`` entry), an import of the acceptance tests, or the
    # name anywhere in the benchmark, which resolves some names as strings.
    repo = Path(__file__).resolve().parents[1]
    used = set()
    for path in Path(awgshuffle.__file__).parent.glob("*.py"):
        used.update(loaded_names(ast.parse(path.read_text(encoding="utf-8"))))
    acceptance = repo / "tests" / "test_acceptance.py"
    used.update(imported_names(ast.parse(acceptance.read_text(encoding="utf-8"))))
    for path in (repo / "perfbench").glob("*.py"):
        used.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert sorted(set(awgshuffle.__all__) - used) == []


def defined_names(tree):
    """The names a module's own top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_every_private_helper_is_loaded_in_the_package():
    # a helper a refactor left behind is defined but never read
    loaded, private = set(), set()
    for path in Path(awgshuffle.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded.update(loaded_names(tree))
        private.update((path.name, name) for name in defined_names(tree) if name.startswith("_")
                       and not (name.startswith("__") and name.endswith("__")))
    assert ("analysis.py", "_fiber_keys") in private
    assert sorted(entry for entry in private if entry[1] not in loaded) == []


class TestLazyPackage:
    """The package resolves each export in its module on access, as an eager one would."""

    def test_dir_lists_every_export(self):
        assert set(awgshuffle.__all__) <= set(dir(awgshuffle))

    def test_star_import_binds_each_module_attribute(self):
        bound = {}
        exec("from awgshuffle import *", bound)
        assert sorted(set(bound) - {"__builtins__"}) == sorted(awgshuffle.__all__)
        assert len(awgshuffle.__all__) == 55
        modules = [vars(importlib.import_module(f"awgshuffle.{name}"))
                   for name in MODULES + ["_version"]]
        for name in awgshuffle.__all__:
            held = [module[name] for module in modules if name in module]
            assert held and all(value is bound[name] for value in held), name

    def test_submodules_resolve_as_attributes(self):
        for name in MODULES:
            assert awgshuffle.__getattr__(name) is importlib.import_module(f"awgshuffle.{name}")

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError) as caught:
            awgshuffle.no_such_name
        assert str(caught.value) == "module 'awgshuffle' has no attribute 'no_such_name'"
        assert not hasattr(awgshuffle, "no_such_name")

    def test_a_name_rebound_in_its_module_is_not_cached(self, monkeypatch):
        topology = importlib.import_module("awgshuffle.topology")
        original = topology.build_network
        assert awgshuffle.build_network is original

        def fake(*args):
            raise AssertionError("unused")

        with monkeypatch.context() as patch:
            patch.setattr(topology, "build_network", fake)
            assert awgshuffle.build_network is fake
        assert awgshuffle.build_network is original
        assert "build_network" not in vars(awgshuffle)
