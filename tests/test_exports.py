"""Every name the package and its modules advertise in ``__all__`` exists."""

import importlib
import pkgutil

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
