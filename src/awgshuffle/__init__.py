"""Wavelength-routed (AWG-based) WDM shuffle networks.

Build a single cyclic wavelength router or a two-stage modular fabric
W(g, m, n), verify that its channel permutation equals the classical
perfect shuffle, analyze the wavelength-versus-cabling tradeoff across
factorizations, and serialize everything as JSON, DOT, or CSV.
"""

import importlib

from ._version import __version__

# The one list of the package's exports but ``__version__``, by module, and each
# module's ``__all__``. Importing the package loads none of them: a name is looked
# up in its module on each access and never cached here, so a name rebound in its
# module (by a monkeypatch or a tracer) is what it returns.
_PUBLIC = {
    "addressing": (
        "ChannelAddress", "mixed_radix_decode", "mixed_radix_encode", "render_digits",
    ),
    "analysis": (
        "CHECK_BIJECTIVITY", "CHECK_NAMES", "CHECK_ORACLE", "CHECK_WAVELENGTH_CONFLICTS",
        "CheckResult", "ResourceMetrics", "VerificationReport", "WavelengthConflict",
        "check_bijectivity", "check_oracle_equivalence", "check_wavelength_conflicts",
        "resource_metrics", "run_named_check", "tradeoff_table",
        "verify_shuffle_equivalence",
    ),
    "awg": (
        "AwgSpec", "awg_permutation", "awg_route", "awg_wavelength",
        "label_input_channel", "label_output_channel", "valid_input_wavelengths",
    ),
    "cli": ("cli_main",),
    "errors": (
        "DEFAULT_CHANNEL_CAP", "CapacityError", "DomainError", "IntegrityError",
        "InvalidChannelError", "ParseError", "ShuffleNetError",
    ),
    "serialize": (
        "SCHEMA_VERSION", "parse_topology", "serialize_report", "serialize_topology",
        "topology_document", "tradeoff_csv", "write_bytes",
    ),
    "shuffle": ("ShuffleSpec", "left_cyclic_shift", "shuffle_map", "shuffle_perm_decimal"),
    "topology": (
        "Locus", "NetworkParams", "RouteTrace", "Topology", "build_network",
        "fiber_wavelengths", "network_permutation", "trace", "trace_channel",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_HOME]


def _all_of(module: str) -> tuple[str, ...]:
    """``__all__`` of the module imported as ``module``: its ``__spec__.name``, no ``__main__``."""
    return _PUBLIC[module.rpartition(".")[2]]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _HOME.values():  # a submodule not imported yet, as ``awgshuffle.topology``
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_HOME.values()))
