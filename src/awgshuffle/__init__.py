"""Wavelength-routed (AWG-based) WDM shuffle networks.

Build a single cyclic wavelength router or a two-stage modular fabric
W(g, m, n), verify that its channel permutation equals the classical
perfect shuffle, analyze the wavelength-versus-cabling tradeoff across
factorizations, and serialize everything as JSON, DOT, or CSV.
"""

from ._version import __version__
from .addressing import (
    ChannelAddress,
    mixed_radix_decode,
    mixed_radix_encode,
    render_digits,
)
from .analysis import (
    CHECK_BIJECTIVITY,
    CHECK_NAMES,
    CHECK_ORACLE,
    CHECK_WAVELENGTH_CONFLICTS,
    CheckResult,
    ResourceMetrics,
    VerificationReport,
    WavelengthConflict,
    check_bijectivity,
    check_oracle_equivalence,
    check_wavelength_conflicts,
    resource_metrics,
    run_named_check,
    tradeoff_table,
    verify_shuffle_equivalence,
)
from .awg import (
    AwgSpec,
    awg_permutation,
    awg_route,
    awg_wavelength,
    label_input_channel,
    label_output_channel,
    valid_input_wavelengths,
)
from .cli import cli_main
from .errors import (
    CapacityError,
    DomainError,
    IntegrityError,
    InvalidChannelError,
    ParseError,
    ShuffleNetError,
)
from .serialize import (
    SCHEMA_VERSION,
    parse_topology,
    serialize_report,
    serialize_topology,
    topology_document,
    tradeoff_csv,
    write_bytes,
)
from .shuffle import (
    ShuffleSpec,
    left_cyclic_shift,
    shuffle_map,
    shuffle_perm_decimal,
)
from .topology import (
    DEFAULT_CHANNEL_CAP,
    Cable,
    Locus,
    NetworkParams,
    RouteTrace,
    Topology,
    build_network,
    fiber_wavelengths,
    network_permutation,
    trace,
    trace_channel,
)

__all__ = [
    "CHECK_BIJECTIVITY",
    "CHECK_NAMES",
    "CHECK_ORACLE",
    "CHECK_WAVELENGTH_CONFLICTS",
    "DEFAULT_CHANNEL_CAP",
    "SCHEMA_VERSION",
    "AwgSpec",
    "Cable",
    "CapacityError",
    "ChannelAddress",
    "CheckResult",
    "DomainError",
    "IntegrityError",
    "InvalidChannelError",
    "Locus",
    "NetworkParams",
    "ParseError",
    "ResourceMetrics",
    "RouteTrace",
    "ShuffleNetError",
    "ShuffleSpec",
    "Topology",
    "VerificationReport",
    "WavelengthConflict",
    "__version__",
    "awg_permutation",
    "awg_route",
    "awg_wavelength",
    "build_network",
    "check_bijectivity",
    "check_oracle_equivalence",
    "check_wavelength_conflicts",
    "cli_main",
    "fiber_wavelengths",
    "label_input_channel",
    "label_output_channel",
    "left_cyclic_shift",
    "mixed_radix_decode",
    "mixed_radix_encode",
    "network_permutation",
    "parse_topology",
    "render_digits",
    "resource_metrics",
    "run_named_check",
    "serialize_report",
    "serialize_topology",
    "shuffle_map",
    "shuffle_perm_decimal",
    "topology_document",
    "trace",
    "trace_channel",
    "tradeoff_csv",
    "tradeoff_table",
    "valid_input_wavelengths",
    "verify_shuffle_equivalence",
    "write_bytes",
]
