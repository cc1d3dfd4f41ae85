"""The error contract: a caller's integer ends in a ShuffleNetError or a result.

Every public callable that takes an integer (a dimension, index, digit,
radix or cap) is driven with the same values, among them integers too
long for ``str`` to print. What it refuses, it refuses with a
ShuffleNetError, which words such an integer as ``<k digits>``; no other
exception may escape. Returning is allowed: ``resource_metrics`` and
``trace_channel`` accept dimensions of any size.

No case builds more than 10**4 channels or starts a process: the cap is
passed only where the call refuses it.
The file also runs under ``python -X int_max_str_digits=640``, where
10**4000 does not print either.
"""

import inspect
import re

import pytest

import awgshuffle
from awgshuffle import (
    DEFAULT_CHANNEL_CAP,
    AwgSpec,
    ChannelAddress,
    NetworkParams,
    ShuffleNetError,
    ShuffleSpec,
    Topology,
    awg_permutation,
    awg_route,
    awg_wavelength,
    build_network,
    check_bijectivity,
    fiber_wavelengths,
    label_input_channel,
    label_output_channel,
    left_cyclic_shift,
    mixed_radix_decode,
    mixed_radix_encode,
    resource_metrics,
    shuffle_map,
    shuffle_perm_decimal,
    trace,
    trace_channel,
    tradeoff_table,
    valid_input_wavelengths,
    verify_shuffle_equivalence,
)

# 10**4000 has 4,001 digits and prints at the default limit; 10**5000 does not.
# Explicit ids: pytest would word an int id with str().
VALUES = [0, -1, True, 2.0, DEFAULT_CHANNEL_CAP, DEFAULT_CHANNEL_CAP + 1, 10**4000, 10**5000]
VALUE_IDS = ["0", "-1", "True", "2.0", "cap", "cap+1", "10**4000", "10**5000"]

SPEC33 = AwgSpec(3, 3)
W323 = NetworkParams(3, 2, 3)
W323_FABRIC = build_network(3, 2, 3)
ADDR33 = ChannelAddress((0, 0), (3, 3))
ADDR22 = (ChannelAddress((0, 0), (2, 2)), ChannelAddress((0, 1), (2, 2)))

# "name-parameter" or "name-parameter-what": the parameter of the _HOME callable
# (or of a method of one, dotted) that ``v`` reaches, and the call that drives it
CASES = {
    "ChannelAddress-digits": lambda v: ChannelAddress((v, 0), (3, 3)),
    "ChannelAddress-radices": lambda v: ChannelAddress((0, 0), (v, 3)),
    "mixed_radix_decode-index": lambda v: mixed_radix_decode(v, (3, 3)),
    # an index out of range words the radices and their product
    "mixed_radix_decode-radices": lambda v: mixed_radix_decode(-1, (v, 3)),
    "mixed_radix_decode-radices-one": lambda v: mixed_radix_decode(-1, [v]),
    "mixed_radix_encode-digits": lambda v: mixed_radix_encode((v, 0), (3, 3)),
    "mixed_radix_encode-radices": lambda v: mixed_radix_encode((0, 0), (v, 3)),
    "resource_metrics-g": lambda v: resource_metrics(v, 2, 3),
    "resource_metrics-m": lambda v: resource_metrics(3, v, 3),
    "resource_metrics-n": lambda v: resource_metrics(3, 2, v),
    "tradeoff_table-g": lambda v: tradeoff_table(v, 12),
    "tradeoff_table-l": lambda v: tradeoff_table(2, v),
    # g*m*n is twice the cap or more, or a dimension is refused, before a build
    "verify_shuffle_equivalence-g": lambda v: verify_shuffle_equivalence(v, 2, 1),
    "verify_shuffle_equivalence-m": lambda v: verify_shuffle_equivalence(2, v, 1),
    "verify_shuffle_equivalence-n": lambda v: verify_shuffle_equivalence(2, 1, v),
    "check_bijectivity-perm": lambda v: check_bijectivity(
        {ADDR22[0]: ChannelAddress((0, 0), (v, 3)), ADDR22[1]: ADDR33}),
    # one entry against an output space of 3v: not onto, decided without sizing the space
    "check_bijectivity-perm-alone": lambda v: check_bijectivity(
        {ChannelAddress((0, 0), (1, 1)): ChannelAddress((0, 0), (v, 3))}),
    "AwgSpec-inputs": lambda v: AwgSpec(v, 3),
    "AwgSpec-outputs": lambda v: AwgSpec(3, v),
    "awg_route-p": lambda v: awg_route(SPEC33, v, 0),
    "awg_route-i": lambda v: awg_route(SPEC33, 0, v),
    "awg_route-spec": lambda v: awg_route(AwgSpec(3, v), 0, v - 1),
    "awg_wavelength-p": lambda v: awg_wavelength(SPEC33, v, 0),
    "awg_wavelength-q": lambda v: awg_wavelength(SPEC33, 0, v),
    "label_input_channel-p": lambda v: label_input_channel(SPEC33, v, 0),
    "label_input_channel-i": lambda v: label_input_channel(SPEC33, 0, v),
    "label_input_channel-spec-dark": lambda v: label_input_channel(AwgSpec(v, 3), 0, v - 1),
    "label_output_channel-q": lambda v: label_output_channel(SPEC33, v, 0),
    "label_output_channel-k": lambda v: label_output_channel(SPEC33, 0, v),
    "label_output_channel-spec-dark": lambda v: label_output_channel(AwgSpec(3, v), 0, v - 1),
    "valid_input_wavelengths-p": lambda v: valid_input_wavelengths(SPEC33, v),
    # inputs*outputs is twice the cap or more
    "awg_permutation-spec-inputs": lambda v: awg_permutation(AwgSpec(v, 2)),
    "awg_permutation-spec-outputs": lambda v: awg_permutation(AwgSpec(2, v)),
    "ShuffleSpec-g": lambda v: ShuffleSpec(v, 3),
    "ShuffleSpec-l": lambda v: ShuffleSpec(3, v),
    "shuffle_perm_decimal-spec": lambda v: shuffle_perm_decimal(ShuffleSpec(v, 2)),
    "shuffle_map-spec": lambda v: shuffle_map(ShuffleSpec(v, 3), ADDR33),
    "shuffle_map-addr": lambda v: shuffle_map(ShuffleSpec(3, 3), ChannelAddress((0, 0), (v, 3))),
    "left_cyclic_shift-addr": lambda v: left_cyclic_shift(ChannelAddress((0, 0, 0), (v, 2, 3))),
    "NetworkParams-g": lambda v: NetworkParams(v, 2, 3),
    "NetworkParams-m": lambda v: NetworkParams(3, v, 3),
    "NetworkParams-n": lambda v: NetworkParams(3, 2, v),
    "Topology-params": lambda v: Topology(NetworkParams(v, 1, 1), (), ()),
    "Topology-outputs": lambda v: Topology(NetworkParams(1, 1, 1), (v,), (0,)),
    "Topology-wavelengths": lambda v: Topology(NetworkParams(1, 1, 1), (0,), (v,)),
    "Topology.fiber_wavelengths-group": lambda v: W323_FABRIC.fiber_wavelengths(v, 0),
    "Topology.fiber_wavelengths-port": lambda v: W323_FABRIC.fiber_wavelengths(0, v),
    "Topology.channel-index": lambda v: W323_FABRIC.channel(v),
    # as for verify: g*m*n is twice the cap or more, or a dimension is refused, before a build
    "build_network-g": lambda v: build_network(v, 2, 1),
    "build_network-m": lambda v: build_network(2, v, 1),
    "build_network-n": lambda v: build_network(2, 1, v),
    "fiber_wavelengths-group": lambda v: fiber_wavelengths(W323, v),
    "fiber_wavelengths-params": lambda v: fiber_wavelengths(NetworkParams(v, 2, 3), 0),
    "trace-group": lambda v: trace(W323_FABRIC, v, 0, 0),
    "trace-port": lambda v: trace(W323_FABRIC, 0, v, 0),
    "trace-wavelength": lambda v: trace(W323_FABRIC, 0, 0, v),
    "trace_channel-group": lambda v: trace_channel(W323, v, 0, 0),
    "trace_channel-port": lambda v: trace_channel(W323, 0, v, 0),
    "trace_channel-wavelength": lambda v: trace_channel(W323, 0, 0, v),
    "trace_channel-params": lambda v: trace_channel(NetworkParams(v, v, v), 0, 0, 0),
    # a dark wavelength, the carried set named in full (n <= 16) and by its ends
    "trace_channel-params-dark": lambda v: trace_channel(NetworkParams(v, 1, 3), 0, 0, v - 1),
    "trace_channel-params-dark-runs": lambda v: trace_channel(
        NetworkParams(v, 1, 17), v - 1, 0, 17),
}


def _int_parameters(obj):
    return [name for name, param in inspect.signature(obj).parameters.items()
            if re.search(r"\bint\b", str(param.annotation))]


# value types that hold what they are given and check nothing: each integer field a case
RECORDS = ("Locus", "RouteTrace", "ResourceMetrics", "VerificationReport", "WavelengthConflict")
for _name in RECORDS:
    _cls = getattr(awgshuffle, _name)
    for _field in _int_parameters(_cls):
        CASES[f"{_name}-{_field}"] = lambda v, cls=_cls, field=_field: cls(
            **{name: v if name == field else None for name in cls.__match_args__})

# callables that take an integer but only print it: they refuse nothing
PRINTERS = {"render_digits-digits", "render_digits-radices"}


def _public_callables():
    """Each callable of ``_HOME`` but the exception types, and each public method of a
    class among them, by its dotted name."""
    for name in awgshuffle._HOME:
        obj = getattr(awgshuffle, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        yield name, obj
        if isinstance(obj, type):
            yield from ((f"{name}.{attr}", method) for attr in dir(obj) if not attr.startswith("_")
                        and inspect.isfunction(method := getattr(obj, attr)))


def _resolve(dotted):
    obj = awgshuffle
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class TestCaseTable:
    def test_every_integer_parameter_of_the_package_has_a_case(self):
        needed = {f"{name}-{param}" for name, obj in _public_callables()
                  for param in _int_parameters(obj)}
        covered = {"-".join(case.split("-")[:2]) for case in CASES} | PRINTERS
        assert needed - covered == set()
        assert len(needed) > 50

    def test_every_case_names_a_parameter_of_a_public_callable(self):
        for case in [*CASES, *PRINTERS]:
            name, param = case.split("-")[:2]
            assert name.split(".")[0] in awgshuffle._HOME, case
            assert param in inspect.signature(_resolve(name)).parameters, case

    def test_records_check_nothing(self):
        for name in RECORDS:
            assert not hasattr(getattr(awgshuffle, name), "__post_init__"), name


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("case", CASES)
def test_only_package_errors_escape(case, value):
    try:
        CASES[case](value)
    except ShuffleNetError:
        pass  # refused in the package's terms; any other exception fails the test
