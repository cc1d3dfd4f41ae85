import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from awgshuffle import (
    AwgSpec,
    ChannelAddress,
    CheckResult,
    DomainError,
    Locus,
    NetworkParams,
    ResourceMetrics,
    RouteTrace,
    ShuffleSpec,
    Topology,
    VerificationReport,
    WavelengthConflict,
    mixed_radix_decode,
    mixed_radix_encode,
    render_digits,
)


def test_encode_positional_value():
    # 1*6 + 0*3 + 2, cross-checked by decode round trip below
    assert mixed_radix_encode((1, 0, 2), (3, 2, 3)) == 8


def test_encode_all_zero():
    assert mixed_radix_encode((0, 0, 0), (3, 2, 3)) == 0
    assert mixed_radix_encode((0, 0), (7, 7)) == 0


def test_decode_max_index():
    # 17 = product - 1
    assert mixed_radix_decode(17, (3, 2, 3)) == (2, 1, 2)


def test_decode_of_encode_example():
    assert mixed_radix_decode(8, (3, 2, 3)) == (1, 0, 2)


def test_encode_rejects_out_of_range_digit():
    with pytest.raises(DomainError):
        mixed_radix_encode((3, 0), (3, 6))
    with pytest.raises(DomainError):
        mixed_radix_encode((0, -1), (3, 6))


def test_encode_rejects_length_mismatch():
    with pytest.raises(DomainError):
        mixed_radix_encode((1, 2, 3), (3, 6))


def test_decode_rejects_out_of_range_index():
    with pytest.raises(DomainError):
        mixed_radix_decode(18, (3, 2, 3))
    with pytest.raises(DomainError):
        mixed_radix_decode(-1, (3, 2, 3))


def test_decode_rejects_a_radix_below_one():
    with pytest.raises(DomainError, match=r"^radix at position 0 must be >= 1, got 0$"):
        mixed_radix_decode(0, (0, 2))


@st.composite
def digits_with_radices(draw):
    radices = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    digits = tuple(draw(st.integers(0, r - 1)) for r in radices)
    return digits, tuple(radices)


@given(digits_with_radices())
def test_encode_decode_round_trip(case):
    digits, radices = case
    assert mixed_radix_decode(mixed_radix_encode(digits, radices), radices) == digits


class TestChannelAddress:
    def test_accepts_lists_and_stores_tuples(self):
        addr = ChannelAddress([1, 0, 2], [3, 2, 3])
        assert addr.digits == (1, 0, 2)
        assert addr.radices == (3, 2, 3)

    def test_decimal(self):
        assert ChannelAddress((1, 0, 2), (3, 2, 3)).decimal == 8

    def test_is_hashable(self):
        a = ChannelAddress((1, 0), (3, 6))
        b = ChannelAddress((1, 0), (3, 6))
        assert {a: 1}[b] == 1

    def test_rejects_wrong_digit_count(self):
        with pytest.raises(DomainError):
            ChannelAddress((1,), (3,))
        with pytest.raises(DomainError):
            ChannelAddress((1, 2, 0, 0), (3, 3, 3, 3))

    def test_rejects_digit_out_of_radix(self):
        with pytest.raises(DomainError):
            ChannelAddress((6, 0), (3, 6))

    def test_str_concatenated_for_small_radices(self):
        assert str(ChannelAddress((1, 0, 2), (3, 2, 3))) == "102"
        assert str(ChannelAddress((1, 2), (3, 6))) == "12"

    def test_str_dot_separated_for_large_radices(self):
        assert str(ChannelAddress((11, 0), (12, 5))) == "11.0"
        assert str(ChannelAddress((0, 10, 3), (2, 11, 4))) == "0.10.3"


def test_render_digits_boundary_radix_ten():
    assert render_digits((9, 9), (10, 10)) == "99"
    assert render_digits((10, 0), (11, 3)) == "10.0"


_A, _B, _C = (ChannelAddress((1, 0, 2), (3, 2, 3)), ChannelAddress((0, 1, 2), (2, 3, 3)),
              ChannelAddress((0, 2, 1), (2, 3, 3)))
_IN = (ChannelAddress((0, 0, 1), (1, 2, 2)), ChannelAddress((0, 1, 1), (1, 2, 2)))

# each value type: its constructor arguments by name, in order, and its repr
VALUE_TYPES = [
    (ChannelAddress, dict(digits=(1, 0, 2), radices=(3, 2, 3)),
     "ChannelAddress(digits=(1, 0, 2), radices=(3, 2, 3))"),
    (AwgSpec, dict(inputs=3, outputs=6), "AwgSpec(inputs=3, outputs=6, lambda_count=6)"),
    (ShuffleSpec, dict(g=3, l=6), "ShuffleSpec(g=3, l=6)"),
    (NetworkParams, dict(g=3, m=2, n=3), "NetworkParams(g=3, m=2, n=3)"),
    (Locus, dict(device=1, port=0, wavelength=2), "Locus(device=1, port=0, wavelength=2)"),
    (RouteTrace, dict(input_addr=_A, middle_addr=_B, output_addr=_C, wavelength=2),
     "RouteTrace(input_addr=ChannelAddress(digits=(1, 0, 2), radices=(3, 2, 3)), "
     "middle_addr=ChannelAddress(digits=(0, 1, 2), radices=(2, 3, 3)), "
     "output_addr=ChannelAddress(digits=(0, 2, 1), radices=(2, 3, 3)), wavelength=2)"),
    (Topology, dict(params=NetworkParams(1, 1, 2), outputs=(0, 1), wavelengths=(0, 1)),
     "Topology(params=NetworkParams(g=1, m=1, n=2), outputs=(0, 1), wavelengths=(0, 1))"),
    (CheckResult, dict(name="bijectivity", passed=False, counterexample="output 00 is reached twice"),
     "CheckResult(name='bijectivity', passed=False, counterexample='output 00 is reached twice')"),
    (WavelengthConflict, dict(fiber="input 00", wavelength=1, first=_IN[0], second=_IN[1]),
     "WavelengthConflict(fiber='input 00', wavelength=1, "
     "first=ChannelAddress(digits=(0, 0, 1), radices=(1, 2, 2)), "
     "second=ChannelAddress(digits=(0, 1, 1), radices=(1, 2, 2)))"),
    (ResourceMetrics, dict(wavelength_count=3, awg_count=2, awg_inputs=3, awg_outputs=3,
                           cable_count=6, channel_count=18),
     "ResourceMetrics(wavelength_count=3, awg_count=2, awg_inputs=3, awg_outputs=3, "
     "cable_count=6, channel_count=18)"),
    (VerificationReport, dict(params=NetworkParams(1, 1, 1), passed=True,
                              checks=(CheckResult("bijectivity", True),), permutation_size=1,
                              matched=1),
     "VerificationReport(params=NetworkParams(g=1, m=1, n=1), passed=True, "
     "checks=(CheckResult(name='bijectivity', passed=True, counterexample=None),), "
     "permutation_size=1, matched=1)"),
]


@pytest.mark.parametrize("cls, kwargs, text", VALUE_TYPES,
                         ids=[case[0].__name__ for case in VALUE_TYPES])
def test_value_type_contract(cls, kwargs, text):
    value = cls(*kwargs.values())
    assert repr(value) == text
    assert cls(**kwargs) == value and hash(cls(**kwargs)) == hash(value)
    assert cls.__match_args__ == tuple(kwargs)
    assert tuple(inspect.signature(cls).parameters) == cls.__match_args__
    # equal fields, another class: a subclass with no fields of its own
    twin = type(cls.__name__, (cls,), {})(*kwargs.values())
    assert twin != value and value != twin
    name = next(iter(kwargs))
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
        delattr(value, name)
    assert repr(value) == text


def test_value_type_defaults_and_derived_fields(monkeypatch):
    assert CheckResult("bijectivity", True) == CheckResult("bijectivity", True, None)
    assert repr(CheckResult(name="bijectivity", passed=True)) == (
        "CheckResult(name='bijectivity', passed=True, counterexample=None)")
    with pytest.raises(TypeError, match="lambda_count"):
        AwgSpec(3, 3, lambda_count=3)
    with pytest.raises(AttributeError, match="^cannot assign to field 'lambda_count'$"):
        AwgSpec(3, 3).lambda_count = 4
    # the constructor looks __post_init__ up when it runs, so a patch on the class counts
    seen = []
    monkeypatch.setattr(ChannelAddress, "__post_init__", lambda self: seen.append(self.digits))
    ChannelAddress((1, 0), (2, 2))
    assert seen == [(1, 0)]
