import pytest

from awgshuffle import (
    AwgSpec,
    CapacityError,
    ChannelAddress,
    DomainError,
    NetworkParams,
    ShuffleSpec,
    awg_permutation,
    awg_route,
    build_network,
    label_input_channel,
    mixed_radix_decode,
    shuffle_perm_decimal,
    trace_channel,
    tradeoff_table,
)
from awgshuffle.errors import check_cap, check_positive

HUGE = 10**4000  # 4,001 digits: printable, but the product of two is not


class TestCheckCap:
    def test_silent_at_the_cap(self):
        check_cap("{count} over {cap}", 7, 7)

    def test_words_every_integer_of_the_template(self):
        with pytest.raises(CapacityError, match=r"^W\(1,2,4\) has 8 channels, over the cap of 7$"):
            check_cap("W({},{},{}) has {count} channels, over the cap of {cap}", 8, 7, 1, 2, 4)

    @pytest.mark.parametrize("digits", [4301, 8001, 10_000])
    def test_a_count_too_long_to_print_is_worded_by_its_digits(self, digits):
        for count in (10 ** (digits - 1), 10**digits - 1):
            with pytest.raises(CapacityError, match=rf"^<{digits} digits> over 1$"):
                check_cap("{count} over {cap}", count, 1)

    def test_a_dimension_too_long_to_print_is_worded_by_its_digits(self):
        with pytest.raises(DomainError, match=r"^g must be >= 1, got -<5001 digits>$"):
            check_positive("g", -(10**5000))


class TestHugeShapes:
    """Shapes whose channel count has more digits than ``str`` prints end in CapacityError."""

    def test_build(self):
        with pytest.raises(CapacityError, match=(
                rf"^W\({HUGE},{HUGE},3\) has <8001 digits> channels, over the cap of 1000000$")):
            build_network(HUGE, HUGE, 3)

    def test_router_permutation(self):
        with pytest.raises(CapacityError, match=(
                rf"^AwgSpec\({HUGE},{HUGE}\) has <8001 digits> channels, over the cap of 1000000$")):
            awg_permutation(AwgSpec(HUGE, HUGE))

    def test_shuffle_oracle(self):
        with pytest.raises(CapacityError, match=(
                rf"^S\({HUGE},{HUGE}\) has <8001 digits> ports, over the cap of 1000000$")):
            shuffle_perm_decimal(ShuffleSpec(HUGE, HUGE))

    def test_tradeoff_fanout(self):
        with pytest.raises(CapacityError, match=(
                r"^fanout l = <4401 digits> is over the cap of 1000000$")):
            tradeoff_table(2, 10**4400)


# a bool or a float compares as an int, but an index or radix must be an int exactly
@pytest.mark.parametrize("call, message", [
    (lambda: awg_route(AwgSpec(3, 3), 2.0, 0), "input port 2.0 out of range for 3-input device"),
    (lambda: mixed_radix_decode(2.0, (3, 3)),
     "index 2.0 out of range for radices (3, 3) (product 9)"),
    (lambda: label_input_channel(AwgSpec(3, 3), True, 0),
     "input port True out of range for 3-input device"),
    (lambda: trace_channel(NetworkParams(3, 2, 3), True, 0, 0),
     "group True out of range for 3 groups"),
    (lambda: mixed_radix_decode(0, (True, 3)), "radix at position 0 must be an integer, got True"),
    (lambda: ChannelAddress((0, 0), (3, 2.0)), "radix at position 1 must be an integer, got 2.0"),
], ids=["awg_route-2.0", "mixed_radix_decode-2.0", "label_input_channel-True",
        "trace_channel-True", "radix-True", "radix-2.0"])
def test_a_bool_or_float_index_or_radix_is_refused(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message
