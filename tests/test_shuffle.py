import ast
from array import array
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import awgshuffle.shuffle as shuffle_module
from awgshuffle import (
    DEFAULT_CHANNEL_CAP,
    CapacityError,
    ChannelAddress,
    DomainError,
    ShuffleSpec,
    left_cyclic_shift,
    mixed_radix_decode,
    mixed_radix_encode,
    shuffle_map,
    shuffle_perm_decimal,
)

s36 = ShuffleSpec(3, 6)


class TestShuffleMap:
    def test_worked_example(self):
        assert shuffle_map(s36, ChannelAddress((1, 0), (3, 6))) == ChannelAddress(
            (0, 1), (6, 3)
        )

    def test_all_zero_fixed_point(self):
        assert shuffle_map(s36, ChannelAddress((0, 0), (3, 6))) == ChannelAddress(
            (0, 0), (6, 3)
        )

    def test_digit_swap(self):
        assert shuffle_map(s36, ChannelAddress((2, 5), (3, 6))) == ChannelAddress(
            (5, 2), (6, 3)
        )

    def test_rejects_radix_mismatch(self):
        with pytest.raises(DomainError):
            shuffle_map(s36, ChannelAddress((0, 0), (6, 3)))

    def test_bijective(self):
        images = {
            shuffle_map(s36, ChannelAddress((a, b), (3, 6)))
            for a in range(3)
            for b in range(6)
        }
        assert len(images) == 18

    def test_involution_when_square(self):
        spec = ShuffleSpec(4, 4)
        for a in range(4):
            for b in range(4):
                addr = ChannelAddress((a, b), (4, 4))
                assert shuffle_map(spec, shuffle_map(spec, addr)) == addr


class TestDecimalView:
    def test_worked_entry(self):
        # input 05 (decimal 5) lands on output 52 (decimal 5*3 + 0 = 15)
        assert shuffle_perm_decimal(s36)[5] == 15

    def test_degenerate(self):
        assert list(shuffle_perm_decimal(ShuffleSpec(1, 1))) == [0]

    def test_two_by_two(self):
        assert list(shuffle_perm_decimal(ShuffleSpec(2, 2))) == [0, 2, 1, 3]

    def test_is_a_new_array_of_words(self):
        # an array('I') compares with the fabric's views word for word
        perm = shuffle_perm_decimal(ShuffleSpec(3, 6))
        assert type(perm) is array and perm.typecode == "I"
        assert perm == array("I", [0, 3, 6, 9, 12, 15, 1, 4, 7, 10, 13, 16, 2, 5, 8, 11, 14, 17])
        perm[0] = 5  # each call makes its own
        assert shuffle_perm_decimal(ShuffleSpec(3, 6))[0] == 0

    def test_is_bijection_with_end_fixed_points(self):
        # verify passes bijectivity on the oracle's word, so the oracle must
        # be a permutation on every S(g, m*n) verified: the 6 x 6 grid, the
        # tier-1 sweep of g, m, n <= 6, the benchmark's verify ladder, the
        # cap W(100,100,100), g = 1, l = 1 and g > l
        grid = product(range(1, 7), repeat=2)
        sweep = ((g, m * n) for g, m, n in product(range(1, 7), repeat=3))
        ladder = [(8, 64), (10, 100), (12, 144), (16, 256), (24, 576), (32, 1024),
                  (8, 128), (2, 256), (12, 1152), (64, 128), (32, 32), (16, 32),
                  (48, 12), (1, 1024)]  # (8, 64, 1) repeats (8, 64)
        edges = [(100, 10000), (1, 1), (1, 97), (97, 1), (7, 2), (100, 3)]
        for g, l in {*grid, *sweep, *ladder, *edges}:
            perm = shuffle_perm_decimal(ShuffleSpec(g, l))
            n = g * l
            assert sorted(perm) == list(range(n)), (g, l)
            assert perm[0] == 0
            assert perm[n - 1] == n - 1

    def test_agrees_with_digit_view(self):
        for g in range(1, 7):
            for l in range(1, 7):
                spec = ShuffleSpec(g, l)
                perm = shuffle_perm_decimal(spec)
                for a in range(g):
                    for b in range(l):
                        addr = ChannelAddress((a, b), (g, l))
                        mapped = shuffle_map(spec, addr)
                        assert perm[addr.decimal] == mixed_radix_encode(
                            mapped.digits, mapped.radices
                        )

    def test_rejects_bad_spec(self):
        with pytest.raises(DomainError):
            ShuffleSpec(0, 4)

    def test_capped_at_the_channel_cap(self):
        assert len(shuffle_perm_decimal(ShuffleSpec(1, DEFAULT_CHANNEL_CAP))) == (
            DEFAULT_CHANNEL_CAP
        )
        with pytest.raises(CapacityError, match="over the cap of 1000000"):
            shuffle_perm_decimal(ShuffleSpec(2, DEFAULT_CHANNEL_CAP // 2 + 1))


class TestLeftCyclicShift:
    def test_worked_example(self):
        assert left_cyclic_shift(
            ChannelAddress((1, 0, 2), (3, 2, 3))
        ) == ChannelAddress((0, 2, 1), (2, 3, 3))

    def test_all_zero(self):
        assert left_cyclic_shift(
            ChannelAddress((0, 0, 0), (3, 2, 3))
        ) == ChannelAddress((0, 0, 0), (2, 3, 3))

    def test_rotation(self):
        assert left_cyclic_shift(
            ChannelAddress((2, 1, 2), (3, 2, 3))
        ) == ChannelAddress((1, 2, 2), (2, 3, 3))

    def test_rejects_two_digit_address(self):
        with pytest.raises(DomainError):
            left_cyclic_shift(ChannelAddress((1, 0), (3, 6)))

    @given(
        st.tuples(
            st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
        ).flatmap(
            lambda radices: st.tuples(
                *(st.integers(0, r - 1) for r in radices)
            ).map(lambda digits: ChannelAddress(digits, radices))
        )
    )
    def test_triple_shift_is_identity(self, addr):
        assert left_cyclic_shift(left_cyclic_shift(left_cyclic_shift(addr))) == addr


class TestLeftCyclicShiftDecimal:
    """Over (g, m, n) the left cyclic shift (a, b, c) -> (b, c, a) is, on
    decimal indices, the shuffle S(g, m*n): the oracle's array and the
    digit form that words its counterexamples are one map."""

    @staticmethod
    def assert_agrees(g, m, n):
        radices = (g, m, n)
        perm = shuffle_perm_decimal(ShuffleSpec(g, m * n))
        assert len(perm) == g * m * n
        for index, image in enumerate(perm):
            addr = ChannelAddress(mixed_radix_decode(index, radices), radices)
            assert image == left_cyclic_shift(addr).decimal

    def test_worked_entry(self):
        # input 102 (decimal 8) lands on output 021 (decimal (0*3 + 2)*3 + 1 = 7)
        assert shuffle_perm_decimal(ShuffleSpec(3, 2 * 3))[8] == 7

    def test_agrees_with_digit_view(self):
        for radices in [
            (1, 1, 1), (3, 2, 3), (4, 3, 2), (2, 5, 1), (1, 4, 3), (5, 1, 3), (7, 2, 1)
        ]:
            self.assert_agrees(*radices)

    def test_is_the_shuffle_over_the_group_digit(self):
        # every (g, m, n) address, g, m, n <= 6
        for g in range(1, 7):
            for m in range(1, 7):
                for n in range(1, 7):
                    self.assert_agrees(g, m, n)


class TestIndependence:
    """The oracle and the fabric it judges share no code path."""

    ROUTER_MODEL = {"awg", "topology", "analysis"}

    @staticmethod
    def imported_names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                yield base
                # `from . import awg` names a module in its alias
                yield from (f"{base}.{alias.name}" for alias in node.names)

    def test_shuffle_imports_nothing_from_the_router_model(self):
        tree = ast.parse(Path(shuffle_module.__file__).read_text(encoding="utf-8"))
        imported = list(self.imported_names(tree))
        assert "errors.DEFAULT_CHANNEL_CAP" in imported  # the walk sees relative imports
        assert [name for name in imported if self.ROUTER_MODEL & set(name.split("."))] == []
