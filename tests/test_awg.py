import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import awgshuffle.awg as awg_module
from awgshuffle import (
    DEFAULT_CHANNEL_CAP,
    AwgSpec,
    CapacityError,
    ChannelAddress,
    DomainError,
    InvalidChannelError,
    ShuffleSpec,
    awg_permutation,
    awg_route,
    awg_wavelength,
    label_input_channel,
    label_output_channel,
    shuffle_perm_decimal,
    valid_input_wavelengths,
)
from awgshuffle.awg import awg_route_rows

specs = st.builds(
    AwgSpec, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
)


class TestAwgSpec:
    def test_lambda_count_is_max_dimension(self):
        assert AwgSpec(3, 6).lambda_count == 6
        assert AwgSpec(6, 3).lambda_count == 6
        assert AwgSpec(4, 4).lambda_count == 4

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(DomainError):
            AwgSpec(0, 3)
        with pytest.raises(DomainError):
            AwgSpec(3, -1)


class TestRouting:
    def test_worked_example(self, awg36):
        assert awg_route(awg36, 1, 3) == 2

    def test_zero_case(self, awg36):
        assert awg_route(awg36, 0, 0) == 0
        assert awg_route(AwgSpec(1, 1), 0, 0) == 0

    def test_wraparound(self, awg36):
        # (1 - 2) mod 6 = 5; matches the exhaustive table below
        assert awg_route(awg36, 2, 1) == 5

    def test_matches_exhaustive_table(self, awg36):
        table = {(p, i): (i - p) % 6 for p in range(3) for i in range(6)}
        for (p, i), q in table.items():
            assert awg_route(awg36, p, i) == q

    def test_rejects_out_of_range_indices(self, awg36):
        with pytest.raises(DomainError, match="port 3"):
            awg_route(awg36, 3, 0)
        with pytest.raises(DomainError, match="wavelength index 6"):
            awg_route(awg36, 0, 6)

    def test_raw_result_can_exceed_outputs(self):
        # 4x2 device: wavelength 3 at input 0 lands on virtual output 3
        spec = AwgSpec(4, 2)
        assert awg_route(spec, 0, 3) == 3
        assert awg_route(spec, 0, 3) >= spec.outputs
        assert awg_route(spec, 0, 1) < spec.outputs


class TestWavelengthLookup:
    def test_worked_example(self):
        assert awg_wavelength(AwgSpec(3, 3), 1, 2) == 0

    def test_zero_case(self, awg36):
        assert awg_wavelength(awg36, 0, 0) == 0

    def test_round_trip_with_route(self, awg36):
        assert awg_wavelength(awg36, 2, 5) == 1
        assert awg_route(awg36, 2, 1) == 5

    @given(specs, st.data())
    def test_route_inverts_wavelength_everywhere(self, spec, data):
        p = data.draw(st.integers(0, spec.inputs - 1))
        q = data.draw(st.integers(0, spec.outputs - 1))
        assert awg_route(spec, p, awg_wavelength(spec, p, q)) == q

    def test_rejects_out_of_range_ports(self, awg36):
        with pytest.raises(DomainError):
            awg_wavelength(awg36, 3, 0)
        with pytest.raises(DomainError):
            awg_wavelength(awg36, 0, 6)


class TestRouteRow:
    @given(specs)
    @example(AwgSpec(5, 3))  # inputs > outputs: some wavelengths are dark at each input
    @example(AwgSpec(4, 4))
    @example(AwgSpec(3, 5))  # inputs < outputs
    @example(AwgSpec(1, 1))
    def test_row_is_the_scalar_calls(self, spec):
        # each input alone, and all of them as one block, flattened input-major
        whole = ([], [], [])
        for p in range(spec.inputs):
            carried = [awg_wavelength(spec, p, q) for q in range(spec.outputs)]
            row = ([p] * spec.outputs, carried, [awg_route(spec, p, w) for w in carried])
            assert awg_route_rows(spec, range(p, p + 1)) == row
            for block, part in zip(whole, row):
                block.extend(part)
        assert awg_route_rows(spec, range(spec.inputs)) == whole
        assert awg_route_rows(spec, range(0)) == ([], [], [])

    def test_rejects_out_of_range_input_with_the_scalar_message(self, awg36):
        # a range is validated by its ends
        for inputs, p in ((range(3, 4), 3), (range(-1, 0), -1), (range(1, 4), 3),
                          (range(-1, 3), -1)):
            with pytest.raises(DomainError) as row_err:
                awg_route_rows(awg36, inputs)
            with pytest.raises(DomainError) as scalar_err:
                awg_route(awg36, p, 0)
            assert str(row_err.value) == str(scalar_err.value) == (
                f"input port {p} out of range for 3-input device"
            )


class TestLabeling:
    def test_input_worked_example(self, awg36):
        assert label_input_channel(awg36, 1, 3) == ChannelAddress((1, 2), (3, 6))

    def test_input_zero(self, awg36):
        assert label_input_channel(awg36, 0, 0) == ChannelAddress((0, 0), (3, 6))

    def test_input_wraparound(self, awg36):
        # (0 - 2) mod 6 = 4 and awg_route(2, 0) == 4
        assert label_input_channel(awg36, 2, 0) == ChannelAddress((2, 4), (3, 6))
        assert awg_route(awg36, 2, 0) == 4

    def test_output_examples(self, awg36):
        assert label_output_channel(awg36, 2, 3) == ChannelAddress((2, 1), (6, 3))
        assert label_output_channel(awg36, 0, 0) == ChannelAddress((0, 0), (6, 3))
        assert label_output_channel(awg36, 1, 1) == ChannelAddress((1, 0), (6, 3))

    def test_input_label_rejects_dark_wavelength(self):
        spec = AwgSpec(4, 2)
        with pytest.raises(InvalidChannelError, match="wavelength 3"):
            label_input_channel(spec, 0, 3)

    def test_output_label_rejects_unreachable_wavelength(self):
        spec = AwgSpec(2, 4)
        # (3 - 0) mod 4 = 3 >= 2 inputs: nothing can send wavelength 3 to output 0
        with pytest.raises(InvalidChannelError, match="no originating input"):
            label_output_channel(spec, 0, 3)


class TestValidWavelengthSets:
    def test_all_wavelengths_live_when_outputs_dominate(self, awg36):
        for p in range(3):
            assert valid_input_wavelengths(awg36, p) == (0, 1, 2, 3, 4, 5)

    def test_input_sets_when_inputs_dominate(self):
        spec = AwgSpec(4, 2)
        assert valid_input_wavelengths(spec, 0) == (0, 1)
        assert valid_input_wavelengths(spec, 3) == (0, 3)

    def test_sets_match_routing_preimages(self):
        for inputs in range(1, 9):
            for outputs in range(1, 9):
                spec = AwgSpec(inputs, outputs)
                for p in range(inputs):
                    by_enumeration = tuple(
                        i
                        for i in range(spec.lambda_count)
                        if awg_route(spec, p, i) < outputs
                    )
                    assert valid_input_wavelengths(spec, p) == by_enumeration


class TestPermutation:
    def test_worked_entry(self, awg36):
        perm = awg_permutation(awg36)
        assert perm[ChannelAddress((1, 0), (3, 6))] == ChannelAddress((0, 1), (6, 3))

    def test_refuses_a_router_over_the_channel_cap(self):
        # 1,001,000 channels: refused before a single address is built
        assert DEFAULT_CHANNEL_CAP == 1_000_000
        with pytest.raises(CapacityError, match=(
                r"^AwgSpec\(1001,1000\) has 1001000 channels, over the cap of 1000000$")):
            awg_permutation(AwgSpec(1001, 1000))

    def test_identity_on_single_channel(self):
        perm = awg_permutation(AwgSpec(1, 1))
        assert perm == {
            ChannelAddress((0, 0), (1, 1)): ChannelAddress((0, 0), (1, 1))
        }

    def test_two_by_two_brute_forced(self):
        perm = awg_permutation(AwgSpec(2, 2))
        expected = {
            ChannelAddress((0, 0), (2, 2)): ChannelAddress((0, 0), (2, 2)),
            ChannelAddress((0, 1), (2, 2)): ChannelAddress((1, 0), (2, 2)),
            ChannelAddress((1, 0), (2, 2)): ChannelAddress((0, 1), (2, 2)),
            ChannelAddress((1, 1), (2, 2)): ChannelAddress((1, 1), (2, 2)),
        }
        assert perm == expected

    def test_digit_exchange_law_exhaustive(self):
        for inputs in range(1, 9):
            for outputs in range(1, 9):
                spec = AwgSpec(inputs, outputs)
                perm = awg_permutation(spec)
                assert len(perm) == inputs * outputs
                for src, dst in perm.items():
                    assert dst.digits == (src.digits[1], src.digits[0])
                    assert dst.radices == (outputs, inputs)

    def test_covers_every_input_channel_once(self, awg36):
        perm = awg_permutation(awg36)
        assert list(perm) == [
            ChannelAddress((p, low), (3, 6)) for p in range(3) for low in range(6)
        ]
        assert len(set(perm.values())) == 18

    def test_enumeration_and_labels_route_through_the_router_law(self, awg36, monkeypatch):
        # the permutation routes through the row law the fabric's build uses, once for
        # all inputs, and makes no scalar awg_route or awg_wavelength call
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)

            monkeypatch.setattr(awg_module, name, wrapper)

        def outputs(perm):
            return [perm[src].decimal for src in perm]

        route_rows = awg_module.awg_route_rows
        for name in ("awg_route_rows", "awg_route", "awg_wavelength"):
            counted(name, getattr(awg_module, name))
        shuffle = list(shuffle_perm_decimal(ShuffleSpec(3, 6)))  # a list, as ``outputs`` makes
        assert outputs(awg_permutation(awg36)) == shuffle
        assert calls == ["awg_route_rows"]

        # a row law that reads each input port off by one (wrapping at the 3 inputs)
        # still permutes the 18 channels, but not as S(3, 6)
        def misread(spec, inputs):
            ports, carried, _ = route_rows(spec, inputs)
            shifted = [(p + 1) % spec.inputs for p in ports]
            return ports, carried, awg_module._route_row(spec.lambda_count, shifted, carried)

        counted("awg_route_rows", misread)
        del calls[:]
        mutant = outputs(awg_permutation(awg36))
        assert calls == ["awg_route_rows"]
        assert sorted(mutant) == list(range(18))
        assert mutant != shuffle

    def test_per_wavelength_injectivity(self):
        for inputs in range(1, 9):
            for outputs in range(1, 9):
                spec = AwgSpec(inputs, outputs)
                for i in range(spec.lambda_count):
                    outs = [awg_route(spec, p, i) for p in range(inputs)]
                    assert len(set(outs)) == len(outs)

    def test_output_side_wavelength_distinctness(self):
        for inputs in range(1, 9):
            for outputs in range(1, 9):
                spec = AwgSpec(inputs, outputs)
                for q in range(outputs):
                    arriving = [awg_wavelength(spec, p, q) for p in range(inputs)]
                    assert len(set(arriving)) == len(arriving)
