import copy
import gc
import inspect
import pickle
import subprocess
import sys
import weakref
from array import array

import pytest
from conftest import FRESH_PYTHON
from hypothesis import example, given, settings
from hypothesis import strategies as st

import awgshuffle.awg as awg_module
import awgshuffle.topology as topology
from awgshuffle import (
    AwgSpec,
    CapacityError,
    ChannelAddress,
    DomainError,
    InvalidChannelError,
    Locus,
    NetworkParams,
    ShuffleSpec,
    Topology,
    awg_permutation,
    awg_route,
    awg_wavelength,
    build_network,
    fiber_wavelengths,
    label_input_channel,
    label_output_channel,
    mixed_radix_decode,
    network_permutation,
    shuffle_perm_decimal,
    trace,
    trace_channel,
    tradeoff_table,
    verify_shuffle_equivalence,
)
from awgshuffle.awg import awg_route_rows

P323 = NetworkParams(3, 2, 3)


def addr(digits, radices):
    return ChannelAddress(digits, radices)


def reference_arrays(g, m, n):
    """``outputs`` and ``wavelengths`` of W(g, m, n), one routed channel at a time.

    A test-only reference: every channel goes through its own cable and
    its own :func:`awg_route` call, with no sharing between routers.
    """
    params = NetworkParams(g, m, n)
    awg_spec = params.awg_spec
    lambdas = params.lambda_count
    outputs: list[int] = []
    wavelengths: list[int] = []
    for a in range(g):
        carried = [awg_wavelength(awg_spec, a, c) for c in range(n)]
        for b in range(m):
            awg, awg_input = b, a  # the wiring law
            for w in carried:
                q = awg_route(awg_spec, awg_input, w)
                origin = (w - q) % lambdas
                if q >= n or origin >= g:
                    label_input_channel(awg_spec, awg_input, w)
                    label_output_channel(awg_spec, q, w)
                outputs.append((awg * n + q) * g + origin)
            wavelengths.extend(carried)
    return outputs, wavelengths


def row_with_route(route):
    """:func:`awg_route_rows` with its routing law replaced by ``route(spec, p, i)``."""
    def row(spec, inputs):
        ports, carried, _ = awg_route_rows(spec, inputs)
        return ports, carried, [route(spec, p, i) for p, i in zip(ports, carried)]

    return row


def shifted(rows, by):
    """``rows`` of :func:`awg_route_rows` with every carried wavelength moved by ``by``."""
    ports, carried, routed = rows
    return ports, [w + by for w in carried], routed


# Each of the four dimension checks, and the two entry points that reach one.
NON_INTEGER_DIMENSIONS = {
    "NetworkParams": (lambda: NetworkParams(2.5, 2, 2), "g must be an integer, got 2.5"),
    "build_network": (lambda: build_network(True, 2, 2), "g must be an integer, got True"),
    "verify": (lambda: verify_shuffle_equivalence(2.0, 2, 2), "g must be an integer, got 2.0"),
    "AwgSpec": (lambda: AwgSpec(2.5, 2), "inputs must be an integer, got 2.5"),
    "tradeoff_table": (lambda: tradeoff_table(2.0, 4), "g must be an integer, got 2.0"),
    "ShuffleSpec": (lambda: ShuffleSpec(2, True), "l must be an integer, got True"),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_DIMENSIONS))
def test_a_dimension_that_is_no_int_is_a_domain_error(name):
    call, message = NON_INTEGER_DIMENSIONS[name]
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


class TestBuild:
    def test_worked_cable(self, w323):
        assert w323.cables[2] == (1, 0, 0, 1)  # (from_group, from_port, to_awg, to_input)

    def test_degenerate_network(self):
        t = build_network(1, 1, 1)
        assert len(t.cables) == 1
        assert t.awg_spec == AwgSpec(1, 1)
        only = addr((0, 0, 0), (1, 1, 1))
        assert t.channel_perm == {only: only}

    def test_cables_enumerate_wiring_law(self):
        t = build_network(2, 2, 2)
        assert t.cables == ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1))

    def test_one_cable_per_group_port_and_per_awg_input(self, w323):
        assert len(w323.cables) == 6
        assert len({(group, port) for group, port, _, _ in w323.cables}) == 6
        assert len({(awg, at) for _, _, awg, at in w323.cables}) == 6

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(DomainError):
            build_network(0, 1, 1)
        with pytest.raises(DomainError):
            build_network(1, -2, 1)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError, match=r"^W\(100,101,100\) has 1010000 channels, "
                           r"over the cap of 1000000$"):
            build_network(100, 101, 100)
        # one cap for every caller: a build takes no cap of its own
        assert list(inspect.signature(build_network).parameters) == ["g", "m", "n"]

    def test_rejects_a_router_that_routes_past_its_outputs(self, monkeypatch):
        monkeypatch.setattr(
            topology, "awg_route_rows", row_with_route(lambda spec, p, i: spec.outputs)
        )
        with pytest.raises(DomainError, match="output port 3 out of range for 3-output device"):
            build_network(3, 2, 3)

    def test_rejects_a_router_output_with_no_originating_input(self, monkeypatch):
        # n > g: a router law one output early leaves wavelength 1 at input
        # 1 on output 2, which only virtual input 2 of a 2-input router could feed
        monkeypatch.setattr(
            topology,
            "awg_route_rows",
            row_with_route(lambda spec, p, i: (i - p - 1) % spec.lambda_count),
        )
        with pytest.raises(InvalidChannelError, match="has no originating input") as err:
            build_network(2, 2, 3)
        assert str(err.value) == (
            "wavelength 1 at output 2 has no originating input: "
            "it would need virtual input 2 of a 2-input device"
        )

    @pytest.mark.parametrize("row, message", [
        (row_with_route(lambda spec, p, i: -1), "output port -1 out of range for 3-output device"),
        (lambda spec, inputs: shifted(awg_route_rows(spec, inputs), 3),
         "wavelength index 3 out of range for 3 wavelengths"),
        (lambda spec, inputs: shifted(awg_route_rows(spec, inputs), -3),
         "wavelength index -3 out of range for 3 wavelengths"),
    ])
    def test_rejects_a_router_row_out_of_range(self, monkeypatch, row, message):
        # the build makes the fabric without the constructor's range
        # checks, so its own row check must catch both ends
        monkeypatch.setattr(topology, "awg_route_rows", row)
        with pytest.raises(DomainError) as err:
            build_network(3, 2, 3)
        assert str(err.value) == message

    def test_rejects_a_fault_past_the_first_block_at_its_first_input(self, monkeypatch):
        # W(5000,1,1) routes inputs 0-4095 and 4096-4999 as two blocks; the
        # wavelengths of inputs 4500 and up are moved out of range, and the
        # first of them is the one named, as an input-by-input check names it
        blocks = []

        def row(spec, inputs):
            blocks.append(inputs)
            ports, carried, routed = awg_route_rows(spec, inputs)
            return ports, [w + 1000 * (p >= 4500) for p, w in zip(ports, carried)], routed

        monkeypatch.setattr(topology, "awg_route_rows", row)
        with pytest.raises(DomainError) as err:
            build_network(5000, 1, 1)
        assert str(err.value) == "wavelength index 5500 out of range for 5000 wavelengths"
        assert blocks == [range(0, 4096), range(4096, 5000)]

    def test_a_row_that_is_no_run_is_placed_channel_by_channel(self, monkeypatch):
        # W(4,3,4) with routed outputs 1 and 2 of input 1 swapped: every origin
        # stays below g = lambda_count, so the row passes the range check, but
        # it is (1, 8, 6, 13), no run of stride g, and each of its channels
        # lands at its router's offset plus its own row entry
        g, m, n = 4, 3, 4

        def row(spec, inputs):
            ports, carried, routed = awg_route_rows(spec, inputs)
            routed[n + 1], routed[n + 2] = routed[n + 2], routed[n + 1]
            return ports, carried, routed

        monkeypatch.setattr(topology, "awg_route_rows", row)
        _, carried, routed = row(AwgSpec(g, n), range(g))
        rows = [q * g + (w - q) % g for w, q in zip(carried, routed)]
        assert rows[n:2 * n] == [1, 8, 6, 13]
        t = build_network(g, m, n)
        assert list(t.outputs) == [b * n * g + rows[a * n + c]
                                   for a in range(g) for b in range(m) for c in range(n)]
        assert list(t.wavelengths) == reference_arrays(g, m, n)[1]
        oracle = verify_shuffle_equivalence(g, m, n).checks[0]
        assert (oracle.name, oracle.passed) == ("oracle-equivalence", False)
        assert oracle.counterexample == "input 101 reaches 020, oracle expects 011"

    def test_a_bank_of_long_rows_peaks_near_a_cube_of_its_size(self, peak_kb):
        # the bank is routed a block at a time: W(1000,1,1000) holds no
        # million-entry row lists beside its two arrays, whose wavelengths are
        # 4-byte words however many distinct values they take
        cube = peak_kb("awgshuffle.build_network(100, 100, 100)")
        bank = peak_kb("awgshuffle.build_network(1000, 1, 1000)")
        assert bank <= 1.1 * cube, (bank, cube)

    def test_a_single_group_peaks_like_a_cube_of_its_size(self, peak_kb):
        # at g = 1 each input's m*n outputs are one range: W(1,1000,1000)
        # holds no list of the wiring law's m*n = N router offsets
        cube = peak_kb("awgshuffle.build_network(100, 100, 100)")
        group = peak_kb("awgshuffle.build_network(1, 1000, 1000)")
        assert group <= 1.1 * cube, (group, cube)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
    @example(9, 2, 4)  # g > n
    @example(5, 1, 7)  # m = 1
    @example(1, 6, 8)  # g = 1
    @example(7, 3, 1)  # n = 1
    @example(300, 2, 20)  # two routing blocks of 205 and 95 inputs
    @example(4100, 2, 1)  # two routing blocks of 4,096 and 4 inputs
    def test_arrays_equal_the_per_channel_reference(self, g, m, n):
        t = build_network(g, m, n)
        assert (list(t.outputs), list(t.wavelengths)) == reference_arrays(g, m, n)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
    @example(9, 2, 4)  # g > n
    @example(5, 1, 7)  # m = 1
    @example(1, 6, 8)  # g = 1
    @example(7, 3, 1)  # n = 1
    def test_the_built_value_equals_its_checked_construction(self, g, m, n):
        # the build skips the constructor's checks; the checked
        # constructor accepts its tuples and makes an equal value
        t = build_network(g, m, n)
        again = Topology(t.params, t.outputs, t.wavelengths)
        assert again == t
        assert hash(again) == hash(t)

    def test_routes_each_block_once(self, monkeypatch):
        calls = {"awg_route_rows": 0, "awg_route": 0, "awg_wavelength": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(topology, "awg_route_rows")
        counted(awg_module, "awg_route")
        counted(awg_module, "awg_wavelength")
        build_network(5, 3, 4)  # 20 entries: one block
        assert calls == {"awg_route_rows": 1, "awg_route": 0, "awg_wavelength": 0}


class TestChannelLabels:
    """The three addresses :func:`trace_channel` lays out on W(3,2,3)
    without a fabric, and the loci it rejects."""

    def test_middle_worked_example(self):
        assert trace_channel(P323, 1, 0, 0).middle_addr == addr((0, 1, 2), (2, 3, 3))

    def test_middle_zero(self):
        assert trace_channel(P323, 0, 0, 0).middle_addr == addr((0, 0, 0), (2, 3, 3))

    def test_middle_wraparound(self):
        assert trace_channel(P323, 2, 1, 2).middle_addr == addr((1, 2, 0), (2, 3, 3))

    def test_output_examples(self):
        assert trace_channel(P323, 1, 0, 0).output_addr == addr((0, 2, 1), (2, 3, 3))
        assert trace_channel(P323, 0, 0, 0).output_addr == addr((0, 0, 0), (2, 3, 3))
        assert trace_channel(P323, 0, 1, 1).output_addr == addr((1, 1, 0), (2, 3, 3))
        assert trace_channel(P323, 2, 1, 2).output_addr == addr((1, 0, 2), (2, 3, 3))

    def test_input_worked_example(self):
        assert trace_channel(P323, 1, 0, 0).input_addr == addr((1, 0, 2), (3, 2, 3))

    def test_input_zero(self):
        assert trace_channel(P323, 0, 0, 0).input_addr == addr((0, 0, 0), (3, 2, 3))

    def test_input_wraparound(self):
        assert trace_channel(P323, 2, 1, 2).input_addr == addr((2, 1, 0), (3, 2, 3))

    def test_input_rejects_uncarried_wavelength(self):
        with pytest.raises(InvalidChannelError) as err:
            trace_channel(NetworkParams(4, 3, 2), 0, 1, 3)
        assert str(err.value) == (
            "wavelength 3 is not carried on port 1 of group 0; "
            "this fiber carries wavelengths {0, 1}"
        )

    def test_middle_rejects_dark_wavelength(self):
        # wavelength 2 is in range for W(4,3,2) but routes to virtual output 2
        with pytest.raises(InvalidChannelError) as err:
            trace_channel(NetworkParams(4, 3, 2), 0, 0, 2)
        assert str(err.value) == (
            "wavelength 2 is not carried on port 0 of group 0; "
            "this fiber carries wavelengths {0, 1}"
        )

    def test_a_fiber_s_carried_set_is_named_by_its_cyclic_run(self):
        # the carried set is a cyclic run of n wavelengths from the group: one
        # ascending run, or two when it wraps past lambda_count - 1; up to 16 are
        # each listed, and past that each run is named by its ends
        cases = [
            (NetworkParams(5, 1, 3), 4, 2, "{0, 1, 4}"),
            (NetworkParams(20, 1, 16), 10, 6,
             "{0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}"),
            (NetworkParams(4_000_000, 1, 2_000_000), 0, 3_000_000, "{0, ..., 1999999}"),
            (NetworkParams(20, 1, 17), 10, 7, "{0, ..., 6, 10, ..., 19}"),
            (NetworkParams(20, 1, 17), 4, 1, "{0, 4, ..., 19}"),
            (NetworkParams(20, 1, 17), 3, 2, "{3, ..., 19}"),
        ]
        for params, group, wavelength, carried in cases:
            with pytest.raises(InvalidChannelError) as err:
                trace_channel(params, group, 0, wavelength)
            assert str(err.value) == (
                f"wavelength {wavelength} is not carried on port 0 of group "
                f"{group}; this fiber carries wavelengths {carried}"
            )
            assert len(str(err.value)) < 200
        for g in range(2, 18):  # up to 16 listed: the fiber's wavelengths, ascending
            for n in range(1, g):  # g > n: wavelengths dark at every input
                params = NetworkParams(g, 1, n)
                for group in range(g):
                    carried = fiber_wavelengths(params, group)
                    dark = min(set(range(g)) - set(carried))
                    with pytest.raises(InvalidChannelError) as err:
                        trace_channel(params, group, 0, dark)
                    assert str(err.value).endswith(
                        f"carries wavelengths {{{', '.join(map(str, carried))}}}")

    def test_output_rejects_unreachable_wavelength(self, monkeypatch):
        # a router law one output early sends wavelength 1 at input 1 to
        # output 2, which only virtual input 2 of a 2-input router could feed;
        # the trace must reject it, not pair that input with another output
        monkeypatch.setattr(
            awg_module, "awg_route", lambda spec, p, i: (i - p - 1) % spec.lambda_count
        )
        with pytest.raises(InvalidChannelError) as err:
            trace_channel(NetworkParams(2, 2, 3), 1, 0, 1)
        assert str(err.value) == (
            "wavelength 1 at output 2 has no originating input: "
            "it would need virtual input 2 of a 2-input device"
        )

    def test_labels_reject_out_of_range_indices(self, w323):
        with pytest.raises(DomainError, match="^group 3 out of range for 3 groups$"):
            trace_channel(P323, 3, 0, 0)
        with pytest.raises(DomainError, match="^port 2 out of range for 2 ports per group$"):
            trace_channel(P323, 0, 2, 0)
        with pytest.raises(DomainError, match="^wavelength index 3 out of range for 3 "):
            trace_channel(P323, 0, 0, 3)
        # the fabric's fiber lookups share the trace's range checks
        with pytest.raises(DomainError, match="^group -1 out of range for 3 groups$"):
            w323.fiber_wavelengths(-1, 0)
        with pytest.raises(DomainError, match="^port 2 out of range for 2 ports per group$"):
            w323.fiber_wavelengths(0, 2)
        with pytest.raises(DomainError, match="^group 2 out of range for 2 groups$"):
            fiber_wavelengths(NetworkParams(2, 2, 2), 2)


class TestStageMaps:
    def test_stage_maps_agree_with_physical_traces(self):
        # wiring swaps digit positions 0 and 1, routing swaps 1 and 2, and
        # the radices move with the digits
        for g, m, n in [(3, 2, 3), (4, 3, 2), (2, 4, 3), (5, 1, 2)]:
            params = NetworkParams(g, m, n)
            for a in range(g):
                for b in range(m):
                    for w in fiber_wavelengths(params, a):
                        tr = trace_channel(params, a, b, w)
                        (x, y, z), (rx, ry, rz) = tr.input_addr.digits, tr.input_addr.radices
                        assert tr.middle_addr == addr((y, x, z), (ry, rx, rz))
                        (x, y, z), (rx, ry, rz) = tr.middle_addr.digits, tr.middle_addr.radices
                        assert tr.output_addr == addr((x, z, y), (rx, rz, ry))


class TestTrace:
    def test_worked_example(self, w323):
        tr = trace(w323, 1, 0, 0)
        assert tr.input_addr == addr((1, 0, 2), (3, 2, 3))
        assert tr.middle_addr == addr((0, 1, 2), (2, 3, 3))
        assert tr.output_addr == addr((0, 2, 1), (2, 3, 3))
        assert tr.input_locus == Locus(1, 0, 0)
        assert tr.middle_locus == Locus(0, 1, 0)
        assert tr.output_locus == Locus(0, 2, 0)

    def test_degenerate(self):
        t = build_network(1, 1, 1)
        tr = trace(t, 0, 0, 0)
        assert tr.input_locus == tr.middle_locus == tr.output_locus == Locus(0, 0, 0)

    def test_second_worked_path(self, w323):
        tr = trace(w323, 0, 1, 1)
        assert tr.input_addr == addr((0, 1, 1), (3, 2, 3))
        assert tr.middle_addr == addr((1, 0, 1), (2, 3, 3))
        assert tr.output_addr == addr((1, 1, 0), (2, 3, 3))

    def test_wavelength_constant_across_loci(self, w323):
        for tr in w323.channels:
            assert (
                tr.input_locus.wavelength
                == tr.middle_locus.wavelength
                == tr.output_locus.wavelength
            )

    def test_middle_locus_reached_via_exactly_one_cable(self, w323):
        cables = {(group, port): (awg, at) for group, port, awg, at in w323.cables}
        for tr in w323.channels:
            cable = cables[(tr.input_locus.device, tr.input_locus.port)]
            assert (tr.middle_locus.device, tr.middle_locus.port) == cable

    def test_rejects_invalid_locus(self, w323):
        with pytest.raises(DomainError):
            trace(w323, 3, 0, 0)
        with pytest.raises(DomainError):
            trace(w323, 0, 2, 0)
        with pytest.raises(DomainError):
            trace(w323, 0, 0, 3)

    def test_rejects_uncarried_wavelength(self):
        t = build_network(4, 3, 2)
        with pytest.raises(InvalidChannelError) as err:
            trace(t, 0, 0, 2)
        assert "{0, 1}" in str(err.value)


class TestChannelView:
    """The channel objects derived from the integer tuples agree with
    physical per-channel tracing and with the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
    def test_agrees_with_trace_labels_and_oracle(self, g, m, n):
        t = build_network(g, m, n)
        p = t.params
        assert list(t.outputs) == list(shuffle_perm_decimal(ShuffleSpec(g, m * n)))
        assert len(t.channels) == p.channel_count
        for i, tr in enumerate(t.channels):
            a, b, _ = mixed_radix_decode(i, p.input_radices)
            w = t.wavelengths[i]
            assert tr == trace(t, a, b, w)

    def test_trace_needs_no_fabric(self, w323):
        assert trace_channel(P323, 1, 0, 0) == trace(w323, 1, 0, 0) == w323.channels[8]

    def test_channels_are_built_once(self, w323):
        assert w323.channels is w323.channels

    def test_a_fabric_with_views_is_freed_without_the_cycle_collector(self):
        t = build_network(3, 2, 3)
        assert t.channels[0] and t.channel_perm
        gone = weakref.ref(t)
        gc.disable()
        try:
            del t
            assert gone() is None
        finally:
            gc.enable()

    def test_indexed_as_a_tuple(self, w323):
        traces = [w323.channel(i) for i in range(18)]
        assert list(w323.channels) == traces
        assert w323.channels[-1] == traces[17] and w323.channels[-18] == traces[0]
        assert w323.channels[3:9:2] == tuple(traces[3:9:2])
        assert w323.channels[::-1] == tuple(reversed(traces))
        assert w323.channels.index(traces[5]) == 5 and traces[5] in w323.channels
        for index in (18, -19):
            with pytest.raises(IndexError):
                w323.channels[index]
        with pytest.raises(TypeError):
            w323.channels["1"]

    def test_a_lookup_builds_one_address(self, monkeypatch, w323):
        built = []
        check = ChannelAddress.__post_init__
        monkeypatch.setattr(ChannelAddress, "__post_init__",
                            lambda self: built.append(self) or check(self))
        key, want = addr((1, 0, 2), (3, 2, 3)), addr((0, 2, 1), (2, 3, 3))
        built.clear()
        assert w323.channel_perm[key] == want
        assert built == [want]  # the output address, and no trace of three

    def test_views_at_the_cap_cost_neither_time_nor_memory(self, child_env):
        # W(100,100,100): materialised, the two views took 23 s and 888 MB
        script = (
            "import resource, time\n"
            "from awgshuffle.analysis import check_bijectivity\n"
            "from awgshuffle.topology import build_network, network_permutation\n"
            "t = build_network(100, 100, 100)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "start = time.perf_counter()\n"
            "size, last, perm = len(t.channels), t.channels[-1], network_permutation(t)\n"
            "views = time.perf_counter() - start\n"
            "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "start = time.perf_counter()\n"
            "passed = check_bijectivity(perm).passed\n"
            "print(size, last.output_addr, views, grown, passed, time.perf_counter() - start)\n"
        )
        done = subprocess.run([*FRESH_PYTHON, "-c", script], env=child_env, capture_output=True,
                              text=True, check=True, timeout=300)
        size, last, views, grown, passed, check = done.stdout.split()
        assert (size, last, passed) == ("1000000", "99.99.99", "True")
        assert float(views) < 1e-3, views  # len(), one index and the mapping
        assert int(grown) < 1024, grown  # KiB: the views hold the fabric's own tuples
        assert float(check) < 0.2, check  # one occupancy pass over the outputs

    def test_equal_and_hashable(self, w323):
        again = build_network(3, 2, 3)
        assert again == w323 and hash(again) == hash(w323)
        assert again != build_network(3, 3, 2)


class TestFabricValue:
    """A fabric's two fields are read-only views of words it owns, and the
    fabric is a value: equal, hashed, pickled and copied by its entries."""

    def test_fields_are_read_only_views_of_words(self, w323):
        for field in (w323.outputs, w323.wavelengths):
            assert type(field) is memoryview and field.readonly and field.format == "I"
            with pytest.raises(TypeError):
                field[0] = 1
        assert w323 == build_network(3, 2, 3)

    def test_pickle_and_copies_round_trip_by_value(self, w323):
        for again in (pickle.loads(pickle.dumps(w323)), copy.deepcopy(w323), copy.copy(w323)):
            assert again == w323 and hash(again) == hash(w323)
            assert repr(again) == repr(w323)

    def test_unpickling_runs_the_constructor_checks(self, w323):
        class Forged:  # pickled as a fabric is, with 17 outputs for 18 channels
            def __reduce__(self):
                return Topology, (w323.params, array("I", range(17)), w323.wavelengths.obj)

        with pytest.raises(DomainError, match="^outputs has 17 entries for 18 channels$"):
            pickle.loads(pickle.dumps(Forged()))

    def test_any_sequence_of_ints_makes_one_value(self, w323):
        p, outputs, wavelengths = w323.params, w323.outputs, w323.wavelengths
        kinds = (tuple, list, lambda v: array("I", v), lambda v: array("q", v), iter,
                 lambda v: bytes(list(v)),  # read as the ints its bytes are, not as words
                 lambda v: v)  # the fields themselves
        for kind in kinds:
            again = Topology(p, kind(outputs), kind(wavelengths))
            assert again == w323 and hash(again) == hash(w323)
        words = array("I", outputs)
        again = Topology(p, words, wavelengths)
        words[0] = 5  # the fabric packed its own copy
        assert again == w323


class TestNetworkPermutation:
    def test_worked_entry(self, w323):
        perm = network_permutation(w323)
        assert perm[addr((1, 0, 2), (3, 2, 3))] == addr((0, 2, 1), (2, 3, 3))

    def test_degenerate(self):
        perm = network_permutation(build_network(1, 1, 1))
        only = addr((0, 0, 0), (1, 1, 1))
        assert perm == {only: only}

    def test_w212_matches_single_awg_with_constant_digit(self):
        perm = network_permutation(build_network(2, 1, 2))
        expected = {
            addr((0, 0, 0), (2, 1, 2)): addr((0, 0, 0), (1, 2, 2)),
            addr((0, 0, 1), (2, 1, 2)): addr((0, 1, 0), (1, 2, 2)),
            addr((1, 0, 0), (2, 1, 2)): addr((0, 0, 1), (1, 2, 2)),
            addr((1, 0, 1), (2, 1, 2)): addr((0, 1, 1), (1, 2, 2)),
        }
        assert perm == expected

    def test_keys_in_ascending_address_order(self, w323):
        perm = network_permutation(w323)
        radices = P323.input_radices
        assert list(perm) == [addr(mixed_radix_decode(i, radices), radices) for i in range(18)]
        decimals = [a.decimal for a in perm]
        assert decimals == sorted(decimals)

    def test_is_bijection(self, w323):
        perm = network_permutation(w323)
        assert len(perm) == 18
        assert len(set(perm.values())) == 18

    def test_a_read_only_view_of_the_outputs(self, w323):
        perm = network_permutation(w323)
        assert perm is w323.channel_perm
        assert perm == {tr.input_addr: tr.output_addr for tr in w323.channels}
        assert list(perm.items()) == [(tr.input_addr, tr.output_addr) for tr in w323.channels]
        for key in (addr((1, 0, 2), (3, 3, 3)), addr((0, 2), (3, 6)), (1, 0, 2), "102"):
            assert key not in perm and perm.get(key) is None
            with pytest.raises(KeyError):
                perm[key]
        with pytest.raises(TypeError):
            perm[addr((0, 0, 0), P323.input_radices)] = None


class TestFiberWavelengths:
    def test_full_set_when_outputs_dominate(self, w323):
        for group in range(3):
            for port in range(2):
                assert w323.fiber_wavelengths(group, port) == (0, 1, 2)

    def test_partial_sets_when_groups_dominate(self):
        t = build_network(4, 3, 2)
        assert t.fiber_wavelengths(0, 0) == (0, 1)
        assert t.fiber_wavelengths(3, 2) == (0, 3)
        # set depends on the group only
        assert t.fiber_wavelengths(3, 0) == t.fiber_wavelengths(3, 2)

    def test_every_fiber_distinct_wavelengths(self):
        for g in range(1, 6):
            for m in range(1, 4):
                for n in range(1, 6):
                    t = build_network(g, m, n)
                    for group in range(g):
                        ws = fiber_wavelengths(t.params, group)
                        assert len(ws) == n
                        assert len(set(ws)) == n


class TestReduction:
    def test_single_stage_collapse_equals_single_awg(self):
        # in W(g,1,l) the router-index digit is constant; erasing it must
        # leave exactly the single g x l router permutation
        for g in range(1, 9):
            for l in range(1, 9):
                net = network_permutation(build_network(g, 1, l))
                collapsed = {
                    ChannelAddress(
                        (src.digits[0], src.digits[2]), (g, l)
                    ): ChannelAddress((dst.digits[1], dst.digits[2]), (l, g))
                    for src, dst in net.items()
                }
                assert collapsed == awg_permutation(AwgSpec(g, l))
