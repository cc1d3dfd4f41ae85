from dataclasses import replace
from itertools import product

import pytest

from awgshuffle import (
    CHECK_NAMES,
    DEFAULT_CHANNEL_CAP,
    CapacityError,
    ChannelAddress,
    DomainError,
    NetworkParams,
    ResourceMetrics,
    build_network,
    check_bijectivity,
    check_oracle_equivalence,
    check_wavelength_conflicts,
    resource_metrics,
    run_named_check,
    serialize_topology,
    tradeoff_table,
    verify_shuffle_equivalence,
)


def addr(digits, radices):
    return ChannelAddress(digits, radices)


class TestVerify:
    def test_worked_example(self):
        report = verify_shuffle_equivalence(3, 2, 3)
        assert report.passed
        assert report.permutation_size == 18
        assert report.params == NetworkParams(3, 2, 3)
        assert tuple(c.name for c in report.checks) == CHECK_NAMES
        assert all(c.counterexample is None for c in report.checks)

    def test_degenerate(self):
        report = verify_shuffle_equivalence(1, 1, 1)
        assert report.passed
        assert report.permutation_size == 1

    def test_more_groups_than_wavelengths(self):
        report = verify_shuffle_equivalence(4, 3, 2)
        assert report.passed
        assert report.permutation_size == 24

    def test_capacity_error_before_report(self):
        with pytest.raises(CapacityError):
            verify_shuffle_equivalence(100, 101, 100)

    def test_report_soundness(self):
        # passed=true must mean every named check re-runs green on its own
        topology = build_network(4, 3, 2)
        report = verify_shuffle_equivalence(4, 3, 2)
        assert report.passed
        for check in report.checks:
            assert run_named_check(check.name, topology).passed

    def test_unknown_check_name(self, w323):
        with pytest.raises(DomainError):
            run_named_check("astrology", w323)

    def test_small_sweep(self):
        for g in range(1, 5):
            for m in range(1, 5):
                for n in range(1, 5):
                    assert verify_shuffle_equivalence(g, m, n).passed


class TestBijectivity:
    def test_identity_passes(self):
        perm = {
            addr((a, b), (2, 2)): addr((a, b), (2, 2))
            for a in range(2)
            for b in range(2)
        }
        result = check_bijectivity(perm)
        assert result.passed and result.counterexample is None

    def test_network_permutation_passes(self, w323):
        assert check_bijectivity(w323.channel_perm).passed

    def test_duplicate_reported_at_second_input(self):
        zero = addr((0, 0), (2, 2))
        perm = {
            addr((0, 0), (2, 2)): zero,
            addr((0, 1), (2, 2)): zero,
            addr((1, 0), (2, 2)): addr((0, 1), (2, 2)),
            addr((1, 1), (2, 2)): addr((1, 0), (2, 2)),
        }
        result = check_bijectivity(perm)
        assert not result.passed
        assert "00 and 01 both map to 00" in result.counterexample

    def test_gap_reported(self):
        # injective into a larger space: output 11 is never produced
        perm = {
            addr((0, 0), (2, 2)): addr((0, 0), (2, 2)),
            addr((0, 1), (2, 2)): addr((0, 1), (2, 2)),
            addr((1, 0), (2, 2)): addr((1, 0), (2, 2)),
        }
        result = check_bijectivity(perm)
        assert not result.passed
        assert "output 11 is never produced" in result.counterexample

    def test_mixed_radices_rejected(self):
        perm = {
            addr((0, 0), (2, 2)): addr((0, 0), (2, 2)),
            addr((0, 1), (2, 2)): addr((0, 0), (1, 2)),
        }
        with pytest.raises(DomainError):
            check_bijectivity(perm)

    def test_empty_trivially_passes(self):
        assert check_bijectivity({}).passed


class TestWavelengthConflicts:
    def test_clean_for_worked_example(self, w323):
        assert check_wavelength_conflicts(w323) == []

    def test_clean_for_degenerate(self):
        assert check_wavelength_conflicts(build_network(1, 1, 1)) == []

    def test_clean_when_groups_dominate(self):
        assert check_wavelength_conflicts(build_network(4, 2, 2)) == []

    def test_clean_across_sweep(self):
        for g in range(1, 6):
            for m in range(1, 4):
                for n in range(1, 6):
                    assert check_wavelength_conflicts(build_network(g, m, n)) == []


class TestResourceMetrics:
    def test_worked_example(self):
        metrics = resource_metrics(3, 2, 3)
        assert metrics.wavelength_count == 3
        assert metrics.awg_count == 2
        assert metrics.awg_inputs == 3
        assert metrics.awg_outputs == 3
        assert metrics.cable_count == 6
        assert metrics.channel_count == 18

    def test_degenerate_has_no_cables(self):
        metrics = resource_metrics(1, 1, 1)
        assert metrics == resource_metrics(1, 1, 1)
        assert metrics.cable_count == 0
        assert metrics.channel_count == 1

    def test_single_router_extreme(self):
        # W(3,1,6): one 3x6 router, 6 wavelengths, no stage-1 cables
        metrics = resource_metrics(3, 1, 6)
        assert metrics.wavelength_count == 6
        assert metrics.awg_count == 1
        assert metrics.cable_count == 0
        assert metrics.channel_count == 18

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DomainError):
            resource_metrics(0, 1, 1)

    def test_bill_is_what_the_built_fabric_uses(self):
        # every shape with g, m, n <= 6, then g > n, n = 1, g = 1 and radices over 10
        shapes = [*product(range(1, 7), repeat=3), (64, 8, 16), (8, 64, 1), (1, 32, 32),
                  (11, 3, 12)]
        for g, m, n in shapes:
            t = build_network(g, m, n)
            dot = serialize_topology(t, "dot").decode()
            assert resource_metrics(g, m, n) == ResourceMetrics(
                wavelength_count=len(set(t.wavelengths)),
                awg_count=len({o // (n * g) for o in t.outputs}),  # routers reached
                awg_inputs=t.awg_spec.inputs,
                awg_outputs=t.awg_spec.outputs,
                cable_count=dot.count('kind="cable"'),
                channel_count=len(t.outputs),
            ), (g, m, n)


class TestTradeoffTable:
    def test_divisor_rows_ascending(self):
        rows = tradeoff_table(3, 6)
        assert [r.awg_outputs for r in rows] == [1, 2, 3, 6]
        assert [r.awg_count for r in rows] == [6, 3, 2, 1]
        last = rows[-1]
        assert last.wavelength_count == 6
        assert last.cable_count == 0

    def test_degenerate(self):
        rows = tradeoff_table(1, 1)
        assert len(rows) == 1
        assert rows[0] == resource_metrics(1, 1, 1)

    def test_g2_l12_columns(self):
        rows = tradeoff_table(2, 12)
        assert [r.wavelength_count for r in rows] == [2, 2, 3, 4, 6, 12]
        assert [r.cable_count for r in rows] == [24, 12, 8, 6, 4, 0]
        assert all(r.channel_count == 24 for r in rows)

    def test_monotone_tradeoff(self):
        for g in (1, 2, 3, 4, 5):
            for l in (1, 4, 6, 12, 24, 36):
                rows = tradeoff_table(g, l)
                wavelengths = [r.wavelength_count for r in rows]
                cables = [r.cable_count for r in rows]
                assert wavelengths == sorted(wavelengths)
                assert cables == sorted(cables, reverse=True)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DomainError):
            tradeoff_table(1, 0)

    def test_capped_at_the_channel_cap(self):
        assert len(tradeoff_table(16, 360)) == 24
        with pytest.raises(CapacityError, match="over the cap of 1000000"):
            tradeoff_table(1, DEFAULT_CHANNEL_CAP + 1)


def _run_checks(topology):
    return {name: run_named_check(name, topology) for name in CHECK_NAMES}


class TestFaultInjection:
    """Each check rejects a mis-wired fabric with its first counterexample."""

    def test_swapped_outputs_fail_the_oracle_only_as_a_permutation(self, w323):
        outputs = list(w323.outputs)
        outputs[4], outputs[13] = outputs[13], outputs[4]
        results = _run_checks(replace(w323, outputs=outputs))
        assert results["oracle-equivalence"].counterexample == (
            "input 011 reaches 012, oracle expects 110"
        )
        assert results["bijectivity"].passed

    def test_duplicated_output_names_the_second_input(self, w323):
        outputs = list(w323.outputs)
        outputs[5] = outputs[2]
        results = _run_checks(replace(w323, outputs=outputs))
        assert not results["bijectivity"].passed
        assert results["bijectivity"].counterexample == "inputs 002 and 012 both map to 020"

    def test_shared_wavelength_on_one_fiber(self, w323):
        wavelengths = list(w323.wavelengths)
        wavelengths[7] = wavelengths[6]
        mutant = replace(w323, wavelengths=wavelengths)
        results = _run_checks(mutant)
        assert results["oracle-equivalence"].passed
        assert results["bijectivity"].passed
        assert results["wavelength-conflicts"].counterexample == (
            "group1/port0 carries wavelength 1 twice: 100 and 101"
        )
        first = check_wavelength_conflicts(mutant)[0]
        assert (first.fiber, first.wavelength) == ("group1/port0", 1)
        assert first.first == addr((1, 0, 0), (3, 2, 3))
        assert first.second == addr((1, 0, 1), (3, 2, 3))

    def test_shared_wavelength_on_one_output_fiber_only(self, w323):
        # channels 000 (wavelength 0) and 001 (wavelength 1) trade router
        # outputs: still a bijection, and every input fiber keeps its
        # wavelengths, but each of the two router-output fibers now
        # carries one wavelength twice
        outputs = list(w323.outputs)
        outputs[0], outputs[1] = outputs[1], outputs[0]
        mutant = replace(w323, outputs=outputs)
        results = _run_checks(mutant)
        assert not results["oracle-equivalence"].passed
        assert results["bijectivity"].passed
        assert results["wavelength-conflicts"].counterexample == (
            "awg-out0/port0 carries wavelength 1 twice: 000 and 001"
        )
        out = (2, 3, 3)
        assert [
            (c.fiber, c.wavelength, c.first, c.second)
            for c in check_wavelength_conflicts(mutant)
        ] == [
            ("awg-out0/port0", 1, addr((0, 0, 0), out), addr((0, 0, 1), out)),
            ("awg-out0/port1", 0, addr((0, 1, 0), out), addr((0, 1, 2), out)),
        ]

    def test_router_modulus_n_instead_of_max_g_n(self):
        # g > n: the router law must wrap at max(g, n) = 5; wrapping at n
        # first goes wrong at input (3, 0, 2), wavelength (3 + 2) mod 5 = 0
        g, m, n = 5, 2, 3
        topology = build_network(g, m, n)
        lambdas = topology.params.lambda_count
        outputs = []
        for i, w in enumerate(topology.wavelengths):
            group, port = divmod(i // n, m)
            q = (w - group) % n
            outputs.append((port * n + q) * g + (w - q) % lambdas)
        mutant = replace(topology, outputs=outputs)
        assert check_oracle_equivalence(mutant).counterexample == (
            "input 302 reaches 000, oracle expects 023"
        )
        results = _run_checks(mutant)
        assert results["bijectivity"].counterexample == "inputs 000 and 302 both map to 000"
        assert results["wavelength-conflicts"].counterexample == (
            "awg-out0/port0 carries wavelength 0 twice: 000 and 000"
        )

    def test_swapped_wiring_fails_the_oracle_only(self):
        # port b of group a plugged into input b of router a (needs g = m):
        # still a bijection with one wavelength per fiber, so only the
        # oracle sees it; the first channel off the diagonal goes wrong
        g = m = n = 3
        topology = build_network(g, m, n)
        lambdas = topology.params.lambda_count
        outputs = []
        for i, w in enumerate(topology.wavelengths):
            group, port = divmod(i // n, m)
            router, awg_input = group, port
            q = (w - awg_input) % lambdas
            outputs.append((router * n + q) * g + (w - q) % lambdas)
        results = _run_checks(replace(topology, outputs=outputs))
        assert results["oracle-equivalence"].counterexample == (
            "input 010 reaches 021, oracle expects 100"
        )
        assert results["bijectivity"].passed
        assert results["wavelength-conflicts"].passed

    def test_off_by_one_routing_fails_the_oracle_only(self, w323):
        # router law (i - p + 1) mod L: every channel lands one output
        # late, so the very first channel is already wrong
        g, m, n = 3, 2, 3
        lambdas = w323.params.lambda_count
        outputs = []
        for i, w in enumerate(w323.wavelengths):
            group, port = divmod(i // n, m)
            router, awg_input = port, group
            q = (w - awg_input + 1) % lambdas
            outputs.append((router * n + q) * g + (w - q) % lambdas)
        results = _run_checks(replace(w323, outputs=outputs))
        assert results["oracle-equivalence"].counterexample == (
            "input 000 reaches 012, oracle expects 000"
        )
        assert results["bijectivity"].passed
        assert results["wavelength-conflicts"].passed

    def test_mutants_keep_shape_and_ranges(self, w323):
        with pytest.raises(DomainError):
            replace(w323, outputs=w323.outputs[:-1])
        with pytest.raises(DomainError):
            replace(w323, outputs=(18,) + w323.outputs[1:])
        with pytest.raises(DomainError):
            replace(w323, wavelengths=(-1,) + w323.wavelengths[1:])
