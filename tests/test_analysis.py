import random
import subprocess
import sys
from itertools import product
from operator import eq

import pytest
from conftest import rewired

import awgshuffle.analysis as analysis
from awgshuffle import (
    CHECK_BIJECTIVITY,
    CHECK_NAMES,
    CHECK_ORACLE,
    CHECK_WAVELENGTH_CONFLICTS,
    DEFAULT_CHANNEL_CAP,
    CapacityError,
    ChannelAddress,
    DomainError,
    NetworkParams,
    ResourceMetrics,
    ShuffleSpec,
    build_network,
    check_bijectivity,
    check_oracle_equivalence,
    check_wavelength_conflicts,
    resource_metrics,
    run_named_check,
    serialize_topology,
    shuffle_perm_decimal,
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

    def test_a_fabric_view_ends_as_its_dict_does(self, w323):
        fabrics = list(faults(w323).values())
        for shape in [(3, 2, 3), (5, 2, 3), (1, 4, 3)]:
            fabrics += [mutant for _, mutant in mutants(build_network(*shape), random.Random(7))]
        verdicts = set()
        for fabric in fabrics:
            result = check_bijectivity(fabric.channel_perm)
            assert result == check_bijectivity(dict(fabric.channel_perm))
            assert result == run_named_check(CHECK_BIJECTIVITY, fabric)
            verdicts.add(result.passed)
        assert verdicts == {True, False}

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

    def test_duplicate_among_fewer_entries_than_outputs_reported(self):
        # two entries against four outputs: the repeat is named before any gap
        zero = addr((0, 0), (2, 2))
        perm = {addr((0, 0), (2, 2)): zero, addr((0, 1), (2, 2)): zero}
        result = check_bijectivity(perm)
        assert result.counterexample == "inputs 00 and 01 both map to 00"

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

    @pytest.mark.parametrize("second_output", [(0, 1), (0, 0)])
    def test_mixed_input_radices_rejected(self, second_output):
        # both inputs have decimal 0 in address spaces of their own: no ascending order
        # of one space holds them, whether their outputs differ or coincide
        perm = {
            addr((0, 0), (2, 2)): addr((0, 0), (1, 2)),
            addr((0, 0), (3, 3)): addr(second_output, (1, 2)),
        }
        with pytest.raises(DomainError, match=r"^mixed input radices in permutation: "
                           r"\(2, 2\) vs \(3, 3\)$"):
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


def swapped(values, i, j):
    values = list(values)
    values[i], values[j] = values[j], values[i]
    return values


def rerouted(topology, law):
    """``topology`` with channel (group, port, wavelength) sent to ``law``'s (router, q)."""
    g, m, n = topology.params.g, topology.params.m, topology.params.n
    lambdas = topology.params.lambda_count
    outputs = []
    for i, w in enumerate(topology.wavelengths):
        group, port = divmod(i // n, m)
        router, q = law(group, port, w)
        outputs.append((router * n + q) * g + (w - q) % lambdas)
    return rewired(topology, outputs=outputs)


def faults(w323):
    """The mis-wired fabrics of :class:`TestFaultInjection`, by the fault each carries."""
    duplicated = list(w323.outputs)
    duplicated[5] = duplicated[2]
    shared = list(w323.wavelengths)
    shared[7] = shared[6]
    return {
        "swapped outputs": rewired(w323, outputs=swapped(w323.outputs, 4, 13)),
        "duplicated output": rewired(w323, outputs=duplicated),
        "shared wavelength on one fiber": rewired(w323, wavelengths=shared),
        # channels 000 (wavelength 0) and 001 (wavelength 1) trade router
        # outputs: still a bijection, and every input fiber keeps its
        # wavelengths, but each of the two router-output fibers now
        # carries one wavelength twice
        "shared wavelength on output fibers only": rewired(
            w323, outputs=swapped(w323.outputs, 0, 1)),
        # g > n: the router law must wrap at max(g, n) = 5; wrapping at n
        # first goes wrong at input (3, 0, 2), wavelength (3 + 2) mod 5 = 0
        "router modulus n": rerouted(
            build_network(5, 2, 3), lambda group, port, w: (port, (w - group) % 3)),
        # port b of group a plugged into input b of router a (needs g = m):
        # still a bijection with one wavelength per fiber, so only the
        # oracle sees it; the first channel off the diagonal goes wrong
        "swapped wiring": rerouted(
            build_network(3, 3, 3), lambda group, port, w: (group, (w - port) % 3)),
        # router law (i - p + 1) mod L: every channel lands one output
        # late, so the very first channel is already wrong
        "off-by-one routing": rerouted(w323, lambda group, port, w: (port, (w - group + 1) % 3)),
    }


class TestFaultInjection:
    """Each check rejects a mis-wired fabric with its first counterexample."""

    def test_swapped_outputs_fail_the_oracle_only_as_a_permutation(self, w323):
        results = _run_checks(faults(w323)["swapped outputs"])
        assert results["oracle-equivalence"].counterexample == (
            "input 011 reaches 012, oracle expects 110"
        )
        assert results["bijectivity"].passed

    def test_duplicated_output_names_the_second_input(self, w323):
        results = _run_checks(faults(w323)["duplicated output"])
        assert not results["bijectivity"].passed
        assert results["bijectivity"].counterexample == "inputs 002 and 012 both map to 020"

    def test_shared_wavelength_on_one_fiber(self, w323):
        mutant = faults(w323)["shared wavelength on one fiber"]
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
        mutant = faults(w323)["shared wavelength on output fibers only"]
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

    def test_router_modulus_n_instead_of_max_g_n(self, w323):
        mutant = faults(w323)["router modulus n"]
        assert check_oracle_equivalence(mutant).counterexample == (
            "input 302 reaches 000, oracle expects 023"
        )
        results = _run_checks(mutant)
        assert results["bijectivity"].counterexample == "inputs 000 and 302 both map to 000"
        assert results["wavelength-conflicts"].counterexample == (
            "awg-out0/port0 carries wavelength 0 twice: 000 and 000"
        )

    def test_swapped_wiring_fails_the_oracle_only(self, w323):
        results = _run_checks(faults(w323)["swapped wiring"])
        assert results["oracle-equivalence"].counterexample == (
            "input 010 reaches 021, oracle expects 100"
        )
        assert results["bijectivity"].passed
        assert results["wavelength-conflicts"].passed

    def test_off_by_one_routing_fails_the_oracle_only(self, w323):
        results = _run_checks(faults(w323)["off-by-one routing"])
        assert results["oracle-equivalence"].counterexample == (
            "input 000 reaches 012, oracle expects 000"
        )
        assert results["bijectivity"].passed
        assert results["wavelength-conflicts"].passed

    def test_mutants_keep_shape_and_ranges(self, w323):
        outputs, wavelengths = list(w323.outputs), list(w323.wavelengths)
        with pytest.raises(DomainError):
            rewired(w323, outputs=outputs[:-1])
        with pytest.raises(DomainError):
            rewired(w323, outputs=[18, *outputs[1:]])
        with pytest.raises(DomainError):
            rewired(w323, wavelengths=[-1, *wavelengths[1:]])
        # both ends of both ranges, with the constructor's messages; 2**32 and up
        # would not pack as a word, and are refused in the same words before that
        for odd in (-1, 18, 2**32, 2**64):
            with pytest.raises(DomainError, match=r"^outputs entries must lie in \[0, 18\)$"):
                rewired(w323, outputs=[*outputs[:9], odd, *outputs[10:]])
        for odd in (-1, 3, 2**32):
            with pytest.raises(DomainError, match=r"^wavelengths entries must lie in \[0, 3\)$"):
                rewired(w323, wavelengths=[*wavelengths[:9], odd, *wavelengths[10:]])

    @pytest.mark.parametrize("odd", [0.5, True, "1"])
    @pytest.mark.parametrize("field", ["outputs", "wavelengths"])
    def test_mutants_keep_integer_entries(self, w323, field, odd):
        # 0.5 would pass bijectivity while output 4 is never produced, and
        # the JSON export would write it as 0
        values = list(getattr(w323, field))
        values[4] = odd
        with pytest.raises(DomainError) as err:
            rewired(w323, **{field: values})
        assert str(err.value) == f"{field} entries must be integers, got {odd!r}"


def scanned_conflicts(topology):
    """Every (fiber, wavelength) met twice, one channel at a time, in input order."""
    g, m, n = topology.params.g, topology.params.m, topology.params.n
    first_on = {}
    found = []
    for i, (o, w) in enumerate(zip(topology.outputs, topology.wavelengths)):
        a, b, c = i // (m * n), i // n % m, i % n
        router, q, origin = o // (n * g), o // g % n, o % g
        for fiber, address in ((f"group{a}/port{b}", ChannelAddress((a, b, c), (g, m, n))),
                               (f"awg-out{router}/port{q}",
                                ChannelAddress((router, q, origin), (m, n, g)))):
            if (fiber, w) in first_on:
                found.append((fiber, w, first_on[fiber, w], address))
            else:
                first_on[fiber, w] = address
    return found


def deciding_stage(topology):
    """The stage of the conflict check that decides ``topology``, read off its structure.

    Group slices that repeat their first fiber are decided by their first
    fibers; with the oracle's outputs the output fibers then are decided
    by router 0's columns, and with any other outputs by their keyed set.
    Slices that do not repeat leave every fiber to the keyed sets.
    """
    g, m, n = topology.params.g, topology.params.m, topology.params.n
    l = m * n
    wavelengths = list(topology.wavelengths)  # lists compare by value, whatever the field type
    groups = [wavelengths[a * l:(a + 1) * l] for a in range(g)]
    if not all(group == group[:n] * m for group in groups):
        return "keys reject" if scanned_conflicts(topology) else "keys pass"
    if any(len(set(group[:n])) < n for group in groups):
        return "structure rejects a first fiber"
    if list(topology.outputs) != list(shuffle_perm_decimal(ShuffleSpec(g, l))):
        return "output keys reject" if scanned_conflicts(topology) else "output keys pass"
    if any(len({group[c] for group in groups}) < g for c in range(n)):
        return "structure rejects a router-0 column"
    return "structure passes"


def mutants(topology, rng):
    """Seeded mis-wirings of ``topology``, each with the name of its kind."""
    g, m, n = topology.params.g, topology.params.m, topology.params.n
    size, lambdas = topology.params.channel_count, topology.params.lambda_count
    outputs, wavelengths = list(topology.outputs), list(topology.wavelengths)

    def two_in_one_fiber(fiber):
        c, d = rng.sample(range(n), 2)
        return fiber * n + c, fiber * n + d

    if size >= 2:
        i, j = rng.sample(range(size), 2)
        yield "swap two outputs", rewired(topology, outputs=swapped(outputs, i, j))
    if lambdas >= 2:
        i = rng.randrange(size)
        edited = list(wavelengths)
        edited[i] = rng.choice([w for w in range(lambdas) if w != wavelengths[i]])
        yield "edit one wavelength", rewired(topology, wavelengths=edited)
        # the same edit on every fiber of the group keeps its fibers equal
        a, c = i // (m * n), i % n
        for b in range(m):
            edited[(a * m + b) * n + c] = edited[i]
        yield "edit one wavelength on every fiber of a group", rewired(
            topology, wavelengths=edited)
    if n >= 2:
        i, j = two_in_one_fiber(rng.randrange(g * m))
        yield "swap wavelengths within a fiber", rewired(
            topology, wavelengths=swapped(wavelengths, i, j))
        i, j = two_in_one_fiber(rng.randrange(g * m))
        yield "swap two channels of a fiber", rewired(
            topology, outputs=swapped(outputs, i, j), wavelengths=swapped(wavelengths, i, j))
    if n >= 2 and m >= 2:
        a, b = rng.randrange(g), rng.randrange(1, m)  # port b feeds router b
        i, j = two_in_one_fiber(a * m + b)
        yield "swap wavelengths within a fiber of router r >= 1", rewired(
            topology, wavelengths=swapped(wavelengths, i, j))
    if n >= 2:
        # the same swap on every fiber of a group keeps its fibers equal
        a, (c, d) = rng.randrange(g), rng.sample(range(n), 2)
        edited = list(wavelengths)
        for fiber in range(a * m, (a + 1) * m):
            edited = swapped(edited, fiber * n + c, fiber * n + d)
        yield "swap two wavelengths on every fiber of a group", rewired(
            topology, wavelengths=edited)


class TestConflictCheckDifferential:
    """The conflict check's stages end as a plain per-channel scan does."""

    # g > n, g < n, g = n, m = 1, g = 1 and n = 1
    SHAPES = [(3, 2, 3), (5, 2, 3), (6, 3, 2), (2, 3, 5), (2, 2, 6), (4, 1, 5), (1, 4, 3),
              (4, 3, 1), (3, 3, 3), (1, 1, 1)]

    def test_mutants_end_as_the_scan_does(self):
        reached = set()
        for shape, seed in product(self.SHAPES, range(12)):
            for kind, mutant in mutants(build_network(*shape), random.Random(seed)):
                expected = scanned_conflicts(mutant)
                found = check_wavelength_conflicts(mutant)
                assert [(c.fiber, c.wavelength, c.first, c.second) for c in found] == (
                    expected), (shape, seed, kind)
                result = run_named_check(CHECK_WAVELENGTH_CONFLICTS, mutant)
                assert result.passed == (not expected), (shape, seed, kind)
                if expected:
                    fiber, w, first, second = expected[0]
                    assert result.counterexample == (
                        f"{fiber} carries wavelength {w} twice: {first} and {second}")
                reached.add((deciding_stage(mutant), kind))
        assert reached >= {
            ("structure passes", "swap two wavelengths on every fiber of a group"),
            ("structure rejects a first fiber", "edit one wavelength on every fiber of a group"),
            ("structure rejects a router-0 column",
             "edit one wavelength on every fiber of a group"),
            ("keys pass", "swap two channels of a fiber"),
            ("keys pass", "swap wavelengths within a fiber"),  # one fiber of a group edited
            ("keys reject", "swap wavelengths within a fiber of router r >= 1"),
            # first fibers decide the input fibers, the keyed set the output fibers
            ("output keys pass", "swap two outputs"),
            ("output keys reject", "swap two outputs"),
        }, reached

    def test_unmutated_fabrics_pass_through_the_fast_paths(self):
        for shape in self.SHAPES:
            topology = build_network(*shape)
            assert deciding_stage(topology) == "structure passes"
            assert check_wavelength_conflicts(topology) == scanned_conflicts(topology) == []


class TestVerifyOnMutants:
    """Verify's one oracle verdict ends as three separate checks do."""

    def mutant_fabrics(self, w323):
        for shape, seed in product(TestConflictCheckDifferential.SHAPES, range(12)):
            for kind, mutant in mutants(build_network(*shape), random.Random(seed)):
                yield (shape, seed, kind), mutant
        for name, mutant in faults(w323).items():
            yield name, mutant

    def test_report_equals_the_named_checks(self, w323, monkeypatch):
        for label, mutant in self.mutant_fabrics(w323):
            monkeypatch.setattr(analysis, "build_network", lambda *shape: mutant)
            p = mutant.params
            report = verify_shuffle_equivalence(p.g, p.m, p.n)
            checks = tuple(run_named_check(name, mutant) for name in CHECK_NAMES)
            assert report.checks == checks, label
            assert report.passed == all(check.passed for check in checks), label
            assert report.matched == sum(map(
                eq, mutant.outputs, shuffle_perm_decimal(ShuffleSpec(p.g, p.m * p.n)))), label

    def test_a_passing_verify_builds_the_oracle_once_and_no_output_set(self, monkeypatch):
        oracles, sets = [], []
        real_oracle = analysis.shuffle_perm_decimal

        def counted_oracle(spec):
            oracles.append(spec)
            return real_oracle(spec)

        def counted_set(*args):
            sets.append(len(args[0]) if args else 0)
            return set(*args)

        monkeypatch.setattr(analysis, "shuffle_perm_decimal", counted_oracle)
        monkeypatch.setattr(analysis, "set", counted_set, raising=False)
        report = verify_shuffle_equivalence(4, 3, 2)
        assert report.passed and report.matched == 24
        assert oracles == [ShuffleSpec(4, 6)]
        assert sets and max(sets) < 24  # first fibers and router-0 columns only
        topology = build_network(4, 3, 2)
        for name in CHECK_NAMES:
            oracles.clear()
            sets.clear()
            assert run_named_check(name, topology).passed, name
            if name == CHECK_BIJECTIVITY:  # decides by its own pass: no N-entry set
                assert oracles == [] and max(sets, default=0) < 24
            else:
                assert oracles == [ShuffleSpec(4, 6)], name
                assert max(sets, default=0) < 24, name


class TestMemoryAtTheCap:
    def test_verify_at_the_cap_peaks_near_the_build(self, peak_kb):
        # W(100,100,100), one million channels: the checks' transients stay
        # within 50% of what the built fabric itself takes, and the fabric and
        # the oracle, 4-byte words each, bring the process to under 40 MB. At
        # g = 1 one group is the whole fabric, and the test that it repeats its
        # first fiber holds no copy of it beyond its bytes
        build = peak_kb("awgshuffle.build_network(100, 100, 100)")
        verify = peak_kb("assert awgshuffle.verify_shuffle_equivalence(100, 100, 100).passed")
        group = peak_kb("assert awgshuffle.verify_shuffle_equivalence(1, 1000, 1000).passed")
        assert verify <= 1.5 * build, verify / build
        assert verify < 40 * 1024, verify
        assert group <= 1.05 * verify, group / verify

    # channels 0 and 10099 of W(100,100,100) both carry wavelength 0:
    # trading their outputs breaks the oracle but keeps every fiber clean
    # and the outputs a permutation. The mutant is made from words, as the
    # fabric holds them, so the check's own transients are what a bound sees
    MUTANT = ("from array import array\n"
              "t = awgshuffle.build_network(100, 100, 100)\n"
              "assert t.wavelengths[0] == t.wavelengths[10099] == 0\n"
              "o = array('I', t.outputs)\n"
              "o[0], o[10099] = o[10099], o[0]\n"
              "t = awgshuffle.Topology(t.params, o, t.wavelengths)\n"
              "del o\n")

    @classmethod
    def check_peak_mib(cls, child_env, name, counterexample):
        """The tracemalloc peak, in MiB, of one ``run_named_check(name)`` of the mutant in a
        child interpreter, which asserts the counterexample (None: the check passes)."""
        script = ("import tracemalloc, awgshuffle\n" + cls.MUTANT + "tracemalloc.start()\n"
                  f"r = awgshuffle.run_named_check({name!r}, t)\n"
                  "print(tracemalloc.get_traced_memory()[1])\n"
                  f"assert r.counterexample == {counterexample!r}, r\n")
        done = subprocess.run([sys.executable, "-c", script], env=child_env,
                              capture_output=True, text=True, check=True)
        return int(done.stdout) / 2**20

    def test_bijectivity_at_the_cap_holds_a_byte_an_output(self, child_env):
        # one occupancy pass decides the mutant (1 MiB): a set of its outputs
        # would take some 30 MiB more
        assert self.check_peak_mib(child_env, CHECK_BIJECTIVITY, None) <= 1.5

    def test_failing_oracle_check_at_the_cap_holds_one_oracle(self, child_env):
        # the verdict's oracle (4 MiB) is dropped before the counterexample's is built
        peak = self.check_peak_mib(child_env, CHECK_ORACLE,
                                   "input 0.0.0 reaches 0.99.1, oracle expects 0.0.0")
        assert peak <= 6, peak

    def test_keyed_conflict_check_at_the_cap_holds_one_key_set(self, child_env):
        # the mutant's output fibers are decided by distinct keys: one set of
        # N keys (67 MiB) at a time, not both fiber populations' at once
        peak = self.check_peak_mib(child_env, CHECK_WAVELENGTH_CONFLICTS, None)
        assert peak <= 80, peak
