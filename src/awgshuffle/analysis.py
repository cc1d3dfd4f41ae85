"""Fabric verification and resource accounting.

Verification builds the fabric, then compares its routed permutation
channel by channel against the oracle, the decimal array of the perfect
shuffle S(g, m*n) from the independent shuffle module, alongside
bijectivity and per-fiber wavelength-distinctness checks. The oracle's
digit form, the left cyclic shift (a, b, c) -> (b, c, a), words an
oracle counterexample.
The checks are passes over the fabric's integer tuples: each first
runs a whole-sequence test, and only when that fails does an ordered
scan look for the first counterexample in ascending address order and
stop there, which keeps reports deterministic and compact. Verify
builds the oracle array once and compares the outputs with it once;
that verdict serves all three checks and the match count. The oracle
exchanges two digits, so it is a permutation of range(N): a fabric
equal to it is bijective without a test of its own, and any other
fabric has its distinct outputs counted. The wavelength check decides
input and output fibers apart. Groups that repeat their first fiber
are proven by their g first fibers whatever the outputs are, and with
the oracle's outputs router 0's n columns decide every output fiber;
any other fiber population needs distinct keys, fiber * lambda_count +
wavelength, and an ordered scan over the same keys words a conflict
when one is found. Addresses are built only to word a counterexample.

The resource side tabulates the wavelength-versus-cabling tradeoff
across every factorization l = m*n of a fixed fanout: growing n grows
the routers (and the wavelength pool) while shrinking the cable count,
down to the single-router extreme where stage-1 cabling disappears.
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import add, eq, floordiv, mul

from .addressing import ChannelAddress, _FrozenValue, mixed_radix_decode
from .errors import CapacityError, DomainError, check_positive
from .shuffle import ShuffleSpec, left_cyclic_shift, shuffle_perm_decimal
from .topology import DEFAULT_CHANNEL_CAP, NetworkParams, Topology, build_network

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: no command loads typing
    from typing import Callable, Iterator, Mapping, Sequence


__all__ = [
    "CHECK_BIJECTIVITY",
    "CHECK_NAMES",
    "CHECK_ORACLE",
    "CHECK_WAVELENGTH_CONFLICTS",
    "CheckResult",
    "ResourceMetrics",
    "VerificationReport",
    "WavelengthConflict",
    "check_bijectivity",
    "check_oracle_equivalence",
    "check_wavelength_conflicts",
    "resource_metrics",
    "run_named_check",
    "tradeoff_table",
    "verify_shuffle_equivalence",
]

CHECK_ORACLE = "oracle-equivalence"
CHECK_BIJECTIVITY = "bijectivity"
CHECK_WAVELENGTH_CONFLICTS = "wavelength-conflicts"
CHECK_NAMES = (CHECK_ORACLE, CHECK_BIJECTIVITY, CHECK_WAVELENGTH_CONFLICTS)


class CheckResult(_FrozenValue):
    """Outcome of one named check; carries the first counterexample on failure."""

    name: str
    passed: bool
    counterexample: str | None = None


class WavelengthConflict(_FrozenValue):
    """Two channels sharing one wavelength on one fiber."""

    fiber: str
    wavelength: int
    first: ChannelAddress
    second: ChannelAddress


class ResourceMetrics(_FrozenValue):
    """Hardware bill for one fabric shape."""

    wavelength_count: int
    awg_count: int
    awg_inputs: int
    awg_outputs: int
    cable_count: int
    channel_count: int


class VerificationReport(_FrozenValue):
    """Result of a full equivalence verification run."""

    params: NetworkParams
    passed: bool
    checks: tuple[CheckResult, ...]
    permutation_size: int
    matched: int  # channels whose output equals the oracle's


def _oracle(params: NetworkParams) -> tuple[int, ...]:
    """The oracle S(g, m*n) as a tuple of decimal outputs, in input order."""
    return tuple(shuffle_perm_decimal(ShuffleSpec(params.g, params.m * params.n)))


def _oracle_check(
    topology: Topology, expected: tuple[int, ...], is_oracle: bool
) -> CheckResult:
    """The oracle check, given the oracle and whether ``outputs`` equals it."""
    if is_oracle:
        return CheckResult(CHECK_ORACLE, True)
    index = next(i for i, want in enumerate(expected) if topology.outputs[i] != want)
    tr = topology.channel(index)
    return CheckResult(
        CHECK_ORACLE,
        False,
        f"input {tr.input_addr} reaches {tr.output_addr}, "
        f"oracle expects {left_cyclic_shift(tr.input_addr)}",
    )


def check_oracle_equivalence(topology: Topology) -> CheckResult:
    """Compare the routed permutation against the oracle S(g, m*n).

    The oracle is the decimal array of the perfect shuffle S(g, m*n);
    the first channel that disagrees is worded through its digit form,
    the left cyclic shift of the input address.
    """
    expected = _oracle(topology.params)
    return _oracle_check(topology, expected, topology.outputs == expected)


def _check_images(
    images: Sequence[int],
    space: int,
    input_at: Callable[[int], ChannelAddress],
    output_at: Callable[[int], ChannelAddress],
) -> CheckResult:
    """Bijectivity of ``images`` (decimal outputs, in input order) onto range(space).

    The indices are already known to lie in range(space), so ``space``
    distinct ones are a bijection; otherwise an occupancy pass finds the
    first offender, and ``input_at(position)`` and ``output_at(index)``
    name its addresses.
    """
    if len(images) == space and len(set(images)) == space:
        return CheckResult(CHECK_BIJECTIVITY, True)
    occupied = bytearray(space)
    for image in images:
        if occupied[image]:
            first = images.index(image)
            second = images.index(image, first + 1)
            return CheckResult(
                CHECK_BIJECTIVITY,
                False,
                f"inputs {input_at(first)} and {input_at(second)} both map to "
                f"{output_at(image)}",
            )
        occupied[image] = 1
    if len(images) != space:
        missing = output_at(occupied.index(0))
        return CheckResult(CHECK_BIJECTIVITY, False, f"output {missing} is never produced")
    return CheckResult(CHECK_BIJECTIVITY, True)


def check_bijectivity(perm: Mapping[ChannelAddress, ChannelAddress]) -> CheckResult:
    """Pass iff the image covers the full output address space exactly once.

    Inputs are scanned in ascending address order, so the reported
    duplicate is always the second offender in that order; a gap names
    the smallest missing output address. All outputs must share one
    radix pattern.
    """
    if not perm:
        return CheckResult(CHECK_BIJECTIVITY, True)
    items = sorted(perm.items(), key=lambda kv: kv[0].decimal)
    radices = items[0][1].radices
    for _, out in items:
        if out.radices != radices:
            raise DomainError(
                f"mixed output radices in permutation: {radices} vs {out.radices}"
            )
    return _check_images(
        [out.decimal for _, out in items],
        prod(radices),
        lambda pos: items[pos][0],
        lambda index: ChannelAddress(mixed_radix_decode(index, radices), radices),
    )


def _check_topology_bijectivity(topology: Topology, is_oracle: bool) -> CheckResult:
    """Bijectivity of ``outputs``; ``is_oracle`` says they are known to equal the oracle.

    The oracle S(g, m*n) exchanges two digits, so it is a permutation of
    range(N) and a fabric equal to it passes without a test of its own.
    """
    if is_oracle:
        return CheckResult(CHECK_BIJECTIVITY, True)
    p = topology.params
    return _check_images(
        topology.outputs,
        p.channel_count,
        lambda pos: topology.channel(pos).input_addr,
        lambda index: ChannelAddress(
            mixed_radix_decode(index, p.output_radices), p.output_radices
        ),
    )


def _fiber_keys(topology: Topology) -> Iterator[Iterator[int]]:
    """The input-fiber keys of the channels, then their output-fiber keys.

    A key is fiber * lambda_count + wavelength, so two channels share one
    when they share a wavelength on one fiber. Channel i is on input
    fiber (group, port) i // n and output channel o on router output
    fiber (router, output) o // g. Each chain is lazy, in input order.
    """
    p = topology.params
    for fibers in (map(floordiv, range(p.channel_count), repeat(p.n)),
                   map(floordiv, topology.outputs, repeat(p.g))):
        yield map(add, map(mul, fibers, repeat(p.lambda_count)), topology.wavelengths)


def _fibers_clean(topology: Topology, is_oracle: bool) -> bool:
    """No input fiber and no router output fiber carries one wavelength twice.

    Group a's m input fibers are the slice ``wavelengths[a*l:(a+1)*l]``
    with l = m*n. When every slice is its first n-wide fiber repeated m
    times, the g first fibers decide the input fibers, whatever the
    outputs are. When moreover ``is_oracle`` (``outputs`` equals the
    oracle S(g, l)), output fiber j holds inputs {a*l + j}, the column
    ``wavelengths[j::l]``, which carries what column j % n does, so the n
    columns of router 0 decide the output fibers. Any other fiber
    population needs distinct :func:`_fiber_keys`.
    """
    p = topology.params
    g, m, n, l = p.g, p.m, p.n, p.m * p.n
    wavelengths = topology.wavelengths
    on_group, on_output = _fiber_keys(topology)
    firsts = [wavelengths[start : start + n] for start in range(0, p.channel_count, l)]
    if all(wavelengths[a * l : (a + 1) * l] == first * m for a, first in enumerate(firsts)):
        if not all(len(set(first)) == n for first in firsts):
            return False
        if is_oracle:
            return all(len(set(wavelengths[c::l])) == g for c in range(n))
    elif len(set(on_group)) != p.channel_count:
        return False
    return len(set(on_output)) == p.channel_count


def _conflicts(topology: Topology, is_oracle: bool) -> Iterator[WavelengthConflict]:
    """Every wavelength carried twice on one fiber, in channel address order.

    A fabric :func:`_fibers_clean` proves clean yields nothing; otherwise
    an ordered scan walks the key chains (:func:`_fiber_keys`) and yields
    each repeat, input fiber before output fiber within a channel.
    """
    if _fibers_clean(topology, is_oracle):
        return
    p = topology.params
    lambdas, m, n = p.lambda_count, p.m, p.n
    first_on_group: dict[int, int] = {}
    first_on_output: dict[int, int] = {}
    for i, (group_key, output_key) in enumerate(zip(*_fiber_keys(topology))):
        first = first_on_group.setdefault(group_key, i)
        if first != i:
            fiber, w = divmod(group_key, lambdas)
            yield WavelengthConflict(
                fiber="group%d/port%d" % divmod(fiber, m),
                wavelength=w,
                first=topology.channel(first).input_addr,
                second=topology.channel(i).input_addr,
            )
        first = first_on_output.setdefault(output_key, i)
        if first != i:
            fiber, w = divmod(output_key, lambdas)
            yield WavelengthConflict(
                fiber="awg-out%d/port%d" % divmod(fiber, n),
                wavelength=w,
                first=topology.channel(first).output_addr,
                second=topology.channel(i).output_addr,
            )


def _conflict_check(topology: Topology, is_oracle: bool) -> CheckResult:
    """The wavelength-conflict check, worded by its first conflict."""
    first = next(_conflicts(topology, is_oracle), None)
    if first is not None:
        return CheckResult(
            CHECK_WAVELENGTH_CONFLICTS,
            False,
            f"{first.fiber} carries wavelength {first.wavelength} twice: "
            f"{first.first} and {first.second}",
        )
    return CheckResult(CHECK_WAVELENGTH_CONFLICTS, True)


def check_wavelength_conflicts(topology: Topology) -> list[WavelengthConflict]:
    """List every fiber that carries one wavelength twice (empty when sound).

    Both fiber populations are scanned: input fibers (group, port) and
    router output fibers (router, output). Conflicts appear in channel
    address order.
    """
    return list(_conflicts(topology, topology.outputs == _oracle(topology.params)))


def run_named_check(name: str, topology: Topology) -> CheckResult:
    """Run one check by its report name."""
    if name == CHECK_ORACLE:
        return check_oracle_equivalence(topology)
    if name == CHECK_BIJECTIVITY:
        return _check_topology_bijectivity(topology, False)
    if name == CHECK_WAVELENGTH_CONFLICTS:
        return _conflict_check(topology, topology.outputs == _oracle(topology.params))
    raise DomainError(f"unknown check {name!r}")


def verify_shuffle_equivalence(g: int, m: int, n: int) -> VerificationReport:
    """Build W(g, m, n) and verify it behaves as the N = g*m*n shuffle.

    Runs the oracle-equivalence, bijectivity, and wavelength-conflict
    checks over all channels. The oracle array is built and compared
    once; its verdict settles bijectivity and the output fibers of the
    conflict check, and on a failing fabric it counts the matches before
    it is dropped. CapacityError propagates before any report is
    produced for a fabric over the default channel cap.
    """
    topology = build_network(g, m, n)
    size = topology.params.channel_count
    expected = _oracle(topology.params)
    is_oracle = topology.outputs == expected
    oracle = _oracle_check(topology, expected, is_oracle)
    matched = size if is_oracle else sum(map(eq, topology.outputs, expected))
    del expected
    checks = (
        oracle,
        _check_topology_bijectivity(topology, is_oracle),
        _conflict_check(topology, is_oracle),
    )
    return VerificationReport(
        params=topology.params,
        passed=all(check.passed for check in checks),
        checks=checks,
        permutation_size=size,
        matched=matched,
    )


def resource_metrics(g: int, m: int, n: int) -> ResourceMetrics:
    """Hardware bill of W(g, m, n).

    Cables count individual stage-1 fibers; at m = 1 the inputs attach
    directly to the single router and the count is zero.
    """
    params = NetworkParams(g, m, n)
    return ResourceMetrics(
        wavelength_count=params.lambda_count,
        awg_count=m,
        awg_inputs=g,
        awg_outputs=n,
        cable_count=g * m if m >= 2 else 0,
        channel_count=params.channel_count,
    )


def tradeoff_table(g: int, l: int) -> list[ResourceMetrics]:
    """Resource rows for every factorization l = m*n, ascending in n.

    Along the table the wavelength pool never shrinks and the cable
    count never grows; the n = l row needs l wavelengths and no stage-1
    cables at all. Raises CapacityError when l exceeds the default
    channel cap.
    """
    check_positive("g", g)
    check_positive("l", l)
    if l > DEFAULT_CHANNEL_CAP:
        raise CapacityError(f"fanout l = {l} is over the cap of {DEFAULT_CHANNEL_CAP}")
    return [
        resource_metrics(g, l // n, n)
        for n in range(1, l + 1)
        if l % n == 0
    ]
