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
stop there, which keeps reports deterministic and compact. The oracle
check compares the tuples, bijectivity counts distinct outputs, and
the wavelength check reads the fibers off the fabric's structure: a
group's m input fibers are one slice of ``wavelengths``, checked once
when it repeats its first fiber, and when ``outputs`` is the oracle the
router output fibers are the columns of those slices, checked once per
router block that differs from router 0's. A fabric with other
outputs has its output fibers keyed per channel instead. Addresses are
built only to word a counterexample.

The resource side tabulates the wavelength-versus-cabling tradeoff
across every factorization l = m*n of a fixed fanout: growing n grows
the routers (and the wavelength pool) while shrinking the cable count,
down to the single-router extreme where stage-1 cabling disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import prod
from operator import add, eq, floordiv, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .addressing import ChannelAddress, mixed_radix_decode
from .errors import CapacityError, DomainError
from .shuffle import ShuffleSpec, left_cyclic_shift, shuffle_perm_decimal
from .topology import DEFAULT_CHANNEL_CAP, NetworkParams, Topology, build_network

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


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; carries the first counterexample on failure."""

    name: str
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class WavelengthConflict:
    """Two channels sharing one wavelength on one fiber."""

    fiber: str
    wavelength: int
    first: ChannelAddress
    second: ChannelAddress


@dataclass(frozen=True)
class ResourceMetrics:
    """Hardware bill for one fabric shape."""

    wavelength_count: int
    awg_count: int
    awg_inputs: int
    awg_outputs: int
    cable_count: int
    channel_count: int


@dataclass(frozen=True)
class VerificationReport:
    """Result of a full equivalence verification run."""

    params: NetworkParams
    passed: bool
    checks: tuple[CheckResult, ...]
    permutation_size: int
    matched: int  # channels whose output equals the oracle's


def check_oracle_equivalence(topology: Topology) -> CheckResult:
    """Compare the routed permutation against the oracle S(g, m*n).

    The oracle is the decimal array of the perfect shuffle S(g, m*n);
    the first channel that disagrees is worded through its digit form,
    the left cyclic shift of the input address.
    """
    p = topology.params
    expected = shuffle_perm_decimal(ShuffleSpec(p.g, p.m * p.n))
    if topology.outputs == tuple(expected):
        return CheckResult(CHECK_ORACLE, True)
    index = next(i for i, want in enumerate(expected) if topology.outputs[i] != want)
    tr = topology.channel(index)
    return CheckResult(
        CHECK_ORACLE,
        False,
        f"input {tr.input_addr} reaches {tr.output_addr}, "
        f"oracle expects {left_cyclic_shift(tr.input_addr)}",
    )


def _oracle_matches(topology: Topology) -> int:
    """How many channels reach the output the oracle S(g, m*n) expects."""
    p = topology.params
    expected = shuffle_perm_decimal(ShuffleSpec(p.g, p.m * p.n))
    return sum(map(eq, topology.outputs, expected))


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


def _check_topology_bijectivity(topology: Topology) -> CheckResult:
    p = topology.params
    return _check_images(
        topology.outputs,
        p.channel_count,
        lambda pos: topology.channel(pos).input_addr,
        lambda index: ChannelAddress(
            mixed_radix_decode(index, p.output_radices), p.output_radices
        ),
    )


def _distinct(fibers: Iterable[tuple[int, ...]], width: int) -> bool:
    """Whether each of ``fibers`` carries ``width`` distinct wavelengths."""
    return all(map(width.__eq__, map(len, map(set, fibers))))


def _input_fibers_clean(topology: Topology) -> bool:
    """No input fiber (group, port) carries one wavelength twice.

    Group a's m fibers are the slice ``wavelengths[a*l:(a+1)*l]`` with
    l = m*n. When that slice is its first n-wide fiber repeated m times,
    one tuple comparison shows the group's fibers are equal and only the
    first needs a set check; otherwise every fiber of the group gets one.
    """
    p = topology.params
    m, n = p.m, p.n
    for group in zip(*[iter(topology.wavelengths)] * (m * n)):
        first = group[:n]
        fibers = (first,) if group == first * m else zip(*[iter(group)] * n)
        if not _distinct(fibers, n):
            return False
    return True


def _output_fibers_clean(topology: Topology) -> bool:
    """No router output fiber (router, output) carries one wavelength twice.

    Output fiber j of output channel o is o // g. When ``outputs`` is the
    oracle S(g, l), fiber j holds inputs {a*l + j}, so the fibers are the
    columns of the g group slices of ``wavelengths``: router 0's n
    columns get a set check each, and a later router's block only where
    its columns differ from router 0's. Any other ``outputs`` keys each
    channel by fiber * lambda_count + wavelength (sparse, so memory
    follows the channel count, not fibers x wavelengths) and requires
    the keys to be distinct.
    """
    p = topology.params
    g, n, l = p.g, p.n, p.m * p.n
    wavelengths = topology.wavelengths
    if topology.outputs != tuple(shuffle_perm_decimal(ShuffleSpec(g, l))):
        output_fibers = map(floordiv, topology.outputs, repeat(g))
        keys = map(add, map(mul, output_fibers, repeat(p.lambda_count)), wavelengths)
        return len(set(keys)) == p.channel_count
    columns = list(zip(*zip(*[iter(wavelengths)] * l)))  # column j: fiber j
    head = columns[:n]
    if not _distinct(head, g):
        return False
    for start in range(n, l, n):
        block = columns[start : start + n]
        if block != head and not _distinct(
            (column for column, twin in zip(block, head) if column != twin), g
        ):
            return False
    return True


def _conflicts(topology: Topology) -> Iterator[WavelengthConflict]:
    """Every wavelength carried twice on one fiber, in channel address order.

    A fabric whose input fibers and router output fibers are all clean
    (:func:`_input_fibers_clean`, :func:`_output_fibers_clean`) has no
    conflict and is not scanned in order. Otherwise input fiber
    (group, port) of channel i is i // n and router output fiber
    (router, output) of output channel o is o // g, and an ordered scan
    over both keys yields each repeat.
    """
    if _input_fibers_clean(topology) and _output_fibers_clean(topology):
        return
    p = topology.params
    lambdas, n, g = p.lambda_count, p.n, p.g
    wavelengths = topology.wavelengths
    on_group = [i // n * lambdas + w for i, w in enumerate(wavelengths)]
    on_output = [o // g * lambdas + w for o, w in zip(topology.outputs, wavelengths)]
    first_on_group: dict[int, int] = {}
    first_on_output: dict[int, int] = {}
    for i, (group_key, output_key) in enumerate(zip(on_group, on_output)):
        first = first_on_group.setdefault(group_key, i)
        if first != i:
            fiber, w = divmod(group_key, lambdas)
            yield WavelengthConflict(
                fiber="group%d/port%d" % divmod(fiber, p.m),
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


def check_wavelength_conflicts(topology: Topology) -> list[WavelengthConflict]:
    """List every fiber that carries one wavelength twice (empty when sound).

    Both fiber populations are scanned: input fibers (group, port) and
    router output fibers (router, output). Conflicts appear in channel
    address order.
    """
    return list(_conflicts(topology))


def run_named_check(name: str, topology: Topology) -> CheckResult:
    """Run one check by its report name."""
    if name == CHECK_ORACLE:
        return check_oracle_equivalence(topology)
    if name == CHECK_BIJECTIVITY:
        return _check_topology_bijectivity(topology)
    if name == CHECK_WAVELENGTH_CONFLICTS:
        first = next(_conflicts(topology), None)
        if first is not None:
            return CheckResult(
                CHECK_WAVELENGTH_CONFLICTS,
                False,
                f"{first.fiber} carries wavelength {first.wavelength} twice: "
                f"{first.first} and {first.second}",
            )
        return CheckResult(CHECK_WAVELENGTH_CONFLICTS, True)
    raise DomainError(f"unknown check {name!r}")


def verify_shuffle_equivalence(g: int, m: int, n: int) -> VerificationReport:
    """Build W(g, m, n) and verify it behaves as the N = g*m*n shuffle.

    Runs the oracle-equivalence, bijectivity, and wavelength-conflict
    checks over all channels. CapacityError propagates before any report
    is produced for a fabric over the default channel cap.
    """
    topology = build_network(g, m, n)
    checks = tuple(run_named_check(name, topology) for name in CHECK_NAMES)
    size = topology.params.channel_count
    oracle_passed = next(c.passed for c in checks if c.name == CHECK_ORACLE)
    return VerificationReport(
        params=topology.params,
        passed=all(check.passed for check in checks),
        checks=checks,
        permutation_size=size,
        matched=size if oracle_passed else _oracle_matches(topology),
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
    if g < 1:
        raise DomainError(f"g must be >= 1, got {g}")
    if l < 1:
        raise DomainError(f"l must be >= 1, got {l}")
    if l > DEFAULT_CHANNEL_CAP:
        raise CapacityError(f"fanout l = {l} is over the cap of {DEFAULT_CHANNEL_CAP}")
    return [
        resource_metrics(g, l // n, n)
        for n in range(1, l + 1)
        if l % n == 0
    ]
