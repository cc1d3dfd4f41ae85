"""Fabric verification and resource accounting.

Verification builds the fabric, then compares its routed permutation
channel by channel against the oracle, the decimal array of the perfect
shuffle S(g, m*n) from the independent shuffle module, alongside
bijectivity and per-fiber wavelength-distinctness checks. The oracle's
digit form, the left cyclic shift (a, b, c) -> (b, c, a), words an
oracle counterexample.
The checks are passes over the fabric's two arrays of machine words,
read through its views: each first runs a whole-sequence test, one
C-level comparison of words where it can, and only when that fails does
an ordered scan look for the first counterexample in ascending address
order and stop there, which keeps reports deterministic and compact.
One private function decides and words each check, for verify and for
:func:`run_named_check` alike, from one verdict: whether the outputs
equal the oracle. Verify builds the oracle array once, for the verdict
and the match count; :func:`run_named_check` builds and drops it for
the oracle and conflict checks, and a failing oracle check builds it
again to name its first disagreeing channel. The oracle exchanges two
digits, so it is a permutation of range(N): a fabric equal to it is
bijective without a test of its own, and any other fabric gets one
occupancy pass, no set. The wavelength check decides input and output
fibers apart. Groups that repeat their first fiber are proven by their
g first fibers whatever the outputs are, and with the oracle's outputs
router 0's n columns decide every output fiber; any other fiber
population needs distinct keys, fiber * lambda_count + wavelength, and
one ordered scan over both populations' keys words a conflict when one
is found. Addresses are built only to word a counterexample.

The resource side tabulates the wavelength-versus-cabling tradeoff
across every factorization l = m*n of a fixed fanout: growing n grows
the routers (and the wavelength pool) while shrinking the cable count,
down to the single-router extreme where stage-1 cabling disappears.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from math import prod
from operator import add, eq, floordiv, indexOf, mul, ne

from . import _all_of
from .addressing import ChannelAddress, _FrozenValue, _address
from .errors import DEFAULT_CHANNEL_CAP, DomainError, _format, check_cap, check_positive
from .shuffle import ShuffleSpec, left_cyclic_shift, shuffle_perm_decimal
from .topology import NetworkParams, Topology, _ChannelPerm, build_network

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: no command loads typing
    from array import array
    from typing import Callable, Iterator, Mapping, Sequence


__all__ = _all_of(__spec__.name)

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


def _oracle(params: NetworkParams) -> array:
    """The oracle S(g, m*n) as an array of decimal outputs, in input order."""
    return shuffle_perm_decimal(ShuffleSpec(params.g, params.m * params.n))


def check_oracle_equivalence(topology: Topology) -> CheckResult:
    """Compare the routed permutation against the oracle S(g, m*n).

    The oracle is the decimal array of the perfect shuffle S(g, m*n);
    the first channel that disagrees is worded through its digit form,
    the left cyclic shift of the input address.
    """
    return run_named_check(CHECK_ORACLE, topology)


def _check_images(
    images: Sequence[int], radices: tuple[int, ...], input_at: Callable[[int], ChannelAddress]
) -> CheckResult:
    """Bijectivity of ``images`` (decimal outputs, in input order) onto range(space).

    ``space`` is the size of the output address space of ``radices``,
    and the indices are already known to lie in it. One occupancy pass
    finds the first repeated one, whose position is the second
    offender's; without one, ``space`` images are a bijection. Fewer
    images leave an output missing, at most their count: a set of them,
    sized by the entries and not by the space, finds a repeat or that
    output. ``input_at(position)`` names a counterexample's input, and
    ``radices`` word its output address.
    """
    space = prod(radices)
    if len(images) < space:
        seen = set()
        for second, image in enumerate(images):
            if image in seen:
                break
            seen.add(image)
        else:
            missing = _address(next(i for i in range(len(images) + 1) if i not in seen), radices)
            return CheckResult(CHECK_BIJECTIVITY, False, f"output {missing} is never produced")
    else:
        occupied = bytearray(space)
        for second, image in enumerate(images):
            if occupied[image]:
                break
            occupied[image] = 1
        else:
            return CheckResult(CHECK_BIJECTIVITY, True)
    first = input_at(indexOf(images, image))
    return CheckResult(CHECK_BIJECTIVITY, False, f"inputs {first} and "
                       f"{input_at(second)} both map to {_address(image, radices)}")


def _fabric_bijectivity(topology: Topology) -> CheckResult:
    """Bijectivity of a fabric's outputs, worded by its addresses."""
    p = topology.params
    return _check_images(topology.outputs, p.output_radices,
                         lambda pos: _address(pos, p.input_radices))


def check_bijectivity(perm: Mapping[ChannelAddress, ChannelAddress]) -> CheckResult:
    """Pass iff the image covers the full output address space exactly once.

    Inputs are scanned in ascending address order, so the reported
    duplicate is always the second offender in that order; a gap names
    the smallest missing output address. All inputs must share one
    radix pattern, and all outputs another. A fabric's own mapping
    (``Topology.channel_perm``) is decided from its outputs, in the same
    words, without an address.
    """
    if isinstance(perm, _ChannelPerm):
        return _fabric_bijectivity(perm.fabric)
    if not perm:
        return CheckResult(CHECK_BIJECTIVITY, True)
    items = sorted(perm.items(), key=lambda kv: kv[0].decimal)
    for side, column in (("input", 0), ("output", 1)):  # radices ends as the outputs'
        radices = items[0][column].radices
        for pair in items:
            if pair[column].radices != radices:
                raise DomainError(_format("mixed {} radices in permutation: {} vs {}",
                                          side, radices, pair[column].radices))
    return _check_images([out.decimal for _, out in items], radices, lambda pos: items[pos][0])


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
    times, which one comparison of the slice's bytes tells, the g first
    fibers decide the input fibers, whatever the outputs are. When
    moreover ``is_oracle`` (``outputs`` equals the oracle S(g, l)),
    output fiber j holds inputs {a*l + j}, the column ``wavelengths[j::l]``,
    which carries what column j % n does, so the n columns of router 0
    decide the output fibers. Any other fiber population needs distinct
    :func:`_fiber_keys`.
    """
    p = topology.params
    g, m, n, l = p.g, p.m, p.n, p.m * p.n
    wavelengths = topology.wavelengths
    on_group, on_output = _fiber_keys(topology)
    starts, width = range(0, p.channel_count, l), n * wavelengths.itemsize  # a fiber's bytes
    if all(group == group[:width] * m
           for group in (wavelengths[start : start + l].tobytes() for start in starts)):
        if not all(len(set(wavelengths[start : start + n])) == n for start in starts):
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
    each repeat, input fiber before output fiber within a channel. A row
    per fiber population holds its name template, the radix of its port
    digit, the address a conflict names and each key's first channel.
    """
    if _fibers_clean(topology, is_oracle):
        return
    p = topology.params
    populations = (("group%d/port%d", p.m, "input_addr", {}),
                   ("awg-out%d/port%d", p.n, "output_addr", {}))
    for i, keys in enumerate(zip(*_fiber_keys(topology))):
        for (template, radix, address, first_on), key in zip(populations, keys):
            first = first_on.setdefault(key, i)
            if first != i:
                fiber, w = divmod(key, p.lambda_count)
                yield WavelengthConflict(
                    fiber=template % divmod(fiber, radix),
                    wavelength=w,
                    first=getattr(topology.channel(first), address),
                    second=getattr(topology.channel(i), address),
                )


def _is_oracle(topology: Topology) -> bool:
    """Whether ``outputs`` equals the oracle S(g, m*n), which is dropped on return."""
    return topology.outputs == _oracle(topology.params)


def _named_check(name: str, topology: Topology, is_oracle: bool) -> CheckResult:
    """Decide and word the check ``name``, one of :data:`CHECK_NAMES`.

    ``is_oracle``, whether ``outputs`` equals the oracle S(g, m*n), is
    the one verdict all three checks read. The oracle exchanges two
    digits, so it is a permutation of range(N) and a fabric equal to it
    is bijective without a test of its own. Only a failing oracle check
    builds the oracle again, to name its first disagreeing channel.
    """
    counterexample = None
    if name == CHECK_ORACLE and not is_oracle:
        differing = compress(count(), map(ne, topology.outputs, _oracle(topology.params)))
        tr = topology.channel(next(differing))  # the first channel the oracle disagrees with
        counterexample = (f"input {tr.input_addr} reaches {tr.output_addr}, "
                          f"oracle expects {left_cyclic_shift(tr.input_addr)}")
    elif name == CHECK_BIJECTIVITY and not is_oracle:
        return _fabric_bijectivity(topology)
    elif name == CHECK_WAVELENGTH_CONFLICTS:
        first = next(_conflicts(topology, is_oracle), None)
        if first is not None:
            counterexample = (f"{first.fiber} carries wavelength {first.wavelength} twice: "
                              f"{first.first} and {first.second}")
    return CheckResult(name, counterexample is None, counterexample)


def check_wavelength_conflicts(topology: Topology) -> list[WavelengthConflict]:
    """List every fiber that carries one wavelength twice (empty when sound).

    Both fiber populations are scanned: input fibers (group, port) and
    router output fibers (router, output). Conflicts appear in channel
    address order.
    """
    return list(_conflicts(topology, _is_oracle(topology)))


def run_named_check(name: str, topology: Topology) -> CheckResult:
    """Run one check by its report name, through the function verify uses.

    Bijectivity decides by its own pass and builds no oracle; the other
    two build it for the verdict and drop it before they decide, so a
    failing oracle check, which builds it again, holds one at a time.
    """
    if name not in CHECK_NAMES:
        raise DomainError(f"unknown check {name!r}")
    return _named_check(name, topology, name != CHECK_BIJECTIVITY and _is_oracle(topology))


def verify_shuffle_equivalence(g: int, m: int, n: int) -> VerificationReport:
    """Build W(g, m, n) and verify it behaves as the N = g*m*n shuffle.

    Runs the oracle-equivalence, bijectivity, and wavelength-conflict
    checks over all channels. The oracle array is built and compared
    once; on a failing fabric it counts the matches, and it is dropped
    before the checks read its verdict. CapacityError propagates before
    any report is produced for a fabric over the default channel cap.
    """
    topology = build_network(g, m, n)
    size = topology.params.channel_count
    expected = _oracle(topology.params)
    is_oracle = topology.outputs == expected
    matched = size if is_oracle else sum(map(eq, topology.outputs, expected))
    del expected
    checks = tuple(_named_check(name, topology, is_oracle) for name in CHECK_NAMES)
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
    check_cap("fanout l = {count} is over the cap of {cap}", l, DEFAULT_CHANNEL_CAP)
    return [
        resource_metrics(g, l // n, n)
        for n in range(1, l + 1)
        if l % n == 0
    ]
