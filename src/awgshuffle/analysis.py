"""Fabric verification and resource accounting.

Verification compares a fabric's outputs with the oracle, the perfect
shuffle S(g, m*n) of the independent shuffle module, and checks that
they are a bijection and that no fiber carries one wavelength twice.
:func:`_named_check` decides and words each check, for verify and
:func:`run_named_check` alike. Every check is a pass over the fabric's
arrays of words; a failing one names its first counterexample in
ascending address order, so reports are deterministic and compact, and
addresses are built only to word it.

The resource side tabulates the wavelength-versus-cabling tradeoff
across every factorization l = m*n of a fixed fanout (:func:`tradeoff_table`).
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

    A failure names the first channel that disagrees and the output the
    oracle expects for it, the left cyclic shift of its input address.
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


def check_bijectivity(perm: Mapping[ChannelAddress, ChannelAddress]) -> CheckResult:
    """Pass iff the image covers the full output address space exactly once.

    Inputs are scanned in ascending address order, so the reported
    duplicate is always the second offender in that order; a gap names
    the smallest missing output address. All inputs must share one
    radix pattern, and all outputs another. A fabric's own mapping
    (``Topology.channel_perm``) is decided from its outputs by the check
    verify runs, in the same words, without an address.
    """
    if isinstance(perm, _ChannelPerm):
        return _named_check(CHECK_BIJECTIVITY, perm.fabric, False)
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
    with l = m*n. A slice whose bytes begin with themselves shifted one
    fiber on repeats its first fiber; each slice is compared at its
    offset in one copy of the wavelengths' bytes, with no repeated fiber,
    and the copy is dropped before any set of keys is made. When every
    slice does, the g first fibers decide the input fibers, whatever the
    outputs are. When moreover ``is_oracle`` (``outputs`` equals the
    oracle S(g, l)), output fiber j holds inputs {a*l + j}, the column
    ``wavelengths[j::l]``, which carries what column j % n does, so the
    n columns of router 0 decide the output fibers. Any other fiber
    population needs distinct :func:`_fiber_keys`, one population's set
    at a time.
    """
    p = topology.params
    g, n, l = p.g, p.n, p.m * p.n
    wavelengths = topology.wavelengths
    on_group, on_output = _fiber_keys(topology)
    starts, size = range(0, p.channel_count, l), wavelengths.itemsize
    whole = wavelengths.tobytes()
    view = memoryview(whole)  # each group shifted one fiber on, against the group at its offset
    repeats = all(whole.startswith(view[(s + n) * size : (s + l) * size], s * size) for s in starts)
    del whole, view  # before any set of N keys
    if repeats:
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
    the one verdict all three checks read, so a caller builds the oracle
    once for all of them. The oracle exchanges two digits, so it is a
    permutation of range(N): a fabric equal to it is bijective without a
    test of its own, and any other gets one occupancy pass
    (:func:`_check_images`). Only a failing oracle check builds the
    oracle again, to name its first disagreeing channel.
    """
    counterexample = None
    if name == CHECK_ORACLE and not is_oracle:
        differing = compress(count(), map(ne, topology.outputs, _oracle(topology.params)))
        tr = topology.channel(next(differing))  # the first channel the oracle disagrees with
        counterexample = (f"input {tr.input_addr} reaches {tr.output_addr}, "
                          f"oracle expects {left_cyclic_shift(tr.input_addr)}")
    elif name == CHECK_BIJECTIVITY and not is_oracle:
        p = topology.params
        return _check_images(topology.outputs, p.output_radices,
                             lambda pos: _address(pos, p.input_radices))
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

    Raises DomainError for an unknown name. Bijectivity builds no oracle;
    the other two build it for the verdict and drop it before they
    decide, so a failing oracle check holds at most one at a time.
    """
    if name not in CHECK_NAMES:
        raise DomainError(f"unknown check {name!r}")
    return _named_check(name, topology, name != CHECK_BIJECTIVITY and _is_oracle(topology))


def verify_shuffle_equivalence(g: int, m: int, n: int) -> VerificationReport:
    """Build W(g, m, n) and verify it behaves as the N = g*m*n shuffle.

    Runs the oracle-equivalence, bijectivity, and wavelength-conflict
    checks over all channels. The oracle array is built once, for the
    verdict and, on a failing fabric, the match count, and dropped
    before the checks run. CapacityError propagates before any report
    is produced for a fabric over the default channel cap.
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
