"""Two-stage wavelength-routed shuffle fabric.

A fabric W(g, m, n) has g input groups of m fibers, each fiber carrying
n wavelengths, cross-wired into a bank of m identical g x n wavelength
routers. The wiring law is fixed: port b of group a plugs into input a
of router b. Routing every (fiber, wavelength) through its cable and
router yields the fabric's permutation over the N = g*m*n wavelength
channels. The routers are identical, so the build routes the carried
wavelengths of each router input once, a block of inputs per call of
:func:`~awgshuffle.awg.awg_route_rows`, checks that block's range, and
places each row at every router by the wiring law: the law's row of
input a is the run a, a + g, ..., and the router offsets continue it,
so the input's outputs at all m routers are one ``range``. A fabric
built that way is in range by construction, so the build skips the
constructor's O(N) length, type and range checks, which every other
construction still runs. A built fabric is its shape plus two flat
integer tuples indexed by decimal input channel: the decimal output
channel and the wavelength.
Everything else follows from those: the router spec from the shape,
the cables from the wiring law (:func:`_cable_rows`, the rows the JSON
writer renders too), and each channel's loci from its addresses. The
per-channel objects (addresses, traces) are views that derive each
object from the tuples when it is read, for callers that want objects
and for counterexamples; the checks and the exporters read the tuples
directly.
A single channel can also be traced from the shape alone with
:func:`trace_channel`, without building the fabric.

Three-digit addresses use a different radix order at each stage:
(g, m, n) on input fibers, (m, g, n) between the stages, (m, n, g) on
router outputs, and addresses carry their radices. A trace takes the
routed output from the router's own input label
(:func:`~awgshuffle.awg.label_input_channel`) and the originating input
from its output label (:func:`~awgshuffle.awg.label_output_channel`),
so the routing law is stated once, in the router model.

When g > n, not every wavelength may enter every fiber: each router
input accepts exactly the n wavelengths whose cyclic route lands on a
physical output, so fibers carry input-dependent wavelength sets.
Traces and exports surface those sets instead of refusing the shape.

Topology values are immutable after construction; traces and
permutation lookups are pure reads and safe to share across threads
(two threads that race on the first use of a view may both make it, to
equal views).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import chain, product, repeat, tee
from operator import add

from . import _all_of
from .addressing import ChannelAddress, _FrozenValue, _address, _setattr, mixed_radix_decode
from .awg import (
    AwgSpec,
    _route_row,
    awg_route_rows,
    awg_wavelength,
    label_input_channel,
    label_output_channel,
    valid_input_wavelengths,
)
from .errors import (
    DEFAULT_CHANNEL_CAP,
    DomainError,
    InvalidChannelError,
    _format,
    check_cap,
    check_index,
    check_positive,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: no command loads typing
    from typing import Iterator

__all__ = _all_of(__spec__.name)

_BLOCK = 4096  # router-row entries the build routes at a time: whole inputs, one if n is larger


class NetworkParams(_FrozenValue):
    """Shape of a two-stage fabric: g groups, m fibers each, n wavelengths per fiber."""

    g: int
    m: int
    n: int

    def __post_init__(self) -> None:
        for name in ("g", "m", "n"):
            check_positive(name, getattr(self, name))

    @property
    def channel_count(self) -> int:
        return self.g * self.m * self.n

    @property
    def lambda_count(self) -> int:
        return max(self.g, self.n)

    @property
    def awg_spec(self) -> AwgSpec:
        return AwgSpec(self.g, self.n)

    @property
    def input_radices(self) -> tuple[int, int, int]:
        return (self.g, self.m, self.n)

    @property
    def middle_radices(self) -> tuple[int, int, int]:
        return (self.m, self.g, self.n)

    @property
    def output_radices(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.g)


def _cable_rows(p: NetworkParams) -> Iterator[tuple[int, int, int, int]]:
    """The g*m stage-1 fibers, group-major, as C-level iterators yield them.

    Port b of group a lands on input a of router b: each row (from_group,
    from_port, to_awg, to_input), the JSON cable keys sorted, is (a, b, b, a).
    """
    groups = tee(chain.from_iterable(map(repeat, range(p.g), repeat(p.m))))
    ports = tee(chain.from_iterable(repeat(range(p.m), p.g)))
    return zip(groups[0], ports[0], ports[1], groups[1])


class Locus(_FrozenValue):
    """Physical coordinate of a channel at one stage: (device, port, wavelength)."""

    device: int
    port: int
    wavelength: int


class RouteTrace(_FrozenValue):
    """Full path of one channel: input fiber, router input, router output.

    Fibers and routers never convert wavelengths, so one wavelength
    holds at all three stages, and each stage's locus is the first two
    digits of its address with that wavelength.
    """

    input_addr: ChannelAddress
    middle_addr: ChannelAddress
    output_addr: ChannelAddress
    wavelength: int

    @property
    def input_locus(self) -> Locus:
        return Locus(*self.input_addr.digits[:2], self.wavelength)

    @property
    def middle_locus(self) -> Locus:
        return Locus(*self.middle_addr.digits[:2], self.wavelength)

    @property
    def output_locus(self) -> Locus:
        return Locus(*self.output_addr.digits[:2], self.wavelength)


def _route_trace(p: NetworkParams, a: int, b: int, c: int, output: tuple[int, int, int],
                 wavelength: int) -> RouteTrace:
    """Trace of input channel (a, b, c), at (b, a, c) by the wiring law, to ``output``."""
    return RouteTrace(ChannelAddress((a, b, c), p.input_radices),
                      ChannelAddress((b, a, c), p.middle_radices),
                      ChannelAddress(output, p.output_radices), wavelength)


class _View:
    """Base of the channel views. A view holds a twin of its fabric that shares the tuples
    but not the cache the view is kept in: no reference cycle keeps a dropped fabric alive."""

    def __init__(self, topology: Topology) -> None:
        self.fabric = _built(topology.params, topology.outputs, topology.wavelengths)

    def __len__(self) -> int:
        return self.fabric.params.channel_count


class _Channels(_View, Sequence):
    """The traces of the channels in input order, each derived when it is read."""

    def __getitem__(self, index: int | slice) -> RouteTrace | tuple[RouteTrace, ...]:
        at = range(len(self))[index]  # a tuple's bounds and negative indices; a slice: a range
        return tuple(map(self.fabric.channel, at)) if type(at) is range else self.fabric.channel(at)


class _ChannelPerm(_View, Mapping):
    """Input address to output address of every channel, keys in ascending order.

    A lookup checks the key's type and radices and decodes its output
    from ``outputs[addr.decimal]``: it builds one address, not a trace.
    """

    def __iter__(self) -> Iterator[ChannelAddress]:
        radices = self.fabric.params.input_radices
        return map(ChannelAddress, product(*map(range, radices)), repeat(radices))

    def __getitem__(self, addr: ChannelAddress) -> ChannelAddress:
        p = self.fabric.params
        if type(addr) is not ChannelAddress or addr.radices != p.input_radices:
            raise KeyError(addr)
        return _address(self.fabric.outputs[addr.decimal], p.output_radices)


class Topology(_FrozenValue):
    """A two-stage fabric: its shape plus two flat integer tuples.

    ``outputs[i]`` is the decimal output channel (radices (m, n, g)) and
    ``wavelengths[i]`` the wavelength of decimal input channel ``i``
    (radices (g, m, n)). ``awg_spec`` and ``cables`` follow from the
    shape; ``cables`` holds the ``_cable_rows`` the JSON writer renders,
    a view nothing else in the package reads. ``channels`` is a
    read-only sequence of one trace per wavelength channel, ordered by
    ascending input address, and ``channel_perm`` a read-only mapping
    from input to output address over all of them, its keys in that
    order. Both are views: each holds the tuples and derives a trace or
    an address when it is read, so ``len()`` or one lookup costs no more
    than that. The constructor checks that each tuple holds N entries of
    type ``int`` in range and raises DomainError otherwise.
    """

    params: NetworkParams
    outputs: tuple[int, ...]
    wavelengths: tuple[int, ...]

    def __post_init__(self) -> None:
        _setattr(self, "outputs", tuple(self.outputs))
        _setattr(self, "wavelengths", tuple(self.wavelengths))
        size = self.params.channel_count
        for name, bound in (("outputs", size), ("wavelengths", self.params.lambda_count)):
            values = getattr(self, name)
            if len(values) != size:
                raise DomainError(
                    _format("{} has {} entries for {} channels", name, len(values), size))
            if set(map(type, values)) != {int}:  # 0.5, True and '1' are no channel index
                odd = next(v for v in values if type(v) is not int)
                raise DomainError(f"{name} entries must be integers, got {odd!r}")
            if min(values) < 0 or max(values) >= bound:
                raise DomainError(_format("{} entries must lie in [0, {})", name, bound))

    @property
    def awg_spec(self) -> AwgSpec:
        """The one router design of the bank."""
        return self.params.awg_spec

    @cached_property
    def cables(self) -> tuple[tuple[int, int, int, int], ...]:
        """The g*m (from_group, from_port, to_awg, to_input) rows of the wiring law."""
        return tuple(_cable_rows(self.params))

    def channel(self, index: int) -> RouteTrace:
        """Trace of decimal input channel ``index``: its input digits (a, b, c) and its
        decimal output's digits (router, q, origin), each decoded from the tuples once."""
        p = self.params
        check_index("channel {value} out of range for {bound} channels", index, p.channel_count)
        output = mixed_radix_decode(self.outputs[index], p.output_radices)
        return _route_trace(p, *mixed_radix_decode(index, p.input_radices), output,
                            self.wavelengths[index])

    @cached_property
    def channels(self) -> Sequence[RouteTrace]:
        return _Channels(self)

    @cached_property
    def channel_perm(self) -> Mapping[ChannelAddress, ChannelAddress]:
        return _ChannelPerm(self)

    def fiber_wavelengths(self, group: int, port: int) -> tuple[int, ...]:
        """Wavelength set carried by the fiber at (group, port), ascending."""
        _check_fiber(self.params, group, port)
        return valid_input_wavelengths(self.awg_spec, group)


def _built(
    params: NetworkParams, outputs: tuple[int, ...], wavelengths: tuple[int, ...]
) -> Topology:
    """The Topology of tuples :func:`build_network` produced, without the
    constructor's length, type and range checks.

    The tuples are in range by construction: the build checks each row
    (a block of them at a time) before placing it, so every row entry
    q*g + origin is below n*g and every wavelength is below lambda_count.
    A run placed as one range starts at row[0] = origin < g, so its last
    entry row[0] + (m*n - 1)*g is below N; any other row adds each entry
    to a wiring-law offset of at most N - n*g. It places g*m rows of n
    ints each. Every other construction runs the checks.
    """
    topology = object.__new__(Topology)
    _setattr(topology, "params", params)
    _setattr(topology, "outputs", outputs)
    _setattr(topology, "wavelengths", wavelengths)
    return topology


def fiber_wavelengths(params: NetworkParams, group: int) -> tuple[int, ...]:
    """Wavelengths a fiber of ``group`` can carry into its router.

    Every fiber of one group lands on the same router input index, so
    the set depends on the group only. It always has exactly n elements.
    """
    _check_fiber(params, group, 0)  # port 0 is a fiber of every group
    return valid_input_wavelengths(params.awg_spec, group)


def _check_fiber(params: NetworkParams, group: int, port: int) -> None:
    check_index("group {value} out of range for {bound} groups", group, params.g)
    check_index("port {value} out of range for {bound} ports per group", port, params.m)


def trace_channel(
    params: NetworkParams, group: int, port: int, wavelength: int
) -> RouteTrace:
    """Trace one (group, port, wavelength) channel of the fabric ``params``.

    The channel is followed physically, in constant time and without
    building the fabric: its fiber's cable leads to router ``port`` at
    input ``group``, where the router's input label
    (:func:`~awgshuffle.awg.label_input_channel`) gives the routed
    output and its output label there
    (:func:`~awgshuffle.awg.label_output_channel`) the originating
    input; the wiring law lays out the three addresses. Raises
    DomainError for an out-of-range locus and InvalidChannelError for a
    wavelength the fiber cannot accept. That error names the fiber's
    carried set, the cyclic run of n wavelengths from output 0's to
    output n-1's, worked out from those two ends: each wavelength of
    the run when n <= 16, and the ends of its one or two ascending parts
    past that.
    """
    _check_fiber(params, group, port)
    awg_spec = params.awg_spec
    try:
        q = label_input_channel(awg_spec, group, wavelength).digits[1]
    except InvalidChannelError:
        first, last = (awg_wavelength(awg_spec, group, out) for out in (0, params.n - 1))
        runs = [(first, last)] if first <= last else [(0, last), (first, params.lambda_count - 1)]
        if params.n <= 16:
            runs = [(w, w) for lo, hi in runs for w in range(lo, hi + 1)]
        carried = ", ".join(_format("{}" if lo == hi else "{}, ..., {}", lo, hi) for lo, hi in runs)
        raise InvalidChannelError(_format(
            "wavelength {} is not carried on port {} of group {}; this fiber carries "
            "wavelengths {{{}}}", wavelength, port, group, carried)) from None
    origin = label_output_channel(awg_spec, q, wavelength).digits[1]
    return _route_trace(params, group, port, q, (port, q, origin), wavelength)


def build_network(g: int, m: int, n: int) -> Topology:
    """Construct the fabric W(g, m, n) with its full channel permutation.

    Channel (a, b, c) is the wavelength that router input a connects to
    output c on port b of group a; the wiring law takes that fiber to
    input a of router b. The m routers are copies of one device, so one
    :func:`~awgshuffle.awg.awg_route_rows` call per block of whole router
    inputs (at least _BLOCK entries, a bound on the working lists, or one
    input when n is larger) gives the n carried wavelengths of each input
    and the outputs they route to. The wiring law places an input's row
    at router b from offset b*n*g. When a block's rows are the router
    law's own (each input's n wavelengths route to outputs 0, ..., n-1
    and lead back to that input), the row of input a is a, a + g, ...,
    (n-1)*g + a, which the offsets continue, so its outputs at all m
    routers are one ``range(a, a + N, g)``; any other block is placed a
    channel at a time, each row entry plus its router's offset. Before
    a block is placed, its routed outputs are checked to lie in [0, n),
    the inputs they lead back to in [0, g) and its wavelengths in
    [0, lambda_count); that check, O(g*n) in all, puts every entry of
    the two tuples in range, so the fabric is made without the
    constructor's O(N) range checks. Raises DomainError for non-positive
    dimensions, InvalidChannelError or DomainError (through the router's
    labeling laws, at the first offending input and wavelength) when the
    router law leaves a carried wavelength dark, without an originating
    input or out of range, and CapacityError when g*m*n exceeds the
    channel cap, one million (``DEFAULT_CHANNEL_CAP``).
    """
    params = NetworkParams(g, m, n)
    check_cap("W({},{},{}) has {count} channels, over the cap of {cap}",
              params.channel_count, DEFAULT_CHANNEL_CAP, g, m, n)
    awg_spec = params.awg_spec
    lambdas = params.lambda_count
    outputs: list[int] = []
    wavelengths: list[int] = []
    inputs, per_block = range(g), -(-_BLOCK // n)  # whole inputs, at least _BLOCK entries
    for start in range(0, g, per_block):
        block = inputs[start:start + per_block]
        ports, carried, routed = awg_route_rows(awg_spec, block)
        origins = _route_row(lambdas, routed, carried)
        if (min(routed) < 0 or max(routed) >= n or max(origins) >= g
                or min(carried) < 0 or max(carried) >= lambdas):
            for a, w, q, origin in zip(ports, carried, routed, origins):
                if not (0 <= q < n and origin < g and 0 <= w < lambdas):
                    # the router's labels raise for a wavelength out of
                    # range, dark, or routed past the outputs or inputs
                    label_input_channel(awg_spec, a, w)
                    label_output_channel(awg_spec, q, w)
        # the wiring law: port b of group a feeds input a of router b, whose
        # outputs start at b*n*g, so channel (a, b, c) lands at b*n*g + row[c]
        if routed == list(range(n)) * len(block) and origins == ports:
            # the law's own rows: input a's row a, g + a, ..., (n-1)*g + a is a run
            # of stride g that the offsets continue, one range over its m*n outputs
            placed = (range(a, a + g * m * n, g) for a in block)
        else:  # a mis-wired row: each entry, at each router, plus that router's offset
            offsets = [b * n * g for b in range(m) for _ in range(n)]
            rows = [q * g + origin for q, origin in zip(routed, origins)]
            placed = (map(add, offsets, rows[k:k + n] * m) for k in range(0, len(rows), n))
        for k, row in zip(range(0, len(carried), n), placed):  # each input, at the m routers
            outputs.extend(row)
            wavelengths.extend(carried[k:k + n] * m)
    return _built(params, tuple(outputs), tuple(wavelengths))


def trace(topology: Topology, group: int, port: int, wavelength: int) -> RouteTrace:
    """Trace one (group, port, wavelength) channel through the fabric.

    Same as :func:`trace_channel` on the fabric's shape. Raises
    DomainError for an out-of-range locus and InvalidChannelError
    (naming the fiber's carried set) for a wavelength the fiber cannot
    accept.
    """
    return trace_channel(topology.params, group, port, wavelength)


def network_permutation(topology: Topology) -> Mapping[ChannelAddress, ChannelAddress]:
    """Total input-to-output channel mapping of the fabric, in address order.

    The result is a read-only view of the fabric's outputs, shared with the
    topology value: each entry is derived when it is read.
    """
    return topology.channel_perm
