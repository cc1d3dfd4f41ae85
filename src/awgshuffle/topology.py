"""Two-stage wavelength-routed shuffle fabric W(g, m, n).

g input groups of m fibers, each fiber carrying n wavelengths, are
cross-wired into a bank of m identical g x n wavelength routers by one
fixed wiring law: port b of group a plugs into input a of router b. This
module owns that law and the fabric value, :class:`Topology`: its shape
and two arrays, from which the router spec, the cables and each
channel's addresses and loci are derived when read. :func:`build_network`
states how the arrays are made, and :func:`trace_channel` how one
channel is followed from the shape alone.

Three-digit addresses take a radix order per stage: (g, m, n) on input
fibers, (m, g, n) between the stages, (m, n, g) on router outputs. When
g > n a fiber carries an input-dependent set of n wavelengths, which
traces and exports name instead of refusing the shape. Topology values
are immutable; traces and views are pure reads and safe to share across
threads (two threads that race on the first use of a view may both make
it, to equal views).
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import chain, product, repeat, tee

from . import _all_of
from .addressing import ChannelAddress, _FrozenValue, _address, _setattr, mixed_radix_decode
from .awg import (
    AwgSpec,
    _route_row,
    _wavelength_row,
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
    from typing import Callable, Iterable, Iterator

__all__ = _all_of(__spec__.name)

_BLOCK = 4096  # wavelength words the build repeats at a time: whole rows, one if n is larger


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
    """Base of the channel views. A view holds a twin of its fabric that shares the arrays
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
    """A two-stage fabric: its shape plus two flat arrays of machine words.

    ``outputs[i]`` is the decimal output channel (radices (m, n, g)) and
    ``wavelengths[i]`` the wavelength of decimal input channel ``i``
    (radices (g, m, n)). Each is a read-only ``memoryview`` of format
    ``'I'`` over an ``array('I')`` the fabric owns: it indexes, slices
    and iterates as a sequence of ints, refuses item assignment with
    TypeError, and equals another view of equal entries. ``awg_spec``
    and ``cables`` follow from the shape. ``channels`` is a read-only
    sequence of one trace per channel, in ascending input address, and
    ``channel_perm`` a read-only mapping from input to output address,
    its keys in that order; both derive an entry when it is read, so
    ``len()`` or one lookup costs no more than that. The constructor
    takes any sequence of ints for each field (a tuple, a list, an
    array, a view), checks that it holds N entries of type ``int`` in
    range, raising DomainError otherwise, and only then packs it.
    Equality, hashing and pickling go by value, and ``repr`` prints the
    fields as tuples.
    """

    params: NetworkParams
    outputs: Sequence[int]
    wavelengths: Sequence[int]

    def __post_init__(self) -> None:
        size = self.params.channel_count
        for name, bound in (("outputs", size), ("wavelengths", self.params.lambda_count)):
            values = getattr(self, name)
            if type(values) not in (tuple, list, array, memoryview):  # bytes as the ints
                values = tuple(values)  # they hold, not as words; an iterator read once
            if len(values) != size:
                raise DomainError(
                    _format("{} has {} entries for {} channels", name, len(values), size))
            if set(map(type, values)) != {int}:  # 0.5, True and '1' are no channel index
                odd = next(v for v in values if type(v) is not int)
                raise DomainError(f"{name} entries must be integers, got {odd!r}")
            if min(values) < 0 or max(values) >= bound:
                raise DomainError(_format("{} entries must lie in [0, {})", name, bound))
            _setattr(self, name, memoryview(array("I", values)).toreadonly())

    def __hash__(self) -> int:
        return hash((self.params, self.outputs.tobytes(), self.wavelengths.tobytes()))

    def __reduce__(self) -> tuple[type[Topology], tuple[NetworkParams, array, array]]:
        """Rebuilt through the checked constructor, from the arrays the views are over."""
        return Topology, (self.params, self.outputs.obj, self.wavelengths.obj)

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(params={self.params!r}, "
                f"outputs={tuple(self.outputs)!r}, wavelengths={tuple(self.wavelengths)!r})")

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
        decimal output's digits (router, q, origin), each decoded from the arrays once."""
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


def _built(params: NetworkParams, outputs: memoryview, wavelengths: memoryview) -> Topology:
    """The Topology of the views :func:`build_network` made in range, without the
    constructor's length, type and range checks, which every other construction runs."""
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


def _run_words(step: int, count: int) -> Callable[[int], Iterable[int]]:
    """The run a, a + step, ..., a + (count - 1)*step as a function of its start a.

    With more than one start (step > 1), each run is the run from 0 plus a
    in every word: the run from 0 is packed once and read as one integer
    with a lane a word, in the array's own byte order, so one big-integer
    add of a times the integer with a 1 in every lane makes a run at C
    speed, about four times as fast as packing a range word by word
    (CPython 3.11, x86-64). No lane carries: every word is a channel
    index, below N and so below 2**32.
    """
    if step == 1:  # one run, from 0
        return lambda a: range(a, a + count)
    first = array("I", range(0, step * count, step))
    order, size = sys.byteorder, len(first) * first.itemsize
    lanes = int.from_bytes(first, order)
    ones = int.from_bytes(array("I", [1]) * count, order)
    return lambda a: array("I", (lanes + a * ones).to_bytes(size, order))


def _routed_row(spec: AwgSpec, a: int) -> tuple[array, int]:
    """Router input a's row from its first channel, as :func:`build_network` derives it:
    the carried run of ``spec.outputs`` wavelengths as words, and the origin, the input the
    row reads back to. Raises, through the labels where they refuse, for any other row."""
    lambdas, n = spec.lambda_count, spec.outputs
    w = _wavelength_row(lambdas, (a,), (0,))[0]  # output 0's wavelength starts the runs
    q, origin = _route_row(lambdas, (a, 0), (w, w))  # routed from a, read back from output 0
    if not (0 <= w < lambdas and q == 0 and 0 <= origin < spec.inputs):
        # the router's labels raise for a wavelength out of range, dark,
        # or routed past the outputs or inputs
        label_input_channel(spec, a, w)
        label_output_channel(spec, q, w)
        raise DomainError(_format("wavelength {} of input {} at output 0 routes to output {} "
                                  "and reads back from output 0 to input {}", w, a, q, origin))
    carried = array("I", range(w, min(w + n, lambdas)))  # the run up to its turn,
    if w + n > lambdas:
        carried.extend(range(w + n - lambdas))  # then on from wavelength 0
    return carried, origin


def build_network(g: int, m: int, n: int) -> Topology:
    """Construct the fabric W(g, m, n) with its full channel permutation.

    Channel (a, b, c) is the wavelength that router input a connects to
    output c on port b of group a. The m routers are copies of one
    device, so each router input is routed once, at its row's first
    channel (:func:`_routed_row`). Both router laws are rotations modulo
    lambda_count: the wavelength from input a to output c is output 0's
    plus c, and a wavelength one higher routes one output on and reads
    back to the same input. So input a's row, its n outputs in order, is
    one cyclic run that its first channel fixes: the wavelength law at
    output 0 gives where the carried run of n wavelengths starts, the
    routing law at that wavelength where the routed run starts, and the
    law read back from output 0 the origin, the input the whole row
    leads back to. The routed run is outputs 0, ..., n-1 in order
    exactly when it starts at 0; a carried start in [0, lambda_count)
    and an origin in [0, g) then put the whole row in range. That check
    of three values per input lets the fabric be made without the
    constructor's O(N) checks (:func:`_built`); any other row is refused
    at its first channel. The carried run is packed from one or two
    ranges, the second past its turn at lambda_count. The wiring law
    places input a's row at router b from offset b*n*g, and the row
    a, g + a, ..., (n-1)*g + a of origin a is a run of stride g that the
    offsets continue, so its outputs at all m routers are one run
    (:func:`_run_words`). Its carried run goes to the m routers in
    repeats of max(_BLOCK // n, 1) rows, so a transient holds at most
    _BLOCK words or one row.

    Raises DomainError for non-positive dimensions, InvalidChannelError
    or DomainError (through the router's labeling laws, at the first
    offending input and wavelength) when the router law leaves a carried
    wavelength dark, without an originating input or out of range,
    DomainError naming the first channel of any other row that is no
    such run, and CapacityError when g*m*n exceeds the channel cap, one
    million (``DEFAULT_CHANNEL_CAP``).
    """
    params = NetworkParams(g, m, n)
    check_cap("W({},{},{}) has {count} channels, over the cap of {cap}",
              params.channel_count, DEFAULT_CHANNEL_CAP, g, m, n)
    awg_spec = params.awg_spec
    outputs, wavelengths = array("I"), array("I")
    run = _run_words(g, m * n)  # input a's outputs at all m routers: run(a), stride g
    rows = max(_BLOCK // n, 1)  # router copies of a carried run repeated at a time
    pieces = [min(rows, m - b) for b in range(0, m, rows)]  # the m routers, rows at a time
    for a in range(g):
        carried, origin = _routed_row(awg_spec, a)
        outputs.extend(run(origin))
        for copies in pieces:
            wavelengths += carried * copies
    return _built(params, memoryview(outputs).toreadonly(), memoryview(wavelengths).toreadonly())


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
