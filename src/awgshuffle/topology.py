"""Two-stage wavelength-routed shuffle fabric.

A fabric W(g, m, n) has g input groups of m fibers, each fiber carrying
n wavelengths, cross-wired into a bank of m identical g x n wavelength
routers. The wiring law is fixed: port b of group a plugs into input a
of router b. Routing every (fiber, wavelength) through its cable and
router yields the fabric's permutation over the N = g*m*n wavelength
channels. The routers are identical, so the build routes the carried
wavelengths of each router input once, with one row-level route
(:func:`~awgshuffle.awg.awg_route_row`) per input, checks that row's
range, and places it at every router by the wiring law. A fabric built
that way is in range by construction, so the build skips the
constructor's O(N) length, type and range checks, which every other
construction still runs. A built fabric is its shape plus two flat
integer tuples indexed by decimal input channel: the decimal output
channel and the wavelength.
Everything else follows from those: the router spec from the shape,
the cables from the wiring law, and each channel's loci from its
addresses. The per-channel objects (addresses, traces) are a view
derived from the tuples on first use, for callers that want objects
and for counterexamples; the checks and the exporters read the tuples
directly. A single channel can also be traced from the shape alone
with :func:`trace_channel`, without building the fabric.

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
(two threads that race on the first use of the channel view may both
build it, to equal values).
"""

from __future__ import annotations

from functools import cached_property
from operator import add

from .addressing import ChannelAddress, _FrozenValue, _setattr
from .awg import (
    AwgSpec,
    awg_route_row,
    label_input_channel,
    label_output_channel,
    valid_input_wavelengths,
)
from .errors import (
    DEFAULT_CHANNEL_CAP,
    CapacityError,
    DomainError,
    InvalidChannelError,
    check_positive,
)

__all__ = [
    "DEFAULT_CHANNEL_CAP",
    "Cable",
    "Locus",
    "NetworkParams",
    "RouteTrace",
    "Topology",
    "build_network",
    "fiber_wavelengths",
    "network_permutation",
    "trace",
    "trace_channel",
]

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


class Cable(_FrozenValue):
    """One stage-1 fiber: port ``from_port`` of group ``from_group`` into a router.

    The wiring law pins both router-side coordinates: a cable always
    lands on router ``from_port`` at input ``from_group``.
    """

    from_group: int
    from_port: int
    to_awg: int
    to_input: int

    def __post_init__(self) -> None:
        for name in ("from_group", "from_port", "to_awg", "to_input"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.to_awg != self.from_port or self.to_input != self.from_group:
            raise DomainError(
                f"cable ({self.from_group},{self.from_port}) -> "
                f"({self.to_awg},{self.to_input}) violates the wiring law "
                f"(port b of group a lands on input a of router b)"
            )


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


class Topology(_FrozenValue):
    """A two-stage fabric: its shape plus two flat integer tuples.

    ``outputs[i]`` is the decimal output channel (radices (m, n, g)) and
    ``wavelengths[i]`` the wavelength of decimal input channel ``i``
    (radices (g, m, n)). ``awg_spec`` and ``cables`` follow from the
    shape; ``cables`` is a view nothing in the package reads, as the
    exporters derive each cable from the wiring law. ``channels`` holds
    one trace per wavelength channel, ordered by ascending input
    address, and ``channel_perm`` is the input-to-output mapping over
    all of them; ``cables``, ``channels`` and ``channel_perm`` are built
    on first use and then kept. The constructor checks that each tuple
    holds N entries of type ``int`` in range and raises DomainError
    otherwise.
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
                raise DomainError(f"{name} has {len(values)} entries for {size} channels")
            if set(map(type, values)) != {int}:  # 0.5, True and '1' are no channel index
                odd = next(v for v in values if type(v) is not int)
                raise DomainError(f"{name} entries must be integers, got {odd!r}")
            if name == "wavelengths":
                values = set(values)  # few distinct values: the same range, read faster
            if min(values) < 0 or max(values) >= bound:
                raise DomainError(f"{name} entries must lie in [0, {bound})")

    @property
    def awg_spec(self) -> AwgSpec:
        """The one router design of the bank."""
        return self.params.awg_spec

    @cached_property
    def cables(self) -> tuple[Cable, ...]:
        """The g*m stage-1 fibers, group-major, laid out by the wiring law."""
        p = self.params
        return tuple(Cable(a, b, b, a) for a in range(p.g) for b in range(p.m))

    def channel(self, index: int) -> RouteTrace:
        """Trace of decimal input channel ``index``, built from the tuples."""
        p = self.params
        group_port, c = divmod(index, p.n)
        a, b = divmod(group_port, p.m)
        router_output, origin = divmod(self.outputs[index], p.g)
        router, q = divmod(router_output, p.n)
        return _route_trace(p, a, b, c, (router, q, origin), self.wavelengths[index])

    @cached_property
    def channels(self) -> tuple[RouteTrace, ...]:
        return tuple(map(self.channel, range(self.params.channel_count)))

    @cached_property
    def channel_perm(self) -> dict[ChannelAddress, ChannelAddress]:
        return {tr.input_addr: tr.output_addr for tr in self.channels}

    def fiber_wavelengths(self, group: int, port: int) -> tuple[int, ...]:
        """Wavelength set carried by the fiber at (group, port), ascending."""
        _check_fiber(self.params, group, port)
        return fiber_wavelengths(self.params, group)


def _built(
    params: NetworkParams, outputs: tuple[int, ...], wavelengths: tuple[int, ...]
) -> Topology:
    """The Topology of tuples :func:`build_network` produced, without the
    constructor's length, type and range checks.

    The tuples are in range by construction: the build checks each row
    before placing it, so every row entry q*g + origin is below n*g,
    every wiring-law offset is at most N - n*g, and every wavelength is
    below lambda_count; and it places g*m rows of n ints each. Every
    other construction runs the checks.
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
    if not 0 <= group < params.g:
        raise DomainError(f"group {group} out of range for {params.g} groups")
    return valid_input_wavelengths(params.awg_spec, group)


def _check_fiber(params: NetworkParams, group: int, port: int) -> None:
    if not 0 <= group < params.g:
        raise DomainError(f"group {group} out of range for {params.g} groups")
    if not 0 <= port < params.m:
        raise DomainError(f"port {port} out of range for {params.m} ports per group")


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
    DomainError for an out-of-range locus and InvalidChannelError
    (naming the fiber's carried set) for a wavelength the fiber cannot
    accept.
    """
    _check_fiber(params, group, port)
    awg_spec = params.awg_spec
    try:
        q = label_input_channel(awg_spec, group, wavelength).digits[1]
    except InvalidChannelError:
        carried = ", ".join(str(w) for w in fiber_wavelengths(params, group))
        raise InvalidChannelError(
            f"wavelength {wavelength} is not carried on port {port} of group "
            f"{group}; this fiber carries wavelengths {{{carried}}}"
        ) from None
    origin = label_output_channel(awg_spec, q, wavelength).digits[1]
    return _route_trace(params, group, port, q, (port, q, origin), wavelength)


def build_network(
    g: int, m: int, n: int, *, max_channels: int = DEFAULT_CHANNEL_CAP
) -> Topology:
    """Construct the fabric W(g, m, n) with its full channel permutation.

    Channel (a, b, c) is the wavelength that router input a connects to
    output c on port b of group a; the wiring law takes that fiber to
    input a of router b. The m routers are copies of one device, so one
    :func:`~awgshuffle.awg.awg_route_row` call per router input gives
    the n carried wavelengths and the outputs they route to, g calls in
    all, and one ``map`` adds that row of router outputs, repeated m
    times, to the m*n router offsets of the wiring law, placing the row
    at every router. Before a row is placed, its routed outputs are
    checked to lie in [0, n), the inputs they lead back to in [0, g) and
    its wavelengths in [0, lambda_count); that check, O(g*n) in all,
    puts every entry of the two tuples in range, so the fabric is made
    without the constructor's O(N) range checks. Raises DomainError for
    non-positive dimensions, InvalidChannelError or DomainError (through
    the router's labeling laws, at the first offending wavelength) when
    the router law leaves a carried wavelength dark, without an
    originating input or out of range, and CapacityError when g*m*n
    exceeds ``max_channels`` (default one million channels).
    """
    params = NetworkParams(g, m, n)
    if params.channel_count > max_channels:
        raise CapacityError(
            f"W({g},{m},{n}) has {params.channel_count} channels, "
            f"over the cap of {max_channels}"
        )
    awg_spec = params.awg_spec
    lambdas = params.lambda_count
    # the wiring law: port b of group a feeds input a of router b, whose
    # outputs start at b*n*g, so channel (a, b, c) lands at b*n*g + row[c]
    offsets = [b * n * g for b in range(m) for _ in range(n)]
    outputs: list[int] = []
    wavelengths: list[int] = []
    for a in range(g):
        carried, routed = awg_route_row(awg_spec, a)
        origins = [(w - q) % lambdas for w, q in zip(carried, routed)]
        if (min(routed) < 0 or max(routed) >= n or max(origins) >= g
                or min(carried) < 0 or max(carried) >= lambdas):
            for w, q, origin in zip(carried, routed, origins):
                if not (0 <= q < n and origin < g and 0 <= w < lambdas):
                    # the router's labels raise for a wavelength out of
                    # range, dark, or routed past the outputs or inputs
                    label_input_channel(awg_spec, a, w)
                    label_output_channel(awg_spec, q, w)
        row = [q * g + origin for q, origin in zip(routed, origins)]
        outputs.extend(map(add, offsets, row * m))
        wavelengths.extend(carried * m)
    return _built(params, tuple(outputs), tuple(wavelengths))


def trace(topology: Topology, group: int, port: int, wavelength: int) -> RouteTrace:
    """Trace one (group, port, wavelength) channel through the fabric.

    Same as :func:`trace_channel` on the fabric's shape. Raises
    DomainError for an out-of-range locus and InvalidChannelError
    (naming the fiber's carried set) for a wavelength the fiber cannot
    accept.
    """
    return trace_channel(topology.params, group, port, wavelength)


def network_permutation(topology: Topology) -> dict[ChannelAddress, ChannelAddress]:
    """Total input-to-output channel mapping of the fabric, in address order.

    Treat the result as read-only; it is shared with the topology value.
    """
    return topology.channel_perm
