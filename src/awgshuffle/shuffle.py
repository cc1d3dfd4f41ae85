"""Reference perfect-shuffle permutations.

The classical N = g*l shuffle splits a port index into a group digit
and a member digit and exchanges them. Read over three digits (a, b, c)
under (g, m, n) with l = m*n, that exchange is the left cyclic shift
(a, b, c) -> (b, c, a), so S(g, m*n) is the permutation the fabric
W(g, m, n) must realize: the verifier compares the fabric with
:func:`shuffle_perm_decimal`, and words a counterexample through
:func:`left_cyclic_shift`. This module computes both from digit
manipulation alone and deliberately imports nothing from the router or
topology modules; the comparison is only convincing if the two sides
share no code path.
"""

from __future__ import annotations

from .addressing import ChannelAddress, _FrozenValue
from .errors import DEFAULT_CHANNEL_CAP, CapacityError, DomainError, check_positive

__all__ = [
    "ShuffleSpec",
    "left_cyclic_shift",
    "shuffle_map",
    "shuffle_perm_decimal",
]


class ShuffleSpec(_FrozenValue):
    """Shape of a classical shuffle: g groups of l ports (N = g*l)."""

    g: int
    l: int

    def __post_init__(self) -> None:
        check_positive("g", self.g)
        check_positive("l", self.l)

    @property
    def port_count(self) -> int:
        return self.g * self.l


def shuffle_map(spec: ShuffleSpec, addr: ChannelAddress) -> ChannelAddress:
    """Exchange the two digits of an input address: (a, b) -> (b, a).

    Input addresses live under radices (g, l); results live under (l, g).
    """
    if addr.radices != (spec.g, spec.l):
        raise DomainError(
            f"address radices {addr.radices} do not match S({spec.g},{spec.l}) inputs"
        )
    hi, lo = addr.digits
    return ChannelAddress((lo, hi), (spec.l, spec.g))


def shuffle_perm_decimal(spec: ShuffleSpec) -> list[int]:
    """The shuffle as a permutation array over decimal port indices.

    Ports are numbered group-major: input (a, b) sits at index a*l + b
    and is wired to output index b*g + a. Indices 0 and N-1 are always
    fixed points. Raises CapacityError when N exceeds the default
    channel cap.
    """
    if spec.port_count > DEFAULT_CHANNEL_CAP:
        raise CapacityError(
            f"S({spec.g},{spec.l}) has {spec.port_count} ports, "
            f"over the cap of {DEFAULT_CHANNEL_CAP}"
        )
    perm: list[int] = []
    for hi in range(spec.g):
        perm.extend(range(hi, spec.port_count, spec.g))
    return perm


def left_cyclic_shift(addr: ChannelAddress) -> ChannelAddress:
    """Rotate a three-digit address one position left: (a, b, c) -> (b, c, a).

    The radices rotate with the digits, so an address under (g, m, n)
    comes back under (m, n, g). Applying the shift three times is the
    identity.
    """
    if len(addr.digits) != 3:
        raise DomainError(
            f"left cyclic shift is defined on 3-digit addresses, got {len(addr.digits)} digits"
        )
    d = addr.digits
    r = addr.radices
    return ChannelAddress((d[1], d[2], d[0]), (r[1], r[2], r[0]))
