"""Reference perfect-shuffle permutations.

The classical N = g*l shuffle splits a port index into a group digit
and a member digit and exchanges them. Read over three digits (a, b, c)
under (g, m, n) with l = m*n, that exchange is the left cyclic shift
(a, b, c) -> (b, c, a), so S(g, m*n) is the permutation the fabric
W(g, m, n) must realize: the verifier compares the fabric's outputs
with :func:`shuffle_perm_decimal`, both arrays of unsigned machine
integers, and words a counterexample through :func:`left_cyclic_shift`.
This module computes both from digit manipulation alone and
deliberately imports nothing from the router or topology modules; the
comparison is only convincing if the two sides share no code path.
"""

from __future__ import annotations

import sys
from array import array

from . import _all_of
from .addressing import ChannelAddress, _FrozenValue
from .errors import DEFAULT_CHANNEL_CAP, DomainError, _format, check_cap, check_positive

__all__ = _all_of(__spec__.name)


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
        raise DomainError(_format("address radices {} do not match S({},{}) inputs",
                                  addr.radices, spec.g, spec.l))
    hi, lo = addr.digits
    return ChannelAddress((lo, hi), (spec.l, spec.g))


def shuffle_perm_decimal(spec: ShuffleSpec) -> array:
    """The shuffle as a permutation array over decimal port indices.

    Ports are numbered group-major: input (a, b) sits at index a*l + b
    and is wired to output index b*g + a. Indices 0 and N-1 are always
    fixed points. The result is a new ``array('I')`` of N unsigned
    machine words, one run of stride g per group, so comparing it with
    another array or a view of words is one C-level pass. Raises
    CapacityError when N exceeds the default channel cap.
    """
    check_cap("S({},{}) has {count} ports, over the cap of {cap}",
              spec.port_count, DEFAULT_CHANNEL_CAP, spec.g, spec.l)
    perm = array("I", range(0, spec.port_count, spec.g))  # group 0: 0, g, ..., (l-1)*g
    if spec.g > 1:
        # group hi is group 0 plus hi in every word: its words read as one integer with
        # a 32-bit lane each, plus hi times a 1 in every lane. No lane carries, as each
        # sum is an output index, below N and so below 2**32.
        order, size = sys.byteorder, len(perm) * perm.itemsize
        lanes = int.from_bytes(perm, order)
        ones = int.from_bytes(array("I", [1]) * spec.l, order)
        for hi in range(1, spec.g):
            perm.frombytes((lanes + hi * ones).to_bytes(size, order))
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
