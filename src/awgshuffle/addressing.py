"""Mixed-radix channel addressing.

Every wavelength channel handled by this package is named by a short
vector of digits, most significant first, where each position carries
its own radix. Channels of a single wavelength router use two digits
(port, wavelength); channels of the two-stage network use three
(group or router, port, wavelength). Routing, stage wiring, and the
reference shuffle all reduce to digit permutations on these vectors,
and silently mixing the three radix orders the network uses is the main
bug risk, so an address always travels together with its radices and
every transform checks them.

All functions here are pure and all values immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

from .errors import DomainError

__all__ = [
    "ChannelAddress",
    "digit_separator",
    "mixed_radix_decode",
    "mixed_radix_encode",
    "render_digits",
]


def _check_radices(radices: Sequence[int]) -> None:
    for pos, radix in enumerate(radices):
        if radix < 1:
            raise DomainError(f"radix at position {pos} must be >= 1, got {radix}")


def _check_digits(digits: Sequence[int], radices: Sequence[int]) -> None:
    if len(digits) != len(radices):
        raise DomainError(
            f"got {len(digits)} digits against {len(radices)} radices"
        )
    _check_radices(radices)
    for pos, (digit, radix) in enumerate(zip(digits, radices)):
        if not 0 <= digit < radix:
            raise DomainError(
                f"digit {digit} at position {pos} out of range for radix {radix}"
            )


def mixed_radix_encode(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Positional value of ``digits`` under ``radices``, most significant first."""
    _check_digits(digits, radices)
    value = 0
    for digit, radix in zip(digits, radices):
        value = value * radix + digit
    return value


def mixed_radix_decode(index: int, radices: Sequence[int]) -> tuple[int, ...]:
    """Digit vector of ``index`` under ``radices``; inverse of :func:`mixed_radix_encode`."""
    _check_radices(radices)
    total = prod(radices)
    if not 0 <= index < total:
        raise DomainError(
            f"index {index} out of range for radices {tuple(radices)} (product {total})"
        )
    digits = [0] * len(radices)
    for pos in range(len(radices) - 1, -1, -1):
        index, digits[pos] = divmod(index, radices[pos])
    return tuple(digits)


def digit_separator(radices: Sequence[int]) -> str:
    """Text between two digits under ``radices``: "" when every radix is <= 10, else "."."""
    return "" if all(radix <= 10 for radix in radices) else "."


def render_digits(digits: Sequence[int], radices: Sequence[int]) -> str:
    """Compact text form of a digit vector.

    Digits are concatenated while every radix fits a single character
    (radix <= 10); larger radices switch to dot-separated decimal so the
    rendering stays unambiguous.
    """
    return digit_separator(radices).join(str(digit) for digit in digits)


@dataclass(frozen=True)
class ChannelAddress:
    """A validated digit vector naming one wavelength channel.

    ``digits`` and ``radices`` always have equal length: two entries for
    single-router channels, three for two-stage network channels.
    Instances are immutable and hashable, so they serve directly as
    permutation keys.
    """

    digits: tuple[int, ...]
    radices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", tuple(self.digits))
        object.__setattr__(self, "radices", tuple(self.radices))
        if len(self.digits) not in (2, 3):
            raise DomainError(
                f"channel addresses have 2 or 3 digits, got {len(self.digits)}"
            )
        _check_digits(self.digits, self.radices)

    @property
    def decimal(self) -> int:
        """Group-major (row-major) integer index of this address."""
        return mixed_radix_encode(self.digits, self.radices)

    def __str__(self) -> str:
        return render_digits(self.digits, self.radices)
