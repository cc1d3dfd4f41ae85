"""Mixed-radix channel addressing, and the package's frozen-value base.

A wavelength channel is named by a short vector of digits, most
significant first, each position with its own radix: two digits (port,
wavelength) at a single router, three (group or router, port,
wavelength) in the two-stage fabric. Silently mixing the fabric's three
radix orders is the main bug risk, so an address always travels with its
radices and every transform checks them. All functions here are pure and
all values immutable; :class:`_FrozenValue` gives the package's value
types their constructors, equality, hashing and immutability without
importing ``dataclasses`` or ``inspect``, whose import would dominate a
command line's start-up.
"""

from __future__ import annotations

from math import prod
from operator import attrgetter

from . import _all_of
from .errors import DomainError, _decimal, check_index

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: no command loads typing
    from typing import Sequence


__all__ = _all_of(__spec__.name)


def _check_radices(radices: Sequence[int]) -> None:
    for pos, radix in enumerate(radices):
        if type(radix) is not int:
            raise DomainError(f"radix at position {pos} must be an integer, got {radix!r}")
        if radix < 1:
            raise DomainError(f"radix at position {pos} must be >= 1, got {_decimal(radix)}")


def _check_digits(digits: Sequence[int], radices: Sequence[int]) -> None:
    if len(digits) != len(radices):
        raise DomainError(f"got {len(digits)} digits against {len(radices)} radices")
    _check_radices(radices)
    for pos, (digit, radix) in enumerate(zip(digits, radices)):
        check_index("digit {value} at position {} out of range for radix {bound}",
                    digit, radix, pos)


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
    check_index("index {value} out of range for radices {} (product {bound})",
                index, prod(radices), tuple(radices))
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


class _FrozenFieldError(AttributeError):
    """Assignment to or deletion of a field of a frozen value."""


# a frozen value's __init__ stores its fields with this; a module-level name is
# the cheapest callable form of object.__setattr__
_setattr = object.__setattr__


class _FrozenValue:
    """Base of the package's immutable value types.

    A subclass declares its fields as class annotations, in order, and
    gets a generated ``__init__``: its parameters are ``__match_args__``,
    which defaults to the fields (a class with a derived field lists the
    others), a class attribute gives a parameter its default, and it
    stores each parameter with ``_setattr`` and then, when the class
    checks its values, calls ``self.__post_init__()``, looked up at call
    time as a dataclass does. Instances equal only instances of the
    same class with equal fields, hash and print their fields as
    dataclasses do, and refuse assignment and deletion.
    """

    def __init_subclass__(cls) -> None:
        if cls.__annotations__:  # a subclass that declares no field keeps its base's
            cls._fields = tuple(cls.__annotations__)
            cls._values = property(attrgetter(*cls._fields))
            cls.__match_args__ = params = cls.__dict__.get("__match_args__", cls._fields)
            # compiled once from source, as collections.namedtuple compiles its __new__
            defaults = {name: cls.__dict__[name] for name in params if name in cls.__dict__}
            signature = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name
                                  for name in params)
            body = [f"_setattr(self, {name!r}, {name})" for name in params]
            if hasattr(cls, "__post_init__"):  # called through self, so a later patch counts
                body.append("self.__post_init__()")
            namespace = {"_setattr": _setattr, "_defaults": defaults, "__name__": cls.__module__}
            exec(f"def __init__(self, {signature}):\n    " + "\n    ".join(body), namespace)
            cls.__init__ = init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__annotations__ = {name: cls.__annotations__[name] for name in params}
            init.__annotations__["return"] = "None"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise _FrozenFieldError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _FrozenFieldError(f"cannot delete field {name!r}")


class ChannelAddress(_FrozenValue):
    """A validated digit vector naming one wavelength channel.

    ``digits`` and ``radices`` always have equal length: two entries for
    single-router channels, three for two-stage network channels.
    Instances are immutable and hashable, so they serve directly as
    permutation keys.
    """

    digits: tuple[int, ...]
    radices: tuple[int, ...]

    def __post_init__(self) -> None:
        _setattr(self, "digits", tuple(self.digits))
        _setattr(self, "radices", tuple(self.radices))
        if len(self.digits) not in (2, 3):
            raise DomainError(f"channel addresses have 2 or 3 digits, got {len(self.digits)}")
        _check_digits(self.digits, self.radices)

    @property
    def decimal(self) -> int:
        """Group-major (row-major) integer index of this address."""
        return mixed_radix_encode(self.digits, self.radices)

    def __str__(self) -> str:
        return render_digits(self.digits, self.radices)


def _address(index: int, radices: tuple[int, ...]) -> ChannelAddress:
    """The address of decimal ``index`` under ``radices``: one decode, one address."""
    return ChannelAddress(mixed_radix_decode(index, radices), radices)
