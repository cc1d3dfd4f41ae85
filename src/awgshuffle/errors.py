"""Exception types shared across the package, the size cap they enforce, the
three checks that refuse a caller's integer (:func:`check_positive` for a
dimension, :func:`check_index` for an index, :func:`check_cap` for a count)
and word it at any size, and the export format names, which the CLI reads
without loading the exporters."""

from math import log10

from . import _all_of

__all__ = _all_of(__spec__.name)

DEFAULT_CHANNEL_CAP = 1_000_000

EXPORT_FORMATS = ("json", "dot")


class ShuffleNetError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ShuffleNetError, ValueError):
    """An index, dimension, or radix pattern is outside its allowed range."""


class InvalidChannelError(ShuffleNetError, ValueError):
    """A (port, wavelength) pair that routes past the device's physical ports."""


class CapacityError(ShuffleNetError):
    """A requested network or input exceeds the configured channel-count cap."""


class ParseError(ShuffleNetError, ValueError):
    """A serialized document is malformed."""


class IntegrityError(ShuffleNetError):
    """A parsed document is well-formed but inconsistent with its own parameters."""


def check_positive(name: str, value: object) -> None:
    """Raise DomainError unless ``value``, the dimension ``name``, is an int of at least 1.

    The type must be int exactly: a bool or a float that compares >= 1 is no dimension.
    """
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {_decimal(value)}")


def check_index(what: str, value: int, bound: int, *values: object) -> None:
    """Raise DomainError unless ``value`` is an int in [0, bound), worded by the template ``what``.

    ``what`` is a template of the fields ``{value}`` and ``{bound}`` and of
    a ``{}`` for each of ``values``, worded as :func:`check_cap` words. As
    for a dimension, a bool or a float that compares in range is refused.
    """
    if type(value) is not int or not 0 <= value < bound:
        raise DomainError(_format(what, *values, value=value, bound=bound))


def check_cap(what: str, count: int, cap: int, *values: object) -> None:
    """Raise CapacityError when ``count`` exceeds ``cap``, worded by the template ``what``.

    ``what`` is a ``str.format`` template of the fields ``{count}`` and
    ``{cap}`` and of a ``{}`` for each of ``values``. Every integer, and
    each of a tuple of them, is printed in decimal, or, past the digits
    ``str`` prints (4,300 by default), by its number of digits.
    """
    if count > cap:
        raise CapacityError(_format(what, *values, count=count, cap=cap))


def _format(template: str, *values: object, **fields: object) -> str:
    """``template`` filled with ``values`` and ``fields``, each worded by :func:`_decimal`."""
    return template.format(*map(_decimal, values), **{k: _decimal(v) for k, v in fields.items()})


def _decimal(value: object) -> str:
    """``value`` in decimal, or ``<k digits>`` when it has too many digits to print, and a
    tuple (of radices) as it prints, each element worded so."""
    if type(value) is tuple:
        return f"({', '.join(map(_decimal, value))}{',' * (len(value) == 1)})"
    try:
        return str(value)
    except ValueError:  # the int-to-str digit limit
        size = abs(value)
        digits = int(size.bit_length() * log10(2))  # the count, or one less
        return f"{'-' * (value < 0)}<{digits + (10 ** digits <= size)} digits>"
