"""Exception types shared across the package, the size cap they enforce, and
the export format names, which the CLI reads without loading the exporters."""

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
