"""Passive cyclic wavelength router, the building block of the fabric.

A router with ``inputs`` input ports and ``outputs`` output ports
carries ``lambda_count = max(inputs, outputs)`` wavelengths, indexed
from zero. A signal entering input ``p`` on wavelength ``i`` always
exits output ``(i - p) mod lambda_count``; the device has no state, no
configuration, and never converts wavelengths. When the modular result
lands at or past the last physical output, that wavelength is dark at
that input: :func:`awg_route` still returns the raw value so callers
can enumerate valid-wavelength sets, while the labeling operations
raise :class:`~awgshuffle.errors.InvalidChannelError` instead.

The two-digit channel labels turn routing into a digit exchange: the
channel labeled (p, q) on the input side leaves on the channel labeled
(q, p) on the output side. That exchange is exactly the perfect-shuffle
permutation, which is what the analysis module verifies at scale.

This module is the one statement of the routing law. Each of its two
laws is written once, over a row: the wavelength law ``(p + q) mod
lambda_count`` over the outputs q of an input p, and the routing law
``(i - p) mod lambda_count`` over the wavelengths i entering p. The
scalar operations are the one-element case of a row, after validating
each index; :func:`awg_route_row` validates p once and then applies both
laws to the whole row, which is how the two-stage fabric's build routes
each router input. The fabric's trace and its build guard label through
this module: a trace takes the routed output from the input label and
the originating input from the output label, and the guard raises
through both.

Everything here is a pure function over immutable values and safe for
concurrent use.
"""

from __future__ import annotations

from .addressing import ChannelAddress, _FrozenValue, _setattr
from .errors import DomainError, InvalidChannelError, check_positive

__all__ = [
    "AwgSpec",
    "awg_permutation",
    "awg_route",
    "awg_wavelength",
    "label_input_channel",
    "label_output_channel",
    "valid_input_wavelengths",
]


class AwgSpec(_FrozenValue):
    """Dimensions of one cyclic wavelength router.

    ``lambda_count`` is derived, never passed: the device is always
    associated with max(inputs, outputs) wavelengths.
    """

    inputs: int
    outputs: int
    lambda_count: int
    __match_args__ = ("inputs", "outputs")

    def __post_init__(self) -> None:
        check_positive("inputs", self.inputs)
        check_positive("outputs", self.outputs)
        _setattr(self, "lambda_count", max(self.inputs, self.outputs))


def _check_input_port(spec: AwgSpec, p: int) -> None:
    if not 0 <= p < spec.inputs:
        raise DomainError(f"input port {p} out of range for {spec.inputs}-input device")


def _check_output_port(spec: AwgSpec, q: int) -> None:
    if not 0 <= q < spec.outputs:
        raise DomainError(f"output port {q} out of range for {spec.outputs}-output device")


def _check_wavelength(spec: AwgSpec, i: int) -> None:
    if not 0 <= i < spec.lambda_count:
        raise DomainError(
            f"wavelength index {i} out of range for {spec.lambda_count} wavelengths"
        )


def _wavelength_row(lambda_count: int, p: int, outputs) -> list[int]:
    """The wavelength law: input ``p`` reaches output ``q`` on ``(p + q) mod lambda_count``."""
    return [(p + q) % lambda_count for q in outputs]


def _route_row(lambda_count: int, p: int, wavelengths) -> list[int]:
    """The routing law: wavelength ``i`` entering input ``p`` exits ``(i - p) mod lambda_count``.

    The law is symmetric in its two ports, since ``i = p + q`` modulo
    ``lambda_count``, so the same row read at output ``p`` gives the
    input each wavelength originates from.
    """
    return [(i - p) % lambda_count for i in wavelengths]


def awg_route(spec: AwgSpec, p: int, i: int) -> int:
    """Output index reached by wavelength ``i`` entering input ``p``.

    The result is the raw cyclic value ``(i - p) mod lambda_count`` and
    may be >= ``spec.outputs``; such a result means wavelength ``i`` is
    dark at input ``p`` (there is no physical port for it). Callers that
    need hard validation should use the labeling operations.
    """
    _check_input_port(spec, p)
    _check_wavelength(spec, i)
    return _route_row(spec.lambda_count, p, (i,))[0]


def awg_wavelength(spec: AwgSpec, p: int, q: int) -> int:
    """The unique wavelength that connects input ``p`` to output ``q``."""
    _check_input_port(spec, p)
    _check_output_port(spec, q)
    return _wavelength_row(spec.lambda_count, p, (q,))[0]


def awg_route_row(spec: AwgSpec, p: int) -> tuple[list[int], list[int]]:
    """Wavelength and routed output of every output q of input ``p``, in q order.

    Validates ``p`` once, then returns ``(carried, routed)``: ``carried[q]``
    is :func:`awg_wavelength` of (p, q) and ``routed[q]`` is
    :func:`awg_route` of that wavelength at ``p``, which the law brings
    back to ``q``. Both lists are new and belong to the caller.
    """
    _check_input_port(spec, p)
    carried = _wavelength_row(spec.lambda_count, p, range(spec.outputs))
    return carried, _route_row(spec.lambda_count, p, carried)


def valid_input_wavelengths(spec: AwgSpec, p: int) -> tuple[int, ...]:
    """The ``outputs`` wavelengths that are live at input ``p``, ascending."""
    _check_input_port(spec, p)
    return tuple(sorted(_wavelength_row(spec.lambda_count, p, range(spec.outputs))))


def label_input_channel(spec: AwgSpec, p: int, i: int) -> ChannelAddress:
    """Two-digit address (port, routed output) of wavelength ``i`` at input ``p``."""
    low = awg_route(spec, p, i)
    if low >= spec.outputs:
        raise InvalidChannelError(
            f"wavelength {i} is dark at input {p}: it routes to virtual output "
            f"{low} of a {spec.outputs}-output device"
        )
    return ChannelAddress((p, low), (spec.inputs, spec.outputs))


def label_output_channel(spec: AwgSpec, q: int, k: int) -> ChannelAddress:
    """Two-digit address (port, originating input) of wavelength ``k`` at output ``q``."""
    _check_output_port(spec, q)
    _check_wavelength(spec, k)
    low = _route_row(spec.lambda_count, q, (k,))[0]  # read back from output q
    if low >= spec.inputs:
        raise InvalidChannelError(
            f"wavelength {k} at output {q} has no originating input: it would "
            f"need virtual input {low} of a {spec.inputs}-input device"
        )
    return ChannelAddress((q, low), (spec.outputs, spec.inputs))


def awg_permutation(spec: AwgSpec) -> dict[ChannelAddress, ChannelAddress]:
    """Total input-channel to output-channel mapping of one router.

    Built by actually routing every valid channel, not by assuming the
    digit-exchange law: for each input ``p`` and output ``low`` in
    ascending order, the wavelength :func:`awg_wavelength` assigns to
    that pair is routed by :func:`awg_route` and labeled at its exit.
    The exchange is asserted over this result by the test suite and the
    analysis module. The mapping covers all inputs * outputs valid
    channels, keyed in ascending address order, and is a bijection.
    """
    radices = (spec.inputs, spec.outputs)
    mapping: dict[ChannelAddress, ChannelAddress] = {}
    for p in range(spec.inputs):
        for low in range(spec.outputs):
            i = awg_wavelength(spec, p, low)
            q = awg_route(spec, p, i)
            mapping[ChannelAddress((p, low), radices)] = label_output_channel(spec, q, i)
    return mapping
