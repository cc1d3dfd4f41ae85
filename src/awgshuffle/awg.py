"""Passive cyclic wavelength router, the building block of the fabric.

A router with ``inputs`` input ports and ``outputs`` output ports
carries ``lambda_count = max(inputs, outputs)`` wavelengths, indexed
from zero; it has no state and never converts wavelengths. This module
is the one statement of the routing law: :func:`_wavelength_row` and
:func:`_route_row` each state one of its two laws, over entries with one
port each, and every operation here, like the fabric's build and traces,
reaches the law through them. A wavelength that routes at or past the
last physical output is dark at that input, which the labels refuse.

The two-digit labels turn routing into a digit exchange: the channel
labeled (p, q) on the input side leaves on the channel labeled (q, p)
on the output side, the perfect shuffle that the analysis module
verifies at scale. Everything here is a pure function over immutable
values and safe for concurrent use.
"""

from __future__ import annotations

from itertools import chain, product, repeat

from . import _all_of
from .addressing import ChannelAddress, _FrozenValue, _setattr
from .errors import (DEFAULT_CHANNEL_CAP, InvalidChannelError, _format, check_cap, check_index,
                     check_positive)

__all__ = _all_of(__spec__.name)


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


# the range checks of the ports and the wavelength, each shared by two or more operations
_INPUT_PORT = "input port {value} out of range for {bound}-input device"
_OUTPUT_PORT = "output port {value} out of range for {bound}-output device"
_WAVELENGTH = "wavelength index {value} out of range for {bound} wavelengths"


def _wavelength_row(lambda_count: int, ports, outputs) -> list[int]:
    """The wavelength law: input ``p`` reaches output ``q`` on ``(p + q) mod lambda_count``."""
    return [(p + q) % lambda_count for p, q in zip(ports, outputs)]


def _route_row(lambda_count: int, ports, wavelengths) -> list[int]:
    """The routing law: wavelength ``i`` entering input ``p`` exits ``(i - p) mod lambda_count``.

    ``ports`` holds each wavelength's port: a list for a block of rows,
    ``repeat(p)`` for one row, a 1-tuple for one wavelength. The law is
    symmetric in its ports, since ``i = p + q`` modulo ``lambda_count``,
    so read at outputs it gives the input each wavelength originates from.
    """
    return [(i - p) % lambda_count for p, i in zip(ports, wavelengths)]


def awg_route(spec: AwgSpec, p: int, i: int) -> int:
    """Output index reached by wavelength ``i`` entering input ``p``.

    The result is the raw cyclic value ``(i - p) mod lambda_count`` and
    may be >= ``spec.outputs``; such a result means wavelength ``i`` is
    dark at input ``p`` (there is no physical port for it). Callers that
    need hard validation should use the labeling operations.
    """
    check_index(_INPUT_PORT, p, spec.inputs)
    check_index(_WAVELENGTH, i, spec.lambda_count)
    return _route_row(spec.lambda_count, (p,), (i,))[0]


def awg_wavelength(spec: AwgSpec, p: int, q: int) -> int:
    """The unique wavelength that connects input ``p`` to output ``q``."""
    check_index(_INPUT_PORT, p, spec.inputs)
    check_index(_OUTPUT_PORT, q, spec.outputs)
    return _wavelength_row(spec.lambda_count, (p,), (q,))[0]


def awg_route_rows(spec: AwgSpec, inputs: range) -> tuple[list[int], list[int], list[int]]:
    """The rows of the inputs in a range, flattened input-major, each output q in q order.

    Validates the range by its ends, then returns ``(ports, carried,
    routed)``: input p, :func:`awg_wavelength` of (p, q) and
    :func:`awg_route` of that wavelength at p, which the law brings back
    to q. The lists are new and belong to the caller.
    """
    if inputs:  # a range's ends bound all of it
        check_index(_INPUT_PORT, inputs[0], spec.inputs)
        check_index(_INPUT_PORT, inputs[-1], spec.inputs)
    ports = list(chain.from_iterable(map(repeat, inputs, repeat(spec.outputs))))
    outputs = chain.from_iterable(repeat(range(spec.outputs), len(inputs)))
    carried = _wavelength_row(spec.lambda_count, ports, outputs)
    return ports, carried, _route_row(spec.lambda_count, ports, carried)


def valid_input_wavelengths(spec: AwgSpec, p: int) -> tuple[int, ...]:
    """The ``outputs`` wavelengths that are live at input ``p``, ascending."""
    check_index(_INPUT_PORT, p, spec.inputs)
    return tuple(sorted(_wavelength_row(spec.lambda_count, repeat(p), range(spec.outputs))))


def label_input_channel(spec: AwgSpec, p: int, i: int) -> ChannelAddress:
    """Two-digit address (port, routed output) of wavelength ``i`` at input ``p``."""
    low = awg_route(spec, p, i)
    if low >= spec.outputs:
        raise InvalidChannelError(_format("wavelength {} is dark at input {}: it routes to "
                                          "virtual output {} of a {}-output device",
                                          i, p, low, spec.outputs))
    return ChannelAddress((p, low), (spec.inputs, spec.outputs))


def label_output_channel(spec: AwgSpec, q: int, k: int) -> ChannelAddress:
    """Two-digit address (port, originating input) of wavelength ``k`` at output ``q``."""
    check_index(_OUTPUT_PORT, q, spec.outputs)
    check_index(_WAVELENGTH, k, spec.lambda_count)
    low = _route_row(spec.lambda_count, (q,), (k,))[0]  # read back from output q
    if low >= spec.inputs:
        raise InvalidChannelError(_format("wavelength {} at output {} has no originating input: it "
                                          "would need virtual input {} of a {}-input device",
                                          k, q, low, spec.inputs))
    return ChannelAddress((q, low), (spec.outputs, spec.inputs))


def awg_permutation(spec: AwgSpec) -> dict[ChannelAddress, ChannelAddress]:
    """Total input-channel to output-channel mapping of one router.

    Built by actually routing every valid channel, not by assuming the
    digit-exchange law: one :func:`awg_route_rows` call over all inputs
    gives the wavelength that connects each input ``p`` to each output
    ``low`` and the output it routes to, where
    :func:`label_output_channel` labels its exit.
    The exchange is asserted over this result by the test suite and the
    analysis module. The mapping covers all inputs * outputs valid
    channels, keyed in ascending address order, and is a bijection.
    Raises CapacityError, before routing, when they exceed the default
    channel cap.
    """
    check_cap("AwgSpec({},{}) has {count} channels, over the cap of {cap}",
              spec.inputs * spec.outputs, DEFAULT_CHANNEL_CAP, spec.inputs, spec.outputs)
    _, carried, routed = awg_route_rows(spec, range(spec.inputs))
    keys = map(ChannelAddress, product(range(spec.inputs), range(spec.outputs)),
               repeat((spec.inputs, spec.outputs)))
    return dict(zip(keys, map(label_output_channel, repeat(spec), routed, carried)))
