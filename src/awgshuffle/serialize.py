"""Topology and report documents: canonical JSON, DOT graph text, CSV.

JSON output is canonical (sorted keys, two-space indent, plain decimal
integers, trailing newline) so serialized artifacts are diff-stable and
belong in version control. A topology document is rendered straight
from the fabric's integer tuples: json.dumps lays out one skeleton
cable and one skeleton channel per fabric, with a ``%d`` slot for every
per-entry integer, and each entry fills that template with plain ints.
One generator renders the document in order, in chunks of a bounded
number of list entries; writing joins the chunks, ``synth`` streams
them to the file, and reading compares with them.

Parsing takes (g, m, n) from the fixed tail of a canonical document,
builds that fabric and compares the input with its chunks byte for
byte; input equal to them, to the last byte, is accepted without being
decoded. Any other input is decoded, its header validated, and the
rebuilt arrays rendered through the same templates in compact layout
and compared with the compact json.dumps of the parsed sections, so the
comparison is type-strict (``true`` or ``1.0`` never stand in for
``1``) while key order, whitespace and metadata may differ. A document
that differs is validated in full first, so a structural problem
anywhere is a ParseError; only then is the first disagreeing section or
entry an IntegrityError.
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
from functools import lru_cache
from itertools import islice
from typing import Any, Iterable, Iterator

from ._version import __version__
from .addressing import digit_separator
from .analysis import VerificationReport, ResourceMetrics
from .awg import AwgSpec
from .errors import CapacityError, DomainError, IntegrityError, ParseError, ShuffleNetError
from .topology import (
    DEFAULT_CHANNEL_CAP,
    NetworkParams,
    Topology,
    build_network,
    fiber_wavelengths,
)

__all__ = [
    "SCHEMA_VERSION",
    "parse_topology",
    "serialize_report",
    "serialize_topology",
    "topology_document",
    "topology_dot",
    "tradeoff_csv",
    "write_bytes",
]

SCHEMA_VERSION = "1"

TRADEOFF_CSV_HEADER = "n,m,wavelengths,awg_inputs,awg_outputs,cables,channels"

_DIGIT_RENDERING_NOTE = (
    "most-significant digit first; digits concatenated when every radix <= 10, "
    "dot-separated decimal otherwise"
)
_CABLE_COUNT_NOTE = (
    "cable count tallies individual stage-1 fibers; 0 when m = 1 "
    "(inputs attach directly to the single router)"
)
_PORT_ORDER_NOTE = "decimal channel indices are group-major (row-major) over the digits"

_PRETTY = {"sort_keys": True, "indent": 2}
_COMPACT = {"sort_keys": True, "separators": (",", ":")}

_BLOCK = 1024  # list entries per chunk of a canonical document (about 1 MB of channels)

# A "%d" string in a skeleton becomes a bare %d slot of its template.
_SLOT = "%d"
_CABLE_SKELETON = {"from_group": _SLOT, "from_port": _SLOT, "to_awg": _SLOT, "to_input": _SLOT}
_LOCUS_SKELETON = {"device": _SLOT, "port": _SLOT, "wavelength": _SLOT}


def _address_skeleton(radices: tuple[int, ...]) -> dict[str, Any]:
    return {
        "decimal": _SLOT,
        "digits": [_SLOT] * 3,
        "radices": list(radices),
        "text": digit_separator(radices).join([_SLOT] * 3),
    }


def _channel_skeleton(p: NetworkParams) -> dict[str, Any]:
    # sorted keys fix the slot order that _channel_rows fills
    return {
        "input": _address_skeleton(p.input_radices),
        "input_locus": _LOCUS_SKELETON,
        "middle": _address_skeleton(p.middle_radices),
        "middle_locus": _LOCUS_SKELETON,
        "output": _address_skeleton(p.output_radices),
        "output_locus": _LOCUS_SKELETON,
        "wavelength": _SLOT,
    }


def _template(skeleton: dict[str, Any], layout: dict[str, Any]) -> str:
    """%-template of one list entry: json.dumps's own text for ``skeleton``."""
    text = json.dumps(skeleton, **layout)
    if layout is _PRETTY:  # entries sit at the second indent level
        text = "    " + text.replace("\n", "\n    ")
    return text.replace(f'"{_SLOT}"', _SLOT)


def _cable_rows(topology: Topology) -> Iterator[tuple[int, ...]]:
    for c in topology.cables:
        yield c.from_group, c.from_port, c.to_awg, c.to_input


def _channel_rows(topology: Topology) -> Iterator[tuple[int, ...]]:
    """Slot values of every channel entry, derived from the integer tuples."""
    p = topology.params
    g, m, n = p.g, p.m, p.n
    outputs, wavelengths = topology.outputs, topology.wavelengths
    i = 0
    for a in range(g):
        for b in range(m):
            middle = (b * g + a) * n
            for c in range(n):
                out, w = outputs[i], wavelengths[i]
                router_output, origin = divmod(out, g)
                router, q = divmod(router_output, n)
                yield (
                    i, a, b, c, a, b, c,  # input: decimal, digits, text
                    a, b, w,  # input_locus
                    middle + c, b, a, c, b, a, c,  # middle
                    b, a, w,  # middle_locus
                    out, router, q, origin, router, q, origin,  # output
                    router, q, w,  # output_locus
                    w,
                )
                i += 1


def _list_chunks(skeleton: dict[str, Any], rows: Iterable[tuple[int, ...]]) -> Iterator[bytes]:
    """A pretty list section of one or more entries, like json.dumps, _BLOCK entries a chunk."""
    template = _template(skeleton, _PRETTY)
    rows = iter(rows)
    opening = "[\n"
    while block := list(islice(rows, _BLOCK)):
        yield (opening + ",\n".join([template % row for row in block])).encode()
        opening = ",\n"
    yield b"\n  ]"


def _compact_list(skeleton: dict[str, Any], rows: Iterable[tuple[int, ...]]) -> str:
    """A list section in the compact layout of json.dumps."""
    template = _template(skeleton, _COMPACT)
    return "[" + ",".join([template % row for row in rows]) + "]"


def _params_json(p: NetworkParams) -> dict[str, int]:
    return {
        "g": p.g,
        "m": p.m,
        "n": p.n,
        "channel_count": p.channel_count,
        "lambda_count": p.lambda_count,
    }


def _awg_bank_json(count: int, spec: AwgSpec) -> dict[str, int]:
    return {
        "count": count,
        "inputs": spec.inputs,
        "outputs": spec.outputs,
        "lambda_count": spec.lambda_count,
    }


def _frame(params: NetworkParams) -> tuple[str, str, str]:
    """Canonical text before, between and after the cable and channel lists."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": _params_json(params),
        "awg_bank": _awg_bank_json(params.m, params.awg_spec),
        "cables": "<cables>",
        "channels": "<channels>",
        "metadata": {
            "generator": f"awgshuffle {__version__}",
            "digit_rendering": _DIGIT_RENDERING_NOTE,
            "cable_count_convention": _CABLE_COUNT_NOTE,
            "decimal_port_order": _PORT_ORDER_NOTE,
        },
    }
    text = json.dumps(doc, **_PRETTY) + "\n"
    head, rest = text.split('"<cables>"')
    between, tail = rest.split('"<channels>"')
    return head, between, tail


def _canonical_chunks(topology: Topology) -> Iterator[bytes]:
    """The canonical JSON of ``topology``, in order, as ASCII chunks.

    Sorted keys put ``awg_bank`` before the two lists and ``metadata``,
    ``params`` and ``schema_version`` after them, so the document is its
    head, the cable list, the text between the lists, the channel list
    and its tail. Each list comes in chunks of at most _BLOCK entries.
    """
    head, between, tail = _frame(topology.params)
    yield head.encode()
    yield from _list_chunks(_CABLE_SKELETON, _cable_rows(topology))
    yield between.encode()
    yield from _list_chunks(_channel_skeleton(topology.params), _channel_rows(topology))
    yield tail.encode()


def topology_document(topology: Topology) -> dict[str, Any]:
    """JSON-ready dict for one topology (schema version 1): its canonical JSON, parsed."""
    return json.loads(serialize_topology(topology, "json"))


def serialize_topology(topology: Topology, fmt: str = "json") -> bytes:
    """Render a topology as canonical JSON or DOT bytes."""
    if fmt == "json":
        buffer = io.BytesIO()  # CPython returns the grown buffer itself: held once, not twice
        buffer.writelines(_canonical_chunks(topology))
        return buffer.getvalue()
    if fmt == "dot":
        return topology_dot(topology).encode("utf-8")
    raise DomainError(f"unsupported format {fmt!r} (expected 'json' or 'dot')")


def topology_dot(topology: Topology) -> str:
    """Left-to-right layered graph: input groups, then the router bank.

    One edge per stage-1 connection, labeled with the wavelengths the
    fiber carries. Edges carry kind="cable" normally and kind="direct"
    when m = 1 and the inputs plug straight into the single router.
    """
    p = topology.params
    kind = "direct" if p.m == 1 else "cable"
    lines = [
        "digraph wdm_shuffle {",
        "  rankdir=LR;",
        "  node [shape=box];",
        f'  label="W({p.g},{p.m},{p.n}): {p.channel_count}-channel shuffle";',
        "  subgraph cluster_groups {",
        '    label="input groups";',
    ]
    lines.extend(f"    grp{a};" for a in range(p.g))
    lines.append("  }")
    lines.append("  subgraph cluster_awgs {")
    lines.append(f'    label="{p.g}x{p.n} AWGs";')
    lines.extend(f"    awg{b};" for b in range(p.m))
    lines.append("  }")
    for cable in topology.cables:
        carried = ",".join(
            f"l{w}" for w in fiber_wavelengths(p, cable.from_group)
        )
        lines.append(
            f'  grp{cable.from_group} -> awg{cable.to_awg} '
            f'[label="{carried}", kind="{kind}", '
            f'taillabel="p{cable.from_port}", headlabel="in{cable.to_input}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_report(report: VerificationReport) -> bytes:
    """Canonical JSON of one verification report."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": _params_json(report.params),
        "passed": report.passed,
        "permutation_size": report.permutation_size,
        "checks": [
            {
                "name": check.name,
                "passed": check.passed,
                "counterexample": check.counterexample,
            }
            for check in report.checks
        ],
    }
    return (json.dumps(doc, **_PRETTY) + "\n").encode("utf-8")


def tradeoff_csv(rows: list[ResourceMetrics]) -> bytes:
    """CSV rendering of a tradeoff table, fixed header and row order."""
    lines = [TRADEOFF_CSV_HEADER]
    lines.extend(
        f"{r.awg_outputs},{r.awg_count},{r.wavelength_count},"
        f"{r.awg_inputs},{r.awg_outputs},{r.cable_count},{r.channel_count}"
        for r in rows
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_bytes(path: str, data: bytes | Iterable[bytes]) -> None:
    """Atomic file write: stage to a temp file, then rename into place.

    ``data`` is the whole content or an iterable of chunks written in
    order, so a streamed document is never held whole in memory. Any
    exception, one raised while producing a chunk included, removes the
    staged file and leaves ``path`` as it was. The file gets the mode a
    plain ``open(path, "wb")`` gives a new file, 0o666 less the umask.
    An OSError from staging (a missing or unwritable directory) names
    ``path``, not the staged file.
    """
    chunks = (data,) if isinstance(data, bytes) else data
    # The umask is read by setting it: the strictest mask meanwhile keeps
    # a file another thread creates in that instant from being looser.
    umask = os.umask(0o777)
    os.umask(umask)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, staged = tempfile.mkstemp(dir=directory, prefix=".awgshuffle-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.chmod(staged, 0o666 & ~umask)  # mkstemp creates it owner-only
        os.replace(staged, path)
    except BaseException:
        try:
            os.unlink(staged)
        except OSError:
            pass
        raise


def _require(obj: Any, key: str, kind: type, path: str) -> Any:
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must be an object")
    if key not in obj:
        raise ParseError(f"{path}.{key} is missing")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{path}.{key} must be an integer")
    if not isinstance(value, kind):
        raise ParseError(f"{path}.{key} must be {kind.__name__}")
    return value


def _require_int_list(obj: Any, key: str, path: str) -> list[int]:
    values = _require(obj, key, list, path)
    for pos, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"{path}.{key}[{pos}] must be an integer")
    return values


def _validate_address(obj: Any, path: str) -> None:
    _require(obj, "decimal", int, path)
    _require_int_list(obj, "digits", path)
    _require_int_list(obj, "radices", path)
    _require(obj, "text", str, path)


def _validate_locus(obj: Any, path: str) -> None:
    for key in ("device", "port", "wavelength"):
        _require(obj, key, int, path)


def _validate_header(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise ParseError("$ must be an object")
    version = _require(doc, "schema_version", str, "$")
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"$.schema_version is {version!r}, this reader supports {SCHEMA_VERSION!r}"
        )
    params = _require(doc, "params", dict, "$")
    for key in ("g", "m", "n", "channel_count", "lambda_count"):
        _require(params, key, int, "$.params")
    bank = _require(doc, "awg_bank", dict, "$")
    for key in ("count", "inputs", "outputs", "lambda_count"):
        _require(bank, key, int, "$.awg_bank")


def _validate_document(doc: Any) -> None:
    _validate_header(doc)
    cables = _require(doc, "cables", list, "$")
    for pos, cable in enumerate(cables):
        for key in ("from_group", "from_port", "to_awg", "to_input"):
            _require(cable, key, int, f"$.cables[{pos}]")
    channels = _require(doc, "channels", list, "$")
    for pos, channel in enumerate(channels):
        path = f"$.channels[{pos}]"
        for key in ("input", "middle", "output"):
            _validate_address(_require(channel, key, dict, path), f"{path}.{key}")
        for key in ("input_locus", "middle_locus", "output_locus"):
            _validate_locus(_require(channel, key, dict, path), f"{path}.{key}")
        _require(channel, "wavelength", int, path)
    _require(doc, "metadata", dict, "$")


@lru_cache
def _document_budget(max_channels: int) -> int:
    """Bytes that no canonical document of a fabric within the cap exceeds.

    No integer in such a document exceeds max_channels and a fabric has
    at most one cable per channel, so a header, cable and channel entry
    with every integer (radices included) at that many digits bound it.
    """
    widest = int("9" * len(str(max_channels)))
    params = NetworkParams(widest, widest, widest)
    cable = len(_template(_CABLE_SKELETON, _PRETTY) % ((widest,) * 4))
    channel = len(_template(_channel_skeleton(params), _PRETTY) % ((widest,) * 31))
    # each list adds "[\n" and "\n  ]", and at most one ",\n" per entry
    frame = sum(map(len, _frame(params))) + 2 * (len("[\n") + len("\n  ]"))
    return frame + max_channels * (cable + channel + 2 * len(",\n"))


def _compact(value: Any) -> str:
    return json.dumps(value, **_COMPACT)


def _first_difference(got: str, want: str) -> int:
    """Offset of the first character where two unequal strings differ."""
    start, step = 0, 4096
    while got[start:start + step] == want[start:start + step]:
        start += step
    return next(i for i in range(start, start + step) if got[i:i + 1] != want[i:i + 1])


def _raise_first_disagreement(
    doc: dict[str, Any], got: dict[str, str], want: dict[str, str], topology: Topology
) -> None:
    """Raise IntegrityError for the first section or entry of a valid ``doc`` that differs.

    ``got`` and ``want`` hold each section of the document and of
    ``topology`` in compact layout.
    """
    params = doc["params"]
    for section in ("params", "awg_bank"):
        if got[section] != want[section]:
            raise IntegrityError(
                f"$.{section} is inconsistent with (g,m,n)="
                f"({params['g']},{params['m']},{params['n']})"
            )
    sizes = {"cables": len(topology.cables), "channels": topology.params.channel_count}
    for section, expected in sizes.items():
        count = len(doc[section])
        if count != expected:
            raise IntegrityError(f"$.{section} has {count} entries, expected {expected}")
        if got[section] != want[section]:
            offset = _first_difference(got[section], want[section])
            # entries are objects, and "},{" occurs only between two of them
            pos = want[section].count("},{", 0, offset)
            raise IntegrityError(
                f"$.{section}[{pos}] is inconsistent with the fabric "
                f"derived from its own parameters"
            )


# The canonical tail: sorted keys put params and schema_version last.
_CANONICAL_TAIL = re.compile(
    rb'\n  "params": \{\n    "channel_count": [0-9]+,\n    "g": ([0-9]+),\n'
    rb'    "lambda_count": [0-9]+,\n    "m": ([0-9]+),\n    "n": ([0-9]+)\n'
    rb'  \},\n  "schema_version": "1"\n\}\n\Z'
)
_TAIL_SPAN = 256  # bytes of input searched for the canonical tail


def _canonical_match(data: bytes | str, max_channels: int) -> tuple[Topology | None, bool]:
    """The fabric a canonical tail of ``data`` names, and whether ``data`` is its document.

    The fabric is None when ``data`` has no canonical tail or its shape
    does not build. ``data`` is compared with the fabric's canonical
    chunks in order, stopping at the first that differs.
    """
    if isinstance(data, str):
        if not data.isascii():
            return None, False
        data = data.encode("ascii")
    match = _CANONICAL_TAIL.search(data[-_TAIL_SPAN:])
    if match is None:
        return None, False
    try:
        topology = build_network(*map(int, match.groups()), max_channels=max_channels)
    except ShuffleNetError:
        return None, False
    offset = 0
    for chunk in _canonical_chunks(topology):
        if not data.startswith(chunk, offset):
            return topology, False
        offset += len(chunk)
    return topology, offset == len(data)


def parse_topology(
    data: bytes | str, *, max_channels: int = DEFAULT_CHANNEL_CAP
) -> Topology:
    """Reconstruct a topology from schema-version-1 JSON.

    Input longer than the largest canonical document of a fabric within
    ``max_channels`` raises CapacityError before it is decoded. The
    returned value is rebuilt from the document's (g, m, n), and every
    other section must equal the rebuilt fabric's exactly, integers as
    integers, so it passes every analysis check like a freshly built
    fabric. Structural problems raise ParseError with a JSON path, and
    outrank any disagreement; a well-formed document whose sections
    disagree with its own parameters raises IntegrityError naming the
    first differing section or entry.

    A canonical document is accepted by byte comparison: (g, m, n) come
    from its fixed tail, and the input must equal that fabric's
    canonical chunks exactly, to its last byte, so it is never decoded.
    Any other input, canonical tail or not, is decoded and checked
    section by section, reusing the fabric already built.
    """
    budget = _document_budget(max_channels)
    if len(data) > budget:
        raise CapacityError(
            f"input of {len(data)} bytes is over the budget of {budget} bytes "
            f"for the cap of {max_channels} channels"
        )
    topology, canonical = _canonical_match(data, max_channels)
    if canonical:
        return topology
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc}") from None
    if not data.strip():
        raise ParseError("empty input")
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    del data  # the decoded text is not needed again
    _validate_header(doc)

    params = doc["params"]
    shape = (params["g"], params["m"], params["n"])
    if topology is None or shape != (topology.params.g, topology.params.m, topology.params.n):
        try:
            topology = build_network(*shape, max_channels=max_channels)
        except DomainError as exc:
            _validate_document(doc)
            raise ParseError(f"$.params invalid: {exc}") from None
        except CapacityError:
            _validate_document(doc)
            raise

    p = topology.params
    want = {
        "params": _compact(_params_json(p)),
        "awg_bank": _compact(_awg_bank_json(p.m, topology.awg_spec)),
        "cables": _compact_list(_CABLE_SKELETON, _cable_rows(topology)),
        "channels": _compact_list(_channel_skeleton(p), _channel_rows(topology)),
    }
    got = {section: _compact(doc.get(section)) for section in want}
    if got != want:
        _validate_document(doc)  # a structural problem anywhere outranks a disagreement
        _raise_first_disagreement(doc, got, want, topology)
    _require(doc, "metadata", dict, "$")
    return topology
