"""Topology and report documents: canonical JSON, DOT graph text, CSV.

JSON output is canonical (sorted keys, two-space indent, plain decimal
integers, trailing newline) so serialized artifacts are diff-stable and
belong in version control. A topology document is rendered straight
from the fabric's integer tuples: json.dumps lays out one skeleton
cable and one skeleton channel per fabric, with a ``%d`` slot for every
per-entry integer, and C-level ``map`` calls over at most _BLOCK
entries fill them, ASCII bytes, with plain ints. The m routers are
copies, so 19 of a channel's 31 slots repeat in every router row of a
group: its first row fills them into n row templates once, and a window
of whole rows that repeats that row (the same wavelengths, the same
outputs modulo n*g) fills only the other 12. Any other window, and
every window when m = 1 or n > _BLOCK, fills the whole template. At
W(16,32,16) this took render, read and reject from 4.8, 5.2 and 5.4 to
2.6, 3.0 and 3.1 us a channel. One generator renders the document in
order, as bytes in chunks of _BLOCK list entries, and the reader
compares with blocks of the same entries; another renders DOT in chunks
of a bounded number of lines. One table maps each export format to its
generator: ``serialize_topology`` joins a format's chunks and ``synth``
streams them to the file. Cables come from the wiring law (port b of
group a lands on input a of router b), not from ``Topology.cables``, a
view nothing in the package reads.

Parsing walks the input text once, in document order. Top-level values
are decoded whole, except the cable and channel lists: those are walked
against the fabric that the fixed tail of a canonical document names
(input without one is walked first to find its params). The fabric's
entries are rendered a block at a time, and a block that is the input's
text is passed with one comparison. In any other block, an entry whose
text is the fabric's canonical entry is passed undecoded; any other is
decoded alone, validated and compared with the fabric's, so the
comparison is type-strict (``true`` or ``1.0`` never stand in for
``1``) while key order, whitespace and metadata may differ. The outcome
is decided at the end: a structural problem anywhere is a ParseError;
only then is the first disagreeing section or entry an IntegrityError.
Text the decoder rejects stops the walk where json.loads stops, and
json.loads words the error.

The skeletons the renderer fills also state the schema that validation
checks: it walks them in their own key order, which fixes which of
several structural problems is named first.
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
from collections import namedtuple
from functools import lru_cache
from itertools import chain, islice, repeat, tee
from json.decoder import scanstring
from operator import add, floordiv, mod, mul

from ._version import __version__
from .addressing import digit_separator
from .awg import AwgSpec
from .errors import (
    EXPORT_FORMATS,
    CapacityError,
    DomainError,
    IntegrityError,
    ParseError,
    ShuffleNetError,
)
from .topology import (
    DEFAULT_CHANNEL_CAP,
    NetworkParams,
    Topology,
    build_network,
    fiber_wavelengths,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: writing a fabric never loads the checks or typing
    from typing import Any, Iterable, Iterator
    from .analysis import ResourceMetrics, VerificationReport

__all__ = [
    "SCHEMA_VERSION",
    "parse_topology",
    "serialize_report",
    "serialize_topology",
    "topology_document",
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
    # rendering sorts the keys, which fixes the slot order _channel_fills
    # fills; the order here is the one validation checks them in
    return {
        "input": _address_skeleton(p.input_radices),
        "middle": _address_skeleton(p.middle_radices),
        "output": _address_skeleton(p.output_radices),
        "input_locus": _LOCUS_SKELETON,
        "middle_locus": _LOCUS_SKELETON,
        "output_locus": _LOCUS_SKELETON,
        "wavelength": _SLOT,
    }


def _template(skeleton: dict[str, Any]) -> bytes:
    """ASCII %-template of one list entry: json.dumps's own pretty text for ``skeleton``."""
    text = json.dumps(skeleton, **_PRETTY)
    text = "    " + text.replace("\n", "\n    ")  # entries sit at the second indent level
    return text.replace(f'"{_SLOT}"', _SLOT).encode()


def _lists(topology: Topology) -> dict[str, Iterator[bytes]]:
    """The cable and channel entries, rendered as they are read; cables by the wiring law."""
    p = topology.params
    groups = tee(chain.from_iterable(map(repeat, range(p.g), repeat(p.m))))
    ports = tee(chain.from_iterable(repeat(range(p.m), p.g)))
    cables = zip(groups[0], ports[0], ports[1], groups[1])
    return {"cables": map(mod, repeat(b"\n" + _template(_CABLE_SKELETON)), cables),
            "channels": chain.from_iterable(_channel_fills(topology))}


def _channel_fills(topology: Topology) -> Iterator[Iterator[bytes]]:
    """The channel entries, in fills of at most _BLOCK entries (see the module docstring)."""
    p = topology.params
    g, m, n, gn, mn = p.g, p.m, p.n, p.g * p.n, p.m * p.n
    outputs, wavelengths = topology.outputs, topology.wavelengths
    entry = b"\n" + _template(_channel_skeleton(p))

    def full(inputs: range) -> Iterator[bytes]:
        outs, ws = outputs[inputs.start:inputs.stop], wavelengths[inputs.start:inputs.stop]
        cs, rows = [*map(mod, inputs, repeat(n))], [*map(floordiv, inputs, repeat(n))]  # a*m + b
        As, bs = [*map(floordiv, rows, repeat(m))], [*map(mod, rows, repeat(m))]
        middles = map(add, map(mul, map(add, map(mul, bs, repeat(g)), As), repeat(n)), cs)
        routers, origins = [*map(floordiv, outs, repeat(gn))], [*map(mod, outs, repeat(g))]
        qs = [*map(mod, map(floordiv, outs, repeat(g)), repeat(n))]
        return map(mod, repeat(entry), zip(
            inputs, As, bs, cs, As, bs, cs, As, bs, ws, middles, bs, As, cs, bs, As, cs, bs, As, ws,
            outs, routers, qs, origins, routers, qs, origins, routers, qs, ws, ws))

    # the n first-row values of each group in ``first``, repeated for each of ``rows`` rows
    def spread(first: Iterable[Any], rows: int) -> tuple[Any, ...]:
        return tuple(chain.from_iterable(map(mul, zip(*[iter(first)] * n), repeat(rows))))

    if m == 1 or n > _BLOCK:  # no router row repeats within a window
        for i in range(0, p.channel_count, _BLOCK):
            yield full(range(i, min(i + _BLOCK, p.channel_count)))
        return
    groups, rows = max(_BLOCK // mn, 1), min(_BLOCK // n, m)  # a window's whole groups or rows
    # the row template: the 12 row slots escaped, so that filling the other 19 leaves them open
    pieces, row = entry.split(b"%d"), (0, 2, 5, 8, 10, 11, 14, 17, 20, 21, 24, 27)
    row_entry = b"".join(chain.from_iterable(
        zip(pieces, [b"%%d" if k in row else b"%d" for k in range(len(pieces) - 1)]))) + pieces[-1]
    for a0 in range(0, g, groups):
        a1 = min(a0 + groups, g)
        As, cs = [*map(floordiv, range(a0 * n, a1 * n), repeat(n))], [*range(n)] * (a1 - a0)
        firsts = [*map(add, map(mul, As, repeat(mn)), cs)]
        ws = [*map(wavelengths.__getitem__, firsts)]
        relative = [*map(mod, map(outputs.__getitem__, firsts), repeat(gn))]  # q*g + origin
        qs, origins = [*map(floordiv, relative, repeat(g))], [*map(mod, relative, repeat(g))]
        templates = [*map(mod, repeat(row_entry), zip(
            As, cs, As, cs, As, ws, As, cs, As, cs, As, ws, qs, origins, qs, origins, qs, ws, ws))]
        for b0 in range(0, m, rows):
            b1 = min(b0 + rows, m)
            i0, i1 = (a0 * m + b0) * n, ((a1 - 1) * m + b1) * n
            outs = outputs[i0:i1]
            if (wavelengths[i0:i1] != spread(ws, b1 - b0)
                    or tuple(map(mod, outs, repeat(gn))) != spread(relative, b1 - b0)):
                yield full(range(i0, i1))
                continue
            bs = [*chain.from_iterable(map(repeat, range(b0, b1), repeat(n)))] * (a1 - a0)
            # middle decimal (b*g + a)*n + c, where a*n + c runs over range(a0*n, a1*n)
            middles = map(add, map(mul, bs, repeat(gn)), spread(range(a0 * n, a1 * n), b1 - b0))
            routers = [*map(floordiv, outs, repeat(gn))]
            yield map(mod, spread(templates, b1 - b0), zip(
                range(i0, i1), bs, bs, bs, middles, bs, bs, bs, outs, routers, routers, routers))


def _list_chunks(entries: Iterator[bytes]) -> Iterator[bytes]:
    """A pretty list section of one or more entries, like json.dumps, _BLOCK entries a chunk."""
    opening = b"["
    while block := list(islice(entries, _BLOCK)):
        yield opening
        yield b",".join(block)
        opening = b","
    yield b"\n  ]"


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


def _json_chunks(topology: Topology) -> Iterator[bytes]:
    """The canonical JSON of ``topology``, in order, as chunks of ASCII bytes.

    Sorted keys put ``awg_bank`` before the two lists and ``metadata``,
    ``params`` and ``schema_version`` after them, so the document is its
    head, the cable list, the text between the lists, the channel list
    and its tail. Each list comes in chunks of at most _BLOCK entries of
    ``_lists``, the iterator the reader compares with.
    """
    head, *after = _frame(topology.params)
    yield head.encode()
    for entries, text in zip(_lists(topology).values(), after):
        yield from _list_chunks(entries)
        yield text.encode()


def _dot_lines(p: NetworkParams) -> Iterator[str]:
    """Left-to-right layered graph: input groups, then the router bank.

    One edge per cable, group-major, labeled with the wavelengths its
    fiber carries. Edges carry kind="cable" normally and kind="direct"
    when m = 1 and the inputs plug straight into the single router.
    """
    yield from (
        "digraph wdm_shuffle {", "  rankdir=LR;", "  node [shape=box];",
        f'  label="W({p.g},{p.m},{p.n}): {p.channel_count}-channel shuffle";',
        "  subgraph cluster_groups {", '    label="input groups";',
    )
    yield from (f"    grp{a};" for a in range(p.g))
    yield from ("  }", "  subgraph cluster_awgs {", f'    label="{p.g}x{p.n} AWGs";')
    yield from (f"    awg{b};" for b in range(p.m))
    yield "  }"
    kind = "direct" if p.m == 1 else "cable"
    for a in range(p.g):  # the fibers of a group carry one set; port b lands on router b
        carried = ",".join([f"l{w}" for w in fiber_wavelengths(p, a)])
        edge = (
            f'  grp{a} -> awg%d [label="{carried}", kind="{kind}", '
            f'taillabel="p%d", headlabel="in{a}"];'
        )
        for b in range(p.m):
            yield edge % (b, b)
    yield "}"


def _dot_chunks(topology: Topology) -> Iterator[bytes]:
    """The DOT text of ``topology``, in order, as ASCII chunks of at most _BLOCK lines."""
    lines = _dot_lines(topology.params)
    while block := list(islice(lines, _BLOCK)):
        yield ("\n".join(block) + "\n").encode()


# Each export format and the generator of its chunks, in the order ``synth`` offers them.
_EXPORTS = dict(zip(EXPORT_FORMATS, (_json_chunks, _dot_chunks), strict=True))


def topology_document(topology: Topology) -> dict[str, Any]:
    """JSON-ready dict for one topology (schema version 1): its canonical JSON, parsed."""
    return json.loads(serialize_topology(topology, "json"))


def serialize_topology(topology: Topology, fmt: str = "json") -> bytes:
    """Render a topology as canonical JSON or DOT bytes: the joined chunks of that format."""
    if fmt not in list(_EXPORTS):  # by equality, so an unhashable fmt is unknown too
        formats = " or ".join(map(repr, _EXPORTS))
        raise DomainError(f"unsupported format {fmt!r} (expected {formats})")
    buffer = io.BytesIO()  # CPython returns the grown buffer itself: held once, not twice
    buffer.writelines(_EXPORTS[fmt](topology))
    return buffer.getvalue()


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
    An OSError from staging (a missing or unwritable directory) or from
    the rename (``path`` a directory) names ``path``, not the staged file.
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
        try:
            os.replace(staged, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
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


def _validate(obj: Any, skeleton: dict[str, Any], path: str) -> None:
    """Raise ParseError unless ``obj`` holds every key of ``skeleton`` with a value of its kind.

    Keys are checked in the skeleton's order. A slot or an integer
    stands for an integer, any other string for a string, a list for a
    list of integers, and an object for an object walked in turn.
    """
    for key, shape in skeleton.items():
        kind = int if shape is _SLOT else type(shape)
        value = obj.get(key) if type(obj) is dict else None
        if type(value) is not kind:
            _require(obj, key, kind, path)  # words the error
        if kind is dict:
            _validate(value, shape, f"{path}.{key}")
        elif kind is list:
            for pos, item in enumerate(value):
                if type(item) is not int:
                    raise ParseError(f"{path}.{key}[{pos}] must be an integer")


# Validation reads only the kinds in a skeleton, which every fabric shares.
_UNIT = NetworkParams(1, 1, 1)
_HEADER_SKELETON = {"params": _params_json(_UNIT), "awg_bank": _awg_bank_json(1, _UNIT.awg_spec)}
_ENTRY_SKELETONS = {"cables": _CABLE_SKELETON, "channels": _channel_skeleton(_UNIT)}


def _validate_header(doc: Any) -> None:
    version = _require(doc, "schema_version", str, "$")
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"$.schema_version is {version!r}, this reader supports {SCHEMA_VERSION!r}"
        )
    _validate(doc, _HEADER_SKELETON, "$")


@lru_cache
def _document_budget(max_channels: int) -> int:
    """Bytes that no canonical document of a fabric within the cap exceeds.

    No integer in such a document exceeds max_channels and a fabric has
    at most one cable per channel, so a header, cable and channel entry
    with every integer (radices included) at that many digits bound it.
    """
    widest = int("9" * len(str(max_channels)))
    params = NetworkParams(widest, widest, widest)
    cable = len(_template(_CABLE_SKELETON) % ((widest,) * 4))
    channel = len(_template(_channel_skeleton(params)) % ((widest,) * 31))
    # each list adds "[\n" and "\n  ]", and at most one ",\n" per entry
    frame = sum(map(len, _frame(params))) + 2 * (len("[\n") + len("\n  ]"))
    return frame + max_channels * (cable + channel + 2 * len(",\n"))


# The canonical tail: sorted keys put params and schema_version last.
_CANONICAL_TAIL = re.compile(
    r'\n  "params": \{\n    "channel_count": [0-9]+,\n    "g": ([0-9]+),\n'
    r'    "lambda_count": [0-9]+,\n    "m": ([0-9]+),\n    "n": ([0-9]+)\n'
    r'  \},\n  "schema_version": "1"\n\}\n\Z'
)
_TAIL_SPAN = 256  # characters of input searched for the canonical tail

_SPACE = re.compile(r"[ \t\n\r]*").match  # what the decoder skips between tokens
_DECODE = json.JSONDecoder().raw_decode  # one value at an offset, as json.loads decodes it


# A walked list: the offset of its "[", its entries, its first structural error and first mismatch
_Survey = namedtuple("_Survey", "start count problem mismatch")


def _survey(
    text: str, source: str | bytes, start: int, section: str, topology: Topology | None,
    validate: bool = True,
) -> tuple[_Survey, int]:
    """Walk the list at ``start`` in document order; return what it holds and where it ends.

    The fabric's entries come from the writer's iterator (``_lists``), one
    _BLOCK at a time, as bytes, decoded for a ``str`` source; the input's
    own bytes are the source when their offsets are those of ``text``
    (ASCII). When a block's first entry is the text at hand, the whole block
    is compared with one ``startswith`` and, if it matches, passed in one
    step. Otherwise each entry that is the fabric's canonical text is passed
    undecoded; any other is decoded alone, validated unless ``validate`` is
    false (an earlier walk did), compared with the fabric's and dropped;
    without a fabric it is only validated.
    """
    entries = iter(()) if topology is None else _lists(topology)[section]
    comma = b","
    if isinstance(source, str):  # decoded input: compare with decoded entries
        entries, comma = map(bytes.decode, entries), ","
    pieces: Iterator[str | bytes] = iter(())  # the fabric's entries ahead in this block
    count, problem, mismatch = 0, None, None
    pos = start + 1  # past "[", and after that past each ","
    while True:
        piece = next(pieces, None)
        if piece is None and (piece := next(entries, None)) is not None:  # the fabric's next block
            pieces = islice(entries, _BLOCK - 1)
            if source.startswith(piece, pos):  # a canonical first entry: compare the block whole
                block = [piece, *pieces]
                whole = comma.join(block)
                if source.startswith(whole, pos):
                    piece, count = whole, count + len(block) - 1  # passed as one entry
                else:
                    pieces = iter(block[1:])
                del block, whole  # so that no two blocks are held at once
        if piece is not None and source.startswith(piece, pos):
            pos += len(piece)
        else:
            pos = _SPACE(text, pos).end()
            if not count and text.startswith("]", pos):
                break  # an empty list
            value, pos = _DECODE(text, pos)
            if validate and problem is None:
                try:
                    _validate(value, _ENTRY_SKELETONS[section], f"$.{section}[{count}]")
                except ParseError as exc:
                    problem = exc
            # once validated, an entry equal to the fabric's (its text is
            # ``piece``) is the same JSON, integers as integers
            if piece is not None and problem is None and mismatch is None:
                if value != json.loads(piece):
                    mismatch = count
        count += 1
        if not text.startswith(",", pos):  # a canonical "," follows at once
            pos = _SPACE(text, pos).end()
            if text.startswith("]", pos):
                break
            if not text.startswith(",", pos):
                raise ValueError  # out of place: json.loads words it
        pos += 1
    return _Survey(start, count, problem, mismatch), pos + 1


def _walk(text: str, source: str | bytes, topology: Topology | None) -> Any:
    """The value ``text`` holds, each cable or channel list in it surveyed in place.

    The members of a top-level object are walked in order, and every
    other value is decoded whole; a repeated key keeps its last value,
    as json.loads does. Any other top-level value is decoded whole. The
    walk raises at the first text the decoder rejects.
    """
    pos = _SPACE(text).end()
    if not text.startswith("{", pos):
        return json.loads(text)
    doc: dict[str, Any] = {}
    pos = _SPACE(text, pos + 1).end()
    while doc or not text.startswith("}", pos):  # an empty object closes at once
        if not text.startswith('"', pos):
            raise ValueError  # out of place: json.loads words it
        key, pos = scanstring(text, pos + 1)
        pos = _SPACE(text, pos).end()
        if not text.startswith(":", pos):
            raise ValueError  # out of place: json.loads words it
        pos = _SPACE(text, pos + 1).end()
        if key in _ENTRY_SKELETONS and text.startswith("[", pos):
            doc[key], pos = _survey(text, source, pos, key, topology)
        else:
            doc[key], pos = _DECODE(text, pos)
        pos = _SPACE(text, pos).end()
        if text.startswith("}", pos):
            break
        if not text.startswith(",", pos):
            raise ValueError  # out of place: json.loads words it
        pos = _SPACE(text, pos + 1).end()
    if _SPACE(text, pos + 1).end() != len(text):
        raise ValueError  # data after the document: json.loads words it
    return doc


def _build(
    shape: tuple[int, ...], max_channels: int
) -> tuple[Topology | None, ShuffleNetError | None]:
    """The fabric of ``shape``, or the error a document with that shape ends in."""
    try:
        return build_network(*shape, max_channels=max_channels), None
    except DomainError as exc:
        return None, ParseError(f"$.params invalid: {exc}")
    except CapacityError as exc:
        return None, exc


def _settle(
    doc: dict[str, Any], topology: Topology | None, failure: ShuffleNetError | None
) -> Topology:
    """The fabric a walked document with a valid header holds, or the error it ends in.

    A structural problem anywhere comes first, then a shape that does
    not build, then the first section that differs from the fabric.
    """
    for section in _ENTRY_SKELETONS:
        survey = doc.get(section)
        if not isinstance(survey, _Survey):
            _require(doc, section, list, "$")  # raises: missing, or not a list
        if survey.problem is not None:
            raise survey.problem
    _require(doc, "metadata", dict, "$")
    if failure is not None:
        raise failure
    p = topology.params
    header = {"params": _params_json(p), "awg_bank": _awg_bank_json(p.m, topology.awg_spec)}
    for section, want in header.items():  # validated, so equal means the same JSON
        if doc[section] != want:
            raise IntegrityError(f"$.{section} is inconsistent with (g,m,n)=({p.g},{p.m},{p.n})")
    for section, expected in zip(_ENTRY_SKELETONS, (p.g * p.m, p.channel_count)):
        survey = doc[section]
        if survey.count != expected:
            raise IntegrityError(f"$.{section} has {survey.count} entries, expected {expected}")
        if survey.mismatch is not None:
            raise IntegrityError(
                f"$.{section}[{survey.mismatch}] is inconsistent with the fabric derived "
                "from its own parameters"
            )
    return topology


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

    The input is walked once against the fabric its canonical tail
    names. The fabric's list entries are rendered as bytes one block at
    a time, and a canonical block is passed with one comparison; in any
    other block, canonical entries are passed undecoded, so a tampered
    field costs one entry decoded. Input without that tail is walked
    once to find its params and validate its lists, and then, unless
    they hold a structural problem, its lists again against the fabric
    they name without validating them again.
    """
    budget = _document_budget(max_channels)
    if len(data) > budget:
        raise CapacityError(
            f"input of {len(data)} bytes is over the budget of {budget} bytes "
            f"for the cap of {max_channels} channels"
        )
    text = data
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc}") from None
    if not text or text.isspace():  # what text.strip() leaves empty, without a copy
        raise ParseError("empty input")
    tail = _CANONICAL_TAIL.search(text, max(len(text) - _TAIL_SPAN, 0))
    shape = tail and tuple(map(int, tail.groups()))
    topology, failure = _build(shape, max_channels) if shape else (None, None)
    source = data if isinstance(data, bytes) and text.isascii() else text
    try:
        doc = _walk(text, source, topology)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError or an over-long integer too
        try:  # the walk stopped where json.loads stops, which words the error in its context
            json.loads(text)
        except (ValueError, RecursionError) as error:
            exc = error
        raise ParseError(f"invalid JSON: {exc}") from None
    _validate_header(doc)
    if (params := tuple(doc["params"][key] for key in "gmn")) != shape:
        topology, failure = _build(params, max_channels)
        surveys = {key: value for key, value in doc.items() if isinstance(value, _Survey)}
        # the lists are validated already: compare them with the fabric they name,
        # unless a structural problem in them settles the outcome first
        if topology is not None and all(s.problem is None for s in surveys.values()):
            for key, survey in surveys.items():
                doc[key] = _survey(text, source, survey.start, key, topology, validate=False)[0]
    return _settle(doc, topology, failure)
