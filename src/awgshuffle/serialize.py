"""Topology and report documents: canonical JSON, DOT graph text, CSV.

JSON output is canonical (sorted keys, two-space indent, plain decimal
integers, trailing newline) so serialized artifacts are diff-stable and
belong in version control. A topology document is rendered straight
from the fabric's integer tuples: json.dumps lays out one skeleton
cable and one skeleton channel per fabric, with a ``%d`` slot for every
per-entry integer, and each entry fills that template with plain ints.
One generator renders the document in order, in chunks of a bounded
number of list entries, and reading compares with them; another renders
DOT in chunks of a bounded number of lines. One table maps each export
format to its generator: ``serialize_topology`` joins a format's chunks
and ``synth`` streams them to the file. Cables come from the wiring law
(port b of group a lands on input a of router b), not from
``Topology.cables``, a view nothing in the package reads.

Parsing takes (g, m, n) from the fixed tail of a canonical document,
builds that fabric and compares the input with its chunks byte for
byte, from the front and then from the back. Input has one of three
outcomes. Input equal to the chunks, to the last byte, is accepted
without being decoded. Input equal to them except for one run of
entries of one list has only that run decoded, validated and compared,
with the outcome the decoding path would reach. Any other input takes
the decoding path: it is decoded, its header validated, and the rebuilt
arrays rendered through the same templates in compact layout and
compared with the compact json.dumps of the parsed sections, so the
comparison is type-strict (``true`` or ``1.0`` never stand in for
``1``) while key order, whitespace and metadata may differ. A document
that differs is validated in full first, so a structural problem
anywhere is a ParseError; only then is the first disagreeing section or
entry an IntegrityError.

The skeletons the renderer fills also state the schema that validation
checks: it walks them in their own key order, which fixes which of
several structural problems is named first. One entry check serves
both parse paths: it counts a list's entries and compares their compact
JSON with the fabric's compact rows, for a whole list on the decoding
path and for the run in place on the other.
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
from functools import lru_cache
from itertools import islice, product
from typing import TYPE_CHECKING, Any, Iterable, Iterator

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

if TYPE_CHECKING:  # annotations only: writing a fabric never loads the checks
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
    # rendering sorts the keys, which fixes the slot order _channel_rows
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


def _template(skeleton: dict[str, Any], layout: dict[str, Any]) -> str:
    """%-template of one list entry: json.dumps's own text for ``skeleton``."""
    text = json.dumps(skeleton, **layout)
    if layout is _PRETTY:  # entries sit at the second indent level
        text = "    " + text.replace("\n", "\n    ")
    return text.replace(f'"{_SLOT}"', _SLOT)


def _cable_rows(topology: Topology, first: int) -> Iterator[tuple[int, ...]]:
    """Cable slot values from ``first`` on: port b of group a lands on input a of router b."""
    p = topology.params
    for a, b in islice(product(range(p.g), range(p.m)), first, None):
        yield a, b, b, a


def _channel_rows(topology: Topology, first: int) -> Iterator[tuple[int, ...]]:
    """Slot values of the channel entries from ``first`` on, derived from the integer tuples."""
    p = topology.params
    g, m, n = p.g, p.m, p.n
    outputs, wavelengths = topology.outputs, topology.wavelengths
    i = first
    for a, b in islice(product(range(g), range(m)), first // n, None):
        middle = (b * g + a) * n
        for c in range(i % n, n):  # i % n is 0 after the first (group, port)
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


def _list_chunks(
    skeleton: dict[str, Any], rows: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, bytes]]:
    """A pretty list section of one or more entries, like json.dumps, _BLOCK entries a chunk.

    Each chunk comes with the index of its first entry; the closing
    chunk has none, and comes with the entry count.
    """
    template = _template(skeleton, _PRETTY)
    rows = iter(rows)
    opening, first = "[\n", 0
    while block := list(islice(rows, _BLOCK)):
        yield first, (opening + ",\n".join([template % row for row in block])).encode()
        opening, first = ",\n", first + len(block)
    yield first, b"\n  ]"


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


def _lists(
    topology: Topology, first: int = 0
) -> dict[str, tuple[dict[str, Any], Iterator[tuple[int, ...]]]]:
    """Skeleton and slot rows, from entry ``first`` on, of the cable and the channel list."""
    return {
        "cables": (_CABLE_SKELETON, _cable_rows(topology, first)),
        "channels": (_channel_skeleton(topology.params), _channel_rows(topology, first)),
    }


def _labelled_chunks(topology: Topology) -> Iterator[tuple[str | None, int, bytes]]:
    """The canonical JSON of ``topology``, in order, as ASCII chunks.

    Sorted keys put ``awg_bank`` before the two lists and ``metadata``,
    ``params`` and ``schema_version`` after them, so the document is its
    head, the cable list, the text between the lists, the channel list
    and its tail. Each list comes in chunks of at most _BLOCK entries.
    Each chunk comes with its list (None around the lists) and the index
    of its first entry.
    """
    head, *after = _frame(topology.params)
    yield None, 0, head.encode()
    for (section, (skeleton, rows)), text in zip(_lists(topology).items(), after):
        for first, chunk in _list_chunks(skeleton, rows):
            yield section, first, chunk
        yield None, 0, text.encode()


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


def _json_chunks(topology: Topology) -> Iterator[bytes]:
    """The canonical JSON of ``topology``, in order, as ASCII chunks."""
    return (chunk for *_, chunk in _labelled_chunks(topology))


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


def _validate_document(doc: Any) -> None:
    _validate_header(doc)
    for section, skeleton in _ENTRY_SKELETONS.items():
        for pos, entry in enumerate(_require(doc, section, list, "$")):
            _validate(entry, skeleton, f"$.{section}[{pos}]")
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


def _common_prefix(a: bytes | str, b: bytes | str) -> int:
    """Length of the longest common prefix of two strings, or of two bytes values."""
    start, size = 0, min(len(a), len(b))
    for step in (4096, 64, 1):
        while start < size and a[start:start + step] == b[start:start + step]:
            start += step
    return min(start, size)


def _check_entries(
    topology: Topology, section: str, entries: list[Any], first: int = 0, end: int | None = None
) -> None:
    """Raise IntegrityError unless ``entries`` in place of first..end-1 make ``topology``'s list.

    ``end`` defaults to the list's end. The error names the list when
    its entry count would be wrong, else the first entry that differs in
    compact layout, which is meaningful for valid entries only.
    """
    p = topology.params
    expected = {"cables": p.g * p.m, "channels": p.channel_count}[section]
    end = expected if end is None else end
    skeleton, rows = _lists(topology, first)[section]
    template = _template(skeleton, _COMPACT)
    got = _compact(entries)
    want = "[" + ",".join([template % row for row in islice(rows, end - first)]) + "]"
    if got == want:
        return
    count = expected - (end - first) + len(entries)
    if count != expected:
        raise IntegrityError(f"$.{section} has {count} entries, expected {expected}")
    # entries are objects, and "},{" occurs only between two of them
    pos = first + want.count("},{", 0, _common_prefix(got, want))
    raise IntegrityError(
        f"$.{section}[{pos}] is inconsistent with the fabric derived from its own parameters"
    )


# The canonical tail: sorted keys put params and schema_version last.
_CANONICAL_TAIL = re.compile(
    rb'\n  "params": \{\n    "channel_count": [0-9]+,\n    "g": ([0-9]+),\n'
    rb'    "lambda_count": [0-9]+,\n    "m": ([0-9]+),\n    "n": ([0-9]+)\n'
    rb'  \},\n  "schema_version": "1"\n\}\n\Z'
)
_TAIL_SPAN = 256  # bytes of input searched for the canonical tail


# In a list chunk an entry's own braces, and nothing else, start a line
# at the second indent level (see _template).
_ENTRY_START = b"\n    {"
_ENTRY_END = b"\n    }"
_RUN_BRACKETS = 256  # a run decoded alone nests far below any recursion limit


def _settle_run(
    data: bytes, start: int, held: list[tuple[str | None, int, bytes]], topology: Topology
) -> bool:
    """Settle ``data`` without the decoding path if it differs from its document in one run.

    ``held`` is the canonical rendering, as _labelled_chunks yields it,
    from the first chunk that ``data`` does not match, which starts at
    byte ``start`` of both. If every byte outside entries j..l of one
    list is canonical, and the input's text R in their place is ASCII
    and decodes as ``[R]`` to one or more entries, then JSON's list
    grammar makes R decode in place of j..l too, and only those entries
    are validated and compared. The outcome is the decoding path's: True
    to accept, or its ParseError or IntegrityError. Otherwise the result
    is False, for that path.
    """
    section, first, chunk = held[0]
    prefix = start + _common_prefix(chunk, data[start:start + len(chunk)])
    # the run starts at the last entry start at or before the first difference
    opening = chunk.rfind(_ENTRY_START, 0, prefix - start + len(_ENTRY_START) - 1)
    if section is None or (opening < 0 and first == 0):
        return False
    if opening < 0:  # at the list's entry before this chunk, whose text data shares
        j, run_start = first - 1, data.rfind(_ENTRY_START, 0, start) + 1
    else:
        j, run_start = first + chunk.count(_ENTRY_START, 0, opening), start + opening + 1
    end = start + sum(len(c) for *_, c in held)
    shift = len(data) - end  # from the back, the input is the canonical text shifted by this
    for last_section, last_first, chunk in reversed(held):
        begin = end - len(chunk)
        if min(begin, begin + shift) < prefix or not data.endswith(chunk, 0, end + shift):
            suffix = _common_prefix(chunk[::-1], data[max(begin + shift, 0):end + shift][::-1])
            end -= min(suffix, end - prefix, end + shift - prefix)
            break
        end = begin
    # the difference ends at ``end``, and the run at the first entry end at or after it
    if last_section != section:
        return False
    if end == begin and last_first > 0:  # all held chunks match: text inserted at ``start``
        l, run_end = last_first - 1, begin
    else:
        closing = chunk.find(_ENTRY_END, max(end - begin - len(_ENTRY_END), 0))
        if closing < 0:
            return False
        l = last_first + chunk.count(_ENTRY_END, 0, closing)
        run_end = begin + closing + len(_ENTRY_END)
    run = data[run_start:run_end + shift]
    if run.count(b"[") + run.count(b"{") > _RUN_BRACKETS:
        return False
    try:
        entries = json.loads("[" + run.decode("ascii") + "]")
    except (ValueError, RecursionError):  # non-ASCII and over-long integers are ValueErrors too
        return False
    if not entries:
        return False
    for pos, entry in enumerate(entries, j):
        _validate(entry, _ENTRY_SKELETONS[section], f"$.{section}[{pos}]")
    _check_entries(topology, section, entries, j, l + 1)
    return True


def _canonical_match(data: bytes | str, max_channels: int) -> tuple[Topology | None, bool]:
    """The fabric a canonical tail of ``data`` names, and whether ``data`` is accepted.

    The fabric is None when ``data`` has no canonical tail or its shape
    does not build. ``data`` is compared with the fabric's canonical
    chunks in order. It is accepted when it equals them, to the last
    byte; from the first chunk that differs on, _settle_run accepts it,
    raises, or leaves it to the decoding path.
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
    pieces = _labelled_chunks(topology)
    for piece in pieces:
        if not data.startswith(piece[2], offset):
            return topology, _settle_run(data, offset, [piece, *pieces], topology)
        offset += len(piece[2])
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

    Input with a canonical tail is compared with the canonical chunks of
    the fabric that tail names, and ends in one of three ways. A
    canonical document, equal to the chunks to its last byte, is
    accepted without being decoded. A document equal to them except for
    one run of cable or channel entries, such as a tampered field, has
    only that run decoded, validated and compared, and ends as the
    decoding path would. Any other input, canonical tail or not, is
    decoded and checked section by section, reusing any fabric already
    built.
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
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an over-long integer
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
    header = {"params": _params_json(p), "awg_bank": _awg_bank_json(p.m, topology.awg_spec)}
    try:
        for section, want in header.items():
            if _compact(doc[section]) != _compact(want):
                raise IntegrityError(
                    f"$.{section} is inconsistent with (g,m,n)=({p.g},{p.m},{p.n})"
                )
        for section in _ENTRY_SKELETONS:
            # what validation would name first, with the header and any earlier list equal
            _check_entries(topology, section, _require(doc, section, list, "$"))
    except IntegrityError:
        _validate_document(doc)  # a structural problem anywhere outranks a disagreement
        raise
    _require(doc, "metadata", dict, "$")
    return topology
