"""Topology and report documents: canonical JSON, DOT graph text, CSV.

JSON output is canonical (sorted keys, two-space indent, plain decimal
integers, trailing newline), so serialized artifacts are diff-stable and
belong in version control. This module owns the schema: one json.dumps
skeleton per kind of entry states both the template the writer fills and
what the reader validates, in the skeleton's own key order, which fixes
which of several structural problems is named first (:func:`_validate`).

A topology document is rendered from the fabric's arrays as ASCII chunks
of at most _BLOCK whole list entries (:func:`_lists`; DOT in chunks of
_BLOCK lines), which :func:`serialize_topology` joins and ``synth``
streams. :func:`parse_topology` reads a document back by comparing its
lists with those same chunks (:func:`_walk`, :func:`_survey`) and
decides the outcome only at the end (:func:`_settle`).
"""

from __future__ import annotations

import io
import json
import os
import re
from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import chain, islice, repeat
from json.decoder import scanstring
from operator import add, floordiv, mod, mul

from . import _all_of
from ._version import __version__
from .addressing import digit_separator
from .errors import (
    DEFAULT_CHANNEL_CAP,
    EXPORT_FORMATS,
    CapacityError,
    DomainError,
    IntegrityError,
    ParseError,
    ShuffleNetError,
    check_cap,
)
from .topology import (
    NetworkParams,
    Topology,
    _cable_rows,
    build_network,
    fiber_wavelengths,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: writing a fabric never loads the checks or typing
    from typing import Any, Callable, Iterable, Iterator
    from .analysis import ResourceMetrics, VerificationReport

__all__ = _all_of(__spec__.name)

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

_BLOCK = 512  # list entries per chunk of a canonical document (about 0.5 MB of channels)

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
    """A channel entry of ``p``'s document: the input, middle and output addresses, their
    loci in the same stage order, then the wavelength, the order validation checks them in.

    Rendering sorts the keys, which gives the slot order :func:`_slots` states.
    """
    stages = {"input": p.input_radices, "middle": p.middle_radices, "output": p.output_radices}
    return {**{stage: _address_skeleton(radices) for stage, radices in stages.items()},
            **{f"{stage}_locus": _LOCUS_SKELETON for stage in stages}, "wavelength": _SLOT}


def _slots(stages: Iterable[tuple[Any, Any, Any, Any]], w: Any) -> list[Any]:
    """What fills a channel entry's 31 ``%d`` slots, in template order, from the (decimal,
    three digits) of its input, middle and output ``stages`` and its wavelength ``w``.

    Each stage fills its decimal, its digits, the same digits again for
    its text, then its locus: the first two digits and ``w``. The
    entry's own wavelength comes last. The values are columns, which the
    full fill zips, or tokens, which the row template reads.
    """
    return [*chain.from_iterable((d, x, y, z, x, y, z, x, y, w) for d, x, y, z in stages), w]


def _template(skeleton: dict[str, Any]) -> bytes:
    """ASCII %-template of one list entry: json.dumps's own pretty text for ``skeleton``."""
    text = json.dumps(skeleton, **_PRETTY)
    text = "    " + text.replace("\n", "\n    ")  # entries sit at the second indent level
    return text.replace(f'"{_SLOT}"', _SLOT).encode()


@lru_cache
def _templates(p: NetworkParams) -> tuple[bytes, bytes]:
    """The cable and the channel entry template of ``p``'s document, each after its newline."""
    return b"\n" + _template(_CABLE_SKELETON), b"\n" + _template(_channel_skeleton(p))


def _lists(topology: Topology) -> dict[str, Iterator[tuple[bytes, int]]]:
    """The cable and channel lists as they are read: chunks of whole entries, with their counts."""
    p = topology.params
    cables = map(mod, repeat(_templates(p)[0]), _cable_rows(p))  # the wiring law
    return {"cables": ((b",".join(islice(cables, _BLOCK)), min(_BLOCK, p.g * p.m - i))
                       for i in range(0, p.g * p.m, _BLOCK)),
            "channels": _channel_chunks(topology)}


def _channel_chunks(topology: Topology) -> Iterator[tuple[bytes, int]]:
    """The channel entries, in chunks of at most _BLOCK.

    Both fills, the full one and the row template's, read their slot
    order from :func:`_slots`. The m routers are copies, so 19 of an
    entry's 31 slots repeat in every router row of a group and 9 hold
    its router b: a group's first row fills the 19 once into a row text
    of n entries, a placeholder byte for b. A window of whole rows (of
    whole groups when m*n <= _BLOCK) whose wavelengths are that row's
    and whose outputs are its outputs plus b*n*g, exactly, is then one
    chunk: one ``bytes.replace`` a row for b and one ``%`` for the
    input, middle and output decimals. Any other window, and all when
    n > _BLOCK, fills the whole template, so a fabric built through the
    checked constructor renders its own values.
    """
    p = topology.params
    g, m, n, gn, mn = p.g, p.m, p.n, p.g * p.n, p.m * p.n
    outputs, wavelengths = topology.outputs, topology.wavelengths
    entry = _templates(p)[1]

    def full(i0: int, i1: int) -> tuple[bytes, int]:  # the window's words as ints, made once
        inputs, outs, ws = range(i0, i1), outputs[i0:i1].tolist(), wavelengths[i0:i1].tolist()
        cs, rows = [*map(mod, inputs, repeat(n))], [*map(floordiv, inputs, repeat(n))]  # a*m + b
        As, bs = [*map(floordiv, rows, repeat(m))], [*map(mod, rows, repeat(m))]
        middles = map(add, map(mul, map(add, map(mul, bs, repeat(g)), As), repeat(n)), cs)
        routers, origins = [*map(floordiv, outs, repeat(gn))], [*map(mod, outs, repeat(g))]
        qs = [*map(mod, map(floordiv, outs, repeat(g)), repeat(n))]
        stages = ((inputs, As, bs, cs), (middles, bs, As, cs), (outs, routers, qs, origins))
        return b",".join(map(mod, repeat(entry), zip(*_slots(stages, ws)))), i1 - i0

    # the n first-row values of each group in ``first``, repeated for each of ``rows`` rows
    def spread(first: Iterable[Any], rows: int) -> tuple[Any, ...]:
        return tuple(chain.from_iterable(map(mul, zip(*[iter(first)] * n), repeat(rows))))

    if n > _BLOCK:  # a router row is longer than a chunk
        for i in range(0, p.channel_count, _BLOCK):
            yield full(i, min(i + _BLOCK, p.channel_count))
        return
    groups, rows = max(_BLOCK // mn, 1), min(_BLOCK // n, m)  # a window's whole groups or rows
    # the row template, from _slots over tokens: router b's slots hold a placeholder byte and
    # the decimals' ("%") stay escaped, so that filling the other 19 columns leaves them open
    tokens = _slots((("%", "a", "b", "c"), ("%", "b", "a", "c"), ("%", "b", "q", "o")), "w")
    unfilled, pieces = {"b": b"\0", "%": b"%%d"}, entry.split(b"%d")
    slots = (unfilled.get(token, b"%d") for token in tokens)
    row_entry = b"".join(chain.from_iterable(zip(pieces, slots))) + pieces[-1]
    columns, digits = [t for t in tokens if t not in unfilled], [b"%d" % b for b in range(m)]
    for a0 in range(0, g, groups):
        a1 = min(a0 + groups, g)
        As, cs = [*map(floordiv, range(a0 * n, a1 * n), repeat(n))], [*range(n)] * (a1 - a0)
        firsts = [*map(add, map(mul, As, repeat(mn)), cs)]
        ws = [*map(wavelengths.__getitem__, firsts)]
        relative = [*map(mod, map(outputs.__getitem__, firsts), repeat(gn))]  # q*g + origin
        qs, origins = [*map(floordiv, relative, repeat(g))], [*map(mod, relative, repeat(g))]
        named = {"a": As, "c": cs, "w": ws, "q": qs, "o": origins}
        entries = map(mod, repeat(row_entry), zip(*map(named.__getitem__, columns)))
        texts = [*map(b",".join, zip(*[entries] * n))]  # each group's row text
        for b0 in range(0, m, rows):
            b1 = min(b0 + rows, m)
            i0, i1 = (a0 * m + b0) * n, ((a1 - 1) * m + b1) * n
            # b*g*n for each entry: router b's outputs are router 0's plus that, exactly
            offsets = [*chain.from_iterable(map(repeat, range(b0 * gn, b1 * gn, gn), repeat(n)))]
            offsets *= a1 - a0
            outs = [*map(add, offsets, spread(relative, b1 - b0))]
            # words against words (a view of the fabric's never equals a tuple or a list);
            # once equal, ``outs`` holds the window's outputs as ints, made once
            if (wavelengths[i0:i1] != array("I", spread(ws, b1 - b0))
                    or outputs[i0:i1] != array("I", outs)):
                yield full(i0, i1)
                continue
            # middle decimal (b*g + a)*n + c, where a*n + c runs over range(a0*n, a1*n)
            middles = map(add, offsets, spread(range(a0 * n, a1 * n), b1 - b0))
            rendered = chain.from_iterable(map(repeat, texts, repeat(b1 - b0)))
            placed = map(bytes.replace, rendered, repeat(b"\0"), digits[b0:b1] * (a1 - a0))
            decimals = chain.from_iterable(zip(range(i0, i1), middles, outs))
            yield b",".join(placed) % tuple(decimals), i1 - i0


def _params_json(p: NetworkParams) -> dict[str, int]:
    return {"g": p.g, "m": p.m, "n": p.n, "channel_count": p.channel_count,
            "lambda_count": p.lambda_count}


def _header(p: NetworkParams) -> dict[str, dict[str, int]]:
    """The ``params`` and ``awg_bank`` sections of ``p``'s document, in the order validation
    checks them."""
    spec = p.awg_spec
    return {"params": _params_json(p), "awg_bank": {
        "count": p.m, "inputs": spec.inputs, "outputs": spec.outputs,
        "lambda_count": spec.lambda_count}}


@lru_cache
def _frame(params: NetworkParams) -> tuple[str, str, str]:
    """Canonical text before, between and after the cable and channel lists."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_header(params),
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
    ``params`` and ``schema_version`` after them. Each list is the chunks
    of ``_lists``, the iterator the reader compares with.
    """
    head, *after = _frame(topology.params)
    yield head.encode()
    for chunks, text in zip(_lists(topology).values(), after):
        for k, (chunk, _) in enumerate(chunks):
            yield b"," if k else b"["
            yield chunk
        yield b"\n  ]" + text.encode()


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
        "checks": [{"name": c.name, "passed": c.passed, "counterexample": c.counterexample}
                   for c in report.checks],
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
    directory = os.path.dirname(os.path.abspath(path))
    staged = os.path.join(directory, ".awgshuffle-" + os.urandom(8).hex())
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(staged, flags, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
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
_HEADER_SKELETON = _header(_UNIT)
_ENTRY_SKELETONS = {"cables": _CABLE_SKELETON, "channels": _channel_skeleton(_UNIT)}


def _validate_header(doc: Any) -> None:
    version = _require(doc, "schema_version", str, "$")
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"$.schema_version is {version!r}, this reader supports {SCHEMA_VERSION!r}"
        )
    _validate(doc, _HEADER_SKELETON, "$")


@lru_cache
def _document_budget(cap: int = DEFAULT_CHANNEL_CAP) -> int:
    """Bytes that no canonical document of a fabric of at most ``cap`` channels exceeds.

    No integer in such a document exceeds the cap and a fabric has at
    most one cable per channel, so a header, cable and channel entry with
    every integer (radices included) at that many digits bound it. The
    reader budgets at the channel cap; a smaller ``cap`` sizes the formula.
    """
    widest = int("9" * len(str(cap)))
    params = NetworkParams(widest, widest, widest)
    cable, channel = (len(entry % ((widest,) * entry.count(b"%d")))
                      for entry in map(_template, (_CABLE_SKELETON, _channel_skeleton(params))))
    # each list adds "[\n" and "\n  ]", and at most one ",\n" per entry
    frame = sum(map(len, _frame(params))) + 2 * (len("[\n") + len("\n  ]"))
    return frame + cap * (cable + channel + 2 * len(",\n"))


_SPACE = re.compile(r"[ \t\n\r]*").match  # what the decoder skips between tokens
_DECODE = json.JSONDecoder().raw_decode  # one value at an offset, as json.loads decodes it
_WINDOW = 1 << 16  # ASCII input decoded at a time, in characters: all of a W(3,2,3) document
# the whitespace matcher and the punctuation marks of a walk, for each type of input
_SYNTAX = {str: (_SPACE, {c: c for c in '{}[]:,"'}),
           bytes: (re.compile(rb"[ \t\n\r]*").match, {c: c.encode() for c in '{}[]:,"'})}


class _Text:
    """The text a read walks: ``str`` input, or ASCII bytes walked in place.

    ASCII bytes have their text's offsets, so the walk skips whitespace,
    tests punctuation and compares chunks on the bytes themselves, and
    decodes only what ``scanstring`` and ``raw_decode`` read (:meth:`scan`).
    The punctuation between values is read by :meth:`token`, the one step
    that finds it out of place.
    """

    __slots__ = ("source", "space", "marks", "start", "window")

    def __init__(self, source: str | bytes) -> None:
        self.source, (self.space, self.marks) = source, _SYNTAX[type(source)]
        # a str is its own window; bytes get theirs when first scanned
        self.start, self.window = 0, source if isinstance(source, str) else ""

    def skip(self, pos: int) -> int:
        """The offset of the first token at or after ``pos``."""
        return self.space(self.source, pos).end()

    def at(self, pos: int, mark: str) -> bool:
        """Whether the punctuation ``mark`` stands at ``pos``."""
        return self.source.startswith(self.marks[mark], pos)

    def token(self, pos: int, *marks: str) -> tuple[str, int]:
        """Which of ``marks`` stands at the first token at or after ``pos``, and the offset
        past it. Any other text there is out of place: ValueError, which json.loads words."""
        pos = self.skip(pos)
        for mark in marks:
            if self.at(pos, mark):
                return mark, pos + 1
        raise ValueError

    def scan(self, scanner: Callable[[str, int], tuple[Any, int]], pos: int) -> tuple[Any, int]:
        """``scanner(text, offset)`` of the value at ``pos``, its end an offset of the input.

        ASCII bytes are scanned in a decoded window: the last one if it
        holds ``pos``, so that one decode serves the values after it, else
        one from ``pos``, _WINDOW characters long or twice what the last
        held after ``pos``. A value that fails or reaches the window's end
        is scanned again in a wider one, up to the end of the input, so a
        number cut short is never taken for a whole one.
        """
        size = len(self.source)
        while True:
            end = self.start + len(self.window)
            if self.start <= pos <= end:
                try:
                    value, stop = scanner(self.window, pos - self.start)
                except (ValueError, RecursionError):
                    if end == size:
                        raise
                else:
                    if self.start + stop < end or end == size:
                        return value, self.start + stop
            stop = pos + max(_WINDOW, 2 * (end - pos))
            self.start, self.window = pos, str(memoryview(self.source)[pos:stop], "ascii")


# A walked list: the offset of its "[", its entries, its first structural error and first mismatch
_Survey = namedtuple("_Survey", "start count problem mismatch")

_SEAM = b'\n    },\n    {\n      "'  # between two list entries, and nowhere else
_CLOSE = len(b"\n    }")  # the first entry's part of the seam


def _held(source: str | bytes, pos: int, chunk: str | bytes, at: int) -> int:
    """How much of ``chunk[at:]`` ``source`` holds at ``pos``.

    All of it is tested in one comparison, which passes a canonical
    chunk, or the rest of one after a differing entry. Otherwise the
    held length is found by galloping, then bisecting.
    """
    view = memoryview(chunk) if isinstance(chunk, bytes) else chunk  # str slices are copies
    if source.startswith(view[at:], pos):
        return len(chunk) - at
    lo, step, grow = 0, 1, True
    while step:  # lo characters are held; the next ``step`` are compared
        held = lo + step <= len(chunk) - at and source.startswith(
            view[at + lo:at + lo + step], pos + lo)
        lo, grow = lo + step * held, grow and held
        step = 2 * step if grow else step // 2
    return lo


def _survey(
    text: _Text, start: int, section: str, topology: Topology | None
) -> tuple[_Survey, int]:
    """Walk the list at ``start`` in document order; return what it holds and where it ends.

    The fabric's entries are the writer's chunks (``_lists``), decoded
    for ``str`` input. A chunk, or its rest after a decoded entry, is
    measured by :func:`_held` and passed whole, or the run of entries
    before the first character it differs in, an entry counting as held
    once its own text, to its "}", is held; the entry after such a run
    is decoded, validated, compared with the fabric's and dropped.
    Without a fabric each entry is only validated. The "," or "]" after
    an entry, or a run, is read by :meth:`_Text.token`.
    """
    source = text.source
    chunks = iter(()) if topology is None else _lists(topology)[section]
    seam = _SEAM
    if isinstance(source, str):  # decoded input: compare with decoded entries
        chunks, seam = ((c.decode(), k) for c, k in chunks), _SEAM.decode()
    chunk, at, left = seam[:0], 0, 0  # the fabric's chunk, its next entry's offset, entries left
    count, problem, mismatch = 0, None, None
    pos = start + 1  # past "[", and after that past each ","
    while True:
        if not left:  # the fabric's next chunk, the last one dropped first
            chunk = seam[:0]
            (chunk, left), at = next(chunks, (chunk, 0)), 0
        piece, size = None, 0
        if left:
            held = _held(source, pos, chunk, at)
            if at + held == len(chunk):  # every entry left
                end, size = at + held, left
            elif (end := chunk.rfind(seam, at, at + held + len(seam) - _CLOSE)) >= 0:
                end += _CLOSE  # whole entries, each held to its "}"
                size = chunk.count(seam, at, end) + 1
            else:  # the next entry alone
                end = len(chunk) if left == 1 else chunk.find(seam, at) + _CLOSE
                piece, at, left = chunk[at:end], end + 1, left - 1
        if size:  # passed as one entry
            pos, at, left, count = pos + end - at, end + 1, left - size, count + size - 1
        else:
            pos = text.skip(pos)
            if not count and text.at(pos, "]"):
                return _Survey(start, 0, None, None), pos + 1  # an empty list
            value, pos = text.scan(_DECODE, pos)
            if problem is None:
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
        mark, pos = text.token(pos, ",", "]")
        if mark == "]":
            return _Survey(start, count, problem, mismatch), pos


def _walk(text: _Text) -> tuple[Any, Topology | None]:
    """The value the input holds, its lists surveyed in place, and the fabric they were against.

    The members of a top-level object are walked in order, and every
    other value is decoded whole; a repeated key keeps its last value,
    as json.loads does. Every list is surveyed against the fabric fixed
    at the first: W(inputs, count, outputs) of the ``awg_bank`` decoded by
    then, if it builds within the channel cap. The walk raises at the
    first text the decoder rejects: a value it scans, punctuation out of
    place (``_Text.token``), or data after the document.
    """
    pos = text.skip(0)
    topology = None
    if not text.at(pos, "{"):
        doc, pos = text.scan(_DECODE, pos)
    else:
        doc, fixed = {}, False
        mark, pos = text.token(pos + 1, '"', "}")  # an empty object closes at once
        while mark == '"':
            key, pos = text.scan(scanstring, pos)
            pos = text.skip(text.token(pos, ":")[1])
            if key in _ENTRY_SKELETONS and text.at(pos, "["):
                if not fixed:  # a bank that does not build leaves the error to the params
                    bank, fixed = doc.get("awg_bank"), True
                    names = bank if type(bank) is dict else {}  # no dimensions: a DomainError
                    shape = tuple(map(names.get, ("inputs", "count", "outputs")))
                    topology = _build(shape)[0]
                doc[key], pos = _survey(text, pos, key, topology)
            else:
                doc[key], pos = text.scan(_DECODE, pos)
            mark, pos = text.token(pos, ",", "}")
            if mark == ",":
                mark, pos = text.token(pos, '"')
    if text.skip(pos) != len(text.source):
        raise ValueError  # data after the document: json.loads words it
    return doc, topology


def _build(shape: tuple[int, ...]) -> tuple[Topology | None, ShuffleNetError | None]:
    """The fabric of ``shape``, or the error a document with that shape ends in: a
    ParseError for a shape with no fabric, a CapacityError for one over the channel cap."""
    try:
        return build_network(*shape), None
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
    for section, want in _header(p).items():  # validated, so equal means the same JSON
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


def parse_topology(data: bytes | str | bytearray | memoryview) -> Topology:
    """Reconstruct a topology from schema-version-1 JSON.

    Input longer than the largest canonical document of a fabric within
    the channel cap, one million channels (1,321,000,758 bytes), raises
    CapacityError before it is decoded. The returned value is rebuilt
    from the document's (g, m, n), and every other section must equal
    the rebuilt fabric's exactly, integers as integers, so it passes
    every analysis check like a freshly built fabric. Structural problems
    raise ParseError with a JSON path, and outrank any disagreement; a
    well-formed document whose sections disagree with its own parameters
    raises IntegrityError naming the first differing section or entry.
    Text that json.loads rejects is a ParseError in json.loads's words,
    and input that ``str.strip()`` would leave empty is a
    ParseError("empty input").

    The input is walked once (:func:`_walk`), its lists again only when
    they precede the ``awg_bank`` or were walked against another fabric
    than the params name. A canonical chunk of a list is passed with one
    comparison, and a tampered field costs one entry decoded. ASCII
    ``bytes`` are walked in place and never decoded whole, so a
    canonical read holds about one chunk of the writer's beside its
    input. Other ``bytes`` are decoded as UTF-8 first, a ``str`` is
    walked as it is, a subclass of either is read as its base type, and
    another buffer (``bytearray``, ``memoryview``) as a copy of its
    bytes. Malformed input, a blank one included, costs one decode of
    itself on the error path, within the input budget.
    """
    view = None if isinstance(data, (bytes, str)) else memoryview(data)  # another buffer
    check_cap("input of {count} bytes is over the budget of {cap} bytes for the cap of {} "
              "channels", len(data) if view is None else view.nbytes,
              _document_budget(), DEFAULT_CHANNEL_CAP)
    # a subclass as its base type (exact bytes and str slice to themselves, uncopied),
    # another buffer as the bytes it holds
    source = data[:] if view is None else view.tobytes()
    if isinstance(source, bytes) and not source.isascii():  # ASCII bytes are walked in place
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc}") from None
    text = _Text(source)
    try:
        doc, topology = _walk(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError or an over-long integer too
        whole = source if isinstance(source, str) else source.decode("ascii")
        if not whole or whole.isspace():  # what str.strip() would leave empty
            raise ParseError("empty input") from None
        try:  # the walk stopped where json.loads stops, which words the error in its context
            json.loads(whole)
        except (ValueError, RecursionError) as error:
            exc = error
        raise ParseError(f"invalid JSON: {exc}") from None
    _validate_header(doc)
    shape, failure = topology and topology.params.input_radices, None  # (g, m, n)
    if (params := tuple(doc["params"][key] for key in "gmn")) != shape:
        topology = None  # dropped before the fabric the params name is built
        topology, failure = _build(params)
        surveys = {key: value for key, value in doc.items() if isinstance(value, _Survey)}
        # walk the lists against it, unless a structural problem in them settles the outcome
        if topology is not None and all(s.problem is None for s in surveys.values()):
            for key, survey in surveys.items():
                doc[key] = _survey(text, survey.start, key, topology)[0]
    return _settle(doc, topology, failure)
