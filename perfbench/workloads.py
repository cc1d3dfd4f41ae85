"""The benchmark's three workloads: shape ladders, timed operations, output checks.

Every workload is a closed loop with one client: an operation starts when
the previous one and its checks have finished. A pass runs every entry of
the workload's fixed ladder once, in an order drawn from the seeded
generator, so a different seed reorders the ladder but never changes it.

The checks run outside the timed calls and never use ``awgshuffle.shuffle``:
the expected rotation (a, b, c) -> (b, c, a), address rendering, DOT edges,
oracle permutations and tradeoff rows are all recomputed here.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

Shape = tuple[int, int, int]

# Largest fabric is 32^3 = 32,768 channels; the cap-scale shapes
# (64^3, 100^3) take 13-30 s per operation and are left out. Ladders have
# an odd number of operations, and several shapes near the median and the
# 90th-percentile sizes, so that each percentile falls inside a group of
# like operations rather than between two.
VERIFY_LADDER: tuple[Shape, ...] = (
    (8, 8, 8), (10, 10, 10), (12, 12, 12), (16, 16, 16),
    (24, 24, 24), (32, 32, 32), (8, 8, 16), (2, 16, 16), (12, 48, 24),
    (64, 8, 16), (32, 4, 8),   # g > n: some wavelengths are dark at some inputs
    (16, 1, 32), (48, 1, 12),  # m = 1: inputs plug straight into one router
    (1, 32, 32),               # g = 1: a single input group
    (8, 64, 1),                # n = 1: one wavelength per fiber
)

# Export costs about ten times what verify does per channel, so the ladder
# stops at 8,192 channels to leave over a hundred operations in a run.
EXPORT_LADDER: tuple[Shape, ...] = (
    (8, 8, 8), (12, 12, 12), (16, 16, 16), (16, 32, 16), (2, 16, 16),
    (64, 8, 16), (32, 4, 8), (32, 2, 8),
    (16, 1, 32),
    (1, 32, 32),
    (8, 64, 1),
)

# (command, shape); shapes are (g, m, n) for fabric commands and (g, l)
# for oracle and tradeoff.
CLI_QUERIES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("trace", (8, 8, 8)), ("trace", (16, 16, 16)), ("trace", (24, 24, 24)),
    ("trace", (32, 32, 32)), ("trace", (32, 4, 8)), ("trace", (16, 1, 32)),
    ("trace", (1, 32, 32)), ("trace", (12, 48, 24)),
    ("verify", (4, 4, 4)), ("verify", (6, 2, 3)),
    ("synth", (8, 8, 8)), ("synth", (16, 8, 16)),
    ("oracle", (3, 6)), ("oracle", (16, 64)), ("oracle", (8, 100)),
    ("tradeoff", (4, 24)), ("tradeoff", (16, 360)),
)

SMOKE_FABRICS: tuple[Shape, ...] = ((2, 3, 4), (4, 4, 4), (6, 2, 3), (3, 1, 5), (1, 4, 4))
SMOKE_QUERIES = (
    ("trace", (4, 4, 4)), ("trace", (6, 2, 3)), ("verify", (3, 2, 3)),
    ("synth", (2, 3, 4)), ("oracle", (3, 6)), ("tradeoff", (2, 12)),
)

# The reference job takes about REF_SECONDS on the machine the benchmark was
# tuned on (2 vCPUs), where each core's speed swings by up to half within a
# second; latencies are reported as if every job had taken REF_SECONDS.
REF_SECONDS = 0.006
REF_ITEMS = 12000

WARMUP_SHAPE: Shape = (4, 4, 4)
SAMPLED_CHANNELS = 8
CHECK_NAMES = ("oracle-equivalence", "bijectivity", "wavelength-conflicts")


def shape_text(shape: tuple[int, ...]) -> str:
    return "W(%s)" % ",".join(map(str, shape))


class Package:
    """The awgshuffle modules under test, imported from a checkout's ``src/``.

    Operations look functions up on these module objects at call time, so
    the tracer's patches apply to them.
    """

    def __init__(self, root: str) -> None:
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "awgshuffle", "__init__.py")):
            raise SystemExit(f"perfbench: no awgshuffle package under {self.src}")
        sys.path.insert(0, self.src)
        import awgshuffle
        from awgshuffle import analysis, cli, errors, serialize, topology

        if not os.path.realpath(awgshuffle.__file__).startswith(os.path.realpath(self.src)):
            raise SystemExit(f"perfbench: imported awgshuffle from {awgshuffle.__file__}")
        self.analysis = analysis
        self.cli = cli
        self.errors = errors
        self.serialize = serialize
        self.topology = topology


@dataclass
class Env:
    """Where a run may write, and how it starts CLI processes."""

    workdir: str
    child_env: dict
    cli_inprocess: bool = False


def reference_job() -> float:
    """Seconds a fixed pure-Python job (tuples, strings, a dict) takes right now."""
    start = perf_counter()
    rows = [(i, (i % 97, i // 97), str(i)) for i in range(REF_ITEMS)]
    table = {row[1]: row for row in rows[::3]}
    del rows, table
    return perf_counter() - start


class Recorder:
    """Latencies, channel counts and failures of the operations of one phase.

    Before each operation the reference job is timed, so that latencies can
    be corrected for the machine's speed at the time (see ``corrected``).
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.by_kind: dict[str, list[float]] = defaultdict(list)
        self.channels = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, kind: str, channels: int, fn: Callable, *args):
        """Time one operation; an exception propagates after it is recorded."""
        gc.collect()
        self.refs.append(reference_job())
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op += 1
            index = tracer.open("bench.op")
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.close(index, {"kind": kind, "channels": channels})
            self.latencies.append(elapsed)
            self.by_kind[kind].append(elapsed)
            self.channels += channels

    def corrected(self) -> list[float]:
        """Latencies at reference speed: each scaled by REF_SECONDS over the
        mean of the reference times just before and just after it."""
        refs = self.refs + [reference_job()]
        return [raw * REF_SECONDS * 2 / (refs[i] + refs[i + 1])
                for i, raw in enumerate(self.latencies)]

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


# ---------------------------------------------------------------- checks


def render(digits: tuple[int, ...], radices: tuple[int, ...]) -> str:
    sep = "" if all(r <= 10 for r in radices) else "."
    return sep.join(map(str, digits))


def expected_channel(shape: Shape, index: int):
    """Addresses and loci of input channel ``index`` as the paper predicts them."""
    g, m, n = shape
    a, rest = divmod(index, m * n)
    b, c = divmod(rest, n)
    w = (a + c) % max(g, n)
    addresses = (((a, b, c), (g, m, n)), ((b, a, c), (m, g, n)), ((b, c, a), (m, n, g)))
    loci = ((a, b, w), (b, a, w), (b, c, w))
    return addresses, loci


def check_report(report, shape: Shape) -> str | None:
    g, m, n = shape
    if (report.params.g, report.params.m, report.params.n) != shape:
        return f"report is for {report.params}"
    if not report.passed:
        return "report did not pass"
    if report.permutation_size != g * m * n:
        return f"permutation_size {report.permutation_size} != {g * m * n}"
    got = [(c.name, c.passed, c.counterexample) for c in report.checks]
    if got != [(name, True, None) for name in CHECK_NAMES]:
        return f"checks {got}"
    return None


def check_topology(topo, shape: Shape, rng) -> str | None:
    g, m, n = shape
    p = topo.params
    if (p.g, p.m, p.n) != shape:
        return f"fabric is {p}"
    if len(topo.channels) != g * m * n or len(topo.cables) != g * m:
        return f"{len(topo.channels)} channels and {len(topo.cables)} cables"
    for index in rng.sample(range(g * m * n), min(SAMPLED_CHANNELS, g * m * n)):
        tr = topo.channels[index]
        addresses, loci = expected_channel(shape, index)
        got_addresses = tuple((a.digits, a.radices)
                              for a in (tr.input_addr, tr.middle_addr, tr.output_addr))
        got_loci = tuple((lc.device, lc.port, lc.wavelength)
                         for lc in (tr.input_locus, tr.middle_locus, tr.output_locus))
        if got_addresses != addresses or got_loci != loci:
            return f"channel {index} is {got_addresses} {got_loci}, expected {addresses} {loci}"
    return None


def check_json(doc: bytes, shape: Shape) -> str | None:
    g, m, n = shape
    if not doc.startswith(b"{") or not doc.endswith(b"}\n"):
        return "JSON is not one newline-terminated object"
    if doc.count(b'"input_locus"') != g * m * n:
        return "JSON does not hold one entry per channel"
    return None


def check_dot(dot: bytes, shape: Shape, rng) -> str | None:
    g, m, n = shape
    lines = dot.decode("utf-8").splitlines()
    if f'  label="W({g},{m},{n}): {g * m * n}-channel shuffle";' not in lines:
        return "DOT label missing"
    edges = [line for line in lines if " -> " in line]
    if len(edges) != g * m:
        return f"DOT has {len(edges)} edges, expected {g * m}"
    a, b = rng.randrange(g), rng.randrange(m)
    carried = ",".join(f"l{w}" for w in sorted((a + q) % max(g, n) for q in range(n)))
    kind = "direct" if m == 1 else "cable"
    want = (f'  grp{a} -> awg{b} [label="{carried}", kind="{kind}", '
            f'taillabel="p{b}", headlabel="in{a}"];')
    if edges[a * m + b] != want:
        return f"DOT edge {edges[a * m + b]!r}, expected {want!r}"
    return None


_TAMPER_FIELD = re.compile(rb'"(decimal|device|port|wavelength)": (\d+)')


def tamper(doc: bytes, rng) -> bytes:
    """Copy of ``doc`` with one integer channel field, at a seeded place, off by one."""
    start = doc.index(b'"channels": [')
    match = (_TAMPER_FIELD.search(doc, rng.randrange(start, len(doc)))
             or _TAMPER_FIELD.search(doc, start))
    value = str(int(match.group(2)) + 1).encode()
    return doc[:match.start(2)] + value + doc[match.end(2):]


# ---------------------------------------------------------------- verify-ladder


def verify_op(pkg: Package, rec: Recorder, shape: Shape) -> None:
    g, m, n = shape
    try:
        report = rec.call("verify", g * m * n, pkg.analysis.verify_shuffle_equivalence, g, m, n)
    except Exception as exc:
        rec.fail(f"verify {shape_text(shape)} raised {exc!r}")
        return
    problem = check_report(report, shape)
    if problem:
        rec.fail(f"verify {shape_text(shape)}: {problem}")


def verify_pass(pkg, env, rec, rng, ladder) -> None:
    for shape in rng.sample(ladder, len(ladder)):
        verify_op(pkg, rec, shape)


# ---------------------------------------------------------------- export-roundtrip


def _write(pkg: Package, shape: Shape):
    topo = pkg.topology.build_network(*shape)
    return (topo, pkg.serialize.serialize_topology(topo, "json"),
            pkg.serialize.serialize_topology(topo, "dot"))


def export_ops(pkg: Package, rec: Recorder, rng, shape: Shape) -> None:
    """Write (build, JSON, DOT), read the JSON back, and reject a tampered copy."""
    n_channels = shape[0] * shape[1] * shape[2]
    label = shape_text(shape)
    try:
        topo, doc, dot = rec.call("write", n_channels, _write, pkg, shape)
    except Exception as exc:
        rec.fail(f"write {label} raised {exc!r}")
        return
    problem = (check_topology(topo, shape, rng) or check_json(doc, shape)
               or check_dot(dot, shape, rng))
    if problem:
        rec.fail(f"write {label}: {problem}")
        return

    try:
        parsed = rec.call("read", n_channels, pkg.serialize.parse_topology, doc)
    except Exception as exc:
        rec.fail(f"read {label} raised {exc!r}")
    else:
        problem = ("parsed fabric differs from the built one" if parsed != topo
                   else check_topology(parsed, shape, rng))
        if problem:
            rec.fail(f"read {label}: {problem}")
        del parsed

    tampered = tamper(doc, rng)
    try:
        rec.call("reject", n_channels, pkg.serialize.parse_topology, tampered)
    except pkg.errors.IntegrityError:
        pass
    except Exception as exc:
        rec.fail(f"reject {label} raised {exc!r}, expected IntegrityError")
    else:
        rec.fail(f"reject {label}: a tampered document was accepted")


def export_pass(pkg, env, rec, rng, ladder) -> None:
    for shape in rng.sample(ladder, len(ladder)):
        export_ops(pkg, rec, rng, shape)


# ---------------------------------------------------------------- cli-queries


def _gmn(shape) -> list[str]:
    g, m, n = shape
    return ["--g", str(g), "--m", str(m), "--n", str(n)]


def _plan_query(env: Env, command: str, shape, rng):
    """argv of one query and the check of its (exit code, stdout)."""
    if command == "trace":
        g, m, n = shape
        a, b, c = rng.randrange(g), rng.randrange(m), rng.randrange(n)
        w = (a + c) % max(g, n)
        (inp, mid, out), _ = expected_channel(shape, (a * m + b) * n + c)
        inp, mid, out = render(*inp), render(*mid), render(*out)
        want = [f"input : group {a}, port {b}, l{w}  addr {inp}",
                f"middle: awg {b}, input {a}, l{w}  addr {mid}",
                f"output: awg {b}, output {c}, l{w}  addr {out}",
                f"path: {inp} -> {mid} -> {out}"]
        argv = ["trace", *_gmn(shape), "--group", str(a), "--port", str(b), "--lambda", str(w)]
        return argv, lambda stdout: _lines_match(stdout, want)

    if command == "verify":
        g, m, n = shape
        path = os.path.join(env.workdir, "report.json")
        want = [f"{g * m * n}/{g * m * n} channels match S({g},{m * n})",
                *(f"{name}: PASS" for name in CHECK_NAMES), "result: PASS"]

        def check(stdout):
            return _lines_match(stdout, want) or _check_report_file(path, shape)
        return ["verify", *_gmn(shape), "--report", path], check

    if command == "synth":
        g, m, n = shape
        path = os.path.join(env.workdir, "fabric.dot")
        want = [f"wrote {path} (dot, {g * m * n} channels)"]

        def check(stdout):
            return _lines_match(stdout, want) or _check_dot_file(path, shape, rng)
        return ["synth", *_gmn(shape), "--format", "dot", "--out", path], check

    if command == "oracle":
        g, l = shape
        want = [" ".join(str(b * g + a) for a in range(g) for b in range(l))]
        return ["oracle", "--g", str(g), "--l", str(l)], lambda stdout: _lines_match(stdout, want)

    if command == "tradeoff":
        g, l = shape
        want = [["n", "m", "wavelengths", "awg_size", "cables", "channels", "note"]]
        for n in range(1, l + 1):
            if l % n == 0:
                m = l // n
                want.append([str(n), str(m), str(max(g, n)), f"{g}x{n}",
                             str(g * m if m >= 2 else 0), str(g * l)]
                            + (["g", ">=", "n"] if g >= n else []))

        def check(stdout):
            rows = [line.split() for line in stdout.splitlines()]
            return None if rows == want else f"table {rows[:3]}..., expected {want[:3]}..."
        return ["tradeoff", "--g", str(g), "--l", str(l)], check

    raise ValueError(f"unknown command {command!r}")


def _lines_match(stdout: str, want: list[str]) -> str | None:
    got = stdout.splitlines()
    return None if got == want else f"stdout {got[:5]!r}, expected {want[:5]!r}"


def _check_report_file(path: str, shape: Shape) -> str | None:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    os.unlink(path)
    g, m, n = shape
    if doc.get("passed") is not True or doc.get("permutation_size") != g * m * n:
        return f"report passed={doc.get('passed')} permutation_size={doc.get('permutation_size')}"
    params = doc.get("params", {})
    if (params.get("g"), params.get("m"), params.get("n")) != shape:
        return f"report params {params}"
    return None


def _check_dot_file(path: str, shape: Shape, rng) -> str | None:
    with open(path, "rb") as handle:
        dot = handle.read()
    os.unlink(path)
    return check_dot(dot, shape, rng)


def _run_process(env: Env, argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "awgshuffle", *argv], cwd=env.workdir,
                          env=env.child_env, capture_output=True, text=True, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr


def _run_inprocess(pkg: Package, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def query_op(pkg: Package, env: Env, rec: Recorder, rng, command: str, shape) -> None:
    argv, check = _plan_query(env, command, shape, rng)
    channels = shape[0] * shape[1] * (shape[2] if len(shape) == 3 else 1)
    if command == "tradeoff":
        channels = 0  # nothing is built or permuted
    label = f"{command} {shape_text(shape)}"
    try:
        if env.cli_inprocess:
            code, stdout, stderr = rec.call(command, channels, _run_inprocess, pkg, argv)
        else:
            code, stdout, stderr = rec.call(command, channels, _run_process, env, argv)
    except Exception as exc:
        rec.fail(f"{label} raised {exc!r}")
        return
    if code != 0:
        rec.fail(f"{label} exited {code}: {stderr.strip()[-300:]}")
        return
    try:
        problem = check(stdout)
    except OSError as exc:
        problem = f"output file unreadable: {exc}"
    if problem:
        rec.fail(f"{label}: {problem}")


def cli_pass(pkg, env, rec, rng, ladder) -> None:
    for command, shape in rng.sample(ladder, len(ladder)):
        query_op(pkg, env, rec, rng, command, shape)


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    ladder: tuple
    smoke_ladder: tuple
    run_pass: Callable
    warmup: tuple
    memory_ladder: tuple  # the operations of the tracemalloc pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-ladder", VERIFY_LADDER, SMOKE_FABRICS, verify_pass,
                 (WARMUP_SHAPE,), ((16, 16, 16),)),
        Workload("export-roundtrip", EXPORT_LADDER, SMOKE_FABRICS, export_pass,
                 (WARMUP_SHAPE,), ((16, 16, 16),)),
        Workload("cli-queries", CLI_QUERIES, SMOKE_QUERIES, cli_pass,
                 (("oracle", (3, 6)),), (("trace", (16, 16, 16)),)),
    )
}

