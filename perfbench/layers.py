"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps public functions of the ``awgshuffle`` modules in the
benchmark process only, at every module attribute that holds them (the
names callers look them up by, such as ``awgshuffle.analysis.build_network``).
Nothing under ``src/`` changes. Functions called about once per operation
get spans; functions called once per channel get counters only, because a
span per channel would cost more than the work it measures.

Spans live in memory as ``[name, start, end, parent, op, extra]`` and are
written out by the caller when the run ends. A span's self time is its
duration minus the durations of its direct children (calls nest, so the
children never overlap).
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

_MIB = 1024 * 1024


def _build_extra(args, kwargs, result, exc):
    g, m, n = args[:3]
    return {"channels": g * m * n}


def _channels_of_topology(args, kwargs, result, exc):
    return {"channels": args[0].params.channel_count}


def _serialize_extra(args, kwargs, result, exc):
    extra = {"channels": args[0].params.channel_count}
    if result is not None:
        extra["bytes"] = len(result)
    return extra


def _serialize_name(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "json")
    return f"serialize.serialize_topology.{fmt}"


def _parse_extra(args, kwargs, result, exc):
    extra = {"bytes": len(args[0])}
    if exc is not None:
        extra["raised"] = type(exc).__name__
    return extra


def _check_extra(args, kwargs, result, exc):
    return {"failed": result is not None and not result.passed}


# module -> function -> (span name or namer, extra hook). Every function
# here runs a bounded number of times per operation.
SPANNED = {
    "topology": {
        "build_network": ("topology.build_network", _build_extra),
        "trace": ("topology.trace", None),
    },
    "analysis": {
        "verify_shuffle_equivalence": ("analysis.verify_shuffle_equivalence", None),
        "run_named_check": ("analysis.run_named_check", _check_extra),
        "check_oracle_equivalence": (
            "analysis.check_oracle_equivalence", _channels_of_topology),
        "check_bijectivity": ("analysis.check_bijectivity", None),
        "check_wavelength_conflicts": ("analysis.check_wavelength_conflicts", None),
        "tradeoff_table": ("analysis.tradeoff_table", None),
    },
    "serialize": {
        "serialize_topology": (_serialize_name, _serialize_extra),
        "topology_document": ("serialize.topology_document", None),
        "parse_topology": ("serialize.parse_topology", _parse_extra),
        "serialize_report": ("serialize.serialize_report", None),
        "tradeoff_csv": ("serialize.tradeoff_csv", None),
        "write_bytes": ("serialize.write_bytes", None),
    },
    "shuffle": {
        "shuffle_perm_decimal": ("shuffle.shuffle_perm_decimal", None),
    },
    "cli": {
        "cli_main": ("cli.cli_main", None),
    },
}

# Functions called once per channel (or per cable): counters only.
COUNTED = {
    "awg": ("awg_route", "valid_input_wavelengths"),
    "shuffle": ("left_cyclic_shift",),
}

# Spans whose peak traced memory is recorded when tracemalloc is on.
MEMORY_TRACKED = {"topology.build_network", "serialize.parse_topology"}

LAYERS = ("topology", "analysis", "serialize", "shuffle", "cli")


class Tracer:
    """In-memory spans and counters for one traced phase of a run."""

    def __init__(self, memory: bool = False) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.memory = memory
        self.op = 0
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []

    def open(self, name: str) -> int:
        if self.memory and name in MEMORY_TRACKED:
            self._mem_open()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(index)
        return index

    def close(self, index: int, extra: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self._stack.pop()
        if self.memory and span[0] in MEMORY_TRACKED:
            extra = dict(extra or {}, mem_peak=self._mem_close())
        span[5] = extra

    def _mem_open(self) -> None:
        # A nested tracked call resets the peak, so remember the peak the
        # enclosing tracked call has reached so far.
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._mem_stack.append([current, current])

    def _mem_close(self) -> int:
        base, seen = self._mem_stack.pop()
        return max(seen, tracemalloc.get_traced_memory()[1]) - base

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, extra in self.spans:
                record = {"name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                if extra:
                    record.update(extra)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _span_wrapper(tracer: Tracer, label, fn, extra_hook):
    def wrapper(*args, **kwargs):
        name = label(args, kwargs) if callable(label) else label
        index = tracer.open(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as caught:
            exc = caught
            raise
        finally:
            tracer.close(index, extra_hook(args, kwargs, result, exc) if extra_hook else None)

    return wrapper


def _count_wrapper(counts: Counter, key: str, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class Installed:
    """The patches of one tracer; ``remove()`` restores every original."""

    def __init__(self, tracer: Tracer) -> None:
        self._undo: list[tuple[object, str, object]] = []
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "awgshuffle" or name.startswith("awgshuffle."))]
        for short, functions in SPANNED.items():
            home = sys.modules[f"awgshuffle.{short}"]
            for fname, (label, hook) in functions.items():
                original = getattr(home, fname)
                self._replace(modules, original, _span_wrapper(tracer, label, original, hook))
        for short, names in COUNTED.items():
            home = sys.modules[f"awgshuffle.{short}"]
            for fname in names:
                original = getattr(home, fname)
                key = f"{short}.{fname}.calls"
                self._replace(modules, original, _count_wrapper(tracer.counts, key, original))
        address_cls = sys.modules["awgshuffle.addressing"].ChannelAddress
        post_init = address_cls.__post_init__
        self._undo.append((address_cls, "__post_init__", post_init))
        address_cls.__post_init__ = _count_wrapper(
            tracer.counts, "addressing.ChannelAddress.constructions", post_init)

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(tracer: Tracer, passes: int, channels: int,
                  mem_tracer: Tracer | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase of ``passes`` whole ladder passes.

    Times and counts are per pass; ``channels`` is the sum of N over the
    phase's operations. Layers a workload never reaches read 0.
    """
    selfs = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    chans: Counter[str] = Counter()
    nbytes: Counter[str] = Counter()
    rejected = 0
    reject_self = 0.0
    failed_checks = 0
    for span, own in zip(tracer.spans, selfs):
        name, start, end, _, _, extra = span
        extra = extra or {}
        self_s[name] += own
        total_s[name] += end - start
        calls[name] += 1
        chans[name] += extra.get("channels", 0)
        nbytes[name] += extra.get("bytes", 0)
        if name == "serialize.parse_topology" and extra.get("raised") == "IntegrityError":
            rejected += 1
            reject_self += own
        if extra.get("failed"):
            failed_checks += 1

    def per_pass(value: float) -> float:
        return value / passes

    def rate(numer: float, denom: float) -> float:
        return numer / denom if denom else 0.0

    op_time = total_s["bench.op"]
    metrics: dict[str, tuple[float, str]] = {}
    build = "topology.build_network"
    metrics[f"{build}.calls"] = (per_pass(calls[build]), "count")
    metrics[f"{build}.self_s"] = (per_pass(self_s[build]), "s")
    metrics[f"{build}.us_per_channel"] = (rate(total_s[build] * 1e6, chans[build]), "us")
    metrics["addressing.ChannelAddress.per_channel"] = (
        rate(tracer.counts["addressing.ChannelAddress.constructions"], channels), "count")
    for key in ("awg.awg_route.calls", "awg.valid_input_wavelengths.calls",
                "shuffle.left_cyclic_shift.calls"):
        metrics[key] = (per_pass(tracer.counts[key]), "count")
    oracle = "analysis.check_oracle_equivalence"
    metrics[f"{oracle}.self_s"] = (per_pass(self_s[oracle]), "s")
    metrics[f"{oracle}.us_per_channel"] = (rate(self_s[oracle] * 1e6, chans[oracle]), "us")
    for name in ("analysis.check_bijectivity", "analysis.check_wavelength_conflicts",
                 "analysis.run_named_check", "analysis.verify_shuffle_equivalence"):
        metrics[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
    metrics["analysis.checks_failed"] = (per_pass(failed_checks), "count")
    js = "serialize.serialize_topology.json"
    metrics[f"{js}.self_s"] = (per_pass(self_s[js]), "s")
    metrics[f"{js}.mb_per_s"] = (rate(nbytes[js] / _MIB, total_s[js]), "MB/s")
    metrics[f"{js}.bytes_per_channel"] = (rate(nbytes[js], chans[js]), "B")
    metrics["serialize.serialize_topology.dot.self_s"] = (
        per_pass(self_s["serialize.serialize_topology.dot"]), "s")
    metrics["serialize.topology_document.self_s"] = (
        per_pass(self_s["serialize.topology_document"]), "s")
    parse = "serialize.parse_topology"
    metrics[f"{parse}.self_s"] = (per_pass(self_s[parse]), "s")
    metrics[f"{parse}.mb_per_s"] = (rate(nbytes[parse] / _MIB, total_s[parse]), "MB/s")
    metrics[f"{parse}.rejected"] = (per_pass(rejected), "count")
    metrics[f"{parse}.reject_self_s"] = (per_pass(reject_self), "s")
    metrics["cli.cli_main.self_s"] = (per_pass(self_s["cli.cli_main"]), "s")
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = (rate(layer_self, op_time), "ratio")
    metrics["bench.self_share"] = (rate(self_s["bench.op"], op_time), "ratio")

    peaks: dict[str, int] = defaultdict(int)
    for name, _, _, _, _, extra in (mem_tracer.spans if mem_tracer else ()):
        if extra and "mem_peak" in extra:
            peaks[name] = max(peaks[name], extra["mem_peak"])
    metrics[f"{build}.tracemalloc_peak_mb"] = (peaks[build] / _MIB, "MB")
    metrics[f"{parse}.tracemalloc_peak_mb"] = (peaks[parse] / _MIB, "MB")
    return metrics
