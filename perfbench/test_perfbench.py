"""Tests of the benchmark itself: python -m pytest perfbench

The smoke test runs all three workloads, untraced and traced, on tiny
ladders with every output check in place.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads as wl  # noqa: E402


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ([w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


@pytest.fixture(scope="module")
def pkg():
    return wl.Package(ROOT)


def test_smoke_reports_every_declared_metric():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names, end_to_end, per_layer = _declared()
    assert sorted(names) == sorted(wl.WORKLOADS)
    for name in names:
        assert sorted(result["workloads"][f"{name}/trace0"]) == sorted(end_to_end)
        assert sorted(result["workloads"][f"{name}/trace1"]) == sorted(per_layer)
        assert all(m["value"] > 0 for m in result["workloads"][f"{name}/trace0"].values())


def test_exact_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "verify-ladder", "--smoke", "--trace", "1", "--seed", "7")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["addressing.ChannelAddress.per_channel"] == 6.0


def test_empty_checkout_fails_without_result(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in ("run.py", "layers.py", "workloads.py"):
        with open(os.path.join(HERE, name), "rb") as src:
            (tmp_path / "perfbench" / name).write_bytes(src.read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_accepted_tampered_document_counts_as_failure(pkg, monkeypatch):
    real_parse = pkg.serialize.parse_topology

    def lenient(data, **kwargs):
        try:
            return real_parse(data, **kwargs)
        except pkg.errors.IntegrityError:
            return None

    monkeypatch.setattr(pkg.serialize, "parse_topology", lenient)
    rec = wl.Recorder()
    wl.export_ops(pkg, rec, random.Random(3), (3, 2, 4))
    assert rec.attempted == 3
    assert rec.failed == 1 and "tampered" in rec.failures[0]


@pytest.mark.parametrize("seed", range(20))
def test_tampered_copy_is_an_integrity_error(pkg, seed):
    topo = pkg.topology.build_network(5, 2, 3)
    doc = pkg.serialize.serialize_topology(topo)
    tampered = wl.tamper(doc, random.Random(seed))
    assert tampered != doc
    with pytest.raises(pkg.errors.IntegrityError):
        pkg.serialize.parse_topology(tampered)


def test_trace_check_rejects_a_wrong_path(pkg):
    env = wl.Env(HERE, dict(os.environ))
    argv, check = wl._plan_query(env, "trace", (3, 2, 3), random.Random(1))
    code, stdout, _ = wl._run_inprocess(pkg, argv)
    assert code == 0 and check(stdout) is None
    wrong = stdout.replace("path:", "path: 000 ->")
    assert check(wrong) is not None


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["a.child", 2.0, 3.0, 1, 1, None],
        ["b", 5.0, 6.0, 0, 1, None],
    ]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_patches_every_lookup_name_and_restores(pkg):
    import awgshuffle

    original = pkg.topology.build_network
    tracer = layers.Tracer()
    installed = layers.Installed(tracer)
    try:
        assert pkg.analysis.build_network is pkg.topology.build_network is awgshuffle.build_network
        assert pkg.analysis.build_network is not original
        pkg.analysis.verify_shuffle_equivalence(2, 2, 2)
    finally:
        installed.remove()
    assert pkg.analysis.build_network is original is awgshuffle.build_network
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["analysis.verify_shuffle_equivalence", "topology.build_network"]
    assert tracer.counts["awg.awg_route.calls"] == 8
    assert tracer.counts["shuffle.left_cyclic_shift.calls"] == 8
