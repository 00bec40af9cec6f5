"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_cli()

from posetdet import chromatic, lgv, matrix  # noqa: E402
from posetdet.arith import euler_phi  # noqa: E402
from posetdet.ring import Poly  # noqa: E402

SMALL = [
    workloads.Invocation(("verify", "main", "--cases", "15"), "small main"),
    workloads.Invocation(("verify", "lindstrom", "--cases", "10"), "small lindstrom"),
    workloads.Invocation(("verify", "stembridge", "--cases", "3"), "small stembridge"),
    workloads.Invocation(("verify", "tutte", "--n", "3"), "small tutte"),
    workloads.Invocation(("random-suite", "--cases", "5"), "small suite"),
]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_self_times_within_span_and_wall():
    rec = spans.Recorder()
    with spans.Tracing(rec) as tracing:
        p = run.run_pass(CLI, SMALL, {})
    assert tracing.missing == []
    assert p.failed == 0 and rec.spans
    own = rec.self_times()
    for (name, start, end, _), t in zip(rec.spans, own):
        assert -1e-9 <= t <= end - start + 1e-12, name
    assert sum(own) <= p.elapsed
    metrics = spans.layer_metrics(rec)
    self_metrics = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(v >= -1e-9 for v in self_metrics)
    assert metrics["cli.main.self_s"] > 0 and metrics["matrix.det_bareiss.calls"] > 0


def test_tracing_rebinds_every_namespace_and_restores():
    original = matrix.det_bareiss
    mul = Poly.__mul__
    with spans.Tracing(spans.Recorder()):
        wrapped = matrix.det_bareiss
        assert wrapped is not original
        for module in (CLI, chromatic, lgv):
            assert module.det_bareiss is wrapped
        assert Poly.__mul__ is not mul
    for module in (matrix, CLI, chromatic, lgv):
        assert module.det_bareiss is original
    assert Poly.__mul__ is mul


def test_reference_seconds_scale_by_speed(monkeypatch):
    monkeypatch.setattr(run, "machine_speed", lambda: 0.5)
    monkeypatch.setattr(run, "SAMPLE_INTERVAL_S", 0.01)
    ref, seconds, rc, _, after = run.measured_invoke(CLI, ("verify", "tutte", "--n", "4"), 0.5)
    assert rc == 0 and after == 0.5
    assert ref == pytest.approx(seconds / 2)
    p = run.run_pass(CLI, SMALL[:2], {})
    assert p.wall == pytest.approx(p.raw_wall / 2)


def test_mutated_digest_counts_as_failure():
    inv = workloads.Invocation(("verify", "tutte", "--n", "3"), "tutte 3")
    _, rc, stdout = run.invoke(CLI, inv.argv)
    good = hashlib.sha256(stdout.encode()).hexdigest()
    assert run.check(inv, rc, stdout, {inv.key: good}) == (1, 0)
    bad = ("0" if good[0] != "0" else "1") + good[1:]
    assert run.check(inv, rc, stdout, {inv.key: bad}) == (1, 1)


def test_non_pass_lines_exit_codes_and_summary():
    suite = workloads.Invocation(("random-suite", "--cases", "2"), "suite")
    _, rc, stdout = run.invoke(CLI, suite.argv)
    assert run.check(suite, rc, stdout, {}) == (4, 0)
    tampered = stdout.replace("PASS", "FAIL", 1)
    assert run.check(suite, rc, tampered, {}) == (4, 1)
    assert run.check(suite, 1, stdout, {}) == (4, 4)
    assert run.check(suite, 0, "", {}) == (1, 1)
    det = workloads.Invocation(("verify", "smith", "--set", "1,2"), "smith", expected_det="1")
    _, rc, stdout = run.invoke(CLI, det.argv)
    assert run.check(det, rc, stdout, {}) == (1, 0)
    wrong = workloads.Invocation(det.argv, det.key, expected_det="2")
    assert run.check(wrong, rc, stdout, {}) == (1, 1)


@pytest.mark.parametrize("workload", ["campaign", "int-large", "paths"])
def test_seed_changes_inputs_and_repeats(workload, tmp_path):
    def inputs(seed, sub):
        workdir = tmp_path / sub
        invs = workloads.build(workload, seed, str(workdir))
        files = sorted(p.read_text() for p in workdir.glob("*.json")) if workdir.exists() else []
        return [inv.key for inv in invs], [inv.expected_det for inv in invs], files

    first = inputs(1, "a")
    assert inputs(1, "b") == first
    assert inputs(2, "c") != first


def test_work_per_seed_is_fixed():
    for seed in (1, 2, 3):
        assert [len(s) for s in workloads.smith_sets(seed)] == list(workloads.SMITH_DIVISOR_COUNTS)
    assert len(workloads.divisors(workloads.SMITH_FIXED)) == 120


def test_independent_oracles_agree_with_posetdet():
    assert all(workloads.totient(n) == euler_phi(n) for n in range(1, 500))
    doc, total = workloads.complete_dag(random.Random(7), 9)
    d = lgv.digraph_from_dict(doc)
    assert lgv.path_weight_sum_dp(d, d.sources[0], d.sinks[0]).v == total
    assert len(list(lgv.iter_paths(d, d.sources[0], d.sinks[0]))) == 2 ** (9 - 2)


def test_digests_cover_every_default_invocation():
    digests = run.load_digests()
    for workload in workloads.WORKLOADS:
        for inv in workloads.build(workload, run.DEFAULT_SEED, str(run.WORKDIR)):
            assert inv.key in digests, inv.key


def _bench_units(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, section):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "campaign",
           "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _bench_units(section)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "campaign",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
