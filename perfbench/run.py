"""Benchmark of the posetdet verifier, driven through ``posetdet.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

One client calls the CLI entry point in-process, one invocation at a
time (a closed loop), with stdout captured.  A pass is the workload's
fixed invocation list; passes repeat while another fits in ``--seconds``,
and medians over the run are reported, so a slow first pass is outvoted
rather than dropped.  Every pass is checked: an invocation fails when it
exits non-zero, prints a line other than a ``PASS`` verdict (the
``random-suite`` summary excepted), prints stdout whose sha256 differs
from ``digests.json`` (recorded at the default seed), or prints a
determinant other than the one the benchmark computed on its own.

``--trace 0`` reports the end-to-end metrics: the median over passes of
the pass time and of the slowest invocation's time, the median over the
workload's invocations of each one's median time over passes, the set-up
time of a fresh interpreter (median of probes spread over the run), peak
RSS and the share of checks that passed.  The invocation median is taken
per invocation first because a pass of ``poly-chromatic`` has only four
invocations: a per-pass median, or one over all invocation times of the
run, would rest on one or two short invocations of a single pass.

Every time in the end-to-end metrics is in reference seconds.  The
machine this benchmark was made on is a shared virtual machine that
switches, second by second, between a fast state and one nearly half as
fast, so raw wall times of the same code differ more between runs than
any bound worth having.  The benchmark therefore times a fixed
calibration loop (``calibrate.py``) that does not touch ``posetdet``:
before and after each invocation, every SAMPLE_INTERVAL_S during one from
a SIGALRM timer, and before, inside and after each set-up probe.  An
invocation's time, less the time spent sampling, is multiplied by the
machine's mean speed over those samples, each ``CAL_REFERENCE_S`` (the
loop's median time on that machine) over the loop's time then.  As the
timer samples at even intervals, this is the work done in reference
seconds, and a reference second is a second of that machine at its
median speed.  Samples taken during an invocation count only when the
invocation kept this process on one CPU throughout (CPU time equal to
wall time): while the program waits for other processes or runs threads
in parallel, the loop would time the program's own load, not the
machine's.  The raw median pass time is printed on stderr.

``--trace 1`` runs untraced passes for half the time, then one pass with
every ``posetdet`` module wrapped in spans (see ``spans.py``), and
reports per-layer self times, counts and ratios, plus two ``Poly``
microbenchmarks.  The spans are written to
``perfbench/.work/trace-<workload>.csv``.  Self times are raw seconds and
include the timer's calibration samples, under 1% of the time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``verify tutte --n 6`` is left out of every workload: it runs for more
than ten minutes.  Time it by hand when a change claims to make it
feasible.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads
from calibrate import machine_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
SETUP_PROBES = 11
SAMPLE_INTERVAL_S = 0.1
CPU_SHARE_TOLERANCE = 0.1
RING_MICRO_SECONDS = 0.5
RING_DEGREE = 63
RING_BITS = 100

SUMMARY = re.compile(r"\d+/\d+ pass")
DET = re.compile(r" det=(\S+)")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """``posetdet.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "posetdet" / "cli.py").is_file():
        raise BenchmarkError(f"no posetdet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import posetdet.cli

    if Path(posetdet.cli.__file__).resolve().parent != SRC / "posetdet":
        raise BenchmarkError(f"imported posetdet from {posetdet.cli.__file__}")
    return posetdet.cli


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as fh:
        doc = json.load(fh)
    return {key: digest for table in doc["workloads"].values() for key, digest in table.items()}


def invoke(cli, argv) -> tuple[float, int | None, str]:
    """Run one CLI invocation; returns (seconds, exit code, stdout).

    The exit code is None when the program raised: that is a failed
    check, not a benchmark error.
    """
    out = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = None
    elapsed = time.perf_counter() - start
    if rc != 0:
        sys.stderr.write(f"{' '.join(argv)[:120]}: exit {rc}\n{err.getvalue()[-2000:]}")
    return elapsed, rc, out.getvalue()


class SpeedSampler:
    """Samples ``machine_speed`` from a SIGALRM timer every
    SAMPLE_INTERVAL_S while the ``with`` block runs; ``seconds`` is the
    time the sampling took."""

    def __init__(self):
        self.samples: list[float] = []
        self.seconds = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(machine_speed())
        self.seconds += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def measured_invoke(cli, argv, before: float):
    """``invoke`` with its time also in reference seconds.

    ``before`` is the speed measured right before the call.  Returns
    (reference seconds, seconds, exit code, stdout, speed right after).
    """
    cpu = time.process_time()
    with SpeedSampler() as sampler:
        seconds, rc, stdout = invoke(cli, argv)
    seconds -= sampler.seconds
    cpu = time.process_time() - cpu - sampler.seconds
    after = machine_speed()
    speeds = [before, after]
    # Timer samples count only if the program kept this one CPU busy.
    if abs(cpu - seconds) <= CPU_SHARE_TOLERANCE * seconds:
        speeds += sampler.samples
    return seconds * statistics.fmean(speeds), seconds, rc, stdout, after


def verdict_lines(inv: workloads.Invocation, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if inv.argv[0] == "random-suite" and lines and SUMMARY.fullmatch(lines[-1]):
        lines.pop()
    return lines


def check(inv: workloads.Invocation, rc, stdout: str, digests: dict[str, str]) -> tuple[int, int]:
    """(checks, failed checks) of one invocation.

    A check is one verdict line.  When the invocation as a whole is wrong
    (exit code, digest, independent determinant, or no verdict at all),
    every one of its checks counts as failed.
    """
    lines = verdict_lines(inv, stdout)
    checks = max(1, len(lines))
    bad = rc != 0 or not lines
    want = digests.get(inv.key)
    if want is not None and hashlib.sha256(stdout.encode()).hexdigest() != want:
        bad = True
    if inv.expected_det is not None:
        found = DET.search(lines[0]) if len(lines) == 1 else None
        bad = bad or found is None or found.group(1) != inv.expected_det
    if bad:
        sys.stderr.write(f"check failed: {inv.key[:120]}\n")
        return checks, checks
    return checks, sum(not line.startswith("PASS ") for line in lines)


@dataclass
class Pass:
    """One pass; ``wall`` and ``op_times`` are in reference seconds,
    ``raw_wall`` is the wall time of the invocations and ``elapsed`` that of
    the whole pass, calibration included."""

    wall: float
    op_times: list[float]
    raw_wall: float
    elapsed: float
    checks: int = 0
    failed: int = 0
    nonzero_dets: int = 0
    dets: int = 0


def run_pass(cli, invocations, digests) -> Pass:
    results = []
    start = time.perf_counter()
    speed = machine_speed()
    for inv in invocations:
        *result, speed = measured_invoke(cli, inv.argv, speed)
        results.append(result)
    elapsed = time.perf_counter() - start
    ops = [r[0] for r in results]
    p = Pass(sum(ops), ops, sum(r[1] for r in results), elapsed)
    for inv, (_, _, rc, stdout) in zip(invocations, results):
        checks, failed = check(inv, rc, stdout, digests)
        p.checks += checks
        p.failed += failed
        for line in verdict_lines(inv, stdout):
            found = DET.search(line)
            if found:
                p.dets += 1
                p.nonzero_dets += found.group(1) != "0"
    return p


def another_pass_fits(passes: list[Pass], deadline: float) -> bool:
    """True before the first pass, then while a pass as long as the median
    so far would end by the deadline, so a run does not overshoot it."""
    if not passes:
        return True
    return time.perf_counter() + statistics.median(p.elapsed for p in passes) <= deadline


def run_passes(cli, invocations, digests, seconds: float) -> list[Pass]:
    """As many passes as fit in ``seconds``, at least one."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while another_pass_fits(passes, deadline):
        passes.append(run_pass(cli, invocations, digests))
    return passes


def setup_probe(workload: str, seed: int) -> float:
    """Time, in reference seconds, of a fresh interpreter that imports
    ``posetdet.cli`` and builds the workload's inputs."""
    cmd = [
        sys.executable,
        str(HERE / "setup_probe.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(WORKDIR),
    ]
    before = machine_speed()
    start = time.perf_counter()
    out = subprocess.run(
        cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    ).stdout
    seconds = time.perf_counter() - start
    after = machine_speed()
    # The child may run on another CPU than this process, so its own speed
    # sample counts as much as the two taken here.
    child_speed, child_sampling = map(float, out.split())
    return (seconds - child_sampling) * statistics.fmean([before, child_speed, after])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _median_call_us(fn, seconds: float) -> float:
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def ring_microbench(seed: int) -> tuple[dict[str, float], bool]:
    """``Poly`` multiply and exact divide on seeded operands shaped like
    the ``tutte --n 5`` determinant: two degree-63 factors with 100-bit
    coefficients, whose product has degree 126."""
    from posetdet.ring import Poly

    rng = random.Random(f"ring/{seed}")

    def operand():
        coeffs = [rng.randrange(-(2**RING_BITS), 2**RING_BITS) for _ in range(RING_DEGREE)]
        coeffs.append(rng.choice((-1, 1)) * (2 ** (RING_BITS - 1) + rng.getrandbits(RING_BITS - 1)))
        return Poly(coeffs)

    a, b = operand(), operand()
    product = a * b
    ok = product.degree == 2 * RING_DEGREE and product.exact_div(b) == a
    metrics = {
        "ring.poly_mul_us": _median_call_us(lambda: a * b, RING_MICRO_SECONDS),
        "ring.poly_exact_div_us": _median_call_us(lambda: product.exact_div(b), RING_MICRO_SECONDS),
    }
    return metrics, ok


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def end_to_end(cli, invocations, digests, workload, seed, seconds):
    passes: list[Pass] = []
    probes: list[float] = []
    start = time.perf_counter()
    while another_pass_fits(passes, start + seconds):
        # Set-up probes are spread evenly over the run, so that they see
        # the machine the passes see rather than one moment of it.
        while len(probes) < SETUP_PROBES and (
            time.perf_counter() >= start + len(probes) * seconds / SETUP_PROBES
        ):
            probes.append(setup_probe(workload, seed))
        passes.append(run_pass(cli, invocations, digests))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed))
    attempted = sum(p.checks for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_s": statistics.median(map(statistics.median, zip(*(p.op_times for p in passes)))),
        "op_max_s": statistics.median(max(p.op_times) for p in passes),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": peak_rss_mb(),
        "pass_ratio": 1 - failed / attempted,
    }
    raw = statistics.median(p.raw_wall for p in passes)
    print(f"perfbench: {len(passes)} passes; raw wall_s median {raw:.6g} s, "
          f"{raw / metrics['wall_s']:.3g} times the reference", file=sys.stderr)
    return metrics, attempted, failed


def per_layer(cli, invocations, digests, workload, seed, seconds):
    untraced = run_passes(cli, invocations, digests, seconds / 2)
    rec = spans.Recorder()
    with spans.Tracing(rec) as tracing:
        traced = run_pass(cli, invocations, digests)
    if tracing.missing:
        print(f"perfbench: not in posetdet, reported as 0: {tracing.missing}", file=sys.stderr)
    metrics = spans.layer_metrics(rec)
    metrics["trace.overhead_ratio"] = traced.wall / statistics.median(p.wall for p in untraced)
    metrics["cli.checks"] = traced.checks
    metrics["identities.nonzero_det_ratio"] = traced.nonzero_dets / traced.dets if traced.dets else 0.0
    ring, ring_ok = ring_microbench(seed)
    metrics.update(ring)
    rec.write(str(WORKDIR / f"trace-{workload}.csv"))
    everything = [*untraced, traced]
    attempted = sum(p.checks for p in everything) + 1
    failed = sum(p.failed for p in everything) + (not ring_ok)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
        digests = load_digests()
    except (BenchmarkError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    invocations = workloads.build(args.workload, args.seed, str(WORKDIR))
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(
        cli, invocations, digests, args.workload, args.seed, args.seconds
    )
    for name, value in metrics.items():
        print(f"{name:40} {value:.6g} {unit_of(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
