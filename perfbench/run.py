"""Benchmark for hktheta: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `hktheta` from that
checkout's src/ and reads and writes nothing outside the checkout.  Each
pass of a workload's fixed work runs in a fresh single-threaded interpreter
(perfbench/worker.py), one pass after another, for about S seconds and
at least three passes.

Every pass runs the same inputs, made from --seed, in the same order.
--trace 0 prints the end-to-end metrics: the medians over the passes of
set-up time and peak RSS, and, from each request's fastest time over the
passes, the wall time (their sum) and its p50 and p99.  A shared machine's
speed can drift by half for seconds at a time; a request's fastest time
over passes spread across the run is what stays put.  --trace 1 runs
untraced and traced passes in pairs for about S seconds and prints the
per-layer metrics of the traced passes (medians) with tracing.overhead_s,
the traced minus the untraced median wall time.

Every answer is verified after the timed region.  The last line of stdout
is {"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's metadata.  The exit code is 0 only when every check of every pass
passed and each pass made its expected number of checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, SWEEP_BATTERY  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
WHY = {
    "sweep-battery": "the shipped sweeps.run_all() battery (20,727 checks, one request each) that "
                     "hktheta sweep and the acceptance gate pay for: finabgrp enumeration and "
                     "pairings, then lattices and snf",
    "heisenberg-suite": "criterion-4 Schrodinger homomorphism and commutator checks on exhaustive "
                        "small types and seeded pairs of larger ones: heisenberg and QmodZ work",
    "report-stream": "seeded stream of in-process CLI requests: argparse set-up and Smith-form "
                     "pairing routes on distinct inputs, so CLI changes show here only",
}
MIN_PASSES = 3
TIME_LIMIT_S = 165.0  # the whole run must end well within 180 s


class PassError(RuntimeError):
    pass


def run_pass(root: Path, workload: str, seed: int, pass_index: int, trace: bool,
             timeout: float) -> dict:
    cmd = [sys.executable, "-E", str(HERE / "worker.py"), workload, str(seed),
           "1" if trace else "0"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {pass_index} of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"pass {pass_index} of {workload} exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def measure(root: Path, args) -> tuple[list[dict], list[dict]]:
    """Run passes for about --seconds; returns (untraced, traced) pass results."""
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        elapsed = time.perf_counter() - start
        done = plain + traced
        # A round is one pass, or an untraced and a traced pass; stop before
        # a round that would end after --seconds, once the minimum is done.
        per_round = sum(p["elapsed_s"] for p in done) / len(plain) if done else 0.0
        enough = len(plain) >= (1 if args.trace else MIN_PASSES)
        if done and ((enough and elapsed + per_round > args.seconds)
                     or elapsed + 2.5 * per_round > TIME_LIMIT_S):
            return plain, traced
        if args.trace:
            # alternate which pass of the pair goes first, so drift cancels in the overhead
            for trace in ((True, False) if len(traced) % 2 else (False, True)):
                elapsed = time.perf_counter() - start
                (traced if trace else plain).append(
                    run_pass(root, args.workload, args.seed, 0, trace, TIME_LIMIT_S - elapsed))
        else:
            plain.append(run_pass(root, args.workload, args.seed, len(plain), False,
                                  TIME_LIMIT_S - elapsed))


def fastest_per_request(plain: list[dict]) -> list[float]:
    """Each request's fastest time over the passes; request i is the same work in every pass.

    A request cut into the same number of pieces (at garbage collections) in
    every pass gets the sum of its pieces' fastest times, otherwise its
    fastest whole time.
    """
    per_pass = [p["segments_s"] for p in plain]
    if len({len(requests) for requests in per_pass}) != 1:
        raise PassError("the passes made different numbers of requests")
    best = []
    for pieces in zip(*per_pass):
        if len({len(cut) for cut in pieces}) == 1:
            best.append(sum(map(min, zip(*pieces))))
        else:
            best.append(min(map(sum, pieces)))
    return best


def end_to_end(plain: list[dict]) -> dict[str, float]:
    best_ms = [s * 1e3 for s in fastest_per_request(plain)]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": sum(best_ms) / 1e3,
        "request_p50_ms": statistics.median(best_ms),
        "request_p99_ms": statistics.quantiles(best_ms, n=100, method="inclusive")[98],
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {}
    for name, _, _ in per_layer_metrics():
        if name == "tracing.overhead_s":
            out[name] = (statistics.median(p["wall_s"] for p in traced)
                         - statistics.median(p["wall_s"] for p in plain))
        else:
            out[name] = statistics.median(p["layers"][name] for p in traced)
    return out


def interpreter_floor_s(repeats: int = 5) -> float:
    """Median wall time of `python -c pass`: the cost of any fresh interpreter."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-E", "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills the running pass and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = HERE.parent
    if not (root / "src" / "hktheta" / "__init__.py").is_file():
        print(f"error: no hktheta sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced = measure(root, args)
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:  # input files shared by the passes; the span files stay
        for path in (HERE / ".work").glob("*"):
            if path.is_dir():
                shutil.rmtree(path)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["attempted"] - p["checks"] for p in passes)
    for line in [f for p in passes for f in p["failures"]][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        units = dict(END_TO_END)
    samples = len(plain[0]["segments_s"])
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload != SWEEP_BATTERY,
        "why": WHY[args.workload],
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "checks_per_pass": [p["checks"] for p in passes],
        "wall_s_per_pass": [p["wall_s"] for p in passes],
        "failed_frac": failed / attempted if attempted else 1.0,
        "request_samples": samples,
        "samples_beyond_p99": int(0.01 * samples),
        "spans_per_traced_pass": [p["spans"] for p in traced],
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "interpreter_floor_s": interpreter_floor_s(),
    }))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
