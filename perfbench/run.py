"""grassvar benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload runs in a fresh
worker interpreter (worker.py) with BLAS pinned to one thread, and its times
are normalised by the calibration loop of speed.py.  With --trace 0 the run
makes round(S / the workload's nominal round length) rounds, at least one,
and its last line of output is the end-to-end result; with --trace 1 it makes
one untraced and one traced round and reports the per-layer metrics and the
tracing overhead.  Every output is checked against reference.py or a stated
property.  Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("avrunin-scott", "projection", "ext-deep")
# Nominal round length in seconds; --seconds 30 makes 1, 2 and 3 rounds.  It
# fixes the number of rounds for a given --seconds, so every run of a
# workload makes the same rounds whatever the machine's speed at the time.
# Under load a round takes two to three times its normalised time, so the
# rounds are as few as the steadiness of each workload allows: the
# normalised total of an avrunin-scott round varies by about 2%, a single
# long ext-deep operation by far more.
NOMINAL_ROUND_S = {"avrunin-scott": 30, "projection": 15, "ext-deep": 10}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
TAIL_SAMPLES = 10
# A fixed string-hash seed for the workers: with a random one, the order in
# which grassvar walks its sets and dicts changes from process to process,
# and the peak memory of one ext-deep round on one input read 314 or 358 MB.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before the next worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, env=WORKER_ENV)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(ops_per_round: int) -> float:
    """The highest percentile with at least TAIL_SAMPLES operations of one
    round beyond it; fixed by the round size so every run reports the same
    percentile."""
    return 100 * (1 - TAIL_SAMPLES / ops_per_round)


def end_to_end(rounds: list[dict], setups: list[float]) -> tuple[dict, str]:
    # Every round runs the same operations on the same inputs in a fresh
    # process.  Each operation counts with the median of its normalised times
    # over the rounds.
    best = [
        statistics.median(lats)
        for lats in (
            [r["latencies"][i] for r in rounds if r["latencies"][i] is not None]
            for i in range(rounds[0]["attempted"])
        )
        if lats
    ]
    level = tail_level(rounds[0]["attempted"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (1000 * statistics.median(best), "ms"),
        "op_tail_ms": (1000 * percentile(best, level), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    walls = " ".join(f"{r['wall_s']:.2f}" for r in rounds)
    raw = " ".join(f"{r['raw_wall_s']:.2f}" for r in rounds)
    cal = " ".join(f"{r['cal_mean_ms']:.3f}" for r in rounds)
    note = (
        f"{len(rounds)} rounds of {len(best)} operations, round walls {walls} s "
        f"(measured {raw} s, calibration loop {cal} ms); "
        f"op_tail_ms is p{level:.2f}; setup_s is the median of {len(setups)} set-ups"
    )
    return metrics, note


def per_layer(untraced: dict, traced: dict) -> tuple[dict, str]:
    from tracer import METRICS

    metrics = {name: (traced["layers"][name], unit) for name, unit in METRICS.items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    metrics["trace.absent_names"] = (len(traced["absent"]), "count")
    note = (
        f"traced wall {traced['wall_s']:.3f} s, untraced wall {untraced['wall_s']:.3f} s; "
        f"absent entry points: {', '.join(traced['absent']) or 'none'}"
    )
    return metrics, note


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"

    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        if args.trace:
            untraced.append(_worker(base, deadline))
            traced.append(_worker(base + ["--spans", str(spans)], deadline))
        else:
            for _ in range(max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))):
                untraced.append(_worker(base, deadline))
        setups = [r["setup_s"] for r in untraced]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_worker(base + ["--setup-only"], deadline)["setup_s"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rounds = untraced + traced
    for r in rounds:
        for line in r["errors"] + r["problems"]:
            print(f"{args.workload}: {line}")
    if args.trace:
        metrics, note = per_layer(untraced[0], traced[0])
    else:
        metrics, note = end_to_end(untraced, setups)
    print(f"{args.workload} seed {args.seed}: {note}")
    result = {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
