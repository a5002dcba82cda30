"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--spans PATH]

Builds the seeded inputs, times every operation once, checks the results
and prints one JSON object.  The calibration loop of speed.py runs before
every operation and after long ones; the reported times are normalised by
it, and the measured ones are reported beside them.  `--setup-only` stops after building the inputs;
`--spans PATH` traces the round and writes its spans to PATH.  run.py starts
one worker per round, so no round sees another round's warm state.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One BLAS thread, set before numpy loads: the machine has two cores and the
# measured code is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(SRC), str(HERE)]
SETUP_CAL_SAMPLES = 20


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import grassvar

    if Path(grassvar.__file__).resolve().parent != SRC / "grassvar":
        print(f"grassvar was imported from {grassvar.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import speed
    import workloads

    ops = workloads.build(args.workload, args.seed)
    raw_setup_s = time.perf_counter() - T0
    setup_s = raw_setup_s * speed.mean_scale(SETUP_CAL_SAMPLES)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    intervals, cals, outputs, errors = [], [], {}, []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        cals.append(speed.calibrate())
        start = clock()
        try:
            outputs[i] = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{op.label}: {exc!r}")
        intervals.append((start, clock() - start))
        for _ in range(speed.extra_samples(intervals[-1][1])):
            cals.append(speed.calibrate())
    cals.append(speed.calibrate())
    if tracer is not None:
        tracer.uninstall()
    raw = [d for _, d in intervals]
    factors = speed.scales(intervals, cals)
    latencies = [d * f for d, f in zip(raw, factors)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for i, out in outputs.items():
        problems.extend(f"{ops[i].label}: {msg}" for msg in ops[i].check(out))
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "attempted": len(ops),
        "failed": len(errors),
        "latencies": [lat if i in outputs else None for i, lat in enumerate(latencies)],
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "cal_mean_ms": 1000 * sum(d for _, d in cals) / len(cals),
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "problems": problems,
    }
    if tracer is not None:
        tracer.write(args.spans)
        starts = [t for t, _ in intervals]
        result["layers"] = tracer.metrics(lambda t: factors[max(0, bisect.bisect_right(starts, t) - 1)])
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
