"""linkident benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ./src. The
workloads are sweep-exhaustive, analyze-sparse, placement-allpairs and
oracle-recovery (see BENCHMARK.json for why each is there).

The run builds the workload's inputs from the seed, warms up, then
makes whole passes over the inputs for about S seconds, checking every
output against the outputs recorded in expected.json.

With --trace 0 the last line of standard output carries the end-to-end
metrics. With --trace 1 passes with every layer wrapped in spans
alternate with plain passes for about S seconds, and the run reports
the per-layer metrics (per traced pass) plus the tracing overhead; the
span table goes to standard error. The line before the result records
the Python version, the CPU count, the seed and every failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
MIN_SAMPLES = 100          # so that at least ten lie beyond the p90
HARD_LIMIT_S = 150.0
WORKLOADS = ("sweep-exhaustive", "analyze-sparse", "placement-allpairs",
             "oracle-recovery")


def use_source_tree():
    """Put ./src first on the import path; False if it is missing."""
    if not (SRC / "linkident" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def span_table(tracer, passes):
    per, _ = tracer.summary()
    passes = max(passes, 1)
    lines = [f"{'span':28} {'calls/pass':>12} {'incl s/pass':>12}"
             f" {'self s/pass':>12}"]
    for name, (calls, incl, own) in per.items():
        if calls:
            lines.append(f"{name:28} {calls / passes:12.1f}"
                         f" {incl / passes:12.4f} {own / passes:12.4f}")
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    started = perf_counter()
    if not use_source_tree():
        print(f"error: no linkident sources under {SRC}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    import linkident  # noqa: F401  (timed as part of set-up)
    import measure
    import spans
    import workloads
    import_s = perf_counter() - t0

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        work = workloads.build(args.workload, args.seed,
                               workloads.load_expected())
        work.warm_up()
        setups.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    hard_stop = started + HARD_LIMIT_S
    queries = work.queries
    with measure.Deadline(work.deadline_s) as deadline, work.context():
        if not args.trace:
            tally = measure.Tally()
            runs = [tally]
            passes = measure.repeat(
                lambda: measure.run_pass(queries, deadline, tally,
                                         hard_stop),
                args.seconds, hard_stop,
                enough=lambda: len(tally.latencies) >= MIN_SAMPLES)
            metrics = measure.end_to_end(tally, setup_s, peak_rss_mb(),
                                         work.deadline_s)
        else:
            # traced and plain passes alternate, so that drift over the
            # run weighs on both sides of the overhead ratio alike
            tracer = spans.Tracer()
            traced, plain = measure.Tally(), measure.Tally()
            runs = [traced, plain]

            def both():
                with spans.instrument(tracer, workloads):
                    ok = measure.run_pass(queries, deadline, traced,
                                          hard_stop)
                return ok and measure.run_pass(queries, deadline, plain,
                                               hard_stop)

            passes = measure.repeat(both, args.seconds, hard_stop)
            metrics = spans.layer_metrics(tracer, passes,
                                          traced.busy_s / plain.busy_s)
            print(span_table(tracer, passes), file=sys.stderr)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": passes,
        "queries": sum(t.queries for t in runs),
        "latency_samples": sum(len(t.latencies) for t in runs),
        "errors": {k: sum(t.errors.get(k, 0) for t in runs)
                   for k in sorted({k for t in runs for k in t.errors})},
        "unexpected": [u for t in runs for u in t.unexpected],
        "setup_runs_s": setups,
        "import_s": import_s,
    }
    result = {
        "correct": all(t.correct for t in runs),
        "attempted": sum(t.attempted for t in runs),
        "failed": sum(t.failed for t in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
