"""Run one longtail-kd benchmark workload and print its metrics.

    python3 bench/run.py --workload desk-seeds --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it finds the package under ``src/``
next to this directory. With ``--trace 0`` the last line of standard output
is a JSON object holding every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` it runs the workload untraced and then traced, checks the
two give the same output bytes, and reports every per-layer metric instead.
The lines before it give the environment, each operation and the digest of
the workload's artifacts. Exit code 0 means the run completed (its
``correct`` field says whether the outputs passed their checks); any other
code means it could not run, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")

# One BLAS thread: on a small shared machine a second thread mostly adds
# run-to-run noise. Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def declared_metrics(trace):
    """name -> unit for the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "longtail_kd", "__init__.py")):
        print(f"error: no longtail_kd package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import longtail_kd
    import workloads

    if os.path.dirname(os.path.abspath(longtail_kd.__file__)) != os.path.join(src, "longtail_kd"):
        print(f"error: imported longtail_kd from {longtail_kd.__file__}, not from {src}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    spec = workloads.spec_for(args.workload, args.seconds)

    work_dir = os.path.join(BENCH_DIR, "_work", f"{args.workload}-{os.getpid()}")
    out_dir = os.path.join(BENCH_DIR, "_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv") if args.trace else None
    try:
        outcome, metrics = workloads.run_workload(spec, args.seed, args.trace, ROOT, work_dir, spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} spec {spec}")
    print("env " + json.dumps(workloads.environment(ROOT, args.seed), sort_keys=True))
    for op in outcome.ops:
        status = "ok" if op["ok"] else "FAILED " + "; ".join(op["problems"])
        print(f"op {op['name']} {op['seconds']:.4f} s paced {status}")
    steps = {}
    for op in outcome.ops:
        step = op["name"].split("/")[-1]
        steps[step] = steps.get(step, 0.0) + op["seconds"]
    print("step_s " + " ".join(f"{step}={seconds!r}" for step, seconds in steps.items()))
    print(f"unpaced wall_s = {outcome.unpaced_s!r} s (as the clock read it)")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    if outcome.few_gain:
        gain = sum(outcome.few_gain) / len(outcome.few_gain)
        print(f"acc_few_gain = {gain!r} ratio (bkd few-shot accuracy minus the teacher's; reported, not gated)")
    attempted, failed = len(outcome.ops), outcome.failed
    print(f"error_rate = {failed}/{attempted} = {failed / max(attempted, 1)!r}")
    print(f"artifacts_sha256 {outcome.digest()}")
    if spans_path:
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
