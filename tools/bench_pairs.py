"""Paired A/B runs of the benchmark, written to a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --base c9d418e --change HEAD \\
        --workload cli-roundtrip --seed 9 --seed 7919 --pairs 5 --out BENCH_1.json

For each workload and seed it runs the unmodified
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` of the
base and of the change, each run in a fresh process, ``--pairs`` times,
alternating which side goes first. ``--base`` and ``--change`` are each a
checkout directory or a git revision, which is checked out with
``git worktree`` into a temporary directory while it runs. Every run's
``artifacts_sha256`` must be the same on both sides: a change that moved
output bits is refused, not paired. A change that moves them on purpose, a
declared re-baseline, is paired under ``--bits-moved``: each side's runs
must still agree with each other, the two sides must differ, and the entry
records both digests and ``bits_moved: true``.

The output file holds, per workload and seed, each side's median, quartiles
and IQR of every end-to-end metric, of the unpaced ``wall_s`` and of each
step's paced seconds, every run's ``correct``, and the number of pairs in
which the change read better. It records the OpenBLAS core name, which
decides the training bits and which ``bench/run.py`` does not print. An
existing output file keeps its entries for other workloads and seeds; it is
appended to only by runs of its own ``--seconds`` and OpenBLAS core, which
it records once for all its entries.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def parse_run(stdout):
    """The fields of one ``bench/run.py --trace 0`` output: its end-to-end
    metrics, the unpaced ``wall_s``, each step's paced seconds, the env
    block, ``artifacts_sha256`` and ``correct``. ValueError if a field is
    missing."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output from bench/run.py")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ValueError(f"the last line is not the result JSON: {lines[-1]!r}") from None
    run = {"correct": result["correct"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key == "env":
            run["env"] = json.loads(rest)
        elif key == "artifacts_sha256":
            run["artifacts_sha256"] = rest.strip()
        elif key == "unpaced":
            run["metrics"]["unpaced_wall_s"] = float(rest.split()[2])
        elif key == "step_s":
            for item in rest.split():
                step, _, seconds = item.partition("=")
                run["metrics"][f"step_s.{step}"] = float(seconds)
    missing = {"env", "artifacts_sha256"} - set(run) | {"unpaced_wall_s"} - set(run["metrics"])
    if missing:
        raise ValueError(f"bench/run.py output lacks {sorted(missing)}")
    return run


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, better, bits_moved=False):
    """One (workload, seed) entry from ``runs`` = {side: [run, ...]}, the
    runs of pair i at index i on both sides. ``better`` maps each metric
    that has a direction to "lower" or "higher"; any other is lower-better.
    ValueError unless the sides ran as many times and every run on both
    sides has one ``artifacts_sha256``; under ``bits_moved``, unless each
    side's runs have one and the two sides' differ, and the entry then
    holds both, by side."""
    if len(runs["base"]) != len(runs["change"]) or not runs["base"]:
        raise ValueError("each side needs the same number of runs, at least one")
    per_side = {side: sorted({run["artifacts_sha256"] for run in runs[side]}) for side in SIDES}
    if any(len(d) > 1 for d in per_side.values()) or (not bits_moved and per_side["base"] != per_side["change"]):
        raise ValueError(f"refusing to pair runs whose artifacts_sha256 differ: {per_side}")
    if bits_moved and per_side["base"] == per_side["change"]:
        raise ValueError(f"--bits-moved, but both sides wrote artifacts_sha256 {per_side['base']}")
    digests = {side: digests[0] for side, digests in per_side.items()} if bits_moved else per_side["base"][0]
    entry = {"artifacts_sha256": digests, "pairs": len(runs["base"]), "sides": {}, "change_better_pairs": {}}
    if bits_moved:
        entry["bits_moved"] = True
    names = list(runs["base"][0]["metrics"])
    for side in SIDES:
        env = runs[side][0]["env"]
        entry["sides"][side] = {
            "git_sha": env.get("git_sha"),
            "source_sha256": env.get("source_sha256"),
            "correct": [run["correct"] for run in runs[side]],
            "metrics": {},
        }
        for name in names:
            values = [run["metrics"][name] for run in runs[side]]
            q1, median, q3 = _quartiles(values)
            stats = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}
            entry["sides"][side]["metrics"][name] = stats
    for name in names:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        pairs = zip(runs["base"], runs["change"])
        entry["change_better_pairs"][name] = sum(sign * (c["metrics"][name] - b["metrics"][name]) < 0 for b, c in pairs)
    return entry


def openblas_core():
    """The OpenBLAS kernel numpy's scipy-openblas picks on this machine, or None."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode("ascii")
    return None


@contextlib.contextmanager
def checkout(where):
    """``where`` if it is a directory, else a temporary ``git worktree`` of
    the revision ``where``, removed on exit."""
    if os.path.isdir(where):
        yield where
        return
    path = tempfile.mkdtemp(prefix="bench-pairs-")
    subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", path, where], check=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", path], check=True)


def run_once(directory, workload, seed, seconds):
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    argv += ["--trace", "0"]
    proc = subprocess.run(argv, cwd=directory, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {directory} exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout directory or git revision")
    parser.add_argument("--change", required=True, help="checkout directory or git revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", default="BENCH_1.json")
    parser.add_argument(
        "--bits-moved",
        action="store_true",
        help="the change is a declared re-baseline: pair sides whose artifacts_sha256 differ",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    settings = {"seconds": args.seconds, "openblas_core": openblas_core()}
    report = {"results": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
        # the file states these once for all its entries
        recorded = {key: report.get(key) for key in settings}
        if recorded != settings:
            parser.error(f"{args.out} holds runs of {recorded}, not of this run's {settings}; use another --out")
    report.update(command="python3 bench/run.py --workload W --seed S --seconds T --trace 0", **settings)
    with checkout(args.base) as base, checkout(args.change) as change:
        dirs = {"base": base, "change": change}
        for workload in args.workload:
            for seed in args.seed:
                runs = {side: [] for side in SIDES}
                for i in range(args.pairs):
                    for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                        runs[side].append(run_once(dirs[side], workload, seed, args.seconds))
                        wall = runs[side][-1]["metrics"]["wall_s"]
                        print(f"{workload} seed {seed} pair {i} {side} wall_s {wall:.3f}", file=sys.stderr)
                    # summarized after every pair, so differing digests stop the tool at once
                    entry = summarize(runs, better, args.bits_moved)
                    env = runs["base"][0]["env"]
                    entry["env"] = {k: v for k, v in env.items() if k not in ("git_sha", "source_sha256")}
                    report["results"][f"{workload} seed {seed}"] = entry
                    with open(args.out, "w", encoding="utf-8") as fh:
                        json.dump(report, fh, indent=1, sort_keys=True)
                        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
