"""The benchmark's workloads, their correctness checks and their metrics.

Each workload is a closed loop: one process makes its calls one after
another. Inputs come only from the workload seed. Sizes are fixed per
workload; ``--seconds`` picks how many units (seeds or CLI round trips) a
run holds, from a nominal cost per unit, so both sides of a comparison do
the same work. Times are reported paced: each operation's seconds are
scaled by the speed the machine showed on a fixed reference computation
run just before and just after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from longtail_kd import cli, evaluate, pipeline
from longtail_kd.data import ImbalanceProfile, load_dataset, make_longtail_counts, subset_tags, synth_gaussian_mixture
from longtail_kd.losses import BKDConfig, KDConfig
from longtail_kd.mlp import LrSchedule, params_to_bytes
from longtail_kd.pipeline import TrainConfig, metrics_from_csv, metrics_to_csv, read_checkpoint

from tracer import Tracer

# A seed no change uses while it is being written, so that a claim can be
# checked afterwards on inputs it was not tuned on.
SPARE_SEED = 7919

# Set-up runs this many times per run and reports the median: one set-up is
# mostly a fresh interpreter's import, which alone moves by tens of percent.
SETUP_REPEATS = 9

# Paced seconds are those of a machine on which one reference() call takes
# this long.
REFERENCE_S = 0.02

LR = 0.02
SEPARATION = 3.0


@dataclass(frozen=True)
class DataShape:
    C: int
    d: int
    rho: float
    n_max: int
    per_class_test: int
    many_thresh: int
    few_thresh: int

    def counts(self):
        return make_longtail_counts(ImbalanceProfile("exponential", self.rho, self.n_max, self.C))


@dataclass(frozen=True)
class LibrarySpec:
    """Teacher, then one student per loss in ``students``, per seed, via the library API."""

    shape: DataShape
    seeds: int
    epochs: int
    hidden: tuple
    batch: int
    students: tuple


@dataclass(frozen=True)
class CliSpec:
    """``units`` round trips through ``longtail_kd.cli.main``, each on its own data seed."""

    shape: DataShape
    units: int
    epochs: int
    hidden: tuple
    batch: int
    temps: tuple
    gradcheck_trials: int


DESK = DataShape(C=10, d=20, rho=100.0, n_max=500, per_class_test=100, many_thresh=100, few_thresh=20)
# With rho=10 every class has at least 200 rows, so the default thresholds
# (100/20) would leave the few-shot subset empty; these split 20 classes 8/6/6.
WIDE = DataShape(C=20, d=64, rho=10.0, n_max=2000, per_class_test=100, many_thresh=1000, few_thresh=400)

# Nominal seconds per unit on a 2-core Xeon with one BLAS thread; they only
# turn ``--seconds`` into a unit count.
DESK_SEED_S = 2.7  # teacher + kd + bkd, 100 epochs each
WIDE_EPOCHS = 2
WIDE_SEED_S = 5.2  # teacher + bkd, WIDE_EPOCHS epochs each
CLI_UNIT_S = 5.0  # one make-data ... gradcheck round trip

WORKLOADS = ("desk-seeds", "wide-batch", "cli-roundtrip")


def spec_for(name, seconds):
    """The workload's full-size spec for a run of about ``seconds``."""
    if name == "desk-seeds":
        seeds = max(1, round(seconds / DESK_SEED_S))
        return LibrarySpec(DESK, seeds, epochs=100, hidden=(64, 64), batch=64, students=("kd", "bkd"))
    if name == "wide-batch":
        seeds = max(1, round(seconds / WIDE_SEED_S))
        return LibrarySpec(WIDE, seeds, epochs=WIDE_EPOCHS, hidden=(512, 512), batch=256, students=("bkd",))
    if name == "cli-roundtrip":
        units = max(1, round(seconds / CLI_UNIT_S))
        return CliSpec(WIDE, units, epochs=3, hidden=(64, 64), batch=256, temps=(1.0, 2.0, 4.0), gradcheck_trials=50)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def unit_seed(seed, unit):
    return 1000 * seed + unit


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Outcome:
    """What one pass over a workload did: operations, paced phase times,
    accuracies."""

    ops: list = field(default_factory=list)  # dicts: name, paced seconds, ok, problems, digest
    wall_s: float = 0.0
    teacher_s: float = 0.0
    student_s: float = 0.0
    unpaced_s: float = 0.0  # wall_s as the clock read it
    samples: int = 0
    acc_all: list = field(default_factory=list)
    acc_few: list = field(default_factory=list)
    few_gain: list = field(default_factory=list)

    def add_time(self, seconds, paced, phase=None):
        """Count one operation's time; ``phase`` is "teacher_s" or
        "student_s" when it trains."""
        self.unpaced_s += seconds
        self.wall_s += paced
        if phase is not None:
            setattr(self, phase, getattr(self, phase) + paced)

    def record(self, name, seconds, problems, digest=""):
        self.ops.append({"name": name, "seconds": seconds, "ok": not problems, "problems": list(problems), "digest": digest})

    @property
    def failed(self):
        return sum(not op["ok"] for op in self.ops)

    def digest(self):
        return hashlib.sha256("".join(op["digest"] for op in self.ops).encode()).hexdigest()


def reference():
    """A fixed computation that mixes the kinds of work the package does:
    interpreted arithmetic, small numpy calls, a cache-sized BLAS matmul,
    and formatting floats to text and parsing them back. Returns its
    seconds.

    Other tenants of a shared machine change its speed by up to 2x within
    minutes; the reference slows with the code it is timed next to, so
    dividing by it cancels most of that change. It must never change, or
    paced times stop being comparable."""
    t0 = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    a = np.full((64, 64), 0.01)
    for _ in range(150):
        a = np.tanh(a @ a + 0.01)
    b = np.full((512, 512), 0.001)
    np.tanh(np.full((256, 512), 0.01) @ b @ b)
    text = ",".join(repr(float(v)) for v in np.linspace(0.0, 1.0, 6000))
    [float(v) for v in text.split(",")]
    return perf_counter() - t0


class Timer:
    """Times the operations of one pass. Each is paced against the mean of
    the reference runs just before and just after it, and runs with the
    tracer (if any) active."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ref = reference()

    def __call__(self, run_id, fn):
        """Call ``fn``; returns (result, seconds, paced seconds)."""
        if self.tracer is not None:
            self.tracer.run_id = run_id
            self.tracer.active = True
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            seconds = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
            before, self.ref = self.ref, reference()
        return result, seconds, seconds * 2 * REFERENCE_S / (before + self.ref)


def check_log(rows, epochs):
    problems = []
    if len(rows) != epochs:
        problems.append(f"metric log has {len(rows)} rows, expected {epochs}")
    for r in rows:
        accs = (r.acc_all, r.acc_many, r.acc_medium, r.acc_few)
        if not all(math.isfinite(v) for v in (r.loss, r.lr, *[a for a in accs if a is not None])):
            problems.append(f"non-finite metric row at epoch {r.epoch}")
        if any(a is not None and not 0.0 <= a <= 1.0 for a in accs):
            problems.append(f"accuracy outside [0, 1] at epoch {r.epoch}")
    return problems


def check_params(params, dims):
    problems = []
    if params.dims != tuple(dims):
        problems.append(f"model dims {params.dims}, expected {tuple(dims)}")
    if not all(np.isfinite(a).all() for a in (*params.weights, *params.biases)):
        problems.append("non-finite parameters")
    return problems


def check_evaluation(params, test, tags, last_row):
    """A stand-alone evaluation of the final model must equal the last
    epoch's logged accuracies."""
    report = evaluate.accuracy_report(evaluate.predict(params, test), test.labels, tags)
    if (report.overall, report.many, report.medium, report.few) != (
        last_row.acc_all, last_row.acc_many, last_row.acc_medium, last_row.acc_few,
    ):
        return ["stand-alone evaluation disagrees with the last epoch's metrics"]
    return []


# ---------------------------------------------------------------------------
# library workloads: desk-seeds, wide-batch


def library_inputs(spec, seed):
    counts = spec.shape.counts()
    s = spec.shape
    return [
        synth_gaussian_mixture(counts, s.d, SEPARATION, unit_seed(seed, i), s.per_class_test)
        for i in range(spec.seeds)
    ]


def _train_config(spec, loss, seed):
    return TrainConfig(
        loss=loss, epochs=spec.epochs, batch_size=spec.batch, hidden_dims=spec.hidden,
        schedule=LrSchedule("cosine", LR), momentum=0.9, seed=seed,
        kd=KDConfig(alpha=0.5, temperature=2.0), bkd=BKDConfig(beta=0.9999, temperature=2.0),
        many_thresh=spec.shape.many_thresh, few_thresh=spec.shape.few_thresh,
    )


def _net_digest(params, log):
    return hashlib.sha256(params_to_bytes(params) + metrics_to_csv(log).encode()).hexdigest()


def run_library(spec, seed, datasets, tracer=None):
    out, timer = Outcome(), Timer(tracer)
    for i, (train, test) in enumerate(datasets):
        dims = (train.dimension, *spec.hidden, train.num_classes)
        tags = subset_tags(train.class_counts, spec.shape.many_thresh, spec.shape.few_thresh)
        cfg_seed = unit_seed(seed, i)
        try:
            (teacher, tlog), dt, paced = timer(
                len(out.ops),
                lambda: pipeline.train_teacher(train, test, _train_config(spec, "ce", cfg_seed)),
            )
        except Exception as exc:  # a failed run is counted, and the loop goes on
            out.record(f"seed{i}/teacher", 0.0, [f"raised {exc!r}"])
            for loss in spec.students:
                out.record(f"seed{i}/{loss}", 0.0, ["no teacher"])
            continue
        out.add_time(dt, paced, "teacher_s")
        out.samples += spec.epochs * len(train)
        out.record(f"seed{i}/teacher", paced, check_log(tlog, spec.epochs) + check_params(teacher, dims),
                   _net_digest(teacher, tlog))

        for loss in spec.students:
            name = f"seed{i}/{loss}"
            try:
                (params, log), dt, paced = timer(
                    len(out.ops),
                    lambda: pipeline.train_student(train, test, teacher, _train_config(spec, loss, cfg_seed)),
                )
            except Exception as exc:
                out.record(name, 0.0, [f"raised {exc!r}"])
                continue
            out.add_time(dt, paced, "student_s")
            out.samples += spec.epochs * len(train)
            problems = check_log(log, spec.epochs) + check_params(params, dims)
            if loss == "bkd" and not problems:
                problems += check_evaluation(params, test, tags, log[-1])
                if log[-1].acc_few is None or tlog[-1].acc_few is None:
                    problems.append("few-shot subset is empty")
                else:
                    out.acc_all.append(log[-1].acc_all)
                    out.acc_few.append(log[-1].acc_few)
                    out.few_gain.append(log[-1].acc_few - tlog[-1].acc_few)
            out.record(name, paced, problems, _net_digest(params, log))
    return out


# ---------------------------------------------------------------------------
# cli-roundtrip


def cli_config_text(spec, seed, unit):
    s = spec.shape
    lines = {
        "C": s.C, "d": s.d, "rho": repr(s.rho), "n_max": s.n_max,
        "per_class_test": s.per_class_test, "separation": repr(SEPARATION),
        "data_seed": unit_seed(seed, unit), "seed": unit_seed(seed, unit),
        "hidden_dims": ",".join(str(h) for h in spec.hidden),
        "loss": "bkd", "epochs": spec.epochs, "batch_size": spec.batch,
        "lr": repr(LR), "schedule": "cosine", "momentum": "0.9",
        "alpha": "0.5", "beta": "0.9999", "temperature": "2.0",
        "many_thresh": s.many_thresh, "few_thresh": s.few_thresh,
        "data_dir": "data", "out_dir": "out",
    }
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def cli_inputs(spec, seed, setup_dir):
    """Write one config per unit; returns their paths."""
    os.makedirs(setup_dir, exist_ok=True)
    paths = []
    for i in range(spec.units):
        path = os.path.join(setup_dir, f"unit{i}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli_config_text(spec, seed, i))
        paths.append(path)
    return paths


def _cli_steps(spec, cfg, seed):
    """(name, argv, files the command writes) for one round trip."""
    temps = [repr(t) for t in spec.temps]
    return [
        ("make-data", ["make-data", "--config", cfg],
         ["data/train.csv", "data/test.csv", "data/counts.csv", "data/resolved_config.txt"]),
        ("train-teacher", ["train", "--config", cfg, "--role", "teacher"],
         ["out/teacher.ckpt", "out/teacher_metrics.csv", "out/teacher_report.json"]),
        ("train-student", ["train", "--config", cfg, "--role", "student", "--teacher", "out/teacher.ckpt"],
         ["out/student.ckpt", "out/student_metrics.csv", "out/student_report.json"]),
        ("eval", ["eval", "--ckpt", "out/student.ckpt", "--data", "data/test.csv", "--config", cfg],
         ["out/eval_report.json", "out/confusion_counts.csv", "out/confusion_rownorm.csv"]),
        ("sweep-temp", ["sweep-temp", "--config", cfg, "--temps", *temps, "--teacher", "out/teacher.ckpt"],
         ["out/sweep.csv"]),
        ("gradcheck", ["gradcheck", "--trials", str(spec.gradcheck_trials), "--seed", str(seed)], []),
    ]


# The training phase each command's time counts toward; sweep-temp trains
# one student per temperature.
CLI_PHASES = {"train-teacher": "teacher_s", "train-student": "student_s", "sweep-temp": "student_s"}


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def run_cli(spec, seed, configs, work_dir, tracer=None):
    out, timer = Outcome(), Timer(tracer)
    home = os.getcwd()
    for i, cfg in enumerate(configs):
        unit_dir = os.path.join(work_dir, f"unit{i}")
        os.makedirs(unit_dir)
        os.chdir(unit_dir)  # the config names data/ and out/ relative to here
        try:
            codes = {}
            for name, argv, files in _cli_steps(spec, cfg, unit_seed(seed, i)):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code, dt, paced = timer(len(out.ops) + len(codes), lambda: cli.main(argv))
                    except Exception as exc:
                        code, dt, paced = f"raised {exc!r}", 0.0, 0.0
                codes[name] = (code, stdout.getvalue(), stderr.getvalue(), files, paced)
                out.add_time(dt, paced, CLI_PHASES.get(name))
            N = int(spec.shape.counts().sum())
            out.samples += spec.epochs * N * (2 + len(spec.temps))
            problems = _check_cli_unit(spec, out, codes)
            for name, (code, stdout, stderr, files, paced) in codes.items():
                h = hashlib.sha256(stdout.encode())
                for f in files:
                    h.update(_read(f, "rb") if os.path.exists(f) else b"missing")
                exit_problems = [] if code == 0 else [f"exit {code}: {stderr.strip()[-200:]}"]
                out.record(f"unit{i}/{name}", paced, exit_problems + problems.get(name, []), h.hexdigest())
        finally:
            os.chdir(home)
            shutil.rmtree(unit_dir, ignore_errors=True)
    return out


def _check_cli_unit(spec, out, codes):
    """Per-command problems found in the unit's files (cwd is the unit dir)."""
    problems = {name: [] for name in codes}
    s = spec.shape
    dims = (s.d, *spec.hidden, s.C)
    try:
        count_lines = _read("data/counts.csv").splitlines()[1:]
        counts = np.array([int(line.split(",")[1]) for line in count_lines], dtype=np.int64)
        if not np.array_equal(counts, s.counts()):
            problems["make-data"].append("counts.csv does not match the profile")
        tags = subset_tags(counts, s.many_thresh, s.few_thresh)
    except (OSError, ValueError, IndexError) as exc:
        problems["make-data"].append(f"unreadable counts.csv: {exc!r}")
        return problems

    last = {}
    for role in ("teacher", "student"):
        step = f"train-{role}"
        try:
            state = read_checkpoint(f"out/{role}.ckpt")
            problems[step] += check_params(state.params, dims)
            log = metrics_from_csv(_read(f"out/{role}_metrics.csv"))
            problems[step] += check_log(log, spec.epochs)
            report = json.loads(_read(f"out/{role}_report.json"))
            if log and report["overall"] != log[-1].acc_all:
                problems[step].append("report disagrees with the last epoch's metrics")
            last[role] = log[-1] if log else None
        except (OSError, ValueError, KeyError) as exc:
            problems[step].append(f"unreadable artifacts: {exc!r}")

    try:
        test = load_dataset("data/test.csv")
        params = read_checkpoint("out/student.ckpt").params
        preds = evaluate.predict(params, test)
        expected = json.loads(evaluate.report_to_json(evaluate.accuracy_report(preds, test.labels, tags)))
        if json.loads(_read("out/eval_report.json")) != expected:
            problems["eval"].append("eval_report.json differs from the checkpoint's recomputed accuracy")
    except (OSError, ValueError) as exc:
        problems["eval"].append(f"cannot recompute the evaluation: {exc!r}")

    try:
        rows = [line.split(",") for line in _read("out/sweep.csv").splitlines()[1:]]
        if [float(t) for t, _ in rows] != list(spec.temps) or not all(0 <= float(a) <= 1 for _, a in rows):
            problems["sweep-temp"].append("sweep.csv rows do not match the temperatures")
    except (OSError, ValueError) as exc:
        problems["sweep-temp"].append(f"unreadable sweep.csv: {exc!r}")

    teacher, student = last.get("teacher"), last.get("student")
    if teacher is not None and student is not None:
        if teacher.acc_few is None or student.acc_few is None:
            problems["train-student"].append("few-shot subset is empty")
        else:
            out.acc_all.append(student.acc_all)
            out.acc_few.append(student.acc_few)
            out.few_gain.append(student.acc_few - teacher.acc_few)
    return problems


# ---------------------------------------------------------------------------
# a whole run

def setup(spec, seed, root, work_dir):
    """Start a fresh interpreter that imports the package, then make the
    inputs; ``SETUP_REPEATS`` times. Returns (inputs, paced set-up seconds
    per repeat)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def once():
        subprocess.run([sys.executable, "-c", "import longtail_kd"], cwd=root, env=env, timeout=120, check=True)
        if isinstance(spec, CliSpec):
            return cli_inputs(spec, seed, os.path.join(work_dir, "setup"))
        return library_inputs(spec, seed)

    timer, setup_times = Timer(), []
    for _ in range(SETUP_REPEATS):
        inputs, _, paced = timer(0, once)
        setup_times.append(paced)
    return inputs, setup_times


def _execute(spec, seed, inputs, work_dir, tracer):
    if isinstance(spec, CliSpec):
        pass_dir = os.path.join(work_dir, "traced" if tracer else "plain")
        os.makedirs(pass_dir, exist_ok=True)
        return run_cli(spec, seed, inputs, pass_dir, tracer)
    return run_library(spec, seed, inputs, tracer)


def run_workload(spec, seed, trace, root, work_dir, spans_path=None):
    """One benchmark run. Returns (outcome, metrics dict)."""
    inputs, setup_times = setup(spec, seed, root, work_dir)
    plain = _execute(spec, seed, inputs, work_dir, None)
    if not trace:
        metrics = end_to_end(plain, setup_times)
        return plain, metrics

    tracer = Tracer()
    tracer.install()
    try:
        traced = _execute(spec, seed, inputs, work_dir, tracer)
    finally:
        tracer.uninstall()
    for op, ref in zip(traced.ops, plain.ops):
        if op["digest"] != ref["digest"]:
            op["ok"] = False
            op["problems"].append("output differs from the untraced run")
    if spans_path is not None:
        tracer.write_spans(spans_path)
    overhead = traced.wall_s / plain.wall_s - 1.0 if plain.wall_s > 0 else 0.0
    return traced, tracer.per_layer(overhead)


def end_to_end(out, setup_times):
    train_s = out.teacher_s + out.student_s
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": out.wall_s,
        "teacher_s": out.teacher_s,
        "student_s": out.student_s,
        "train_samples_per_s": out.samples / train_s if train_s > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_all": _mean(out.acc_all),
        "acc_few": _mean(out.acc_few),
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# environment block


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_sha(root):
    """HEAD of the checkout, or None when it is not a git checkout (the
    check keeps ``git`` from answering for an enclosing repository)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_sha256(root):
    pkg = os.path.join(root, "src", "longtail_kd")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0" + _read(os.path.join(pkg, name), "rb"))
    return h.hexdigest()


def environment(root, seed):
    """Versions, BLAS, threads, CPU and code identity for the report."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpuinfo = _read_text("/proc/cpuinfo")

    def cpu_field(key):
        for line in cpuinfo.splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
        return None

    caches = []
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for index in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, index)
            level, kind, size = (_read_text(os.path.join(base, f)).strip() for f in ("level", "type", "size"))
            if size:
                caches.append(f"L{level} {kind} {size}")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_field("model name"),
        "cpu_cache": cpu_field("cache size"),
        "cpu_caches": caches,
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
        "seed": seed,
        "spare_seed": SPARE_SEED,
    }
