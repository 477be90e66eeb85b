"""Command-line entry point.

Subcommands: make-data, train, eval, gradcheck, sweep-temp. Every command is
deterministic given its config and seeds; output files never embed
timestamps. Exit codes: 0 success, 1 usage or config error, 2 runtime or
validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import evaluate
from .config import ConfigError, imbalance_profile, parse_config, render_config, train_config
from .data import load_dataset, make_longtail_counts, save_dataset, subset_tags, synth_gaussian_mixture
from .gradcheck import run_gradient_checks
from .mathutils import check_temperature
from .pipeline import (
    check_model_fits,
    check_splits,
    check_sweep_epochs,
    metrics_to_csv,
    read_checkpoint,
    temperature_sweep,
    train_student,
    train_teacher,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _prepare_out(cfg, key):
    os.makedirs(cfg[key], exist_ok=True)
    _write(os.path.join(cfg[key], "resolved_config.txt"), render_config(cfg))
    return cfg[key]


def _load_splits(cfg):
    """The train and test splits of ``cfg["data_dir"]``, checked as a pair
    before any caller makes its output directory."""
    data_dir = cfg["data_dir"]
    train = load_dataset(os.path.join(data_dir, "train.csv"))
    test = load_dataset(os.path.join(data_dir, "test.csv"))
    check_splits(train, test)
    return train, test


def cmd_make_data(args):
    cfg = parse_config(args.config)
    # the profile and the synthesis check every dataset key: a value they
    # refuse is a config error, found before data_dir is made
    try:
        counts = make_longtail_counts(imbalance_profile(cfg))
        train, test = synth_gaussian_mixture(
            counts, cfg["d"], cfg["separation"], cfg["data_seed"], cfg["per_class_test"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out = _prepare_out(cfg, "data_dir")
    save_dataset(train, os.path.join(out, "train.csv"))
    save_dataset(test, os.path.join(out, "test.csv"))
    lines = ["class,count"] + [f"{c},{int(n)}" for c, n in enumerate(counts)]
    _write(os.path.join(out, "counts.csv"), "\n".join(lines) + "\n")
    print(f"wrote {len(train)} train / {len(test)} test samples to {out}")
    print(f"class counts: {counts.tolist()} (max/min = {counts.max() / counts.min():g})")
    return EXIT_OK


def _score(params, train, data, tcfg):
    """Predictions of ``params`` on ``data`` and their accuracy report, with
    classes tagged by their training-split counts under the thresholds of
    the validated training config ``tcfg``."""
    preds = evaluate.predict(params, data)
    tags = subset_tags(train.class_counts, tcfg.many_thresh, tcfg.few_thresh)
    return preds, evaluate.accuracy_report(preds, data.labels, tags)


def cmd_train(args):
    cfg = parse_config(args.config)
    if args.role == "student" and not args.teacher:
        raise UsageError("--role student requires --teacher <checkpoint>")
    tcfg = train_config(cfg, loss="ce" if args.role == "teacher" else None)
    if args.role == "teacher" and args.teacher:
        raise UsageError("--teacher is only valid with --role student")
    # the teacher is read and checked against the data before out_dir is made
    teacher = read_checkpoint(args.teacher).params if args.teacher else None
    train, test = _load_splits(cfg)
    if teacher is not None:
        check_model_fits(teacher, train, "teacher", "data")
    out = _prepare_out(cfg, "out_dir")
    ckpt_path = os.path.join(out, f"{args.role}.ckpt")

    if teacher is None:
        params, log = train_teacher(train, test, tcfg, out_ckpt=ckpt_path)
    else:
        params, log = train_student(train, test, teacher, tcfg, out_ckpt=ckpt_path)

    _write(os.path.join(out, f"{args.role}_metrics.csv"), metrics_to_csv(log))
    _, report = _score(params, train, test, tcfg)
    _write(os.path.join(out, f"{args.role}_report.json"), evaluate.report_to_json(report))
    subset_bits = ", ".join(
        f"{name}={getattr(report, name):.4f}"
        for name in ("many", "medium", "few")
        if getattr(report, name) is not None
    )
    print(f"{args.role} ({tcfg.loss}): overall={report.overall:.4f} {subset_bits}")
    print(f"artifacts in {out}")
    return EXIT_OK


def cmd_eval(args):
    cfg = parse_config(args.config)
    tcfg = train_config(cfg)
    params = read_checkpoint(args.ckpt).params
    data = load_dataset(args.data)
    if len(data) == 0:
        raise ValueError(f"{args.data} has no samples to evaluate")
    train = load_dataset(os.path.join(cfg["data_dir"], "train.csv"))
    for name, split in (("data", data), ("train split", train)):
        check_model_fits(params, split, "checkpoint", name)
    out = _prepare_out(cfg, "out_dir")

    preds, report = _score(params, train, data, tcfg)
    confusion = evaluate.confusion_matrix(preds, data.labels, data.num_classes)

    report_json = evaluate.report_to_json(report)
    _write(os.path.join(out, "eval_report.json"), report_json)
    _write(os.path.join(out, "confusion_counts.csv"), evaluate.confusion_to_csv(confusion))
    _write(
        os.path.join(out, "confusion_rownorm.csv"),
        evaluate.confusion_to_csv(evaluate.row_normalized(confusion)),
    )
    sys.stdout.write(report_json)
    return EXIT_OK


def cmd_gradcheck(args):
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    worst = run_gradient_checks(trials=args.trials, seed=args.seed)
    threshold = 1e-6
    print(f"gradient check: {args.trials} trials, seed {args.seed}, threshold {threshold:g}")
    failed = False
    # a NaN error is the worst case: it compares as neither ok nor larger
    worst_name = max(worst, key=lambda name: (math.isnan(worst[name]), worst[name]))
    for name, err in sorted(worst.items()):
        ok = err <= threshold
        print(f"  {name:<12} max |analytic - finite difference| = {err:.3e}  {'ok' if ok else 'FAIL'}")
        failed = failed or not ok
    print(f"worst case: {worst_name} at {worst[worst_name]:.3e}")
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_sweep_temp(args):
    try:
        temps = [check_temperature(t) for t in args.temps]
    except ValueError as exc:
        raise UsageError(f"--temps: {exc}") from None
    cfg = parse_config(args.config)
    teacher_cfg, student_cfg = train_config(cfg, loss="ce"), train_config(cfg)
    try:
        check_sweep_epochs(student_cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    train, test = _load_splits(cfg)
    out = _prepare_out(cfg, "out_dir")
    if args.teacher:
        teacher = read_checkpoint(args.teacher).params
    else:
        teacher, _ = train_teacher(train, test, teacher_cfg)
    rows = temperature_sweep(train, test, teacher, student_cfg, temps)
    _write(os.path.join(out, "sweep.csv"), evaluate.sweep_to_csv(rows))
    for T, acc in rows:
        print(f"T={T:g}: accuracy={acc:.4f}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="longtail-kd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", help="synthesize a long-tailed dataset")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_make_data)

    p = sub.add_parser("train", help="train the teacher or a student")
    p.add_argument("--config", required=True)
    p.add_argument("--role", required=True, choices=("teacher", "student"))
    p.add_argument("--teacher", help="teacher checkpoint (required for --role student)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("sweep-temp", help="train one student per temperature and tabulate accuracy")
    p.add_argument("--config", required=True)
    p.add_argument("--temps", required=True, nargs="+", type=float)
    p.add_argument("--teacher", help="reuse this teacher checkpoint instead of training one")
    p.set_defaults(fn=cmd_sweep_temp)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
