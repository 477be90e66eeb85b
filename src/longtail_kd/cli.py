"""Command-line entry point.

Subcommands: make-data, train, eval, gradcheck, sweep-temp. Every command is
deterministic given its config and seeds; output files never embed
timestamps. Exit codes: 0 success, 1 usage or config error, 2 runtime or
validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import evaluate
from .config import ConfigError, imbalance_profile, parse_config, render_config, train_config
from .data import (
    SIDECAR_SUFFIX,
    check_output,
    load_dataset,
    make_longtail_counts,
    open_output,
    save_dataset,
    subset_tags,
    synth_gaussian_mixture,
)
from .gradcheck import run_gradient_checks
from .mathutils import check_temperature
from .pipeline import (
    check_model_fits,
    check_splits,
    check_sweep_config,
    metrics_to_csv,
    open_run,
    read_checkpoint,
    teacher_config,
    temperature_sweep,
    write_checkpoint,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


# the files of a data directory's two splits
TRAIN_SPLIT, TEST_SPLIT = "train.csv", "test.csv"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@contextlib.contextmanager
def _refused_as(kind, prefix=""):
    """A ValueError raised in the block leaves it as ``kind``, its message
    after ``prefix``: a library refusal becomes the command's usage, config
    or runtime error, and names the files it concerns."""
    try:
        yield
    except ValueError as exc:
        raise kind(f"{prefix}{exc}") from None


def _write(path, text):
    with open_output(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _prepare_out(cfg, key, outputs):
    """The output plan of a command: ``{what: path}`` for every file it
    commits into the directory ``cfg[key]``. ``outputs`` maps the word for
    each file to its name there; the resolved config
    (``resolved_config.txt``) is added. Each path goes through
    ``data.check_output`` first, so a file that could not be committed is
    refused, in its own word, before any work and before anything is
    written. Then the directory is made, or refused as ``<dir>: cannot
    write the <key>: <reason>`` where it cannot be, such as under a
    regular file, and the resolved config committed."""
    names = {"resolved config": "resolved_config.txt", **outputs}
    paths = {what: os.path.join(cfg[key], name) for what, name in names.items()}
    for what, path in paths.items():
        check_output(path, what)
    try:
        os.makedirs(cfg[key], exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{cfg[key]}: cannot write the {key}: {exc.strerror}") from None
    _write(paths["resolved config"], render_config(cfg))
    return paths


def _load_run_inputs(cfg, model_path, data_path=None):
    """The model of ``model_path`` (None without one), the train split of
    ``cfg["data_dir"]`` and the split the model is scored on: the file
    ``data_path``, or by default the test split of ``data_dir``. The model
    is checked against the scored split, then against the train split, and
    the two splits as a pair, before any caller makes its output directory.
    Each refusal names the files it concerns."""
    train_path = os.path.join(cfg["data_dir"], TRAIN_SPLIT)
    test_path = os.path.join(cfg["data_dir"], TEST_SPLIT) if data_path is None else data_path
    model = None if model_path is None else read_checkpoint(model_path).params
    train, test = load_dataset(train_path), load_dataset(test_path)
    if model is not None:
        for path, split in ((test_path, test), (train_path, train)):
            check_model_fits(model, split, model_path, path)
    with _refused_as(ValueError, f"{train_path}, {test_path}: "):
        check_splits(train, test)
    return model, train, test


def cmd_make_data(args):
    cfg = parse_config(args.config)
    # the resolved config it echoes is one every other command accepts
    train_config(cfg)
    # the profile and the synthesis check every dataset key: a value they
    # refuse is a config error, found before data_dir is made
    with _refused_as(ConfigError):
        counts = make_longtail_counts(imbalance_profile(cfg))
        train, test = synth_gaussian_mixture(
            counts, cfg["d"], cfg["separation"], cfg["data_seed"], cfg["per_class_test"]
        )
    # save_dataset commits each split's sidecar next to it
    paths = _prepare_out(
        cfg,
        "data_dir",
        {
            "train split": TRAIN_SPLIT,
            "train split sidecar": TRAIN_SPLIT + SIDECAR_SUFFIX,
            "test split": TEST_SPLIT,
            "test split sidecar": TEST_SPLIT + SIDECAR_SUFFIX,
            "class counts": "counts.csv",
        },
    )
    save_dataset(train, paths["train split"])
    save_dataset(test, paths["test split"])
    lines = ["class,count"] + [f"{c},{int(n)}" for c, n in enumerate(counts)]
    _write(paths["class counts"], "\n".join(lines) + "\n")
    print(f"wrote {len(train)} train / {len(test)} test samples to {cfg['data_dir']}")
    print(f"class counts: {counts.tolist()} (max/min = {counts.max() / counts.min():g})")
    return EXIT_OK


def _score(params, train, data, tcfg):
    """The confusion matrix of ``params`` on ``data``, tallied once, and its
    accuracy report, with classes tagged by their training-split counts
    under the thresholds of the validated training config ``tcfg``."""
    preds = evaluate.predict(params, data)
    tags = subset_tags(train.class_counts, tcfg.many_thresh, tcfg.few_thresh)
    confusion = evaluate.confusion_matrix(preds, data.labels, len(tags))
    return confusion, evaluate.report_from_confusion(confusion, tags)


def cmd_train(args):
    if args.role == "student" and not args.teacher:
        raise UsageError("--role student requires --teacher <checkpoint>")
    if args.role == "teacher" and args.teacher:
        raise UsageError("--teacher is only valid with --role student")
    cfg = parse_config(args.config)
    tcfg = train_config(cfg)
    teacher, train, test = _load_run_inputs(cfg, args.teacher)
    paths = _prepare_out(
        cfg,
        "out_dir",
        {
            "checkpoint": f"{args.role}.ckpt",
            "metric log": f"{args.role}_metrics.csv",
            "report": f"{args.role}_report.json",
        },
    )

    state, epochs = open_run(train, test, tcfg, teacher)
    report = None
    for report in epochs:
        pass
    write_checkpoint(paths["checkpoint"], state)
    _write(paths["metric log"], metrics_to_csv(state.log_rows))
    # the last epoch scored the final model; a run of no epoch scores it here
    if report is None:
        _, report = _score(state.params, train, test, tcfg)
    _write(paths["report"], evaluate.report_to_json(report))
    subset_bits = ", ".join(
        f"{name}={getattr(report, name):.4f}"
        for name in ("many", "medium", "few")
        if getattr(report, name) is not None
    )
    loss = (teacher_config(tcfg) if teacher is None else tcfg).loss
    print(f"{args.role} ({loss}): overall={report.overall:.4f} {subset_bits}")
    print(f"artifacts in {cfg['out_dir']}")
    return EXIT_OK


def cmd_eval(args):
    cfg = parse_config(args.config)
    tcfg = train_config(cfg)
    params, train, data = _load_run_inputs(cfg, args.ckpt, args.data)
    paths = _prepare_out(
        cfg,
        "out_dir",
        {
            "report": "eval_report.json",
            "confusion matrix": "confusion_counts.csv",
            "row-normalized confusion matrix": "confusion_rownorm.csv",
        },
    )

    with _refused_as(ValueError, f"{args.ckpt}, {args.data}: "):
        confusion, report = _score(params, train, data, tcfg)

    report_json = evaluate.report_to_json(report)
    _write(paths["report"], report_json)
    _write(paths["confusion matrix"], evaluate.confusion_to_csv(confusion))
    _write(
        paths["row-normalized confusion matrix"],
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
    with _refused_as(UsageError, "--temps: "):
        temps = [check_temperature(t) for t in args.temps]
    cfg = parse_config(args.config)
    tcfg = train_config(cfg)
    with _refused_as(ConfigError):
        check_sweep_config(tcfg)
    teacher, train, test = _load_run_inputs(cfg, args.teacher)
    paths = _prepare_out(cfg, "out_dir", {"sweep table": "sweep.csv"})
    rows = temperature_sweep(train, test, teacher, tcfg, temps)
    _write(paths["sweep table"], evaluate.sweep_to_csv(rows))
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
    p.add_argument("--teacher", required=True, help="teacher checkpoint")
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
