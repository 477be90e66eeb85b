"""Flat key=value experiment configuration.

One ``key = value`` per line, ``#`` starts a comment, blank lines are
ignored. Unknown or duplicate keys are rejected. Every key has a default, so
an empty file is a complete configuration. A key that sets a field of
``ImbalanceProfile`` or ``TrainConfig`` takes its default from
``ImbalanceProfile()`` or ``TrainConfig()``, so an empty file builds those
two. The resolved configuration is echoed into each output directory for
provenance.
"""

from __future__ import annotations

from .data import PROFILE_KINDS, ImbalanceProfile, open_input
from .losses import BKDConfig, KDConfig
from .mlp import SCHEDULE_KINDS, LrSchedule
from .pipeline import LOSS_KINDS, TrainConfig


class ConfigError(ValueError):
    """Malformed configuration file or value."""


def _parse_str(allowed):
    def parse(s):
        if s not in allowed:
            raise ValueError(f"expected one of {sorted(allowed)}, got {s!r}")
        return s

    return parse


def _parse_dims(s):
    if s.strip() == "":
        return ()
    try:
        return tuple(int(part, 10) for part in s.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {s!r}") from None


def _parse_lr_steps(s):
    if s.strip() == "":
        return ()
    steps = []
    for part in s.split(","):
        try:
            epoch, factor = part.split(":")
            steps.append((int(epoch, 10), float(factor)))
        except ValueError:
            raise ValueError(f"expected epoch:factor pairs, got {s!r}") from None
    return tuple(steps)


def _parse_path(s):
    if s == "":
        raise ValueError("expected a path, got ''")
    return s


# where the defaults of the keys that set their fields are stated
_TRAIN, _PROFILE = TrainConfig(), ImbalanceProfile()

# key -> (default, parser, description)
KEY_SPECS = {
    # dataset
    "C": (_PROFILE.num_classes, int, "number of classes"),
    "d": (20, int, "feature dimension"),
    "rho": (_PROFILE.rho, float, "imbalance ratio: max class count over min"),
    "n_max": (_PROFILE.n_max, int, "training samples in the most frequent class"),
    "profile": (_PROFILE.kind, _parse_str(PROFILE_KINDS), "count decay profile"),
    "separation": (3.0, float, "radius of the class-mean sphere"),
    "per_class_test": (100, int, "balanced test samples per class"),
    "data_seed": (1, int, "seed for dataset synthesis"),
    # model
    "hidden_dims": (_TRAIN.hidden_dims, _parse_dims, "hidden layer widths, comma-separated"),
    # training
    "loss": (_TRAIN.loss, _parse_str(LOSS_KINDS), "student training loss"),
    "epochs": (_TRAIN.epochs, int, "training epochs"),
    "batch_size": (_TRAIN.batch_size, int, "minibatch size"),
    "lr": (_TRAIN.schedule.base_lr, float, "base learning rate"),
    "schedule": (_TRAIN.schedule.kind, _parse_str(SCHEDULE_KINDS), "learning-rate schedule"),
    "lr_steps": (((160, 0.01), (180, 0.01)), _parse_lr_steps, "epoch:factor decay points for schedule=step"),
    "momentum": (_TRAIN.momentum, float, "SGD momentum coefficient"),
    "weight_decay": (_TRAIN.weight_decay, float, "L2 penalty coefficient (0 disables)"),
    "seed": (_TRAIN.seed, int, "seed for model init and shuffling"),
    "alpha": (_TRAIN.kd.alpha, float, "cross-entropy weight in the plain distillation blend"),
    "beta": (_TRAIN.bkd.beta, float, "effective-number hyperparameter for class weights"),
    "temperature": (_TRAIN.bkd.temperature, float, "distillation temperature"),
    # evaluation
    "many_thresh": (_TRAIN.many_thresh, int, "class counts above this are many-shot"),
    "few_thresh": (_TRAIN.few_thresh, int, "class counts below this are few-shot"),
    # paths
    "data_dir": ("data", _parse_path, "directory of counts.csv and the splits train.csv, test.csv (as .bin files)"),
    "out_dir": ("out", _parse_path, "directory for run outputs"),
}


def default_config():
    return {key: spec[0] for key, spec in KEY_SPECS.items()}


def parse_config(path):
    """Read a config file and resolve it against the defaults."""
    try:
        with open_input(path, "config file", "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except (FileNotFoundError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    resolved = default_config()
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEY_SPECS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        parser = KEY_SPECS[key][1]
        try:
            resolved[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return resolved


def render_config(cfg):
    """Canonical text form of a resolved config (sorted, one key per line)."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if key == "hidden_dims":
            text = ",".join(str(v) for v in value)
        elif key == "lr_steps":
            text = ",".join(f"{e}:{f!r}" for e, f in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def imbalance_profile(cfg):
    return ImbalanceProfile(
        kind=cfg["profile"], rho=cfg["rho"], n_max=cfg["n_max"], num_classes=cfg["C"]
    )


def train_config(cfg):
    """TrainConfig assembled from the flat keys, or ConfigError for a value it
    rejects. One config serves the teacher and its students:
    ``pipeline.train_teacher`` makes it a teacher's."""
    try:
        return TrainConfig(
            loss=cfg["loss"],
            epochs=cfg["epochs"],
            batch_size=cfg["batch_size"],
            hidden_dims=cfg["hidden_dims"],
            schedule=LrSchedule(kind=cfg["schedule"], base_lr=cfg["lr"], steps=cfg["lr_steps"]),
            momentum=cfg["momentum"],
            weight_decay=cfg["weight_decay"],
            seed=cfg["seed"],
            kd=KDConfig(alpha=cfg["alpha"], temperature=cfg["temperature"]),
            bkd=BKDConfig(beta=cfg["beta"], temperature=cfg["temperature"]),
            many_thresh=cfg["many_thresh"],
            few_thresh=cfg["few_thresh"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
