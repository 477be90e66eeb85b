"""Two-phase teacher/student training.

Phase one trains the teacher with plain cross-entropy. Phase two trains the
student against the frozen teacher: the student minimizes the configured
loss (optionally plain distillation for the first epochs, then the balanced
variant from ``defer_epoch`` on). The teacher and the class weights are
fixed for the whole run, so each training row's soft target is a constant:
the first epoch that needs a distillation kind builds that kind's (N, C)
target matrix once, forwarding the teacher over the training split in
``batch_size``-row chunks, and every minibatch gathers its rows from it.
Both distillation losses run through the one kernel
``losses.distill_loss_batch``; they differ only in the targets and the two
coefficients. The class weight vector is computed once from the
training-split counts and shared read-only. Every epoch scores the test
split through one set of per-layer (n_test, width) buffers that the run
allocates up front, so the per-epoch evaluation allocates no layer-sized
array; the buffers live for one ``_run`` call.
``temperature_sweep`` trains one such student per temperature.

Checkpoints capture parameters, momentum buffers, epoch index, shuffle-RNG
state, the metric log, and a config digest, so a resumed run is bit-identical
to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import evaluate
from .data import subset_tags
from .losses import (
    BKDConfig,
    KDConfig,
    balanced_targets,
    cb_loss_batch,
    ce_loss_batch,
    distill_loss_batch,
    softmax_rows,
)
from .mathutils import Rng, derive_seed
from .mlp import (
    LrSchedule,
    forward,
    backward,
    init_mlp,
    init_optimizer,
    lr_at,
    params_from_bytes,
    params_to_bytes,
    sgd_momentum_step,
    MlpParams,
    OptimizerState,
)
from .weights import effective_number_weights, normalize_weights

CKPT_MAGIC = b"ckpt-v1"

LOSS_KINDS = ("ce", "cb", "kd", "bkd")


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "ce"
    epochs: int = 100
    batch_size: int = 64
    hidden_dims: tuple = (64, 64)
    schedule: LrSchedule = field(default_factory=LrSchedule)
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0
    kd: KDConfig = field(default_factory=KDConfig)
    bkd: BKDConfig = field(default_factory=BKDConfig)
    defer_epoch: int | None = None
    shuffle: bool = True
    many_thresh: int = 100
    few_thresh: int = 20

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.defer_epoch is not None:
            if self.loss != "bkd":
                raise ValueError("defer_epoch is only valid with loss='bkd'")
            if not 0 <= self.defer_epoch < self.epochs:
                raise ValueError("defer_epoch must lie in [0, epochs)")
        if any(int(h) < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be positive")


@dataclass(frozen=True)
class MetricRow:
    """One completed epoch: mean training loss, learning rate, and test
    accuracy overall and per subset (None where a subset is empty)."""

    epoch: int
    loss: float
    lr: float
    acc_all: float
    acc_many: float | None
    acc_medium: float | None
    acc_few: float | None


METRIC_HEADER = "epoch,loss,lr,acc_all,acc_many,acc_medium,acc_few"


def metrics_to_csv(rows):
    def cell(v):
        return "" if v is None else repr(float(v))

    lines = [METRIC_HEADER]
    for r in rows:
        lines.append(
            f"{r.epoch},{cell(r.loss)},{cell(r.lr)},{cell(r.acc_all)},"
            f"{cell(r.acc_many)},{cell(r.acc_medium)},{cell(r.acc_few)}"
        )
    return "\n".join(lines) + "\n"


def metrics_from_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != METRIC_HEADER:
        raise ValueError("malformed metric log")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 7:
            raise ValueError(f"malformed metric row: {ln!r}")
        parse = lambda s: None if s == "" else float(s)
        rows.append(
            MetricRow(
                int(cells[0]), float(cells[1]), float(cells[2]), float(cells[3]),
                parse(cells[4]), parse(cells[5]), parse(cells[6]),
            )
        )
    return rows


def config_digest(cfg):
    """sha256 over a canonical rendering of the training config."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).digest()


# ---------------------------------------------------------------------------
# checkpoint container


def write_checkpoint(path, cfg, params, opt, epoch, rng, log_rows):
    """Atomic write (temp file + rename) of the full training state."""
    seed, count = rng.state
    log_blob = metrics_to_csv(log_rows).encode("utf-8")
    params_blob = params_to_bytes(params)
    vel_blob = params_to_bytes(MlpParams(opt.vel_weights, opt.vel_biases))
    payload = b"".join(
        [
            CKPT_MAGIC,
            config_digest(cfg),
            struct.pack("<q", epoch),
            struct.pack("<QQ", seed, count),
            struct.pack("<d", opt.momentum),
            struct.pack("<Q", len(params_blob)), params_blob,
            struct.pack("<Q", len(vel_blob)), vel_blob,
            struct.pack("<Q", len(log_blob)), log_blob,
        ]
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


@dataclass
class CheckpointState:
    params: MlpParams
    opt: OptimizerState
    epoch: int
    rng_state: tuple
    log_rows: list
    digest: bytes


def read_checkpoint(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a {CKPT_MAGIC.decode()} checkpoint")
    off = len(CKPT_MAGIC)

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        piece = blob[off : off + n]
        off += n
        return piece

    digest = take(32)
    (epoch,) = struct.unpack("<q", take(8))
    seed, count = struct.unpack("<QQ", take(16))
    (momentum,) = struct.unpack("<d", take(8))
    (n,) = struct.unpack("<Q", take(8))
    params = params_from_bytes(take(n))
    (n,) = struct.unpack("<Q", take(8))
    vel = params_from_bytes(take(n))
    (n,) = struct.unpack("<Q", take(8))
    log_rows = metrics_from_csv(take(n).decode("utf-8")) if n else []
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes after checkpoint payload")
    opt = OptimizerState(vel.weights, vel.biases, momentum)
    return CheckpointState(params, opt, epoch, (seed, count), log_rows, digest)


# ---------------------------------------------------------------------------
# training loops


def _check_datasets(train, test):
    if train.dimension != test.dimension:
        raise ValueError(
            f"train/test feature dimensions differ: {train.dimension} vs {test.dimension}"
        )
    if train.num_classes != test.num_classes:
        raise ValueError("train/test class counts differ")
    if np.any(train.class_counts < 1):
        raise ValueError("every class needs at least one training sample")


def _epoch_loss_kind(cfg, epoch, teacher):
    if teacher is None:
        return "ce"
    if cfg.loss == "bkd" and cfg.defer_epoch is not None and epoch < cfg.defer_epoch:
        return "kd"
    return cfg.loss


def _teacher_targets(teacher, features, batch_size, temperature, w):
    """Soft targets of every row: softmax(teacher(x) / T), balanced by w
    unless w is None. The teacher runs on ``batch_size``-row chunks so only
    one chunk's activations are alive at a time."""
    t_logits = np.vstack(
        [forward(teacher, features[s : s + batch_size])[0] for s in range(0, len(features), batch_size)]
    )
    targets = softmax_rows(t_logits, temperature)
    return targets if w is None else balanced_targets(targets, w)


def _run(train, test, cfg, teacher, out_ckpt, resume_from, stop_after_epoch, on_batch):
    _check_datasets(train, test)
    dims = (train.dimension, *[int(h) for h in cfg.hidden_dims], train.num_classes)
    digest = config_digest(cfg)
    tags = subset_tags(train.class_counts, cfg.many_thresh, cfg.few_thresh)
    # every epoch scores the test split into these; on the wide-batch
    # benchmark shape, allocating them before the parameters gave a lower
    # peak RSS than allocating them after
    eval_out = [np.empty((len(test), width)) for width in dims[1:]]

    w = None
    if teacher is not None and cfg.loss in ("cb", "bkd"):
        w = normalize_weights(
            effective_number_weights(train.class_counts, cfg.bkd.beta), cfg.bkd.weight_mode
        )

    if resume_from is not None:
        state = read_checkpoint(resume_from)
        if state.digest != digest:
            raise ValueError("checkpoint was written under a different training config")
        params, opt = state.params, state.opt
        shuffle_rng = Rng.from_state(state.rng_state)
        start_epoch = state.epoch
        log_rows = list(state.log_rows)
        if params.dims != dims:
            raise ValueError("checkpoint model dimensions do not match the datasets/config")
    else:
        params = init_mlp(dims, cfg.seed)
        opt = init_optimizer(params, cfg.momentum)
        shuffle_rng = Rng(derive_seed(cfg.seed, 1))
        start_epoch = 0
        log_rows = []

    N = len(train)
    targets_of = {}  # distillation kind -> (N, C) targets, built on first use
    end_epoch = cfg.epochs if stop_after_epoch is None else min(cfg.epochs, stop_after_epoch)

    for epoch in range(start_epoch, end_epoch):
        kind = _epoch_loss_kind(cfg, epoch, teacher)
        distill = cfg.kd if kind == "kd" else cfg.bkd
        if kind in ("kd", "bkd") and kind not in targets_of:
            targets_of[kind] = _teacher_targets(
                teacher, train.features, cfg.batch_size, distill.temperature, w if kind == "bkd" else None
            )
        lr = lr_at(cfg.schedule, epoch, cfg.epochs)
        order = shuffle_rng.permutation(N) if cfg.shuffle else np.arange(N, dtype=np.int64)
        loss_sum = 0.0
        for start in range(0, N, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            X = train.features[rows]
            ys = train.labels[rows]
            logits, cache = forward(params, X)

            if kind == "ce":
                values, grads = ce_loss_batch(logits, ys)
            elif kind == "cb":
                values, grads = cb_loss_batch(logits, ys, w)
            else:
                values, grads = distill_loss_batch(
                    logits, targets_of[kind][rows], ys, *distill.coefs, distill.temperature
                )

            if not np.isfinite(values).all():
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            loss_sum += float(values.sum())
            pgrads = backward(params, cache, grads / rows.size)
            if cfg.weight_decay:
                for g, p in zip(pgrads.weights, params.weights):
                    g += cfg.weight_decay * p
                for g, p in zip(pgrads.biases, params.biases):
                    g += cfg.weight_decay * p
            sgd_momentum_step(params, pgrads, opt, lr)
            if on_batch is not None:
                on_batch(epoch, start // cfg.batch_size, float(values.mean()))

        report = evaluate.accuracy_report(evaluate.predict(params, test, out=eval_out), test.labels, tags)
        log_rows.append(
            MetricRow(epoch, loss_sum / N, lr, report.overall, report.many, report.medium, report.few)
        )

    if out_ckpt is not None:
        write_checkpoint(out_ckpt, cfg, params, opt, end_epoch, shuffle_rng, log_rows)
    return params, log_rows


def train_teacher(train, test, cfg, *, out_ckpt=None, resume_from=None, stop_after_epoch=None, on_batch=None):
    """Phase one: minibatch SGD with plain cross-entropy, whatever cfg.loss says."""
    return _run(train, test, cfg, None, out_ckpt, resume_from, stop_after_epoch, on_batch)


def train_student(train, test, teacher, cfg, *, out_ckpt=None, resume_from=None, stop_after_epoch=None, on_batch=None):
    """Phase two: train against frozen teacher predictions.

    cfg.loss picks the objective; "ce"/"cb" are permitted as baselines that
    ignore the teacher. With ``defer_epoch`` set (bkd only), earlier epochs
    use plain distillation and later ones the balanced loss.
    """
    if teacher is None:
        raise ValueError("student training requires a teacher model")
    if teacher.weights[0].shape[1] != train.dimension:
        raise ValueError("teacher input dimension does not match the data")
    if teacher.weights[-1].shape[0] != train.num_classes:
        raise ValueError(
            f"teacher emits {teacher.weights[-1].shape[0]} classes but data has {train.num_classes}"
        )
    return _run(train, test, cfg, teacher, out_ckpt, resume_from, stop_after_epoch, on_batch)


def temperature_sweep(train, test, teacher, base_cfg, temps):
    """Train one student per temperature (same teacher, same seed) and
    report (temperature, final overall test accuracy) rows."""
    temps = [float(t) for t in temps]
    if not temps:
        raise ValueError("temps must be a non-empty list")
    if any(t <= 0 for t in temps):
        raise ValueError("temperatures must be positive")
    if base_cfg.epochs < 1:
        raise ValueError("a temperature sweep needs at least one training epoch")
    rows = []
    for T in temps:
        cfg = replace(
            base_cfg,
            kd=replace(base_cfg.kd, temperature=T),
            bkd=replace(base_cfg.bkd, temperature=T),
        )
        _, log = train_student(train, test, teacher, cfg)
        rows.append((T, log[-1].acc_all))
    return rows
