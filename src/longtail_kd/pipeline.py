"""Two-phase teacher/student training.

Phase one trains the teacher with plain cross-entropy. Phase two trains the
student against the frozen teacher: the student minimizes the configured
loss (optionally plain distillation for the first epochs, then the balanced
variant from ``defer_epoch`` on). Each epoch trains one
``losses.Objective``, and every minibatch makes one call of the one kernel
``losses.objective_loss_batch``, whatever the loss. The teacher and the
class weights are fixed for the whole run, so each loss kind's objective is
built once, on the first epoch that trains it: a distillation kind forwards
the teacher over the training split in ``batch_size``-row chunks for its
(N, C) target matrix, and every minibatch gathers its rows from it. The
class weights come from the training-split counts: ``cb`` scales them to
sum to the number of classes (``weights.normalize_weights``), ``bkd`` uses
them as they are, since their scale cancels in the balanced targets. Every
epoch scores the test split through one set of per-layer (n_test, width)
buffers that the run allocates up front, so the per-epoch evaluation
allocates no layer-sized array; the buffers live for one ``_run`` call.
``temperature_sweep`` trains one such student per temperature, on every
available CPU: each CPU trains a contiguous group of the temperatures, in
this process or a forked child (``workers``), and the rows are the same
bits whatever the CPU count.

Every epoch visits the training rows in a fresh shuffled order. A run's
state is one ``RunState``; each epoch logs one row to it, and a checkpoint
holds it whole, so a resumed run matches an uninterrupted one bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import evaluate
from .data import check_thresholds, subset_tags
from .losses import BKDConfig, KDConfig, Objective, objective_loss_batch, softmax_rows
from .mathutils import Rng, check_int, check_real, check_temperature, derive_seed
from .mlp import (
    BlobReader,
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
from .workers import run_split, split

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
    many_thresh: int = 100
    few_thresh: int = 20

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        for name, kind in (("schedule", LrSchedule), ("kd", KDConfig), ("bkd", BKDConfig)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be an instance of {kind.__name__}, got {getattr(self, name)!r}")
        # numbers are stored as the Python ints and floats they equal, so equal configs digest alike
        stored = {
            "epochs": check_int(self.epochs, "epochs", 0),
            "batch_size": check_int(self.batch_size, "batch_size", 1),
            "seed": check_int(self.seed, "seed"),
            "momentum": check_real(self.momentum, "momentum", lambda m: 0.0 <= m < 1.0, "lie in [0, 1)"),
            "weight_decay": check_real(
                self.weight_decay, "weight_decay", lambda w: 0.0 <= w < math.inf, "be finite and nonnegative"
            ),
        }
        if self.defer_epoch is not None:
            if self.loss != "bkd":
                raise ValueError("defer_epoch is only valid with loss='bkd'")
            stored["defer_epoch"] = check_int(self.defer_epoch, "defer_epoch", 0)
            if stored["defer_epoch"] >= stored["epochs"]:
                raise ValueError(f"defer_epoch must be an integer in [0, epochs), got {self.defer_epoch!r}")
        if np.ndim(self.hidden_dims) != 1:
            raise ValueError(f"hidden_dims must be a sequence of layer widths, got {self.hidden_dims!r}")
        stored["hidden_dims"] = tuple(check_int(h, "each hidden layer width", 1) for h in self.hidden_dims)
        stored["many_thresh"], stored["few_thresh"] = check_thresholds(self.many_thresh, self.few_thresh)
        for name, value in stored.items():
            object.__setattr__(self, name, value)


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
    """sha256 over a canonical rendering of the training config; a value
    with no JSON rendering raises TypeError."""
    canonical = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).digest()


# ---------------------------------------------------------------------------
# checkpoint container


@dataclass
class RunState:
    """A run's whole state, as a checkpoint holds it; its epoch is its log's length."""

    params: MlpParams
    opt: OptimizerState
    rng: Rng
    log_rows: list
    digest: bytes

    @property
    def epoch(self):
        return len(self.log_rows)


def _check_log_numbering(path, epoch, log_rows):
    """ValueError naming ``path`` unless the log's rows are numbered
    0, 1, ..., epoch - 1: the one rule for what a checkpoint may hold."""
    logged = [row.epoch for row in log_rows]
    if logged != list(range(epoch)):
        raise ValueError(f"{path}: epoch {epoch} does not match the {len(logged)} logged epochs, numbered {logged}")


def write_checkpoint(path, state):
    """Atomic write (temp file + rename) of a run's whole state. A state
    whose log is not numbered 0, 1, ..., n - 1 is refused before anything
    is written, since ``read_checkpoint`` would refuse the file."""
    _check_log_numbering(path, state.epoch, state.log_rows)
    log_blob = metrics_to_csv(state.log_rows).encode("utf-8")
    params_blob = params_to_bytes(state.params)
    vel_blob = params_to_bytes(state.opt.vel)
    payload = b"".join(
        [
            CKPT_MAGIC,
            state.digest,
            struct.pack("<q", state.epoch),
            struct.pack("<QQ", *state.rng.state),
            struct.pack("<d", state.opt.momentum),
            struct.pack("<Q", len(params_blob)), params_blob,
            struct.pack("<Q", len(vel_blob)), vel_blob,
            struct.pack("<Q", len(log_blob)), log_blob,
        ]
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _parse_blob(path, parse, blob):
    """``parse(blob)``, with its ValueError (a decoding error included)
    re-raised naming the checkpoint file."""
    try:
        return parse(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_checkpoint(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError(f"{path}: not a {CKPT_MAGIC.decode()} checkpoint")
    r = BlobReader(blob, len(CKPT_MAGIC), f"{path}: truncated checkpoint")
    digest = r.take(32)
    (epoch,) = r.unpack("<q")
    rng = Rng.from_state(r.unpack("<QQ"))
    (momentum,) = r.unpack("<d")
    (n,) = r.unpack("<Q")
    params = _parse_blob(path, params_from_bytes, r.take(n))
    (n,) = r.unpack("<Q")
    vel = _parse_blob(path, params_from_bytes, r.take(n))
    (n,) = r.unpack("<Q")
    log_rows = _parse_blob(path, lambda b: metrics_from_csv(b.decode("utf-8")), r.take(n)) if n else []
    if r.off != len(blob):
        raise ValueError(f"{path}: trailing bytes after checkpoint payload")
    _check_log_numbering(path, epoch, log_rows)
    if vel.dims != params.dims:
        raise ValueError(f"{path}: velocity dimensions {vel.dims} do not match parameters {params.dims}")
    return RunState(params, OptimizerState(vel, momentum), rng, log_rows, digest)


# ---------------------------------------------------------------------------
# training loops


def check_model_fits(params, data, model, name):
    """ValueError unless ``params`` takes ``data``'s features and emits
    its classes: the one rule for running a model on a dataset. ``model``
    and ``name`` say what the two are in the message."""
    if params.dims[0] != data.dimension:
        raise ValueError(f"{model} takes {params.dims[0]} features but the {name} has {data.dimension}")
    if params.dims[-1] != data.num_classes:
        raise ValueError(f"{model} emits {params.dims[-1]} classes but the {name} has {data.num_classes}")


def check_splits(train, test):
    """ValueError unless the test split has the train split's width and
    classes and at least one sample, and every class has a training
    sample: the one rule for a pair of splits to train on."""
    if train.dimension != test.dimension:
        raise ValueError(
            f"train/test feature dimensions differ: {train.dimension} vs {test.dimension}"
        )
    if train.num_classes != test.num_classes:
        raise ValueError("train/test class counts differ")
    if len(test) == 0:
        raise ValueError("the test split has no samples to evaluate")
    if np.any(train.class_counts < 1):
        raise ValueError("every class needs at least one training sample")


def _epoch_objective(cfg, epoch, teacher, train, objectives):
    """The objective that ``epoch`` trains: cross-entropy for a teacher,
    else cfg.loss, with plain distillation before ``defer_epoch``. Each
    kind's objective is built on first use and kept in ``objectives``. A
    distillation kind's targets are softmax(teacher(x) / T) of every
    training row, the teacher run on ``batch_size``-row chunks so only one
    chunk's activations are alive at a time."""
    kind = "ce" if teacher is None else cfg.loss
    if kind == "bkd" and cfg.defer_epoch is not None and epoch < cfg.defer_epoch:
        kind = "kd"
    if kind not in objectives:
        w = effective_number_weights(train.class_counts, cfg.bkd.beta) if kind in ("cb", "bkd") else None
        if kind == "ce":
            objectives[kind] = Objective()
        elif kind == "cb":
            objectives[kind] = Objective(normalize_weights(w))
        else:
            X, n, distill = train.features, cfg.batch_size, cfg.kd if kind == "kd" else cfg.bkd
            t_logits = np.vstack([forward(teacher, X[s : s + n])[0] for s in range(0, len(X), n)])
            phat = softmax_rows(t_logits, distill.temperature)
            objectives[kind] = cfg.kd.objective(phat) if kind == "kd" else cfg.bkd.objective(phat, w)
    return objectives[kind]


def _run(train, test, cfg, teacher, out_ckpt, resume_from, stop_after_epoch):
    check_splits(train, test)
    dims = (train.dimension, *cfg.hidden_dims, train.num_classes)
    digest = config_digest(cfg)
    tags = subset_tags(train.class_counts, cfg.many_thresh, cfg.few_thresh)
    # every epoch scores the test split into these, and every minibatch
    # writes its gradients into pgrads; on the wide-batch benchmark shape,
    # allocating the evaluation buffers before the parameters gave a lower
    # peak RSS than allocating them after
    eval_out = [np.empty((len(test), width)) for width in dims[1:]]
    pgrads = MlpParams.zeros(dims)

    if resume_from is not None:
        state = read_checkpoint(resume_from)
        if state.digest != digest:
            raise ValueError("checkpoint was written under a different training config")
        if state.params.dims != dims:
            raise ValueError("checkpoint model dimensions do not match the datasets/config")
    else:
        params = init_mlp(dims, cfg.seed)
        state = RunState(params, init_optimizer(params, cfg.momentum), Rng(derive_seed(cfg.seed, 1)), [], digest)

    N = len(train)
    objectives = {}  # loss kind -> its Objective, built on first use
    # a resumed run never ends before the epoch it resumed at
    end_epoch = cfg.epochs if stop_after_epoch is None else max(state.epoch, min(cfg.epochs, stop_after_epoch))

    for epoch in range(state.epoch, end_epoch):
        objective = _epoch_objective(cfg, epoch, teacher, train, objectives)
        lr = lr_at(cfg.schedule, epoch, cfg.epochs)
        order = state.rng.permutation(N)
        loss_sum = 0.0
        for start in range(0, N, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            logits, cache = forward(state.params, train.features[rows])
            values, grads = objective_loss_batch(logits, train.labels[rows], rows, objective)
            if not np.isfinite(values).all():
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            loss_sum += float(values.sum())
            backward(state.params, cache, grads / rows.size, out=pgrads)
            if cfg.weight_decay:
                pgrads.flat += cfg.weight_decay * state.params.flat
            sgd_momentum_step(state.params, pgrads, state.opt, lr)

        report = evaluate.accuracy_report(evaluate.predict(state.params, test, out=eval_out), test.labels, tags)
        state.log_rows.append(
            MetricRow(epoch, loss_sum / N, lr, report.overall, report.many, report.medium, report.few)
        )

    if out_ckpt is not None:
        write_checkpoint(out_ckpt, state)
    return state.params, state.log_rows


def train_teacher(train, test, cfg, *, out_ckpt=None, resume_from=None, stop_after_epoch=None):
    """Phase one: minibatch SGD with plain cross-entropy, whatever cfg.loss says."""
    return _run(train, test, cfg, None, out_ckpt, resume_from, stop_after_epoch)


def train_student(train, test, teacher, cfg, *, out_ckpt=None, resume_from=None, stop_after_epoch=None):
    """Phase two: train against frozen teacher predictions.

    cfg.loss picks the objective; "ce"/"cb" are permitted as baselines that
    ignore the teacher. With ``defer_epoch`` set (bkd only), earlier epochs
    use plain distillation and later ones the balanced loss.
    """
    if teacher is None:
        raise ValueError("student training requires a teacher model")
    check_model_fits(teacher, train, "teacher", "data")
    return _run(train, test, cfg, teacher, out_ckpt, resume_from, stop_after_epoch)


def check_sweep_epochs(cfg):
    """A temperature sweep reports each student's last epoch, so it needs one."""
    if cfg.epochs < 1:
        raise ValueError("a temperature sweep needs at least one training epoch")


# one sweep accuracy as a worker sends it: exact float64 bits
_ACC = struct.Struct("<d")


def temperature_sweep(train, test, teacher, base_cfg, temps):
    """Train one student per temperature (same teacher, same seed) and
    report (temperature, final overall test accuracy) rows in ``temps``
    order.

    The temperatures are cut into contiguous groups, one per available CPU
    (``workers.run_split``). This process trains the first group while a
    forked child per other group trains the rest and sends back each
    accuracy as its eight little-endian bytes, so the rows are the same
    bits whatever the CPU count. A failed child raises OSError naming the
    temperature it was training.
    """
    temps = [check_temperature(t) for t in temps]
    if not temps:
        raise ValueError("temps must be a non-empty list")
    check_sweep_epochs(base_cfg)

    def failed(start, stop, sent):
        # name the first temperature whose accuracy the child had not sent
        T = temps[min(start + len(sent) // _ACC.size, stop - 1)]
        return f"the sweep worker training the student at T={T:g}"

    accs = run_split(split(len(temps)), _sweep_group, failed, train, test, teacher, base_cfg, temps)
    return list(zip(temps, (acc for (acc,) in _ACC.iter_unpack(accs))))


def _sweep_group(send, train, test, teacher, base_cfg, temps, start, stop):
    """Train a student at each of ``temps[start:stop]`` in turn, sending
    each final overall accuracy as it is reached."""
    for T in temps[start:stop]:
        cfg = replace(
            base_cfg,
            kd=replace(base_cfg.kd, temperature=T),
            bkd=replace(base_cfg.bkd, temperature=T),
        )
        _, log = train_student(train, test, teacher, cfg)
        send(_ACC.pack(log[-1].acc_all))
