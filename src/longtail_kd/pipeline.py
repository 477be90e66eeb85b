"""Two-phase teacher/student training.

Phase one trains the teacher with plain cross-entropy, under the
``teacher_config`` of whatever config it is given. Phase two trains the
student against the frozen teacher: the student minimizes the configured
loss for the whole run. Both phases run the one epoch loop: ``open_run``
makes a run's refusals and state and returns a generator that trains one
epoch per step and yields its ``EvalReport``; ``train_teacher`` and
``train_student`` run it to its end. A run trains one
``losses.Objective``, and every minibatch makes one call of the one kernel
``losses.objective_loss_batch``, whatever the loss. The teacher and the class weights are fixed for the
whole run, so a run that trains an epoch builds its objective once, in the
first: a distillation kind builds its (N, C) target matrix one
``batch_size``-row chunk at a time (teacher forward, softmax, targets), and
every minibatch gathers its rows from it.
The class weights come from the training-split counts: ``cb`` scales them to
sum to the number of classes (``weights.normalize_weights``), ``bkd`` uses
them as they are, since their scale cancels in the balanced targets. Every
epoch scores the test split through one set of per-layer (n_test, width)
buffers that ``open_run`` allocates up front, so the per-epoch evaluation
allocates no layer-sized array; the buffers live as long as the run's
generator.
Each epoch ends in the one divergence rule: a non-finite loss sum, then
non-finite test logits, raise ``training diverged: non-finite loss`` (or
``test logits``) ``at epoch <e>``. Each epoch's work, the objective's build
included, runs in its own numpy error scope that keeps every floating-point
error quiet (division by zero is a temperature that rounds to 0 in
float32), so that line, or the build's refusal of a teacher's non-finite
logits, is all a diverging run prints. The scope closes before each yield,
so between epochs the caller's own error state holds.
``temperature_sweep`` trains one such student per temperature, one after
another in the calling process.

A run trains in ``RUN_DTYPE``, float32, which is the one statement of that
choice: a run rounds ``init_mlp``'s float64 draw to it once, and its
velocity, gradient buffer, scoring buffers and each objective's arrays are
of it, so every minibatch runs single-precision BLAS. The class weights and
each chunk of target rows are computed in float64 and rounded once, so a
target build holds the float32 matrix and one chunk. The datasets are
float32 too, so a minibatch is gathered in the dtype it trains in and
``forward`` casts nothing. Set to float64, the constant trains a run's
float64 twin, which the acceptance suite checks each float32 run against.

Every epoch visits the training rows in a fresh shuffled order. A run's
state is one ``RunState``; each epoch logs one row to it, and a checkpoint
holds it whole, so a resumed run matches an uninterrupted one bit for bit.
A ``ckpt-v4`` file states each fact once: one fixed header
(``_CKPT_HEAD``, ending in the layer count), the layer widths, the
parameters and then the velocity as flat float32 vectors in the
``MlpParams`` layout, and the metric log behind its length. The vectors'
lengths follow from the widths, and the epoch is the log's length and the
momentum the config's, so none of them is stored.
``_decode`` holds every rule of that format, finite parameters and
velocity and a log in the writer's own form among them, and names the
file in each refusal; the reader runs it on the bytes it reads and the
writer on the bytes it will write, before opening any file, so the writer
refuses exactly what the reader refuses.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from . import evaluate
from .data import check_thresholds, open_input, open_output, subset_tags
from .losses import BKDConfig, KDConfig, Objective, bkd_objective, kd_objective, objective_loss_batch, softmax_rows
from .mathutils import Rng, check_int, check_real, check_temperature, derive_seed
from .mlp import LrSchedule, MlpParams, backward, check_momentum, check_schedule, flat_size, forward, init_mlp, lr_at
from .mlp import sgd_momentum_step
from .weights import effective_number_weights, normalize_weights

CKPT_MAGIC = b"ckpt-v4"
_DIGEST_BYTES = 32  # sha256, as config_digest returns
# magic, config digest, shuffle-stream seed and draw count, layer count
_CKPT_HEAD = struct.Struct(f"<{len(CKPT_MAGIC)}s{_DIGEST_BYTES}sQQq")
# the byte length in front of the metric log
_LOG_LEN = "<Q"

LOSS_KINDS = ("ce", "cb", "kd", "bkd")
# the dtype a run trains in: its parameters, velocity, gradient and scoring
# buffers and each objective's arrays
RUN_DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig:
    """A student's (or, through ``teacher_config``, a teacher's) training
    run. Its defaults are those of an empty config file: ``config.KEY_SPECS``
    reads them from ``TrainConfig()``."""

    loss: str = "bkd"
    epochs: int = 100
    batch_size: int = 64
    hidden_dims: tuple = (64, 64)
    schedule: LrSchedule = field(default_factory=LrSchedule)
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0
    kd: KDConfig = field(default_factory=KDConfig)
    bkd: BKDConfig = field(default_factory=BKDConfig)
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
            "momentum": check_momentum(self.momentum),
            "weight_decay": check_real(
                self.weight_decay, "weight_decay", lambda w: 0.0 <= w < math.inf, "be finite and nonnegative"
            ),
        }
        if np.ndim(self.hidden_dims) != 1:
            raise ValueError(f"hidden_dims must be a sequence of layer widths, got {self.hidden_dims!r}")
        stored["hidden_dims"] = tuple(check_int(h, "each hidden layer width", 1) for h in self.hidden_dims)
        stored["many_thresh"], stored["few_thresh"] = check_thresholds(self.many_thresh, self.few_thresh)
        check_schedule(self.schedule, stored["epochs"])
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
    cell = lambda v: "" if v is None else repr(float(v))
    lines = [METRIC_HEADER] + [",".join([str(r.epoch), *map(cell, astuple(r)[1:])]) for r in rows]
    return "\n".join(lines) + "\n"


def metrics_from_csv(text):
    """The ``MetricRow``s of a metric log. A row of other than seven cells,
    or with a cell that is not a number where one is due, is malformed; a
    row that no run logs is refused too: a non-finite loss, an lr that is
    not finite and positive, or an accuracy outside [0, 1]."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != METRIC_HEADER:
        raise ValueError("malformed metric log")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            if len(cells) != 7:
                raise ValueError
            subsets = [None if s == "" else float(s) for s in cells[4:]]
            row = MetricRow(int(cells[0]), float(cells[1]), float(cells[2]), float(cells[3]), *subsets)
        except ValueError:
            raise ValueError(f"malformed metric row: {ln!r}") from None
        for ok, rule in (
            (math.isfinite(row.loss), "a finite loss"),
            (0.0 < row.lr < math.inf, "a finite, positive lr"),
            (all(0.0 <= a <= 1.0 for a in [row.acc_all, *subsets] if a is not None), "accuracies in [0, 1]"),
        ):
            if not ok:
                raise ValueError(f"metric row {ln!r} does not hold {rule}")
        rows.append(row)
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
    """A run's whole state, as a checkpoint holds it: the parameters, their
    SGD velocity in the same layout, the shuffle stream, the metric log and
    the config digest. Its epoch is its log's length."""

    params: MlpParams
    vel: MlpParams
    rng: Rng
    log_rows: list
    digest: bytes

    @property
    def epoch(self):
        return len(self.log_rows)


class BlobReader:
    """Bounds-checked reads from a bytes blob, from its start; a read past
    the end raises ValueError("truncated checkpoint")."""

    def __init__(self, blob):
        self.blob, self.off = blob, 0

    def take(self, n):
        if self.off + n > len(self.blob):
            raise ValueError("truncated checkpoint")
        self.off += n
        return self.blob[self.off - n : self.off]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _decode(blob, path):
    """The ``RunState`` that ckpt-v4 bytes ``blob`` hold, under every rule
    of the format, held here and nowhere else; each refusal is a ValueError
    that starts with ``path``. The widths give the parameters' and the
    velocity's lengths, so a layer count or width that runs past the end
    of ``blob`` is a truncated checkpoint."""
    try:
        if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
            raise ValueError(f"not a {CKPT_MAGIC.decode()} checkpoint")
        r = BlobReader(blob)
        _, digest, seed, count, n_layers = _CKPT_HEAD.unpack(r.take(_CKPT_HEAD.size))
        # each part is parsed as soon as it is read: a corrupt part is refused before a later truncation
        n_layers = check_int(n_layers, "the layer count", 1)
        dims = [check_int(d, "each layer width", 1) for d in np.frombuffer(r.take(8 * (n_layers + 1)), "<i8").tolist()]
        nbytes = 4 * flat_size(dims)
        read_flat = lambda: MlpParams(np.frombuffer(r.take(nbytes), "<f4").astype(np.float32), dims)
        params, vel = read_flat(), read_flat()
        for name, blob_params in (("parameter", params), ("velocity", vel)):
            if not np.isfinite(blob_params.flat).all():
                raise ValueError(f"the {name} blob holds a non-finite value")
        log_blob = r.take(*r.unpack(_LOG_LEN))
        log_rows = metrics_from_csv(log_blob.decode("utf-8"))
        # so that rewriting what was read reproduces the file
        if metrics_to_csv(log_rows).encode("utf-8") != log_blob:
            raise ValueError("the metric log is not in the form the writer writes")
        if r.off != len(blob):
            raise ValueError("trailing bytes after checkpoint payload")
        logged = [row.epoch for row in log_rows]
        if logged != list(range(len(logged))):
            raise ValueError(f"the log's {len(logged)} epochs are numbered {logged}")
        return RunState(params, vel, Rng.from_state((seed, count)), log_rows, digest)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_checkpoint(path, state):
    """Commit (``data.open_output``) a run's whole state, whose bytes go
    through ``_decode`` before any file is opened: it refuses what
    ``read_checkpoint`` refuses, a digest not ``_DIGEST_BYTES`` long, which
    the header would pad or cut, and a velocity of other dims than the
    parameters', which the reader would take under the parameters' dims.
    A float64 state is rounded to float32; a value beyond float32's range
    rounds to infinity, quietly, and is refused as a non-finite one."""
    if len(state.digest) != _DIGEST_BYTES:
        raise ValueError(f"{path}: config digest must be {_DIGEST_BYTES} bytes, got {len(state.digest)}")
    if state.vel.dims != state.params.dims:
        raise ValueError(f"{path}: velocity dimensions {state.vel.dims} do not match parameters {state.params.dims}")
    with np.errstate(over="ignore"):
        flats = [np.ascontiguousarray(v.flat, dtype="<f4").tobytes() for v in (state.params, state.vel)]
    log_blob = metrics_to_csv(state.log_rows).encode("utf-8")
    encoded = b"".join(
        [
            _CKPT_HEAD.pack(CKPT_MAGIC, state.digest, *state.rng.state, len(state.params.dims) - 1),
            np.array(state.params.dims, "<i8").tobytes(), *flats,
            struct.pack(_LOG_LEN, len(log_blob)), log_blob,
        ]
    )
    _decode(encoded, path)
    with open_output(path) as fh:
        fh.write(encoded)


def read_checkpoint(path):
    """The ``RunState`` in the file at ``path``; a missing, unopenable
    (``data.open_input``) or refused (``_decode``) file is named."""
    with open_input(path, "checkpoint") as fh:
        blob = fh.read()
    return _decode(blob, path)


# ---------------------------------------------------------------------------
# training loops


def check_model_fits(params, data, model, name):
    """ValueError unless ``params`` takes ``data``'s features and emits
    its classes: the one rule for running a model on a dataset. ``model``
    and ``name`` say what the two are in the message, such as "teacher"
    and "the data", or the paths of their files."""
    if params.dims[0] != data.dimension:
        raise ValueError(f"{model} takes {params.dims[0]} features but {name} has {data.dimension}")
    if params.dims[-1] != data.num_classes:
        raise ValueError(f"{model} emits {params.dims[-1]} classes but {name} has {data.num_classes}")


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


def _objective(cfg, teacher, train):
    """The objective a run of ``cfg`` trains: cfg.loss, for every epoch. A
    distillation kind's targets are built one ``batch_size``-row chunk at a
    time, straight into one ``RUN_DTYPE`` (N, C) matrix: the teacher's
    logits of the chunk, refused if any is non-finite, then their float64
    softmax at T and its kd or bkd target rows, each rounded once as it is
    written.
    Every step is row-wise, so the targets are those of the whole matrix
    built at once, and only one chunk's float64 rows are alive at a time.
    The class weights are computed in float64 and rounded once to
    ``RUN_DTYPE``, in which the run trains."""
    kind = cfg.loss
    w = effective_number_weights(train.class_counts, cfg.bkd.beta) if kind in ("cb", "bkd") else None
    if kind == "ce":
        objective = Objective()
    elif kind == "cb":
        objective = Objective(normalize_weights(w))
    else:
        X, n, T = train.features, cfg.batch_size, (cfg.kd if kind == "kd" else cfg.bkd).temperature
        if kind == "kd":
            build = lambda phat: kd_objective(phat, alpha=cfg.kd.alpha, temperature=T)
        else:
            build = lambda phat: bkd_objective(phat, w, temperature=T)
        targets = np.empty((len(X), train.num_classes), RUN_DTYPE)
        for s in range(0, len(X), n):
            t_logits = forward(teacher, X[s : s + n])[0]
            if not np.isfinite(t_logits).all():
                raise ValueError("the teacher gives non-finite logits on the training split")
            objective = build(softmax_rows(t_logits, T))
            targets[s : s + n] = objective.targets
        objective = replace(objective, targets=targets)
    rounded = lambda a: None if a is None else a.astype(RUN_DTYPE, copy=False)
    return replace(objective, ce_weights=rounded(objective.ce_weights), targets=rounded(objective.targets))


def open_run(train, test, cfg, teacher=None, *, resume_from=None):
    """A run of ``cfg`` as ``(state, epochs)``: its ``RunState``, fresh or
    resumed from the checkpoint ``resume_from``, and a generator that
    trains the remaining epochs one per ``next()``, logs each to
    ``state.log_rows`` and yields its ``EvalReport`` on ``test``. Without a
    ``teacher`` the run is a teacher's, under ``teacher_config(cfg)``, so
    its digest covers the teacher's config: any ``cfg`` that gives the same
    ``teacher_config`` writes the same bytes and resumes them, whatever its
    loss and distillation settings.
    Every refusal comes here, before any epoch: a teacher that does not fit,
    a split pair, or a checkpoint of another config or model. The one way
    to stop early and checkpoint: take k epochs and ``write_checkpoint``
    the state; ``resume_from`` that file goes on bit for bit."""
    if teacher is None:
        cfg = teacher_config(cfg)
    else:
        check_model_fits(teacher, train, "teacher", "the data")
    check_splits(train, test)
    dims = (train.dimension, *cfg.hidden_dims, train.num_classes)
    digest = config_digest(cfg)
    # every epoch scores the test split into these, and every minibatch
    # writes its gradients into pgrads; on the wide-batch benchmark shape,
    # allocating the evaluation buffers before the parameters gave a lower
    # peak RSS than allocating them after
    eval_out = [np.empty((len(test), width), RUN_DTYPE) for width in dims[1:]]
    pgrads = MlpParams.zeros(dims, RUN_DTYPE)

    if resume_from is not None:
        state = read_checkpoint(resume_from)
        if state.digest != digest:
            raise ValueError("checkpoint was written under a different training config")
        if state.params.dims != dims:
            raise ValueError("checkpoint model dimensions do not match the datasets/config")
    else:
        params = init_mlp(dims, cfg.seed).astype(RUN_DTYPE)
        state = RunState(params, MlpParams.zeros(dims, RUN_DTYPE), Rng(derive_seed(cfg.seed, 1)), [], digest)
    return state, _epochs(train, test, cfg, teacher, state, eval_out, pgrads)


def _epochs(train, test, cfg, teacher, state, eval_out, pgrads):
    """The epoch loop of ``open_run``; its error scope closes before each yield."""
    N = len(train)
    tags = subset_tags(train.class_counts, cfg.many_thresh, cfg.few_thresh)
    objective = None  # a run that trains no epoch forwards no teacher row
    for epoch in range(state.epoch, cfg.epochs):
        with np.errstate(all="ignore"):
            if objective is None:
                objective = _objective(cfg, teacher, train)
            lr = lr_at(cfg.schedule, epoch, cfg.epochs)
            order = state.rng.permutation(N)
            loss_sum = 0.0
            for start in range(0, N, cfg.batch_size):
                rows = order[start : start + cfg.batch_size]
                logits, cache = forward(state.params, train.features[rows])
                values, grads = objective_loss_batch(logits, train.labels[rows], rows, objective)
                loss_sum += float(values.sum())
                grads /= rows.size
                backward(state.params, cache, grads, out=pgrads)
                if cfg.weight_decay:
                    pgrads.flat += cfg.weight_decay * state.params.flat
                sgd_momentum_step(state.params, pgrads, state.vel, cfg.momentum, lr)
            # every loss value is >= 0, so the sum is finite unless some value, or the sum, is not
            if not math.isfinite(loss_sum):
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
            try:
                preds = evaluate.predict(state.params, test, out=eval_out)
            except ValueError as exc:
                raise RuntimeError(f"training diverged: non-finite test logits at epoch {epoch}") from exc
            report = evaluate.accuracy_report(preds, test.labels, tags)
            state.log_rows.append(
                MetricRow(epoch, loss_sum / N, lr, report.overall, report.many, report.medium, report.few)
            )
        yield report


def teacher_config(cfg):
    """The config a teacher trains under: ``cfg`` as plain cross-entropy,
    with the default ``kd`` and ``bkd``, the settings of a student's loss
    that plain cross-entropy never reads. The one place that says what a
    teacher is."""
    return replace(cfg, loss="ce", kd=KDConfig(), bkd=BKDConfig())


def _drain(run):
    """Run ``open_run``'s ``run`` to its end; its ``(params, log)``."""
    state, epochs = run
    for _ in epochs:
        pass
    return state.params, state.log_rows


def train_teacher(train, test, cfg):
    """Phase one: minibatch SGD under ``teacher_config(cfg)``, so plain
    cross-entropy whatever cfg.loss says, and one config file serves the
    teacher and its students; ``open_run`` trained to its end."""
    return _drain(open_run(train, test, cfg))


def train_student(train, test, teacher, cfg):
    """Phase two: train against frozen teacher predictions, ``open_run``
    trained to its end.

    cfg.loss picks the objective, which every epoch trains; "ce"/"cb" are
    permitted as baselines that ignore the teacher. A missing teacher, or
    one that does not fit ``train``, is refused before any epoch.
    """
    if teacher is None:
        raise ValueError("student training requires a teacher model")
    return _drain(open_run(train, test, cfg, teacher))


def check_sweep_config(cfg):
    """ValueError unless a temperature sweep of ``cfg`` has something to
    compare: a distillation loss, the only kinds that read T, and at least
    one epoch, since the sweep reports each student's last."""
    if cfg.loss not in ("kd", "bkd"):
        raise ValueError(f"a temperature sweep needs a distillation loss (kd or bkd), got {cfg.loss!r}")
    if cfg.epochs < 1:
        raise ValueError("a temperature sweep needs at least one training epoch")


def temperature_sweep(train, test, teacher, base_cfg, temps):
    """Train one student per temperature (same teacher, same seed), one
    after another in this process, and report (temperature, final overall
    test accuracy) rows in ``temps`` order. The first student refuses a
    teacher or a split pair that does not fit before any epoch trains."""
    temps = [check_temperature(t) for t in temps]
    if not temps:
        raise ValueError("temps must be a non-empty list")
    check_sweep_config(base_cfg)
    rows = []
    for T in temps:
        cfg = replace(base_cfg, kd=replace(base_cfg.kd, temperature=T), bkd=replace(base_cfg.bkd, temperature=T))
        _, log = train_student(train, test, teacher, cfg)
        rows.append((T, log[-1].acc_all))
    return rows
