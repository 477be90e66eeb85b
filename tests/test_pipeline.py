import itertools
import math
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from longtail_kd import evaluate, pipeline
from longtail_kd.config import default_config, imbalance_profile, train_config
from longtail_kd.data import LabeledDataset, make_longtail_counts, subset_tags, synth_gaussian_mixture
from longtail_kd.losses import (
    BKDConfig,
    KDConfig,
    Objective,
    balanced_targets,
    bkd_objective,
    kd_objective,
    objective_loss_batch,
    softmax_rows,
)
from longtail_kd.mathutils import Rng, derive_seed
from longtail_kd.mlp import LrSchedule, MlpParams, backward, forward, init_mlp, lr_at, params_to_bytes, sgd_momentum_step
from longtail_kd.pipeline import (
    MetricRow,
    RunState,
    TrainConfig,
    config_digest,
    metrics_from_csv,
    metrics_to_csv,
    read_checkpoint,
    temperature_sweep,
    train_student,
    train_teacher,
    write_checkpoint,
)
from longtail_kd.weights import effective_number_weights, normalize_weights


def stop_after(k, train, test, cfg, teacher=None, *, out_ckpt=None, resume_from=None):
    """A run of ``open_run`` stopped after its next ``k`` epochs (fewer if
    fewer remain), its state committed to ``out_ckpt`` when one is given,
    as ``(params, log)``."""
    state, epochs = pipeline.open_run(train, test, cfg, teacher, resume_from=resume_from)
    for _ in itertools.islice(epochs, k):
        pass
    epochs.close()
    if out_ckpt is not None:
        write_checkpoint(out_ckpt, state)
    return state.params, state.log_rows


def count_epochs(monkeypatch):
    """A list that gets each record the epoch loop of ``pipeline.open_run``
    yields, for every run the caller starts: one per epoch trained."""
    records, epochs = [], pipeline._epochs

    def counting(*args):
        for record in epochs(*args):
            records.append(record)
            yield record

    monkeypatch.setattr(pipeline, "_epochs", counting)
    return records


def small_cfg(**overrides):
    base = dict(
        loss="ce",
        epochs=8,
        batch_size=16,
        hidden_dims=(12,),
        schedule=LrSchedule("cosine", 0.05),
        seed=3,
        kd=KDConfig(alpha=0.5, temperature=2.0),
        bkd=BKDConfig(beta=0.999, temperature=2.0),
    )
    base.update(overrides)
    return TrainConfig(**base)


# config keys over the defaults: one step per epoch leaves finite parameters
# whose test logits overflow
OVERFLOWING_EVALUATION = {
    "C": 3, "d": 4, "n_max": 64, "rho": 16.0, "hidden_dims": (8,), "epochs": 1,
    "batch_size": 128, "schedule": "constant", "lr": 1e200,
}


def write_checkpoint_with_bad_width(path):
    """A (4, 12, 2) checkpoint whose hidden width field reads 0."""
    params = init_mlp((4, 12, 2), seed=0)
    write_checkpoint(path, RunState(params, MlpParams.zeros(params.dims), Rng(1), [], config_digest(small_cfg())))
    patch_checkpoint(path, WIDTHS_AT + 8, struct.pack("<q", 12), struct.pack("<q", 0))
    return path


def patch_checkpoint(path, offset, old, new):
    """Replace the bytes ``old`` at ``offset`` of a checkpoint file by ``new``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[offset : offset + len(old)] == old
    with open(path, "wb") as fh:
        fh.write(blob[:offset] + new + blob[offset + len(old) :])


LAYERS_AT = 7 + 32 + 16  # past the magic, the config digest and the Rng state
WIDTHS_AT = LAYERS_AT + 8  # past the layer count


def params_at(dims):
    """The offset of the parameters in a checkpoint of widths ``dims``."""
    return WIDTHS_AT + 8 * len(dims)


def _reference_checkpoint(state):
    """The ckpt-v4 bytes of ``state``, built field by field: each vector
    layer by layer, weights then bias."""
    seed, count = state.rng.state
    dims, log = state.params.dims, metrics_to_csv(state.log_rows).encode("utf-8")
    layers = lambda p: [struct.pack(f"<{a.size}f", *a.ravel()) for wb in zip(p.weights, p.biases) for a in wb]
    return b"".join(
        [
            b"ckpt-v4",
            state.digest,
            struct.pack("<Q", seed),
            struct.pack("<Q", count),
            struct.pack("<q", len(dims) - 1),
            struct.pack(f"<{len(dims)}q", *dims),
            *layers(state.params),
            *layers(state.vel),
            struct.pack("<Q", len(log)), log,
        ]
    )


class BatchRecorder:
    """Records every training minibatch through the pipeline's module seams:
    the student's input rows (``forward`` on any params but the teacher's),
    and the labels and mean loss that the one loss kernel sees."""

    def __init__(self, monkeypatch, teacher=None):
        self.inputs, self.labels, self.losses = [], [], []

        def student_forward(params, X):
            if params is not teacher:
                self.inputs.append(X)
            return forward(params, X)

        def recorded(Z, ys, rows, objective):
            values, grads = objective_loss_batch(Z, ys, rows, objective)
            self.labels.append(np.asarray(ys))
            self.losses.append(float(values.mean()))
            return values, grads

        monkeypatch.setattr(pipeline, "forward", student_forward)
        monkeypatch.setattr(pipeline, "objective_loss_batch", recorded)

    def take_losses(self):
        """The mean losses recorded so far, which are then forgotten."""
        losses, self.losses = self.losses, []
        self.inputs.clear()
        self.labels.clear()
        return losses


def two_class_separable(seed=17):
    return synth_gaussian_mixture([120, 80], 4, separation=8.0, seed=seed, per_class_test=50)


def nearest_mean_accuracy(train, test):
    means = np.vstack(
        [train.features[train.labels == c].mean(axis=0) for c in range(train.num_classes)]
    )
    d = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d.argmin(axis=1) == test.labels).mean())


class TestTrainTeacher:
    def test_learns_separable_data(self):
        train, test = two_class_separable()
        assert nearest_mean_accuracy(train, test) >= 0.95  # oracle baseline
        _, log = train_teacher(train, test, small_cfg(epochs=50))
        assert log[-1].loss < log[0].loss
        assert log[-1].acc_all >= 0.95

    def test_class_with_one_training_row_trains(self):
        train, test = synth_gaussian_mixture([5, 1], 4, separation=8.0, seed=3, per_class_test=2)
        _, log = train_teacher(train, test, small_cfg(epochs=1))
        assert [row.epoch for row in log] == [0]

    def test_zero_epochs_returns_initialized_params(self):
        from longtail_kd.mlp import init_mlp

        train, test = two_class_separable()
        cfg = small_cfg(epochs=0)
        params, log = train_teacher(train, test, cfg)
        assert log == []
        # the run rounds the float64 draw to float32 once
        expected = init_mlp((train.dimension, *cfg.hidden_dims, train.num_classes), cfg.seed).astype(np.float32)
        assert params.flat.dtype == np.float32
        for a, b in zip(params.weights, expected.weights):
            np.testing.assert_array_equal(a, b)

    def test_trains_its_teacher_config_whatever_the_loss(self, tmp_path):
        # one config serves the teacher and its students: the teacher
        # trains, checkpoints and resumes under teacher_config, so its
        # checkpoint's digest is that of the ce config with the default
        # distillation settings
        train, test = two_class_separable()
        bkd = small_cfg(loss="bkd", epochs=4)
        assert pipeline.teacher_config(bkd) == small_cfg(epochs=4, kd=KDConfig(), bkd=BKDConfig())
        ce_params, ce_log = train_teacher(train, test, small_cfg(epochs=4))
        ckpt = str(tmp_path / "teacher.ckpt")
        stop_after(2, train, test, bkd, out_ckpt=ckpt)
        assert read_checkpoint(ckpt).digest == config_digest(pipeline.teacher_config(small_cfg(epochs=4)))
        for cfg in (bkd, small_cfg(loss="kd", epochs=4), small_cfg(epochs=4)):
            params, log = train_teacher(train, test, cfg, resume_from=ckpt)
            assert params_to_bytes(params) == params_to_bytes(ce_params)
            assert metrics_to_csv(log) == metrics_to_csv(ce_log)

    def test_distillation_settings_leave_the_teacher_as_it_is(self, tmp_path):
        # plain cross-entropy reads no alpha, beta or temperature: a
        # teacher stopped under one set resumes under another, and both
        # write the bytes of the uninterrupted run
        train, test = two_class_separable()
        cfg = small_cfg(epochs=4)
        other = replace(cfg, kd=KDConfig(0.3, 4.0), bkd=BKDConfig(0.99, 4.0))
        assert pipeline.teacher_config(cfg) == pipeline.teacher_config(other)
        path = {name: tmp_path / f"{name}.ckpt" for name in ("cfg", "other", "mid", "resumed")}
        train_teacher(train, test, cfg, out_ckpt=str(path["cfg"]))
        train_teacher(train, test, other, out_ckpt=str(path["other"]))
        stop_after(2, train, test, cfg, out_ckpt=str(path["mid"]))
        train_teacher(train, test, other, out_ckpt=str(path["resumed"]), resume_from=str(path["mid"]))
        assert path["cfg"].read_bytes() == path["other"].read_bytes() == path["resumed"].read_bytes()

    def test_same_seed_identical_metric_log(self):
        train, test = two_class_separable()
        _, a = train_teacher(train, test, small_cfg())
        _, b = train_teacher(train, test, small_cfg())
        assert metrics_to_csv(a) == metrics_to_csv(b)

    def test_all_losses_finite(self):
        train, test = two_class_separable()
        _, log = train_teacher(train, test, small_cfg())
        assert all(math.isfinite(r.loss) for r in log)

    def test_divergence_aborts_with_diagnostic(self):
        train, test = two_class_separable()
        cfg = small_cfg(schedule=LrSchedule("constant", 1e30), epochs=30)
        with pytest.raises(RuntimeError, match="diverged"):
            train_teacher(train, test, cfg)

    def test_non_finite_test_logits_stop_the_run(self):
        # the one step's loss is finite, so only the evaluation sees the
        # overflow; argmax once made classes of the non-finite logits
        cfg = {**default_config(), **OVERFLOWING_EVALUATION}
        counts = make_longtail_counts(imbalance_profile(cfg))
        train, test = synth_gaussian_mixture(counts, cfg["d"], cfg["separation"], cfg["data_seed"], cfg["per_class_test"])
        with pytest.raises(RuntimeError, match=r"^training diverged: non-finite test logits at epoch 0$"):
            train_teacher(train, test, train_config(cfg))

    def test_infinite_loss_with_finite_test_logits_stops_the_run(self, tmp_path):
        # each class-1 row's CE is inf, but its gradient and the test logits
        # stay finite, so only the epoch's loss sum can refuse the run
        split = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]), np.array([0, 1, 0, 1]), 2)
        cfg = TrainConfig(loss="ce", epochs=2, hidden_dims=(), schedule=LrSchedule("constant", 1e-300))
        params = MlpParams.zeros((2, 2), np.float32)
        params.biases[0][:] = (3e38, -3e38)  # finite in float32, but their gap is not
        log = [MetricRow(0, 1.0, 1e-300, 0.5, None, None, None)]
        ckpt = str(tmp_path / "mid.ckpt")
        digest = config_digest(pipeline.teacher_config(cfg))
        write_checkpoint(ckpt, RunState(params, MlpParams.zeros(params.dims), Rng(1), log, digest))
        with pytest.raises(RuntimeError, match=r"^training diverged: non-finite loss at epoch 1$"):
            train_teacher(split, split, cfg, resume_from=ckpt)

    @pytest.mark.parametrize("epochs", [1, 2])  # biases start at 0: only a 2nd step decays them
    def test_weight_decay_matches_a_layer_by_layer_replay(self, epochs, monkeypatch):
        # each epoch is one batch holding every row, in the order the run drew
        train, test = two_class_separable()
        n, wd = len(train), 1e-3
        cfg = small_cfg(epochs=epochs, batch_size=n, weight_decay=wd)
        batches = BatchRecorder(monkeypatch)
        params, _ = train_teacher(train, test, cfg)
        assert [len(X) for X in batches.inputs] == [n] * epochs

        ref = init_mlp((train.dimension, *cfg.hidden_dims, train.num_classes), cfg.seed).astype(np.float32)
        vel = [np.zeros_like(p) for p in ref.weights + ref.biases]
        for epoch in range(epochs):
            logits, cache = forward(ref, batches.inputs[epoch])
            grads = backward(ref, cache, objective_loss_batch(logits, batches.labels[epoch], None, Objective())[1] / n)
            lr = lr_at(cfg.schedule, epoch, epochs)
            for g, p, v in zip(grads.weights + grads.biases, ref.weights + ref.biases, vel):
                g = g + wd * p
                v *= cfg.momentum
                v += g
                p -= lr * v
        assert params_to_bytes(params) == params_to_bytes(ref)
        undecayed, _ = train_teacher(train, test, replace(cfg, weight_decay=0.0))
        assert params_to_bytes(undecayed) != params_to_bytes(params)

    @pytest.mark.parametrize("wd", [-1e-3, math.nan, math.inf])
    def test_weight_decay_must_be_finite_and_nonnegative(self, wd):
        # nan and inf once trained to non-finite parameters with no error
        with pytest.raises(ValueError, match="weight_decay must be finite and nonnegative"):
            small_cfg(weight_decay=wd)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", 2.5, "epochs must be a nonnegative integer"),
            ("batch_size", 8.5, "batch_size must be a positive integer"),
            ("seed", 1.5, "seed must be an integer"),
            ("hidden_dims", (8.7,), "each hidden layer width must be a positive integer, got 8.7"),
        ],
    )
    def test_non_integer_count_refused_at_construction(self, field, value, message):
        # these once constructed, then failed in training (epochs,
        # batch_size, seed) or were truncated (width 8.7 trained as 8 under
        # its own config digest)
        with pytest.raises(ValueError, match=message):
            small_cfg(loss="bkd", **{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = small_cfg(
            loss="bkd", epochs=np.int64(4), batch_size=np.int32(16), seed=np.int64(3), hidden_dims=(np.int64(12),),
        )
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=1))
        _, log = train_student(train, test, teacher, cfg)
        _, expected = train_student(train, test, teacher, small_cfg(loss="bkd", epochs=4))
        assert metrics_to_csv(log) == metrics_to_csv(expected)

    def test_empty_test_split_refused_before_training(self, monkeypatch):
        train, test = two_class_separable()
        empty = LabeledDataset(np.empty((0, test.dimension)), [], test.num_classes)
        monkeypatch.setattr(pipeline, "init_mlp", lambda *a: pytest.fail("trained on an empty test split"))
        with pytest.raises(ValueError, match="the test split has no samples to evaluate"):
            train_teacher(train, empty, small_cfg())

    def test_dimension_mismatch_rejected(self):
        train, _ = two_class_separable(seed=1)
        _, other_test = synth_gaussian_mixture([10, 10], 6, 1.0, seed=2, per_class_test=5)
        with pytest.raises(ValueError):
            train_teacher(train, other_test, small_cfg())

    def test_class_count_mismatch_rejected(self):
        train, _ = two_class_separable(seed=1)
        _, other_test = synth_gaussian_mixture([10, 10, 10], 4, 1.0, seed=2, per_class_test=5)
        with pytest.raises(ValueError) as info:
            train_teacher(train, other_test, small_cfg())
        assert str(info.value) == "train/test class counts differ"


class TestTrainStudent:
    def test_kd_alpha_one_matches_ce_teacher_run(self, monkeypatch):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=4))
        batches = BatchRecorder(monkeypatch, teacher)
        cfg_ce = small_cfg()
        _, ce_log = train_teacher(train, test, cfg_ce)
        ce_steps = batches.take_losses()
        cfg_kd = small_cfg(loss="kd", kd=KDConfig(alpha=1.0, temperature=3.0))
        _, kd_log = train_student(train, test, teacher, cfg_kd)
        kd_steps = batches.take_losses()
        assert len(ce_steps) == len(kd_steps)
        assert all(abs(a - b) < 1e-12 for a, b in zip(ce_steps, kd_steps))
        assert metrics_to_csv(ce_log) == metrics_to_csv(kd_log)

    def test_bkd_on_balanced_counts_is_ce_plus_scaled_kl(self, monkeypatch):
        # constant class counts -> constant weights -> the distillation term
        # must equal T^2 * KL(teacher || student at T) on every step
        train, test = synth_gaussian_mixture([60, 60], 4, 3.0, seed=23, per_class_test=20)
        cfg = small_cfg(loss="bkd", epochs=2)
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        batches = BatchRecorder(monkeypatch, teacher)
        train_student(train, test, teacher, cfg)
        recorded = batches.losses

        # replay the first batch by hand (the rows the run drew, fresh
        # student), in float64 for the loss's own identity
        student = init_mlp((4, *cfg.hidden_dims, 2), cfg.seed)
        X, ys = batches.inputs[0], batches.labels[0]
        assert len(X) == cfg.batch_size
        logits, _ = forward(student, X)
        t_logits, _ = forward(teacher, X)
        phat = softmax_rows(t_logits, cfg.bkd.temperature)
        w = effective_number_weights(train.class_counts, cfg.bkd.beta)
        bkd_values, _ = objective_loss_batch(logits, ys, np.arange(len(ys)), bkd_objective(phat, w, temperature=cfg.bkd.temperature))
        ce_values, _ = objective_loss_batch(logits, ys, None, Objective())
        T = cfg.bkd.temperature
        log_pT = np.log(softmax_rows(logits, T))
        kl = (phat * (np.log(phat) - log_pT)).sum(axis=1)
        np.testing.assert_allclose(bkd_values, ce_values + T * T * kl, atol=1e-10)
        # the run took that step in float32: the student and the targets rounded once
        targets = bkd_objective(phat, w, temperature=T).targets.astype(np.float32)
        run_values, _ = objective_loss_batch(
            forward(student.astype(np.float32), X)[0], ys, np.arange(len(ys)), Objective(None, targets, 1.0, T)
        )
        assert abs(recorded[0] - float(run_values.mean())) < 1e-12

    def test_teacher_parameters_untouched(self):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        before = params_to_bytes(teacher)
        train_student(train, test, teacher, small_cfg(loss="bkd", epochs=4))
        assert params_to_bytes(teacher) == before

    def test_teacher_class_count_mismatch_rejected(self):
        train, test = two_class_separable()
        wrong_train, wrong_test = synth_gaussian_mixture([10, 10, 10], 4, 2.0, seed=5, per_class_test=5)
        teacher, _ = train_teacher(wrong_train, wrong_test, small_cfg(epochs=1))
        with pytest.raises(ValueError, match="classes"):
            train_student(train, test, teacher, small_cfg(loss="kd"))

    def test_missing_teacher_rejected(self):
        train, test = two_class_separable()
        with pytest.raises(ValueError):
            train_student(train, test, None, small_cfg(loss="kd"))

    def test_cb_trains_on_weights_that_sum_to_the_class_count(self, monkeypatch):
        train, test = synth_gaussian_mixture([80, 20, 5], 4, 3.0, seed=29, per_class_test=10)
        teacher, _ = train_teacher(train, test, small_cfg(epochs=1))
        seen = []

        def recording(Z, ys, rows, objective):
            assert objective.targets is None
            seen.append(objective.ce_weights)
            return objective_loss_batch(Z, ys, rows, objective)

        monkeypatch.setattr(pipeline, "objective_loss_batch", recording)
        cfg = small_cfg(loss="cb", epochs=2)
        train_student(train, test, teacher, cfg)
        raw = effective_number_weights(train.class_counts, cfg.bkd.beta)
        normalized = normalize_weights(raw)
        assert abs(normalized.sum() - train.num_classes) <= 1e-12
        np.testing.assert_allclose(normalized * raw.sum(), raw * train.num_classes, rtol=1e-14)
        assert len(seen) == cfg.epochs * math.ceil(len(train) / cfg.batch_size)
        for w in seen:  # the run trains on those weights rounded to float32 once
            assert w.tobytes() == normalized.astype(np.float32).tobytes()

    def test_bkd_targets_balance_the_raw_weights(self, monkeypatch):
        # one batch of every row, in row order, so the targets the loss sees
        # are the whole target matrix
        train, test = synth_gaussian_mixture([80, 20, 5], 4, 3.0, seed=29, per_class_test=10)
        teacher, _ = train_teacher(train, test, small_cfg(epochs=1))
        seen = []

        def recording(Z, ys, rows, objective):
            seen.append(objective.targets[rows])
            return objective_loss_batch(Z, ys, rows, objective)

        monkeypatch.setattr(pipeline, "objective_loss_batch", recording)
        monkeypatch.setattr(Rng, "permutation", lambda self, n: np.arange(n))
        cfg = small_cfg(loss="bkd", epochs=1, batch_size=len(train))
        train_student(train, test, teacher, cfg)
        phat = softmax_rows(forward(teacher, train.features)[0], cfg.bkd.temperature)
        expected = balanced_targets(phat, effective_number_weights(train.class_counts, cfg.bkd.beta))
        assert len(seen) == 1
        assert seen[0].tobytes() == expected.astype(np.float32).tobytes()  # computed in float64, rounded once

    def test_weights_function_of_train_counts_only(self):
        train, _ = two_class_separable()
        w1 = effective_number_weights(train.class_counts, 0.999)
        w2 = effective_number_weights(train.class_counts, 0.999)
        np.testing.assert_array_equal(w1, w2)


SWEEP_TEMPS = [1.0, 2.0, 4.0, 0.5]


@pytest.fixture(scope="module")
def sweep_inputs():
    train, test = two_class_separable()
    teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
    return train, test, teacher, small_cfg(loss="bkd", epochs=3)


@pytest.fixture(scope="module")
def sweep_rows(sweep_inputs):
    return temperature_sweep(*sweep_inputs, SWEEP_TEMPS)


class TestTemperatureSweep:
    @pytest.mark.parametrize("T", SWEEP_TEMPS)
    def test_rows_are_the_last_accuracies_of_its_students(self, sweep_inputs, sweep_rows, T):
        train, test, teacher, cfg = sweep_inputs
        assert [row_T for row_T, _ in sweep_rows] == SWEEP_TEMPS
        acc = dict(sweep_rows)[T]
        at_T = replace(cfg, kd=replace(cfg.kd, temperature=T), bkd=replace(cfg.bkd, temperature=T))
        _, log = train_student(train, test, teacher, at_T)
        assert acc.hex() == log[-1].acc_all.hex()

    @pytest.mark.parametrize("failing", SWEEP_TEMPS)
    def test_a_failing_student_ends_the_sweep_with_its_own_error(self, sweep_inputs, monkeypatch, failing):
        # the students after the failing one never start
        trained = []
        real = pipeline.train_student

        def train_student(train, test, teacher, cfg):
            trained.append(cfg.kd.temperature)
            if cfg.kd.temperature == failing:
                raise RuntimeError(f"student at T={failing:g} failed")
            return real(train, test, teacher, cfg)

        monkeypatch.setattr(pipeline, "train_student", train_student)
        with pytest.raises(RuntimeError) as info:
            temperature_sweep(*sweep_inputs, SWEEP_TEMPS)
        assert str(info.value) == f"student at T={failing:g} failed"
        assert trained == SWEEP_TEMPS[: SWEEP_TEMPS.index(failing) + 1]

    @pytest.mark.parametrize("fault", ["teacher", "splits", "ce", "cb"])
    def test_refuses_what_a_student_would_before_any_epoch(self, sweep_inputs, monkeypatch, fault):
        # a loss that reads no temperature once trained the same student at every T
        train, test, teacher, cfg = sweep_inputs
        if fault in ("ce", "cb"):
            cfg = small_cfg(loss=fault, epochs=3)
            message = f"a temperature sweep needs a distillation loss (kd or bkd), got '{fault}'"
        elif fault == "teacher":
            teacher = init_mlp((train.dimension + 1, 12, train.num_classes), seed=0)
            message = f"teacher takes {train.dimension + 1} features but the data has {train.dimension}"
        else:
            test = LabeledDataset(np.hstack([test.features, test.features[:, :1]]), test.labels, test.num_classes)
            message = f"train/test feature dimensions differ: {train.dimension} vs {train.dimension + 1}"
        epochs = count_epochs(monkeypatch)
        with pytest.raises(ValueError) as info:
            temperature_sweep(train, test, teacher, cfg, SWEEP_TEMPS)
        assert str(info.value) == message
        assert epochs == []


def count_teacher_rows(monkeypatch, teacher):
    """Patch the pipeline's forward to record the row count of each teacher call."""
    rows = []

    def counting_forward(params, X):
        if params is teacher:
            rows.append(len(X))
        return forward(params, X)

    monkeypatch.setattr(pipeline, "forward", counting_forward)
    return rows


class TestTeacherTargetCache:
    @pytest.mark.parametrize("loss", ["kd", "bkd"])
    def test_cached_targets_match_per_batch_teacher_forward(self, loss, monkeypatch):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss=loss, epochs=2)
        distill = cfg.kd if loss == "kd" else cfg.bkd
        w = effective_number_weights(train.class_counts, cfg.bkd.beta)
        batches = []

        def student_forward(params, X):
            if params is not teacher:
                batches.append(X)
            return forward(params, X)

        def check_targets(Z, ys, rows, objective):
            expected = softmax_rows(forward(teacher, batches[-1])[0], distill.temperature)
            if loss == "bkd":
                expected = balanced_targets(expected, w)
            np.testing.assert_allclose(objective.targets[rows], expected.astype(np.float32), rtol=1e-12)
            return objective_loss_batch(Z, ys, rows, objective)

        monkeypatch.setattr(pipeline, "forward", student_forward)
        monkeypatch.setattr(pipeline, "objective_loss_batch", check_targets)
        train_student(train, test, teacher, cfg)
        assert len(batches) == cfg.epochs * math.ceil(len(train) / cfg.batch_size)

    @pytest.mark.parametrize("loss, builds", [("ce", 0), ("cb", 0), ("kd", 1), ("bkd", 1)])
    def test_teacher_forwarded_once_per_row_in_batch_sized_chunks(self, loss, builds, monkeypatch):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss=loss, epochs=4)
        teacher_rows = count_teacher_rows(monkeypatch, teacher)
        train_student(train, test, teacher, cfg)
        assert sum(teacher_rows) == builds * len(train)
        assert max(teacher_rows, default=0) <= cfg.batch_size

    @pytest.mark.parametrize("loss", ["ce", "cb", "kd", "bkd"])
    def test_each_run_builds_its_objective_once_before_its_first_epoch(self, loss, monkeypatch):
        # a run trains one objective: built once, in the first epoch's
        # step of the generator, and never again in the epochs that follow
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss=loss, epochs=4)
        calls, build = [], pipeline._objective

        def counting_build(*args):
            calls.append("build")
            return build(*args)

        monkeypatch.setattr(pipeline, "_objective", counting_build)
        _, epochs = pipeline.open_run(train, test, cfg, teacher)
        assert calls == []
        for _ in epochs:
            calls.append("epoch")
        assert calls == ["build"] + ["epoch"] * cfg.epochs

    def test_zero_epoch_run_never_forwards_teacher(self, monkeypatch, tmp_path):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=2)
        ckpt = str(tmp_path / "done.ckpt")
        train_student(train, test, teacher, cfg, out_ckpt=ckpt)
        teacher_rows = count_teacher_rows(monkeypatch, teacher)
        train_student(train, test, teacher, cfg, resume_from=ckpt)
        stop_after(0, train, test, cfg, teacher)
        assert teacher_rows == []


def whole_matrix_objective(cfg, kind, teacher, train):
    """The ``kind`` objective built as one matrix: the teacher's logits of
    every training row stacked, their softmax and the builder's targets
    over all of them in float64, then every array rounded to float32."""
    X, n = train.features, cfg.batch_size
    T = (cfg.kd if kind == "kd" else cfg.bkd).temperature
    phat = softmax_rows(np.vstack([forward(teacher, X[s : s + n])[0] for s in range(0, len(X), n)]), T)
    if kind == "kd":
        objective = kd_objective(phat, alpha=cfg.kd.alpha, temperature=T)
    else:
        objective = bkd_objective(phat, effective_number_weights(train.class_counts, cfg.bkd.beta), temperature=T)
    rounded = lambda a: None if a is None else a.astype(np.float32)
    return replace(objective, ce_weights=rounded(objective.ce_weights), targets=rounded(objective.targets))


class TestChunkedTargets:
    """A distillation objective's targets are built one ``batch_size``
    chunk at a time; every step is row-wise, so they equal the whole
    matrix's bit for bit."""

    @pytest.fixture(scope="class")
    def inputs(self):
        train, test = synth_gaussian_mixture([90, 40, 17, 6], 5, 1.5, seed=41, per_class_test=10)
        teacher, _ = train_teacher(train, test, small_cfg(epochs=2))
        return train, teacher

    @staticmethod
    def assert_same_objective(built, expected):
        assert built.targets.dtype == expected.targets.dtype == np.float32
        assert built.targets.tobytes() == expected.targets.tobytes()
        assert (built.kl_coef, built.temperature) == (expected.kl_coef, expected.temperature)
        if expected.ce_weights is None:
            assert built.ce_weights is None
        else:
            assert built.ce_weights.tobytes() == expected.ce_weights.tobytes()

    @pytest.mark.parametrize("loss", ["kd", "bkd"])
    @pytest.mark.parametrize("batch_size", [1, 16, 150, 153, 500])
    def test_targets_equal_the_whole_matrix_build(self, inputs, loss, batch_size):
        train, teacher = inputs
        assert len(train) == 153
        cfg = small_cfg(loss=loss, batch_size=batch_size)
        built = pipeline._objective(cfg, teacher, train)
        self.assert_same_objective(built, whole_matrix_objective(cfg, loss, teacher, train))

    @pytest.mark.parametrize("chunk", [0, -1], ids=["first-chunk", "last-chunk"])
    def test_non_finite_teacher_logits_in_any_chunk_refused(self, inputs, chunk, monkeypatch):
        train, teacher = inputs
        cfg = small_cfg(loss="bkd", batch_size=40)
        bad = chunk % math.ceil(len(train) / cfg.batch_size)
        calls = []

        def overflowing_forward(params, X):
            logits, cache = forward(params, X)
            if len(calls) == bad:
                logits[-1, 0] = np.inf
            calls.append(len(X))
            return logits, cache

        monkeypatch.setattr(pipeline, "forward", overflowing_forward)
        with pytest.raises(ValueError) as info:
            pipeline._objective(cfg, teacher, train)
        assert str(info.value) == "the teacher gives non-finite logits on the training split"
        assert len(calls) == bad + 1


class TestFloat32Training:
    """A run trains in float32: one float64 array left in the step would
    upcast every minibatch to float64."""

    @pytest.mark.parametrize("loss", pipeline.LOSS_KINDS)
    def test_every_objective_a_run_builds_is_float32(self, loss):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=1))
        for model in (teacher, teacher.astype(np.float64)):  # a library caller's teacher may be float64
            objective = pipeline._objective(small_cfg(loss=loss), model, train)
            for array in (objective.ce_weights, objective.targets):
                assert array is None or array.dtype == np.float32

    def test_every_step_and_the_checkpoint_are_float32(self, tmp_path, monkeypatch):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=1))
        seen = set()

        def kernel(Z, ys, rows, objective):
            values, grads = objective_loss_batch(Z, ys, rows, objective)
            seen.update(a.dtype for a in (Z, values, grads))
            return values, grads

        def step(params, grads, vel, momentum, lr):
            seen.update(p.flat.dtype for p in (params, grads, vel))
            return sgd_momentum_step(params, grads, vel, momentum, lr)

        monkeypatch.setattr(pipeline, "objective_loss_batch", kernel)
        monkeypatch.setattr(pipeline, "sgd_momentum_step", step)
        path = str(tmp_path / "student.ckpt")
        params, _ = train_student(train, test, teacher, small_cfg(loss="bkd", epochs=3), out_ckpt=path)
        assert seen == {np.dtype(np.float32)}
        state = read_checkpoint(path)
        assert params.flat.dtype == state.params.flat.dtype == state.vel.flat.dtype == np.float32
        assert state.params.flat.tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize("role", ["teacher", "bkd-student"])
    def test_a_checkpoint_scores_as_its_run_did(self, tmp_path, role, monkeypatch):
        train, test = synth_gaussian_mixture([80, 20, 5], 4, 1.0, seed=29, per_class_test=40)
        cfg = small_cfg(epochs=3, many_thresh=50, few_thresh=10)
        path = str(tmp_path / "run.ckpt")
        scored = []  # the test logits of every evaluation

        def recording_forward(params, X, out=None):
            logits, cache = forward(params, X, out)
            scored.append(logits.copy())
            return logits, cache

        monkeypatch.setattr(evaluate, "forward", recording_forward)
        if role == "teacher":
            _, log = train_teacher(train, test, cfg, out_ckpt=path)
        else:
            teacher, _ = train_teacher(train, test, cfg)
            _, log = train_student(train, test, teacher, replace(cfg, loss="bkd"), out_ckpt=path)
        preds = evaluate.predict(read_checkpoint(path).params, test)
        report = evaluate.accuracy_report(preds, test.labels, subset_tags(train.class_counts, 50, 10))
        last = log[-1]
        assert (report.overall, report.many, report.medium, report.few) == (
            last.acc_all, last.acc_many, last.acc_medium, last.acc_few
        )
        assert scored[-1].dtype == np.float32
        assert scored[-1].tobytes() == scored[-2].tobytes()  # the run's last evaluation, bit for bit


class TestOpenRun:
    @pytest.mark.parametrize("scope", [{}, {"all": "raise"}], ids=["default", "all-raise"])
    def test_a_consumer_reads_its_own_error_state_at_each_yield(self, scope):
        # an np.errstate held across a generator's yield stays in force in
        # its consumer, which would then read over='ignore' between epochs
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=1))
        with np.errstate(**scope):
            own = np.geterr()
            _, epochs = pipeline.open_run(train, test, small_cfg(loss="bkd", epochs=4), teacher)
            seen = [np.geterr() for _ in itertools.islice(epochs, 2)]
            epochs.close()
            seen.append(np.geterr())
            _, epochs = pipeline.open_run(train, test, small_cfg(epochs=2))
            seen += [np.geterr() for _ in epochs]
            seen.append(np.geterr())
        assert own["over"] == ("raise" if scope else "warn")
        assert seen == [own] * 6

    def test_each_record_is_the_report_of_the_epoch_it_logs(self):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=1))
        state, epochs = pipeline.open_run(train, test, small_cfg(loss="bkd", epochs=3), teacher)
        assert state.log_rows == []
        for k, report in enumerate(epochs, 1):
            row = state.log_rows[-1]
            assert row.epoch == k - 1 and len(state.log_rows) == k
            assert (report.overall, report.many, report.medium, report.few) == (
                row.acc_all, row.acc_many, row.acc_medium, row.acc_few
            )
        assert k == 3

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("splits", "train/test class counts differ"),
            ("teacher", "teacher emits 3 classes but the data has 2"),
            ("digest", "checkpoint was written under a different training config"),
            ("dims", "checkpoint model dimensions do not match the datasets/config"),
        ],
    )
    def test_every_refusal_comes_before_the_first_epoch(self, tmp_path, fault, message):
        # open_run itself refuses, so no caller holds a run it cannot train
        train, test = two_class_separable()
        ckpt = str(tmp_path / "run.ckpt")
        stop_after(0, train, test, small_cfg(), out_ckpt=ckpt)
        args = {"teacher": None, "resume_from": None}
        if fault == "splits":
            test = synth_gaussian_mixture([10, 10, 10], 4, 1.0, seed=2, per_class_test=5)[1]
        elif fault == "teacher":
            args["teacher"] = init_mlp((train.dimension, 8, 3), 0)
        else:
            args["resume_from"] = ckpt
        if fault == "digest":
            args["cfg"] = small_cfg(seed=4)
        if fault == "dims":
            train, test = synth_gaussian_mixture([120, 80], 5, separation=8.0, seed=17, per_class_test=50)
        with pytest.raises(ValueError) as info:
            pipeline.open_run(train, test, args.pop("cfg", small_cfg()), **args)
        assert str(info.value) == message


class TestCheckpointResume:
    def test_mid_run_resume_reproduces_uninterrupted_run(self, tmp_path):
        train, test = two_class_separable()
        cfg = small_cfg(epochs=8)
        full_params, full_log = train_teacher(train, test, cfg)

        ckpt = str(tmp_path / "mid.ckpt")
        stop_after(4, train, test, cfg, out_ckpt=ckpt)
        resumed_params, resumed_log = train_teacher(train, test, cfg, resume_from=ckpt)

        assert params_to_bytes(resumed_params) == params_to_bytes(full_params)
        assert metrics_to_csv(resumed_log) == metrics_to_csv(full_log)

    def test_student_mid_run_resume(self, tmp_path):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=6)
        full_params, _ = train_student(train, test, teacher, cfg)
        ckpt = str(tmp_path / "mid.ckpt")
        stop_after(3, train, test, cfg, teacher, out_ckpt=ckpt)
        resumed_params, _ = train_student(train, test, teacher, cfg, resume_from=ckpt)
        assert params_to_bytes(resumed_params) == params_to_bytes(full_params)

    def test_resumed_student_builds_its_objective_again(self, tmp_path, monkeypatch):
        # each run builds the objective it trains, so a run stopped after
        # one epoch and its resumption each forward the teacher over every
        # training row once, and together train the uninterrupted run
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=4)
        full_params, full_log = train_student(train, test, teacher, cfg)
        ckpt = str(tmp_path / "mid.ckpt")
        teacher_rows = count_teacher_rows(monkeypatch, teacher)
        stop_after(1, train, test, cfg, teacher, out_ckpt=ckpt)
        assert sum(teacher_rows) == len(train)
        resumed_params, resumed_log = train_student(train, test, teacher, cfg, resume_from=ckpt)
        assert sum(teacher_rows) == 2 * len(train)
        assert params_to_bytes(resumed_params) == params_to_bytes(full_params)
        assert metrics_to_csv(resumed_log) == metrics_to_csv(full_log)

    def test_steps_a_schedule_does_not_act_under_do_not_block_its_resume(self, tmp_path):
        # the two schedules train the same run, but a checkpoint of one was
        # once refused under the other as "written under a different
        # training config"
        train, test = two_class_separable()
        with_steps = small_cfg(epochs=4, schedule=LrSchedule("cosine", 0.02, steps=((1, 0.5),)))
        plain = small_cfg(epochs=4, schedule=LrSchedule("cosine", 0.02))
        assert config_digest(with_steps) == config_digest(plain)
        full_params, full_log = train_teacher(train, test, plain)
        ckpt = str(tmp_path / "mid.ckpt")
        stop_after(2, train, test, with_steps, out_ckpt=ckpt)
        resumed_params, resumed_log = train_teacher(train, test, plain, resume_from=ckpt)
        assert params_to_bytes(resumed_params) == params_to_bytes(full_params)
        assert metrics_to_csv(resumed_log) == metrics_to_csv(full_log)

    def test_draw_count_near_two_to_the_64_resumes_through_the_wrap(self, tmp_path):
        # a checkpoint stores the count as "<Q", and a count of 2**64 - 1 read back
        # but once failed on resume with OverflowError from the first shuffle
        train, test = two_class_separable()
        cfg = small_cfg(epochs=4)
        mid, full, resumed = (str(tmp_path / f"{name}.ckpt") for name in ("mid", "full", "resumed"))
        stop_after(2, train, test, cfg, out_ckpt=mid)
        train_teacher(train, test, cfg, out_ckpt=full)
        seed, count = read_checkpoint(mid).rng.state
        count_at = LAYERS_AT - 8  # past magic, config digest and seed
        patch_checkpoint(mid, count_at, struct.pack("<Q", count), struct.pack("<Q", 2**64 - 1))
        _, log = train_teacher(train, test, cfg, resume_from=mid, out_ckpt=resumed)
        assert [row.epoch for row in log] == [0, 1, 2, 3]
        # 2**64 - 1 draws, then those of epochs 2 and 3, modulo 2**64
        assert read_checkpoint(resumed).rng.state == (seed, read_checkpoint(full).rng.state[1] - count - 1)

    def test_checkpoint_after_init_resumes_to_initial_state(self, tmp_path):
        train, test = two_class_separable()
        cfg = small_cfg(epochs=5)
        ckpt = str(tmp_path / "init.ckpt")
        params0, _ = stop_after(0, train, test, cfg, out_ckpt=ckpt)
        state = read_checkpoint(ckpt)
        assert state.epoch == 0
        assert params_to_bytes(state.params) == params_to_bytes(params0)

    def test_resume_onto_other_model_dimensions_rejected(self, tmp_path):
        # the same config on data of 5 features, where the checkpoint takes 4
        train, test = two_class_separable()
        ckpt = str(tmp_path / "a.ckpt")
        stop_after(2, train, test, small_cfg(epochs=4), out_ckpt=ckpt)
        wide_train, wide_test = synth_gaussian_mixture([120, 80], 5, separation=8.0, seed=17, per_class_test=50)
        with pytest.raises(ValueError) as info:
            train_teacher(wide_train, wide_test, small_cfg(epochs=4), resume_from=ckpt)
        assert str(info.value) == "checkpoint model dimensions do not match the datasets/config"

    def test_trailing_bytes_after_the_payload_rejected(self, tmp_path):
        train, test = two_class_separable()
        path = str(tmp_path / "long.ckpt")
        train_teacher(train, test, small_cfg(epochs=2), out_ckpt=path)
        with open(path, "ab") as fh:
            fh.write(b"x")
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: trailing bytes after checkpoint payload"

    def test_resume_from_missing_path(self):
        train, test = two_class_separable()
        with pytest.raises(FileNotFoundError):
            train_teacher(train, test, small_cfg(), resume_from="/nonexistent/x.ckpt")

    def test_resume_under_different_config_rejected(self, tmp_path):
        train, test = two_class_separable()
        ckpt = str(tmp_path / "a.ckpt")
        stop_after(2, train, test, small_cfg(epochs=4), out_ckpt=ckpt)
        with pytest.raises(ValueError, match="config"):
            train_teacher(train, test, small_cfg(epochs=4, seed=99), resume_from=ckpt)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"ckpt-v4" + b"\x00" * 10)
        with pytest.raises(ValueError):
            read_checkpoint(str(bad))
        not_ckpt = tmp_path / "not.ckpt"
        not_ckpt.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            read_checkpoint(str(not_ckpt))

    def test_checkpoint_of_the_previous_format_refused(self, tmp_path):
        # ckpt-v3 stored the parameters as an mlp-v2 blob behind its length,
        # ckpt-v2 the weights and the velocity as float64, and ckpt-v1 the
        # epoch and the momentum apart from the log and the config, and the
        # velocity behind a header of its own
        train, test = two_class_separable()
        path = str(tmp_path / "old.ckpt")
        train_teacher(train, test, small_cfg(epochs=2), out_ckpt=path)
        with open(path, "rb") as fh:
            payload = fh.read()[len(pipeline.CKPT_MAGIC) :]
        for old in (b"ckpt-v3", b"ckpt-v2", b"ckpt-v1"):
            with open(path, "wb") as fh:
                fh.write(old + payload)
            with pytest.raises(ValueError) as info:
                read_checkpoint(path)
            assert str(info.value) == f"{path}: not a ckpt-v4 checkpoint"

    @pytest.mark.parametrize(
        "offset, old, new, message",
        [
            (LAYERS_AT, 2, 0, "the layer count must be a positive integer, got 0"),
            (LAYERS_AT, 2, -1, "the layer count must be a positive integer, got -1"),
            (WIDTHS_AT + 8, 12, 0, "each layer width must be a positive integer, got 0"),
            (WIDTHS_AT, 4, -4, "each layer width must be a positive integer, got -4"),
            (LAYERS_AT, 2, 2**62, "truncated checkpoint"),
            (WIDTHS_AT + 8, 12, 2**40, "truncated checkpoint"),
        ],
        ids=[
            "no-layers", "negative-layers", "zero-width", "negative-width", "layers-past-the-end", "width-past-the-end",
        ],
    )
    def test_layer_count_and_widths_refused_by_name(self, tmp_path, offset, old, new, message):
        # the widths are stored once, ahead of the two vectors whose lengths they give
        params = init_mlp((4, 12, 2), seed=0)
        path = str(tmp_path / "widths.ckpt")
        write_checkpoint(path, RunState(params, MlpParams.zeros(params.dims), Rng(1), [], config_digest(small_cfg())))
        patch_checkpoint(path, offset, struct.pack("<q", old), struct.pack("<q", new))
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"

    def test_width_one_model_round_trips(self, tmp_path):
        params = init_mlp((1, 1), seed=3).astype(np.float32)
        vel = MlpParams.from_flat(np.float32([0.5, -0.25]), params.dims)
        path = str(tmp_path / "one.ckpt")
        write_checkpoint(path, RunState(params, vel, Rng(1), [], config_digest(small_cfg())))
        state = read_checkpoint(path)
        assert state.params.dims == (1, 1)
        assert (state.params.flat.tobytes(), state.vel.flat.tobytes()) == (params.flat.tobytes(), vel.flat.tobytes())

    @pytest.mark.parametrize("values", [-1, 1], ids=["one-short", "one-long"])
    def test_velocity_that_does_not_fit_the_parameters_rejected(self, tmp_path, values):
        # the velocity has no length of its own: one value fewer or more
        # than the widths give moves the log's length field
        train, test = two_class_separable()
        path = str(tmp_path / "spliced.ckpt")
        train_teacher(train, test, small_cfg(epochs=2), out_ckpt=path)
        state = read_checkpoint(path)
        end = params_at(state.params.dims) + state.params.flat.nbytes + state.vel.flat.nbytes
        last = struct.pack("<f", state.vel.flat[-1])
        patch_checkpoint(path, end - 4, last, last * (1 + values))
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: truncated checkpoint"

    def test_velocity_that_does_not_fit_the_parameters_refused_at_write_time(self, tmp_path):
        # the file does not hold the velocity's dims: the reader would take
        # a velocity of as many values under the parameters' dims
        params = init_mlp((4, 12, 2), seed=0)
        vel = MlpParams.zeros((4, 12, 3))
        path = str(tmp_path / "hand.ckpt")
        with pytest.raises(ValueError) as info:
            write_checkpoint(path, RunState(params, vel, Rng(1), [], config_digest(small_cfg())))
        assert str(info.value) == f"{path}: velocity dimensions (4, 12, 3) do not match parameters (4, 12, 2)"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blob", ["parameter", "velocity"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_blob_refused_by_reader_and_writer(self, tmp_path, blob, value):
        # a NaN weight was once written and read back without complaint,
        # so eval scored whatever the NaN logits argmaxed to
        params = init_mlp((4, 12, 2), seed=0).astype(np.float32)
        state = RunState(params, MlpParams.zeros(params.dims, np.float32), Rng(1), [], config_digest(small_cfg()))
        array = state.params if blob == "parameter" else state.vel
        # the parameters and then the velocity are stored as their raw float32 values
        offset = params_at(params.dims) + (0 if blob == "parameter" else params.flat.nbytes)
        clean, kept = array.flat.tobytes(), array.flat[5]
        array.flat[5] = value
        written = str(tmp_path / "written.ckpt")
        with pytest.raises(ValueError) as info:
            write_checkpoint(written, state)
        assert str(info.value) == f"{written}: the {blob} blob holds a non-finite value"
        assert list(tmp_path.iterdir()) == []
        # the writer refuses such a state, so the blob is spliced over a clean file
        array.flat[5] = kept
        spliced = str(tmp_path / "spliced.ckpt")
        write_checkpoint(spliced, state)
        array.flat[5] = value
        patch_checkpoint(spliced, offset, clean, array.flat.tobytes())
        with pytest.raises(ValueError) as info:
            read_checkpoint(spliced)
        assert str(info.value) == f"{spliced}: the {blob} blob holds a non-finite value"

    @pytest.mark.parametrize("blob", ["parameter", "velocity"])
    def test_a_float64_state_beyond_float32_refused_by_name(self, tmp_path, blob):
        # the writer rounds a float64 state to float32, where 1e39 is infinite
        params = init_mlp((4, 12, 2), seed=0)
        state = RunState(params, MlpParams.zeros(params.dims), Rng(1), [], config_digest(small_cfg()))
        (state.params if blob == "parameter" else state.vel).flat[5] = 1e39
        path = str(tmp_path / "wide.ckpt")
        with pytest.raises(ValueError) as info:
            write_checkpoint(path, state)
        assert str(info.value) == f"{path}: the {blob} blob holds a non-finite value"
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        # a directory in the checkpoint's place once kept <path>.tmp behind
        params = init_mlp((4, 12, 2), seed=0)
        (tmp_path / "teacher.ckpt").mkdir()
        path = str(tmp_path / "teacher.ckpt")
        with pytest.raises(IsADirectoryError):
            write_checkpoint(path, RunState(params, MlpParams.zeros(params.dims), Rng(1), [], config_digest(small_cfg())))
        assert [p.name for p in tmp_path.iterdir()] == ["teacher.ckpt"]
        assert list((tmp_path / "teacher.ckpt").iterdir()) == []

    def test_unopenable_checkpoint_names_the_file(self, tmp_path):
        with pytest.raises(ValueError) as info:
            read_checkpoint(str(tmp_path))
        assert str(info.value) == f"{tmp_path}: cannot read the checkpoint: Is a directory"
        with pytest.raises(FileNotFoundError) as info:
            read_checkpoint(str(tmp_path / "absent.ckpt"))
        assert str(info.value) == f"checkpoint not found: {tmp_path / 'absent.ckpt'}"

    def test_momentum_is_held_by_the_digest_alone(self, tmp_path):
        # two runs that differ only in momentum, stopped before any step,
        # write files that differ only in the config digest
        train, test = two_class_separable()
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        stop_after(0, train, test, small_cfg(epochs=4), out_ckpt=a)
        stop_after(0, train, test, small_cfg(epochs=4, momentum=0.5), out_ckpt=b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            blob_a, blob_b = fa.read(), fb.read()
        digest = slice(len(pipeline.CKPT_MAGIC), len(pipeline.CKPT_MAGIC) + 32)
        assert blob_a[digest] != blob_b[digest]
        assert blob_a[: digest.start] + blob_a[digest.stop :] == blob_b[: digest.start] + blob_b[digest.stop :]

    def test_momentum_other_than_the_configs_refused_on_resume(self, tmp_path):
        # the config digest covers the momentum, the one place it is stated
        train, test = two_class_separable()
        path = str(tmp_path / "mid.ckpt")
        stop_after(2, train, test, small_cfg(epochs=4), out_ckpt=path)
        with pytest.raises(ValueError) as info:
            train_teacher(train, test, small_cfg(epochs=4, momentum=0.5), resume_from=path)
        assert str(info.value) == "checkpoint was written under a different training config"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("all", "", "malformed metric log"),
            ("\n1,", "\v1,", "the metric log is not in the form the writer writes"),
            (",0.05,", ",5e-2,", "the metric log is not in the form the writer writes"),
        ],
        ids=["empty", "vertical-tab", "exponent"],
    )
    def test_log_not_in_the_writers_form_rejected(self, tmp_path, old, new, message):
        # each once loaded: the empty log as epoch 0, the other two as the
        # rows the writer's log holds, so rewriting gave other bytes
        train, test = two_class_separable()
        path = str(tmp_path / "log.ckpt")
        train_teacher(train, test, small_cfg(epochs=2), out_ckpt=path)
        log = metrics_to_csv(read_checkpoint(path).log_rows).encode("utf-8")
        edited = b"" if old == "all" else log.replace(old.encode(), new.encode(), 1)
        assert edited != log
        patch_checkpoint(path, os.path.getsize(path) - len(log) - 8,
                         struct.pack("<Q", len(log)) + log, struct.pack("<Q", len(edited)) + edited)
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("row, numbered", [(0, 1), (2, 7)])
    def test_log_not_numbered_from_zero_in_steps_of_one_rejected(self, tmp_path, row, numbered):
        # a 6-epoch run stopped after 4 logged epochs, one row renumbered;
        # resuming would log epochs 0,1,7,3,4,5
        train, test = two_class_separable()
        cfg = small_cfg(epochs=6)
        path = str(tmp_path / "mid.ckpt")
        stop_after(4, train, test, cfg, out_ckpt=path)
        old, new = f"\n{row},".encode(), f"\n{numbered},".encode()
        with open(path, "rb") as fh:
            blob = fh.read()
        patch_checkpoint(path, blob.index(old, blob.index(pipeline.METRIC_HEADER.encode())), old, new)
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        logged = [0, 1, 2, 3]
        logged[row] = numbered
        assert str(info.value) == f"{path}: the log's 4 epochs are numbered {logged}"
        with pytest.raises(ValueError, match="the log's 4 epochs are numbered"):
            train_teacher(train, test, cfg, resume_from=path)

    def test_log_not_numbered_from_zero_refused_at_write_time(self, tmp_path):
        # the rule read_checkpoint applies, so no file is written that it
        # would refuse
        params = init_mlp((4, 12, 2), seed=0)
        row = MetricRow(5, 0.5, 0.1, 0.5, None, None, None)
        state = RunState(params, MlpParams.zeros(params.dims), Rng(1), [row], config_digest(small_cfg()))
        path = str(tmp_path / "hand.ckpt")
        with pytest.raises(ValueError) as info:
            write_checkpoint(path, state)
        assert str(info.value) == f"{path}: the log's 1 epochs are numbered [5]"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0,nan,0.1,0.5,,,", "does not hold a finite loss"),
            ("0,inf,0.1,0.5,,,", "does not hold a finite loss"),
            ("0,0.5,inf,0.5,,,", "does not hold a finite, positive lr"),
            ("0,0.5,0.0,0.5,,,", "does not hold a finite, positive lr"),
            ("0,0.5,-0.1,0.5,,,", "does not hold a finite, positive lr"),
            ("0,0.5,0.1,-3.0,,,", "does not hold accuracies in [0, 1]"),
            ("0,0.5,0.1,0.5,1.5,,", "does not hold accuracies in [0, 1]"),
            ("0,0.5,0.1,0.5,,nan,", "does not hold accuracies in [0, 1]"),
            ("0,x,0.1,0.5,,,", None),
            ("abc,0.5,0.1,0.5,,,", None),
            ("0,0.5,0.1,,,,", None),
        ],
        ids=["nan-loss", "inf-loss", "inf-lr", "zero-lr", "negative-lr", "negative-acc", "acc-above-1", "nan-acc",
             "letter-loss", "word-epoch", "empty-acc"],
    )
    def test_log_row_no_run_logs_refused_by_name(self, tmp_path, line, message):
        # each was once read: a run resumed from a NaN loss wrote it into its
        # metric CSV, and a non-numeric cell raised int()'s or float()'s own
        # message, naming no file. Spliced over a clean file's one-row log
        clean = MetricRow(0, 0.5, 0.1, 0.5, None, None, None)
        params = init_mlp((4, 12, 2), seed=0)
        path = str(tmp_path / "log.ckpt")
        write_checkpoint(path, RunState(params, MlpParams.zeros(params.dims), Rng(1), [clean], config_digest(small_cfg())))
        log, bad = metrics_to_csv([clean]).encode("utf-8"), f"{pipeline.METRIC_HEADER}\n{line}\n".encode("utf-8")
        patch_checkpoint(path, os.path.getsize(path) - len(log) - 8,
                         struct.pack("<Q", len(log)) + log, struct.pack("<Q", len(bad)) + bad)
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        expected = f"malformed metric row: {line!r}" if message is None else f"metric row {line!r} {message}"
        assert str(info.value) == f"{path}: {expected}"

    @pytest.mark.parametrize(
        "row",
        [
            MetricRow(0, math.nan, 0.1, 0.5, None, None, None),
            MetricRow(0, 0.5, math.inf, 0.5, None, None, None),
            MetricRow(0, 0.5, 0.1, -3.0, None, None, None),
        ],
        ids=["nan-loss", "inf-lr", "negative-acc"],
    )
    def test_log_row_no_run_logs_refused_at_write_time(self, tmp_path, row):
        params = init_mlp((4, 12, 2), seed=0)
        state = RunState(params, MlpParams.zeros(params.dims), Rng(1), [row], config_digest(small_cfg()))
        path = str(tmp_path / "hand.ckpt")
        with pytest.raises(ValueError) as info:
            write_checkpoint(path, state)
        line = metrics_to_csv([row]).splitlines()[1]
        assert str(info.value).startswith(f"{path}: metric row {line!r} does not hold ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stop", [0, 3, None], ids=["0-epoch", "stopped", "finished"])
    @pytest.mark.parametrize("role", ["ce-teacher", "bkd-student"])
    def test_rewriting_a_read_checkpoint_reproduces_its_bytes(self, tmp_path, role, stop):
        # a RunState holds everything the file holds, and its epoch is the
        # length of its log
        train, test = two_class_separable()
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        if role == "ce-teacher":
            stop_after(stop, train, test, small_cfg(epochs=4), out_ckpt=a)
        else:
            teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
            cfg = small_cfg(loss="bkd", epochs=4)
            stop_after(stop, train, test, cfg, teacher, out_ckpt=a)
        state = read_checkpoint(a)
        assert state.epoch == len(state.log_rows) == (4 if stop is None else stop)
        write_checkpoint(b, state)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_every_checkpoint_the_reader_accepts_rewrites_to_its_bytes(self, tmp_path):
        # every one-bit flip, one-byte insertion and one-byte deletion of a
        # small checkpoint, and the file whose log is empty: each is refused
        # by name, or read into a state that write_checkpoint writes as the
        # same bytes. A log line ended by "\v", which splitlines also
        # splits on, or an lr of "5e-04" once loaded and rewrote otherwise
        params = init_mlp((4, 5, 2), seed=0)
        vel = MlpParams.from_flat(Rng(2).normal(params.flat.size), params.dims)
        rng = Rng(5)
        rng.permutation(10)
        rows = [MetricRow(0, 0.75, 0.05, 0.5, 0.625, None, 0.25), MetricRow(1, 0.5, 5e-05, 0.75, 1.0, None, 0.5)]
        good = str(tmp_path / "good.ckpt")
        write_checkpoint(good, RunState(params, vel, rng, rows, config_digest(small_cfg())))
        with open(good, "rb") as fh:
            blob = fh.read()
        log = metrics_to_csv(rows).encode("utf-8")
        variants = [blob[: -len(log) - 8] + struct.pack("<Q", 0)]
        for i in range(len(blob)):
            variants.append(blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1 :])
            variants.append(blob[:i] + blob[i : i + 1] + blob[i:])
            variants.append(blob[:i] + blob[i + 1 :])
        path, again = str(tmp_path / "variant.ckpt"), str(tmp_path / "again.ckpt")
        accepted = 0
        for variant in variants:
            with open(path, "wb") as fh:
                fh.write(variant)
            try:
                state = read_checkpoint(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                continue
            write_checkpoint(again, state)
            with open(again, "rb") as fh:
                assert fh.read() == variant
            accepted += 1
        # flips in the digest, the stream state and the weights load
        assert 0 < accepted < len(variants)

    def test_fresh_teacher_checkpoint_has_the_reference_bytes(self, tmp_path):
        # the state _run starts from, built here by hand
        train, test = two_class_separable()
        cfg = small_cfg(epochs=4)
        params = init_mlp((train.dimension, *cfg.hidden_dims, train.num_classes), cfg.seed).astype(np.float32)
        digest = config_digest(pipeline.teacher_config(cfg))
        state = RunState(params, MlpParams.zeros(params.dims, np.float32), Rng(derive_seed(cfg.seed, 1)), [], digest)
        by_hand, by_run = str(tmp_path / "hand.ckpt"), str(tmp_path / "run.ckpt")
        write_checkpoint(by_hand, state)
        stop_after(0, train, test, cfg, out_ckpt=by_run)
        for path in (by_hand, by_run):
            with open(path, "rb") as fh:
                assert fh.read() == _reference_checkpoint(state)

    def test_mid_run_student_checkpoint_has_the_reference_bytes(self, tmp_path):
        # a bkd student stopped mid-run: a moved stream, a nonzero velocity
        # and three logged epochs
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=5)
        path = str(tmp_path / "mid.ckpt")
        stop_after(3, train, test, cfg, teacher, out_ckpt=path)
        state = read_checkpoint(path)
        assert state.epoch == 3 and state.rng.state[1] > 0
        assert np.any(state.vel.flat != 0)
        with open(path, "rb") as fh:
            assert fh.read() == _reference_checkpoint(state)

    @pytest.mark.parametrize("length", [31, 33])
    def test_digest_of_another_length_refused_at_write_time(self, tmp_path, length):
        # the header's 32-byte field would pad or cut it without complaint
        params = init_mlp((4, 12, 2), seed=0)
        state = RunState(params, MlpParams.zeros(params.dims), Rng(1), [], bytes(range(length)))
        path = str(tmp_path / "hand.ckpt")
        with pytest.raises(ValueError) as info:
            write_checkpoint(path, state)
        assert str(info.value) == f"{path}: config digest must be 32 bytes, got {length}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "old, new", [(b"epoch,loss", b"epoch;loss"), (b"\n0,", b"\nx,"), (b"epoch", b"\xffpoch")],
        ids=["header", "cell", "not-utf-8"],
    )
    def test_undecodable_metric_log_names_the_file(self, tmp_path, old, new):
        train, test = two_class_separable()
        path = str(tmp_path / "logged.ckpt")
        train_teacher(train, test, small_cfg(epochs=2), out_ckpt=path)
        with open(path, "rb") as fh:
            offset = fh.read().index(old)
        patch_checkpoint(path, offset, old, new)
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_checkpoint_write_is_atomic_replace(self, tmp_path):
        # the temp file must not survive a successful write
        train, test = two_class_separable()
        ckpt = str(tmp_path / "final.ckpt")
        train_teacher(train, test, small_cfg(epochs=2), out_ckpt=ckpt)
        assert (tmp_path / "final.ckpt").exists()
        assert not (tmp_path / "final.ckpt.tmp").exists()

    def test_digest_differs_across_configs(self):
        assert config_digest(small_cfg()) != config_digest(small_cfg(seed=4))
        assert config_digest(small_cfg()) == config_digest(small_cfg())

    def test_numpy_integer_config_has_the_python_integer_digest_and_resumes(self, tmp_path):
        # a numpy integer once rendered as a string in the digest, so a
        # checkpoint written under one config was refused under its equal
        python_ints = small_cfg(loss="bkd", epochs=4, hidden_dims=[12])
        numpy_ints = small_cfg(
            loss="bkd", epochs=np.int64(4), batch_size=np.int32(16), seed=np.int64(3),
            hidden_dims=np.array([12]), many_thresh=np.int64(100), few_thresh=np.int16(20),
        )
        assert numpy_ints == python_ints
        assert type(numpy_ints.epochs) is int and numpy_ints.hidden_dims == (12,)
        # pinned: the sha256 of the JSON of each config's fields, its
        # numbers rendered as Python ints and floats
        assert config_digest(numpy_ints).hex() == "2468a024d49ce6c07c8509680ce75c0983545dcd2bf4bee6df909d02a6644f3c"
        assert config_digest(small_cfg()).hex() == "84f97c56f386d209638308d50672e7da483eb020da6b5a79e0cdca183d3b85e3"
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        full_params, _ = train_student(train, test, teacher, numpy_ints)
        ckpt = str(tmp_path / "mid.ckpt")
        stop_after(1, train, test, python_ints, teacher, out_ckpt=ckpt)
        resumed_params, _ = train_student(train, test, teacher, numpy_ints, resume_from=ckpt)
        assert params_to_bytes(resumed_params) == params_to_bytes(full_params)


    def test_numpy_and_integer_reals_have_the_python_float_digest(self):
        # a numpy float once rendered as a string in the digest, and an
        # integer real as an integer; each is now stored as the float it
        # equals, so equal configs digest the same
        reals = small_cfg(
            schedule=LrSchedule("step", np.float32(0.5), steps=((np.int64(2), np.float32(0.25)),)),
            momentum=np.float32(0.5), weight_decay=np.float16(0.25),
            kd=KDConfig(alpha=np.int64(1), temperature=np.float32(2.0)), bkd=BKDConfig(beta=np.float32(0.5), temperature=2),
        )
        floats = small_cfg(
            schedule=LrSchedule("step", 0.5, steps=((2, 0.25),)), momentum=0.5, weight_decay=0.25,
            kd=KDConfig(alpha=1.0, temperature=2.0), bkd=BKDConfig(beta=0.5, temperature=2.0),
        )
        assert reals == floats
        assert config_digest(reals) == config_digest(floats)
        assert KDConfig(alpha=np.float32(0.5)) == KDConfig(alpha=0.5)
        assert config_digest(small_cfg(kd=KDConfig(alpha=1))) == config_digest(small_cfg(kd=KDConfig(alpha=1.0)))
        stored = (reals.momentum, reals.weight_decay, reals.kd.alpha, reals.kd.temperature, reals.bkd.beta)
        assert all(type(v) is float for v in stored)

    @pytest.mark.parametrize("field, value", [("momentum", "0.5"), ("weight_decay", None)])
    def test_non_real_optimizer_settings_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_cfg(**{field: value})

    def test_digest_refuses_a_value_it_cannot_render(self):
        # such a value was once rendered by str(), so its digest held a
        # memory address and changed from run to run; the constructor now
        # refuses it first, so it is set here past the constructor
        cfg = small_cfg()
        object.__setattr__(cfg, "kd", object())
        with pytest.raises(TypeError):
            config_digest(cfg)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("schedule", None, "schedule must be an instance of LrSchedule, got None"),
            ("kd", object(), "kd must be an instance of KDConfig, got <object"),
            ("bkd", KDConfig(), r"bkd must be an instance of BKDConfig, got KDConfig\("),
            ("hidden_dims", None, "hidden_dims must be a sequence of layer widths, got None"),
            ("hidden_dims", 64, "hidden_dims must be a sequence of layer widths, got 64"),
        ],
    )
    def test_nested_value_of_the_wrong_type_refused_at_construction(self, field, value, message):
        # each once constructed: schedule=None then failed in lr_at, kd=object()
        # in config_digest, bkd=KDConfig() on the first bkd epoch with an
        # AttributeError, and hidden_dims=None or 64 raised TypeError
        with pytest.raises(ValueError, match=message):
            small_cfg(loss="bkd", **{field: value})

    @pytest.mark.parametrize(
        "schedule, message",
        [
            (LrSchedule("step", 1e-200, ((1, 1e-200),)), "learning rate 0.0 at epoch 1;"),
            (LrSchedule("cosine", 5e-324), "learning rate 0.0 at epoch 0;"),
            (LrSchedule("step", 1e200, ((0, 1.0), (2, 1e200))), "learning rate inf at epoch 2;"),
        ],
    )
    def test_schedule_with_an_unusable_rate_refused_at_construction(self, schedule, message):
        # each factor and the base rate are positive and finite, but a
        # product underflows to 0 or overflows to inf at some epoch
        with pytest.raises(ValueError, match=f"^schedule gives {message} each epoch's must be positive and finite$"):
            small_cfg(schedule=schedule, epochs=3)

    def test_unknown_loss_refused_at_construction(self):
        with pytest.raises(ValueError) as info:
            small_cfg(loss="x")
        assert str(info.value) == "loss must be one of ('ce', 'cb', 'kd', 'bkd'), got 'x'"


class TestMetricCsv:
    def test_round_trip(self):
        rows = [
            MetricRow(0, 1.5, 0.1, 0.5, 0.9, None, 0.1),
            MetricRow(1, 1.25, 0.09, 0.55, 0.91, 0.5, None),
        ]
        assert metrics_from_csv(metrics_to_csv(rows)) == rows

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            metrics_from_csv("nope\n1,2,3\n")

    def test_row_of_another_width_rejected(self):
        with pytest.raises(ValueError) as info:
            metrics_from_csv(f"{pipeline.METRIC_HEADER}\n0,1.5,0.1,0.5,,\n")
        assert str(info.value) == "malformed metric row: '0,1.5,0.1,0.5,,'"
