import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from longtail_kd import pipeline
from longtail_kd.data import LabeledDataset, synth_gaussian_mixture
from longtail_kd.losses import (
    BKDConfig,
    KDConfig,
    Objective,
    balanced_targets,
    objective_loss_batch,
    softmax_rows,
)
from longtail_kd.mathutils import Rng
from longtail_kd.mlp import LrSchedule, backward, forward, init_mlp, init_optimizer, lr_at, params_to_bytes
from longtail_kd.pipeline import (
    MetricRow,
    OptimizerState,
    RunState,
    TrainConfig,
    config_digest,
    metrics_from_csv,
    metrics_to_csv,
    read_checkpoint,
    train_student,
    train_teacher,
    write_checkpoint,
)
from longtail_kd.weights import effective_number_weights


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


def write_checkpoint_with_bad_fan_in(path):
    """A (4, 12, 2) checkpoint whose first layer's fan_in field reads 5."""
    params = init_mlp((4, 12, 2), seed=0)
    write_checkpoint(path, RunState(params, init_optimizer(params), Rng(1), [], config_digest(small_cfg())))
    with open(path, "rb") as fh:
        fan_in = fh.read().index(params_to_bytes(params)) + len(b"mlp-v1") + 8  # past magic and layer count
    patch_checkpoint(path, fan_in, struct.pack("<q", 4), struct.pack("<q", 5))
    return path


def patch_checkpoint(path, offset, old, new):
    """Replace the bytes ``old`` at ``offset`` of a checkpoint file by ``new``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    assert blob[offset : offset + len(old)] == old
    with open(path, "wb") as fh:
        fh.write(blob[:offset] + new + blob[offset + len(old) :])


EPOCH_FIELD = len(pipeline.CKPT_MAGIC) + 32  # past the magic and the config digest


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

    def test_zero_epochs_returns_initialized_params(self):
        from longtail_kd.mlp import init_mlp

        train, test = two_class_separable()
        cfg = small_cfg(epochs=0)
        params, log = train_teacher(train, test, cfg)
        assert log == []
        expected = init_mlp((train.dimension, *cfg.hidden_dims, train.num_classes), cfg.seed)
        for a, b in zip(params.weights, expected.weights):
            np.testing.assert_array_equal(a, b)

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
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is the point
            with pytest.raises(RuntimeError, match="diverged"):
                train_teacher(train, test, cfg)

    @pytest.mark.parametrize("epochs", [1, 2])  # biases start at 0: only a 2nd step decays them
    def test_weight_decay_matches_a_layer_by_layer_replay(self, epochs, monkeypatch):
        # each epoch is one batch holding every row, in the order the run drew
        train, test = two_class_separable()
        n, wd = len(train), 1e-3
        cfg = small_cfg(epochs=epochs, batch_size=n, weight_decay=wd)
        batches = BatchRecorder(monkeypatch)
        params, _ = train_teacher(train, test, cfg)
        assert [len(X) for X in batches.inputs] == [n] * epochs

        ref = init_mlp((train.dimension, *cfg.hidden_dims, train.num_classes), cfg.seed)
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
            ("defer_epoch", 1.5, "defer_epoch must be a nonnegative integer, got 1.5"),
            ("hidden_dims", (8.7,), "each hidden layer width must be a positive integer, got 8.7"),
        ],
    )
    def test_non_integer_count_refused_at_construction(self, field, value, message):
        # these once constructed, then failed in training (epochs,
        # batch_size, seed) or were truncated (defer_epoch acted as 2, and
        # width 8.7 trained as 8 under its own config digest)
        with pytest.raises(ValueError, match=message):
            small_cfg(loss="bkd", **{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = small_cfg(
            loss="bkd", epochs=np.int64(4), batch_size=np.int32(16), seed=np.int64(3),
            defer_epoch=np.int64(2), hidden_dims=(np.int64(12),),
        )
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=1))
        _, log = train_student(train, test, teacher, cfg)
        _, expected = train_student(train, test, teacher, small_cfg(loss="bkd", epochs=4, defer_epoch=2))
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

        # replay the first batch by hand (the rows the run drew, fresh student)
        student = init_mlp((4, *cfg.hidden_dims, 2), cfg.seed)
        X, ys = batches.inputs[0], batches.labels[0]
        assert len(X) == cfg.batch_size
        logits, _ = forward(student, X)
        t_logits, _ = forward(teacher, X)
        phat = softmax_rows(t_logits, cfg.bkd.temperature)
        w = effective_number_weights(train.class_counts, cfg.bkd.beta)
        bkd_values, _ = objective_loss_batch(logits, ys, np.arange(len(ys)), cfg.bkd.objective(phat, w))
        ce_values, _ = objective_loss_batch(logits, ys, None, Objective())
        T = cfg.bkd.temperature
        log_pT = np.log(softmax_rows(logits, T))
        kl = (phat * (np.log(phat) - log_pT)).sum(axis=1)
        np.testing.assert_allclose(bkd_values, ce_values + T * T * kl, atol=1e-10)
        assert abs(recorded[0] - float(bkd_values.mean())) < 1e-12

    def test_teacher_parameters_untouched(self):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        before = params_to_bytes(teacher)
        train_student(train, test, teacher, small_cfg(loss="bkd", epochs=4))
        assert params_to_bytes(teacher) == before

    def test_defer_epoch_switches_loss(self, monkeypatch):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=4, defer_epoch=2)
        batches_per_epoch = math.ceil(len(train) / cfg.batch_size)
        batches = BatchRecorder(monkeypatch, teacher)
        train_student(train, test, teacher, cfg)
        per_epoch_first_batch = batches.take_losses()[::batches_per_epoch]

        # identical to a pure-kd run until the switch, different from it after
        cfg_kd = small_cfg(loss="kd", epochs=4)
        train_student(train, test, teacher, cfg_kd)
        kd_first_batch = batches.take_losses()[::batches_per_epoch]
        assert len(per_epoch_first_batch) == len(kd_first_batch) == cfg.epochs
        assert per_epoch_first_batch[0] == kd_first_batch[0]
        assert per_epoch_first_batch[1] == kd_first_batch[1]
        assert per_epoch_first_batch[2] != kd_first_batch[2]

    def test_defer_epoch_validation(self):
        with pytest.raises(ValueError):
            small_cfg(loss="kd", defer_epoch=2)
        with pytest.raises(ValueError):
            small_cfg(loss="bkd", defer_epoch=8)

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
        assert len(seen) == cfg.epochs * math.ceil(len(train) / cfg.batch_size)
        for w in seen:
            assert abs(w.sum() - train.num_classes) <= 1e-12
            np.testing.assert_allclose(w * raw.sum(), raw * train.num_classes, rtol=1e-14)

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
        assert seen[0].tobytes() == expected.tobytes()

    def test_weights_function_of_train_counts_only(self):
        train, _ = two_class_separable()
        w1 = effective_number_weights(train.class_counts, 0.999)
        w2 = effective_number_weights(train.class_counts, 0.999)
        np.testing.assert_array_equal(w1, w2)


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
            np.testing.assert_allclose(objective.targets[rows], expected, rtol=1e-12)
            return objective_loss_batch(Z, ys, rows, objective)

        monkeypatch.setattr(pipeline, "forward", student_forward)
        monkeypatch.setattr(pipeline, "objective_loss_batch", check_targets)
        train_student(train, test, teacher, cfg)
        assert len(batches) == cfg.epochs * math.ceil(len(train) / cfg.batch_size)

    @pytest.mark.parametrize(
        "loss, defer_epoch, builds",
        [("ce", None, 0), ("cb", None, 0), ("kd", None, 1), ("bkd", None, 1), ("bkd", 2, 2)],
    )
    def test_teacher_forwarded_once_per_row_in_batch_sized_chunks(self, loss, defer_epoch, builds, monkeypatch):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss=loss, epochs=4, defer_epoch=defer_epoch)
        teacher_rows = count_teacher_rows(monkeypatch, teacher)
        train_student(train, test, teacher, cfg)
        assert sum(teacher_rows) == builds * len(train)
        assert max(teacher_rows, default=0) <= cfg.batch_size

    def test_zero_epoch_run_never_forwards_teacher(self, monkeypatch, tmp_path):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=2)
        ckpt = str(tmp_path / "done.ckpt")
        train_student(train, test, teacher, cfg, out_ckpt=ckpt)
        teacher_rows = count_teacher_rows(monkeypatch, teacher)
        train_student(train, test, teacher, cfg, resume_from=ckpt)
        train_student(train, test, teacher, cfg, stop_after_epoch=0)
        assert teacher_rows == []


class TestCheckpointResume:
    def test_mid_run_resume_reproduces_uninterrupted_run(self, tmp_path):
        train, test = two_class_separable()
        cfg = small_cfg(epochs=8)
        full_params, full_log = train_teacher(train, test, cfg)

        ckpt = str(tmp_path / "mid.ckpt")
        train_teacher(train, test, cfg, out_ckpt=ckpt, stop_after_epoch=4)
        resumed_params, resumed_log = train_teacher(train, test, cfg, resume_from=ckpt)

        assert params_to_bytes(resumed_params) == params_to_bytes(full_params)
        assert metrics_to_csv(resumed_log) == metrics_to_csv(full_log)

    def test_student_mid_run_resume(self, tmp_path):
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=6)
        full_params, _ = train_student(train, test, teacher, cfg)
        ckpt = str(tmp_path / "mid.ckpt")
        train_student(train, test, teacher, cfg, out_ckpt=ckpt, stop_after_epoch=3)
        resumed_params, _ = train_student(train, test, teacher, cfg, resume_from=ckpt)
        assert params_to_bytes(resumed_params) == params_to_bytes(full_params)

    def test_student_resume_across_deferred_switch(self, tmp_path):
        # stop in the kd phase, resume through the switch to bkd
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        cfg = small_cfg(loss="bkd", epochs=4, defer_epoch=2)
        full_params, full_log = train_student(train, test, teacher, cfg)
        ckpt = str(tmp_path / "mid.ckpt")
        train_student(train, test, teacher, cfg, out_ckpt=ckpt, stop_after_epoch=1)
        resumed_params, resumed_log = train_student(train, test, teacher, cfg, resume_from=ckpt)
        assert params_to_bytes(resumed_params) == params_to_bytes(full_params)
        assert metrics_to_csv(resumed_log) == metrics_to_csv(full_log)

    def test_checkpoint_after_init_resumes_to_initial_state(self, tmp_path):
        train, test = two_class_separable()
        cfg = small_cfg(epochs=5)
        ckpt = str(tmp_path / "init.ckpt")
        params0, _ = train_teacher(train, test, cfg, out_ckpt=ckpt, stop_after_epoch=0)
        state = read_checkpoint(ckpt)
        assert state.epoch == 0
        assert params_to_bytes(state.params) == params_to_bytes(params0)

    def test_resume_from_missing_path(self):
        train, test = two_class_separable()
        with pytest.raises(FileNotFoundError):
            train_teacher(train, test, small_cfg(), resume_from="/nonexistent/x.ckpt")

    def test_resume_under_different_config_rejected(self, tmp_path):
        train, test = two_class_separable()
        ckpt = str(tmp_path / "a.ckpt")
        train_teacher(train, test, small_cfg(epochs=4), out_ckpt=ckpt, stop_after_epoch=2)
        with pytest.raises(ValueError, match="config"):
            train_teacher(train, test, small_cfg(epochs=4, seed=99), resume_from=ckpt)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"ckpt-v1" + b"\x00" * 10)
        with pytest.raises(ValueError):
            read_checkpoint(str(bad))
        not_ckpt = tmp_path / "not.ckpt"
        not_ckpt.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            read_checkpoint(str(not_ckpt))

    def test_velocity_that_does_not_fit_the_parameters_rejected(self, tmp_path):
        params = init_mlp((4, 12, 2), seed=0)
        path = str(tmp_path / "spliced.ckpt")

        def write_with_velocity_of(dims):
            opt = OptimizerState(init_optimizer(init_mlp(dims, seed=0)).vel, 0.9)
            write_checkpoint(path, RunState(params, opt, Rng(1), [], config_digest(small_cfg())))

        write_with_velocity_of((4, 12, 2))
        assert read_checkpoint(path).opt.vel.dims == (4, 12, 2)
        write_with_velocity_of((4, 12, 3))
        with pytest.raises(ValueError, match="spliced.ckpt: velocity dimensions"):
            read_checkpoint(path)

    @pytest.mark.parametrize("epoch", [2, -1, 5])
    def test_epoch_that_disagrees_with_the_log_rejected(self, tmp_path, epoch):
        # a 6-epoch run stopped after 4 logged epochs, its epoch field set to
        # another value; resuming at 2 would log epochs 0,1,2,3,2,3,4,5
        train, test = two_class_separable()
        cfg = small_cfg(epochs=6)
        path = str(tmp_path / "mid.ckpt")
        train_teacher(train, test, cfg, out_ckpt=path, stop_after_epoch=4)
        assert read_checkpoint(path).epoch == 4
        patch_checkpoint(path, EPOCH_FIELD, struct.pack("<q", 4), struct.pack("<q", epoch))
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value).startswith(f"{path}: epoch {epoch} ")
        with pytest.raises(ValueError, match="4 logged epochs"):
            train_teacher(train, test, cfg, resume_from=path)

    @pytest.mark.parametrize("row, numbered", [(0, 1), (2, 7)])
    def test_log_not_numbered_from_zero_in_steps_of_one_rejected(self, tmp_path, row, numbered):
        # a 6-epoch run stopped after 4 logged epochs, one row renumbered;
        # resuming would log epochs 0,1,7,3,4,5
        train, test = two_class_separable()
        cfg = small_cfg(epochs=6)
        path = str(tmp_path / "mid.ckpt")
        train_teacher(train, test, cfg, out_ckpt=path, stop_after_epoch=4)
        old, new = f"\n{row},".encode(), f"\n{numbered},".encode()
        with open(path, "rb") as fh:
            blob = fh.read()
        patch_checkpoint(path, blob.index(old, blob.index(pipeline.METRIC_HEADER.encode())), old, new)
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        logged = [0, 1, 2, 3]
        logged[row] = numbered
        assert str(info.value) == f"{path}: epoch 4 does not match the 4 logged epochs, numbered {logged}"
        with pytest.raises(ValueError, match="4 logged epochs"):
            train_teacher(train, test, cfg, resume_from=path)

    def test_log_not_numbered_from_zero_refused_at_write_time(self, tmp_path):
        # the rule read_checkpoint applies, so no file is written that it
        # would refuse
        params = init_mlp((4, 12, 2), seed=0)
        row = MetricRow(5, 0.5, 0.1, 0.5, None, None, None)
        state = RunState(params, init_optimizer(params), Rng(1), [row], config_digest(small_cfg()))
        path = str(tmp_path / "hand.ckpt")
        with pytest.raises(ValueError) as info:
            write_checkpoint(path, state)
        assert str(info.value) == f"{path}: epoch 1 does not match the 1 logged epochs, numbered [5]"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stop", [0, 3, None], ids=["0-epoch", "stopped", "finished"])
    @pytest.mark.parametrize("role", ["ce-teacher", "bkd-deferred-student"])
    def test_rewriting_a_read_checkpoint_reproduces_its_bytes(self, tmp_path, role, stop):
        # a RunState holds everything the file holds, and its epoch is the
        # length of its log
        train, test = two_class_separable()
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        if role == "ce-teacher":
            train_teacher(train, test, small_cfg(epochs=4), out_ckpt=a, stop_after_epoch=stop)
        else:
            teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
            cfg = small_cfg(loss="bkd", epochs=4, defer_epoch=2)
            train_student(train, test, teacher, cfg, out_ckpt=a, stop_after_epoch=stop)
        state = read_checkpoint(a)
        assert state.epoch == len(state.log_rows) == (4 if stop is None else stop)
        write_checkpoint(b, state)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_stop_before_the_resumed_epoch_keeps_the_checkpoint(self, tmp_path):
        train, test = two_class_separable()
        cfg = small_cfg(epochs=6)
        mid, again = str(tmp_path / "mid.ckpt"), str(tmp_path / "again.ckpt")
        train_teacher(train, test, cfg, out_ckpt=mid, stop_after_epoch=4)
        _, log = train_teacher(train, test, cfg, out_ckpt=again, resume_from=mid, stop_after_epoch=2)
        assert len(log) == 4
        with open(mid, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()

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

    def test_corrupt_parameter_blob_names_the_file(self, tmp_path):
        path = write_checkpoint_with_bad_fan_in(str(tmp_path / "bad-layer.ckpt"))
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
        python_ints = small_cfg(loss="bkd", epochs=4, defer_epoch=2, hidden_dims=[12])
        numpy_ints = small_cfg(
            loss="bkd", epochs=np.int64(4), batch_size=np.int32(16), seed=np.int64(3),
            defer_epoch=np.int64(2), hidden_dims=np.array([12]), many_thresh=np.int64(100), few_thresh=np.int16(20),
        )
        assert numpy_ints == python_ints
        assert type(numpy_ints.epochs) is int and numpy_ints.hidden_dims == (12,)
        # pinned: configs of Python ints keep their digest bytes, so the
        # checkpoints written before numpy integers were normalized resume
        assert config_digest(numpy_ints).hex() == "f3cfb11423e0d4a516237b1a3c22df431cac545d20724b45dd83a55798f8462d"
        assert config_digest(small_cfg()).hex() == "1b023586d02e99a92a2659288c2919acd09bbe5061f05243192aa722f3a595c2"
        train, test = two_class_separable()
        teacher, _ = train_teacher(train, test, small_cfg(epochs=3))
        full_params, _ = train_student(train, test, teacher, numpy_ints)
        ckpt = str(tmp_path / "mid.ckpt")
        train_student(train, test, teacher, python_ints, out_ckpt=ckpt, stop_after_epoch=1)
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
