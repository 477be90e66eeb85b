"""Property tests for the softmax, the distillation kernels, the accuracy
report, the chunked dataset writer and training under extreme finite
configs."""

import functools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from longtail_kd import data as data_module
from longtail_kd.data import (
    FEW,
    MANY,
    MEDIUM,
    ImbalanceProfile,
    LabeledDataset,
    make_longtail_counts,
    save_dataset,
    synth_gaussian_mixture,
)
from longtail_kd.evaluate import accuracy_report, confusion_matrix
from longtail_kd.losses import BKDConfig, KDConfig, Objective, balanced_targets, objective_loss_batch, softmax_rows
from longtail_kd.mathutils import softmax_with_temperature
from longtail_kd.mlp import LrSchedule, forward
from longtail_kd.pipeline import LOSS_KINDS, TrainConfig, train_student, train_teacher
from test_data import F32_SPECIALS, _reference_csv, _reference_sidecar

# derandomized and without an example database, so every run checks the same cases
property_settings = settings(max_examples=60, derandomize=True, database=None, deadline=None)

temperatures = st.floats(1e-3, 1e3)


def vectors(bound, min_size=2, max_size=12):
    return arrays(np.float64, st.integers(min_size, max_size), elements=st.floats(-bound, bound))


@property_settings
@given(vectors(1e300), temperatures)
def test_softmax_finite_and_normalized(z, T):
    p = softmax_with_temperature(z, T)
    assert np.isfinite(p).all()
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) <= 1e-12


@property_settings
@given(vectors(100.0), st.floats(-100.0, 100.0), temperatures)
def test_softmax_shift_invariant(z, shift, T):
    np.testing.assert_allclose(softmax_with_temperature(z + shift, T), softmax_with_temperature(z, T), rtol=0, atol=1e-9)


@st.composite
def distill_batches(draw):
    n, c = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    logits = st.floats(-50.0, 50.0)
    Z = draw(arrays(np.float64, (n, c), elements=logits))
    teacher_logits = draw(arrays(np.float64, (n, c), elements=logits))
    ys = draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    w = draw(arrays(np.float64, c, elements=st.floats(1e-3, 1e3)))
    return Z, teacher_logits, ys, w, draw(temperatures)


@property_settings
@given(distill_batches())
def test_distillation_term_nonnegative(batch):
    Z, teacher_logits, ys, w, T = batch
    phat = softmax_rows(teacher_logits, T)
    for targets in (phat, balanced_targets(phat, w)):
        kl_only = Objective(np.zeros(Z.shape[1]), targets, 1.0, T)
        with np.errstate(divide="ignore", invalid="ignore"):  # the kernel's caller holds its scope: a target may be 0
            values, _ = objective_loss_batch(Z, ys, np.arange(len(ys)), kl_only)
        assert np.all(values / (T * T) >= -1e-12)


@property_settings
@given(distill_batches(), st.floats(1e-3, 1e3))
def test_balanced_targets_ignore_weight_scale(batch, c):
    _, teacher_logits, _, w, T = batch
    phat = softmax_rows(teacher_logits, T)
    np.testing.assert_allclose(balanced_targets(phat, c * w), balanced_targets(phat, w), rtol=1e-12, atol=1e-300)


def looped_accuracy_report(preds, labels, tags):
    """The report as a per-class loop of boolean means with np.isin subsets."""
    correct = preds == labels
    per_class = tuple(
        float(correct[labels == c].mean()) if (labels == c).any() else None for c in range(len(tags))
    )

    def subset_acc(tag):
        mask = np.isin(labels, [c for c, t in enumerate(tags) if t == tag])
        return float(correct[mask].mean()) if mask.any() else None

    return (float(correct.mean()), subset_acc(MANY), subset_acc(MEDIUM), subset_acc(FEW), per_class, preds.size)


@st.composite
def labelled_predictions(draw):
    c, n = draw(st.integers(1, 9)), draw(st.integers(1, 60))
    # labels drawn from a few classes only, so some classes have no test rows
    present = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c, unique=True))
    labels = np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)), dtype=np.int64)
    preds = draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    tags = tuple(draw(st.lists(st.sampled_from((MANY, MEDIUM, FEW)), min_size=c, max_size=c)))
    return preds, labels, tags


@property_settings
@given(labelled_predictions())
def test_bincount_report_equals_the_per_class_loop(case):
    preds, labels, tags = case
    r = accuracy_report(preds, labels, tags)
    assert (r.overall, r.many, r.medium, r.few, r.per_class, r.n) == looped_accuracy_report(preds, labels, tags)


def scattered_confusion_matrix(preds, labels, num_classes):
    """The confusion tally as one unbuffered ``np.add.at`` per (true, predicted) pair."""
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(m, (labels, preds), 1)
    return m


@property_settings
@given(labelled_predictions())
def test_bincount_confusion_equals_the_scattered_tally(case):
    preds, labels, tags = case
    m = confusion_matrix(preds, labels, len(tags))
    assert m.dtype == np.int64
    np.testing.assert_array_equal(m, scattered_confusion_matrix(preds, labels, len(tags)))


def special_dataset(rows, dim=3):
    """``rows`` rows cycling through float32's signed zeros, subnormals and extreme magnitudes."""
    features = np.resize(F32_SPECIALS, rows * dim).reshape(rows, dim)
    return LabeledDataset(features, np.arange(rows) % 2, num_classes=2)


@st.composite
def datasets(draw):
    n, d, c = draw(st.integers(1, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
    features = draw(arrays(np.float32, (n, d), elements=st.one_of(st.sampled_from(F32_SPECIALS.tolist()), finite)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    return LabeledDataset(features, labels, c)


@property_settings
@given(datasets(), st.integers(1, 8))
@example(special_dataset(1), 1)  # one row, one chunk
@example(special_dataset(10), 4)  # chunks of 4, 4 and 2 rows
@example(special_dataset(23), 4)  # 5 chunks of 4 and 1 of 3
def test_save_bytes_equal_the_row_at_a_time_writer(data, chunk_rows):
    expected_csv = _reference_csv(data)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_CHUNK_ROWS", chunk_rows)
        path = os.path.join(tmp, "train.csv")
        save_dataset(data, path)
        with open(path, "rb") as fh:
            assert fh.read() == expected_csv
        with open(path + ".bin", "rb") as fh:
            assert fh.read() == _reference_sidecar(data, expected_csv)
        assert sorted(os.listdir(tmp)) == ["train.csv", "train.csv.bin"]


@functools.cache
def tiny_run_inputs():
    """A 24-row three-class train split, its test split and a teacher
    trained on them."""
    counts = make_longtail_counts(ImbalanceProfile("exponential", 8.0, 16, 3))
    train, test = synth_gaussian_mixture(counts, 3, 3.0, 1, 4)
    teacher, _ = train_teacher(train, test, TrainConfig(epochs=2, batch_size=8, hidden_dims=(6,)))
    return train, test, teacher


def log_uniform(lo, hi):
    """Floats spread evenly in log10 over [lo, hi]."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@property_settings
@given(
    st.sampled_from(LOSS_KINDS),
    log_uniform(1e-3, 1e300),  # learning rate
    log_uniform(1e-300, 1e300),  # temperature
    st.sampled_from([0.0, 0.5, 1 - 1e-6]),  # momentum
    st.sampled_from([0.0, 1e-3, 1e3, 1e300]),  # weight decay
    st.sampled_from([1e-12, 0.5, 1 - 1e-12]),  # beta
)
def test_extreme_finite_config_stops_by_name_or_ends_with_finite_logits(loss, lr, T, momentum, decay, beta):
    # a run whose last step left finite weights but overflowing test logits
    # once ended silently, with argmax classes made of them
    train, test, teacher = tiny_run_inputs()
    cfg = TrainConfig(
        loss=loss,
        epochs=2,
        batch_size=8,
        hidden_dims=(6,),
        schedule=LrSchedule("constant", lr),
        momentum=momentum,
        weight_decay=decay,
        kd=KDConfig(0.5, T),
        bkd=BKDConfig(beta, T),
    )
    try:
        params, log = train_student(train, test, teacher, cfg)
    except RuntimeError as exc:
        assert str(exc).startswith("training diverged: non-finite ")
        return
    with np.errstate(all="ignore"):  # overflow is the point
        logits, _ = forward(params, test.features)
    assert np.isfinite(params.flat).all()
    assert np.isfinite(logits).all()
    assert [row.epoch for row in log] == [0, 1]
    assert all(math.isfinite(value) for row in log for value in (row.loss, row.lr, row.acc_all))
