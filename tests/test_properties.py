"""Property tests for the softmax, the distillation kernels and the
accuracy report."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from longtail_kd.data import FEW, MANY, MEDIUM, SubsetTags
from longtail_kd.evaluate import accuracy_report
from longtail_kd.losses import balanced_targets, distill_loss_batch, softmax_rows
from longtail_kd.mathutils import softmax_with_temperature

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
        values, _ = distill_loss_batch(Z, targets, ys, 0.0, 1.0, T)
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
        float(correct[labels == c].mean()) if (labels == c).any() else None for c in range(len(tags.tags))
    )

    def subset_acc(tag):
        mask = np.isin(labels, tags.classes_tagged(tag))
        return float(correct[mask].mean()) if mask.any() else None

    return (float(correct.mean()), subset_acc(MANY), subset_acc(MEDIUM), subset_acc(FEW), per_class, preds.size)


@st.composite
def labelled_predictions(draw):
    c, n = draw(st.integers(1, 9)), draw(st.integers(1, 60))
    # labels drawn from a few classes only, so some classes have no test rows
    present = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c, unique=True))
    labels = np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)), dtype=np.int64)
    preds = draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    tags = SubsetTags(tuple(draw(st.lists(st.sampled_from((MANY, MEDIUM, FEW)), min_size=c, max_size=c))))
    return preds, labels, tags


@property_settings
@given(labelled_predictions())
def test_bincount_report_equals_the_per_class_loop(case):
    preds, labels, tags = case
    r = accuracy_report(preds, labels, tags)
    assert (r.overall, r.many, r.medium, r.few, r.per_class, r.n) == looped_accuracy_report(preds, labels, tags)
