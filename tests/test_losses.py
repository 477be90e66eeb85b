import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from longtail_kd.gradcheck import finite_difference_gradient
from longtail_kd.losses import (
    KDConfig,
    Objective,
    bkd_loss,
    bkd_objective,
    balanced_targets,
    cb_loss,
    ce_loss,
    distill_grad_formula,
    kd_loss,
    kd_objective,
    objective_loss_batch,
    softmax_rows,
)
from longtail_kd.mathutils import Rng, log_softmax_rows, softmax_with_temperature
from longtail_kd.weights import effective_number_weights


def random_case(rng, num_classes):
    z = 2.0 * rng.normal(num_classes)
    y = int(rng.uniform() * num_classes)
    w = np.exp(rng.normal(num_classes))
    phat_logits = 2.0 * rng.normal(num_classes)
    return z, y, w, phat_logits


def kl(p, q):
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


class TestCeLoss:
    def test_uniform_logits_value_is_log_c(self):
        for y in range(10):
            assert abs(ce_loss(np.zeros(10), y).value - math.log(10.0)) < 1e-14

    def test_two_class_gradient(self):
        np.testing.assert_allclose(ce_loss(np.zeros(2), 0).grad_logits, [-0.5, 0.5])

    def test_gradient_matches_finite_differences(self):
        rng = Rng(31)
        z, y, _, _ = random_case(rng, 5)
        fd = finite_difference_gradient(lambda v: ce_loss(v, y).value, z)
        assert np.abs(ce_loss(z, y).grad_logits - fd).max() < 1e-7

    def test_gradient_sums_to_zero(self):
        rng = Rng(32)
        for _ in range(30):
            z, y, _, _ = random_case(rng, 7)
            assert abs(ce_loss(z, y).grad_logits.sum()) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ce_loss(np.zeros(3), 3)


class TestCbLoss:
    def test_unit_weights_reduce_to_ce(self):
        rng = Rng(33)
        for _ in range(20):
            z, y, _, _ = random_case(rng, 6)
            a = cb_loss(z, y, np.ones(6))
            b = ce_loss(z, y)
            assert abs(a.value - b.value) < 1e-12
            assert np.abs(a.grad_logits - b.grad_logits).max() < 1e-12

    def test_two_class_half_weight(self):
        r = cb_loss(np.zeros(2), 0, np.array([0.5, 1.0]))
        assert abs(r.value - 0.5 * math.log(2.0)) < 1e-15
        np.testing.assert_allclose(r.grad_logits, [-0.25, 0.25])

    def test_gradient_matches_finite_differences(self):
        rng = Rng(34)
        for _ in range(20):
            z, y, w, _ = random_case(rng, 5)
            fd = finite_difference_gradient(lambda v: cb_loss(v, y, w).value, z)
            assert np.abs(cb_loss(z, y, w).grad_logits - fd).max() < 1e-7

    def test_gradient_is_exactly_scaled_ce_gradient(self):
        # the head-suppression claim: re-weighting rescales every gradient
        # component by exactly the true class's weight
        rng = Rng(35)
        counts = np.array([10_000, 2_000, 400, 80, 16, 3])
        w = effective_number_weights(counts, 0.999)
        for _ in range(20):
            z, y, _, _ = random_case(rng, 6)
            ce_grad = ce_loss(z, y).grad_logits
            cb_grad = cb_loss(z, y, w).grad_logits
            np.testing.assert_array_equal(cb_grad, w[y] * ce_grad)
            if w[y] < 1.0:  # head class: encouraging gradient strictly shrinks
                assert abs(cb_grad[y]) < abs(ce_grad[y])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            cb_loss(np.zeros(2), 0, np.array([1.0, 0.0]))


def cb_closed_form(z, y, w):
    """cb's gradient as the one closed form: distillation toward e_y at
    T = 1 with coefs (0, w_y)."""
    return distill_grad_formula(z, np.eye(len(z))[y], y, 0.0, w[y], 1.0)


class TestCbClosedForm:
    def test_matches_cb_loss_gradient_exactly(self):
        rng = Rng(36)
        for _ in range(50):
            z, y, w, _ = random_case(rng, 8)
            assert np.abs(cb_closed_form(z, y, w) - cb_loss(z, y, w).grad_logits).max() < 1e-12

    def test_unit_weight_two_class(self):
        np.testing.assert_allclose(cb_closed_form(np.zeros(2), 0, np.ones(2)), [-0.5, 0.5])

    def test_matches_finite_differences_of_weighted_ce(self):
        rng = Rng(37)
        for _ in range(20):
            z, y, w, _ = random_case(rng, 5)
            fd = finite_difference_gradient(lambda v: cb_loss(v, y, w).value, z)
            assert np.abs(cb_closed_form(z, y, w) - fd).max() < 1e-7


class TestKdLoss:
    def test_student_matching_teacher_kills_kl_term(self):
        rng = Rng(38)
        z, y, _, _ = random_case(rng, 5)
        phat = softmax_with_temperature(z, 2.0)
        r = kd_loss(z, phat, y, alpha=0.3, temperature=2.0)
        assert abs(r.value - 0.3 * ce_loss(z, y).value) < 1e-12

    def test_alpha_one_is_plain_ce(self):
        rng = Rng(39)
        z, y, _, tl = random_case(rng, 6)
        phat = softmax_with_temperature(tl, 4.0)
        r = kd_loss(z, phat, y, alpha=1.0, temperature=4.0)
        c = ce_loss(z, y)
        assert abs(r.value - c.value) < 1e-12
        assert np.abs(r.grad_logits - c.grad_logits).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = Rng(40)
        for T in (1.0, 2.0, 4.0):
            z, y, _, tl = random_case(rng, 5)
            phat = softmax_with_temperature(tl, T)
            fd = finite_difference_gradient(lambda v: kd_loss(v, phat, y, alpha=0.5, temperature=T).value, z)
            assert np.abs(kd_loss(z, phat, y, alpha=0.5, temperature=T).grad_logits - fd).max() < 1e-7

    def test_zero_teacher_entries_contribute_nothing(self):
        z = np.array([0.3, -0.2, 0.6])
        phat = np.array([0.0, 0.25, 0.75])
        r = kd_loss(z, phat, y=1, alpha=0.0, temperature=2.0)
        p = softmax_with_temperature(z, 2.0)
        assert abs(r.value - 4.0 * kl(phat, p)) < 1e-12
        assert np.isfinite(r.grad_logits).all()

    def test_huge_logit_below_unit_temperature_gives_no_nan(self):
        # KL(phat || p_T) correctly rounds to +inf here; the gradient is finite
        r = kd_loss([1e308, 0.0], [0.5, 0.5], 0, alpha=0.5, temperature=0.5)
        assert r.value == math.inf
        np.testing.assert_array_equal(r.grad_logits, [0.125, -0.125])

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"alpha": 1.5, "temperature": 2.0}, "alpha must lie in [0, 1], got 1.5"),
            ({"alpha": 0.5, "temperature": 0}, "temperature must be a positive finite real, got 0"),
        ],
        ids=["alpha-1.5", "temperature-0"],
    )
    def test_invalid_settings_rejected(self, settings, message):
        # the loss once took a KDConfig; the record and the loss share one rule per setting
        for make in (lambda: kd_loss(np.zeros(2), np.array([0.5, 0.5]), 0, **settings), lambda: KDConfig(**settings)):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == message

    def test_teacher_probs_validated(self):
        with pytest.raises(ValueError):
            kd_loss(np.zeros(2), np.array([0.9, 0.3]), 0, alpha=0.5, temperature=2.0)


class TestBkdLoss:
    def test_constant_weights_reduce_to_ce_plus_scaled_kl(self):
        rng = Rng(41)
        for T in (1.0, 2.0, 4.0):
            z, y, _, tl = random_case(rng, 6)
            phat = softmax_with_temperature(tl, T)
            r = bkd_loss(z, phat, y, 0.37 * np.ones(6), temperature=T)
            expected = ce_loss(z, y).value + T * T * kl(phat, softmax_with_temperature(z, T))
            assert abs(r.value - expected) < 1e-10
            kd_r = kd_loss(z, phat, y, alpha=0.5, temperature=T)
            assert np.abs(r.grad_logits - 2.0 * kd_r.grad_logits).max() < 1e-10

    def test_uniform_everything_leaves_pure_ce(self):
        C = 4
        r = bkd_loss(np.zeros(C), np.full(C, 1.0 / C), 2, np.ones(C), temperature=2.0)
        assert abs(r.value - math.log(C)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = Rng(42)
        counts = np.array([100, 50, 20, 8, 2])
        w = effective_number_weights(counts, 0.99)
        for T in (1.0, 2.0, 4.0):
            z, y, _, tl = random_case(rng, 5)
            phat = softmax_with_temperature(tl, T)
            fd = finite_difference_gradient(lambda v: bkd_loss(v, phat, y, w, temperature=T).value, z)
            assert np.abs(bkd_loss(z, phat, y, w, temperature=T).grad_logits - fd).max() < 1e-7

    def test_distillation_term_nonnegative(self):
        # Gibbs' inequality must survive the reweighting because the weighted
        # teacher targets are renormalized to a distribution
        rng = Rng(43)
        for _ in range(1000):
            C = 2 + int(rng.uniform() * 9)
            z, y, w, tl = random_case(rng, C)
            T = (1.0, 2.0, 4.0)[int(rng.uniform() * 3)]
            phat = softmax_with_temperature(tl, T)
            distill = bkd_loss(z, phat, y, w, temperature=T).value - ce_loss(z, y).value
            assert distill >= -1e-12

    def test_invalid_temperature_rejected(self):
        # the loss once took a BKDConfig, whose beta it never read
        with pytest.raises(ValueError) as info:
            bkd_loss(np.zeros(2), np.array([0.5, 0.5]), 0, np.ones(2), temperature=0)
        assert str(info.value) == "temperature must be a positive finite real, got 0"

    # each entry point under the one teacher-probability rule: the argument's
    # name, what it returns for a teacher matrix (the per-sample three take
    # its first row), and that value for [[0.5, 0.5]] at z = 0, y = 0
    @pytest.mark.parametrize("name, build, valid", [
        ("teacher_probs", lambda p: kd_objective(p, alpha=0.5, temperature=2.0).targets, [[0.5, 0.5]]),
        ("teacher_probs", lambda p: bkd_objective(p, np.ones(2), temperature=2.0).targets, [[0.5, 0.5]]),
        ("teacher_probs", lambda p: kd_loss(np.zeros(2), p[0], 0, alpha=0.5, temperature=2.0).grad_logits, [-0.25, 0.25]),
        ("teacher_probs", lambda p: bkd_loss(np.zeros(2), p[0], 0, np.ones(2), temperature=2.0).grad_logits, [-0.5, 0.5]),
        ("targets", lambda p: distill_grad_formula(np.zeros(2), p[0], 0, 0.5, 0.5, 2.0), [-0.25, 0.25]),
    ], ids=["kd", "bkd", "kd_loss", "bkd_loss", "distill_grad_formula"])
    def test_both_objectives_check_the_teacher_matrix_alike(self, name, build, valid):
        # kd_objective once raised AttributeError on a list, kept a NaN row as
        # a target, and took a row summing to 0.2, whose distillation term
        # then went negative
        got = build([[0.5, 0.5]])
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, valid)
        for bad in ([[math.nan, 0.5]], [[-0.5, 1.5]], [[0.1, 0.1]], [0.5, 0.5], [["0.5", "0.5"]]):
            with pytest.raises(ValueError) as info:
                build(bad)
            rule = "must be a matrix of finite nonnegative rows that each sum to 1 within 1e-9, got "
            assert str(info.value).startswith(f"{name} {rule}")

    def test_zero_weighted_teacher_mass_is_internal_error(self):
        # a distribution times positive weights has positive mass unless
        # every product underflows, as with these subnormal weights
        with pytest.raises(RuntimeError, match="mass"):
            balanced_targets([[0.1] * 10], [5e-324] * 10)

    def test_weight_scale_cancels(self):
        rng = Rng(44)
        z, y, w, tl = random_case(rng, 5)
        phat = softmax_with_temperature(tl, 2.0)
        a = bkd_loss(z, phat, y, w, temperature=2.0)
        b = bkd_loss(z, phat, y, 1000.0 * w, temperature=2.0)
        assert abs(a.value - b.value) < 1e-10
        assert np.abs(a.grad_logits - b.grad_logits).max() < 1e-12


def balanced(phat, w):
    """The balanced target q = w * phat / sum(w * phat), built apart from the kernel."""
    q = w * phat
    return q / q.sum()


class TestDistillGradFormula:
    def test_matches_kd_and_bkd_gradients(self):
        rng = Rng(45)
        for i in range(60):
            z, y, w, tl = random_case(rng, 2 + i % 9)
            T = (1.0, 2.0, 4.0)[i % 3]
            alpha = (i % 5) / 4
            phat = softmax_with_temperature(tl, T)
            kd = kd_loss(z, phat, y, alpha=alpha, temperature=T).grad_logits
            assert np.abs(distill_grad_formula(z, phat, y, alpha, 1.0 - alpha, T) - kd).max() <= 1e-12
            bkd = bkd_loss(z, phat, y, w, temperature=T).grad_logits
            assert np.abs(distill_grad_formula(z, balanced(phat, w), y, 1.0, 1.0, T) - bkd).max() <= 1e-12

    def test_matches_finite_differences_of_bkd_loss(self):
        rng = Rng(47)
        for i in range(20):
            z, y, w, tl = random_case(rng, 6)
            T = (1.0, 2.0, 4.0)[i % 3]
            phat = softmax_with_temperature(tl, T)
            fd = finite_difference_gradient(lambda v: bkd_loss(v, phat, y, w, temperature=T).value, z)
            assert np.abs(distill_grad_formula(z, balanced(phat, w), y, 1.0, 1.0, T) - fd).max() < 1e-7

    def test_zero_kl_coef_is_the_ce_gradient(self):
        rng = Rng(46)
        z, y, w, tl = random_case(rng, 5)
        phat = softmax_with_temperature(tl, 4.0)
        g = distill_grad_formula(z, balanced(phat, w), y, 1.0, 0.0, 4.0)
        assert np.abs(g - ce_loss(z, y).grad_logits).max() < 1e-12

    def test_target_equal_to_the_student_leaves_only_ce(self):
        # at T = 1 a target equal to softmax(z) zeroes the distillation term
        rng = Rng(48)
        z, y, _, _ = random_case(rng, 4)
        p = softmax_with_temperature(z, 1.0)
        g = distill_grad_formula(z, p, y, 0.5, 0.5, 1.0)
        assert np.abs(g - 0.5 * (p - np.eye(4)[y])).max() < 1e-12

    def test_logits_far_from_zero_stay_finite(self):
        z = np.array([900.0, 850.0, -700.0])
        phat = np.array([0.2, 0.3, 0.5])
        for T in (0.5, 1.0, 4.0):
            g = distill_grad_formula(z, phat, 1, 1.0, 1.0, T)
            assert np.isfinite(g).all()
            kd = kd_loss(z, phat, 1, alpha=0.5, temperature=T).grad_logits
            assert np.abs(0.5 * g - kd).max() < 1e-12

    @pytest.mark.parametrize(
        "targets, temperature",
        [([0.5, 0.6, -0.1], 2.0), ([0.5, 0.5], 2.0), ([0.2, 0.3, 0.4], 2.0), ([0.2, 0.3, 0.5], 0.0)],
    )
    def test_invalid_inputs_rejected(self, targets, temperature):
        with pytest.raises(ValueError):
            distill_grad_formula(np.zeros(3), targets, 0, 1.0, 1.0, temperature)


class TestBatchConsistency:
    def test_batch_rows_equal_per_sample_calls(self):
        rng = Rng(49)
        C, N = 7, 23
        Z = 2.0 * rng.normal((N, C))
        TL = 2.0 * rng.normal((N, C))
        ys = (rng.uniform(N) * C).astype(np.int64)
        w = np.exp(rng.normal(C))
        phat = np.vstack([softmax_with_temperature(TL[i], 2.0) for i in range(N)])

        rows = np.arange(N)
        cev, ceg = objective_loss_batch(Z, ys, None, Objective())
        cbv, cbg = objective_loss_batch(Z, ys, None, Objective(w))
        kdv, kdg = objective_loss_batch(Z, ys, rows, kd_objective(phat, alpha=0.3, temperature=2.0))
        bkv, bkg = objective_loss_batch(Z, ys, rows, bkd_objective(phat, w, temperature=2.0))
        for i in range(N):
            y = int(ys[i])
            r = ce_loss(Z[i], y)
            assert r.value == cev[i] and np.array_equal(r.grad_logits, ceg[i])
            r = cb_loss(Z[i], y, w)
            assert r.value == cbv[i] and np.array_equal(r.grad_logits, cbg[i])
            r = kd_loss(Z[i], phat[i], y, alpha=0.3, temperature=2.0)
            assert r.value == kdv[i] and np.array_equal(r.grad_logits, kdg[i])
            r = bkd_loss(Z[i], phat[i], y, w, temperature=2.0)
            assert r.value == bkv[i] and np.array_equal(r.grad_logits, bkg[i])

    @pytest.mark.parametrize("loss", ["ce", "cb", "kd", "bkd"])
    def test_minibatches_ending_in_one_row_equal_the_whole_batch(self, loss):
        # in float32, as a run trains, and with N % batch_size == 1, so the
        # last minibatch is a single row
        rng = Rng(50)
        C, N, batch_size = 20, 129, 64
        Z = (2.0 * rng.normal((N, C))).astype(np.float32)
        ys = (rng.uniform(N) * C).astype(np.int64)
        w = np.exp(rng.normal(C))
        phat = softmax_rows(2.0 * rng.normal((N, C)), 2.0)
        objective = {
            "ce": Objective(),
            "cb": Objective(w),
            "kd": kd_objective(phat, alpha=0.3, temperature=2.0),
            "bkd": bkd_objective(phat, w, temperature=2.0),
        }[loss]
        rounded = lambda a: None if a is None else a.astype(np.float32)
        objective = replace(objective, ce_weights=rounded(objective.ce_weights), targets=rounded(objective.targets))
        rows = np.arange(N)
        whole = objective_loss_batch(Z, ys, rows, objective)
        parts = [
            objective_loss_batch(Z[s : s + batch_size], ys[s : s + batch_size], rows[s : s + batch_size], objective)
            for s in range(0, N, batch_size)
        ]
        assert [len(values) for values, _ in parts] == [64, 64, 1]
        for got, want in zip(map(np.concatenate, zip(*parts)), whole):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def two_softmax_reference(Z, targets, ys, ce_coef, kl_coef, T):
    """The distillation kernel with one max-shift per softmax and the KL
    summed over a masked gather, each row's sum added in class order, one
    class column after another."""

    def class_sum(A):
        return functools.reduce(np.add, A.T)

    def log_softmax(Z, T):
        with np.errstate(over="ignore"):
            s = (Z - Z.max(axis=1, keepdims=True)) / T
        return s - np.log(class_sum(np.exp(s)))[:, None]

    rows = np.arange(Z.shape[0])
    log_p = log_softmax(Z, 1.0)
    ce_values = -log_p[rows, ys]
    ce_grads = np.exp(log_p)
    ce_grads[rows, ys] -= 1.0
    log_p_T = log_softmax(Z, T)
    mask = targets > 0
    contrib = np.zeros_like(targets)
    contrib[mask] = targets[mask] * (np.log(targets[mask]) - log_p_T[mask])
    values = ce_coef * ce_values + kl_coef * (T * T) * class_sum(contrib)
    grads = ce_coef * ce_grads + kl_coef * T * (np.exp(log_p_T) - targets)
    return values, grads


class TestDistillKernelBits:
    @pytest.mark.parametrize("T", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    def test_one_shift_kernel_matches_two_softmax_reference(self, T):
        rng = Rng(81)
        C, N = 10, 64
        w = np.exp(rng.normal(C))
        for trial in range(20):
            Z = (1.0 + 4.0 * trial) * rng.normal((N, C))
            phat = np.exp(6.0 * rng.normal((N, C)))
            phat[rng.uniform((N, C)) < 0.2] = 0.0  # exact zeros in the targets
            phat[:, 0] += 1e-3
            phat /= phat.sum(axis=1, keepdims=True)
            ys = (rng.uniform(N) * C).astype(np.int64)
            kd, bkd = kd_objective(phat, alpha=0.3, temperature=T), bkd_objective(phat, w, temperature=T)
            for objective, ce_coef in ((kd, 0.3), (bkd, 1.0)):
                with np.errstate(divide="ignore", invalid="ignore"):  # the kernel's caller holds its scope: zero targets
                    got = objective_loss_batch(Z, ys, np.arange(N), objective)
                ref = two_softmax_reference(Z, objective.targets, ys, ce_coef, objective.kl_coef, T)
                for a, b in zip(got, ref):
                    assert a.tobytes() == b.tobytes()

    def test_ce_gradient_of_column_major_logits(self):
        # the label entries are found by flat index; the layout must not matter
        Z = Rng(82).normal((5, 3))
        ys = np.array([0, 2, 1, 1, 0])
        ce = Objective()
        values, grads = objective_loss_batch(np.asfortranarray(Z), ys, None, ce)
        ref_values, ref_grads = objective_loss_batch(Z, ys, None, ce)
        np.testing.assert_allclose(values, ref_values, rtol=1e-15)
        np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=1e-15)


def removed_ce_loss_batch(Z, ys):
    """The cross-entropy batch formula the kernel replaced: -log_softmax[y]
    and softmax - e_y."""
    rows = np.arange(len(ys))
    log_p = log_softmax_rows(Z)
    grads = np.exp(log_p)
    grads[rows, ys] -= 1.0
    return -log_p[rows, ys], grads


def removed_cb_loss_batch(Z, ys, w):
    """The class-weighted batch formula the kernel replaced: the
    cross-entropy rows scaled by w[y]."""
    values, grads = removed_ce_loss_batch(Z, ys)
    return w[ys] * values, w[ys][:, None] * grads


class TestObjectiveKernelBits:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0])
    def test_ce_and_cb_objectives_match_the_removed_formulas(self, scale):
        # the labels' own entries dominate at the larger scales, where a
        # loss of -0.0 shows whether the sign of zero is kept
        rng = Rng(83)
        for trial in range(50):
            C = 2 + int(rng.uniform() * 29)
            N = 1 + int(rng.uniform() * 80)
            Z = scale * rng.normal((N, C))
            ys = (rng.uniform(N) * C).astype(np.int64)
            w = np.exp(rng.normal(C))
            for got, ref in (
                (objective_loss_batch(Z, ys, None, Objective()), removed_ce_loss_batch(Z, ys)),
                (objective_loss_batch(Z, ys, None, Objective(np.ones(C))), removed_ce_loss_batch(Z, ys)),
                (objective_loss_batch(Z, ys, None, Objective(w)), removed_cb_loss_batch(Z, ys, w)),
            ):
                for a, b in zip(got, ref):
                    assert a.tobytes() == b.tobytes()


def test_softmax_of_zero_column_logits_refused():
    # numpy's own refusal, from the row max, would name neither the logits nor the rule
    with pytest.raises(ValueError, match=r"^logits must be a matrix of finite reals with at least one column, got"):
        softmax_rows(np.zeros((2, 0)))
