import math

import numpy as np
import pytest

from longtail_kd.gradcheck import finite_difference_gradient
from longtail_kd.losses import (
    BKDConfig,
    KDConfig,
    bkd_grad_formula,
    bkd_loss,
    balanced_targets,
    cb_grad_formula,
    cb_loss,
    cb_loss_batch,
    ce_loss,
    ce_loss_batch,
    distill_loss_batch,
    kd_loss,
)
from longtail_kd.mathutils import Rng, one_hot, softmax_with_temperature
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


class TestCbGradFormula:
    def test_matches_cb_loss_gradient_exactly(self):
        rng = Rng(36)
        for _ in range(50):
            z, y, w, _ = random_case(rng, 8)
            assert np.abs(cb_grad_formula(z, y, w) - cb_loss(z, y, w).grad_logits).max() < 1e-12

    def test_unit_weight_two_class(self):
        np.testing.assert_allclose(cb_grad_formula(np.zeros(2), 0, np.ones(2)), [-0.5, 0.5])

    def test_matches_finite_differences_of_weighted_ce(self):
        rng = Rng(37)
        for _ in range(20):
            z, y, w, _ = random_case(rng, 5)
            fd = finite_difference_gradient(lambda v: cb_loss(v, y, w).value, z)
            assert np.abs(cb_grad_formula(z, y, w) - fd).max() < 1e-7


class TestKdLoss:
    def test_student_matching_teacher_kills_kl_term(self):
        rng = Rng(38)
        z, y, _, _ = random_case(rng, 5)
        cfg = KDConfig(alpha=0.3, temperature=2.0)
        phat = softmax_with_temperature(z, cfg.temperature)
        r = kd_loss(z, phat, y, cfg)
        assert abs(r.value - cfg.alpha * ce_loss(z, y).value) < 1e-12

    def test_alpha_one_is_plain_ce(self):
        rng = Rng(39)
        z, y, _, tl = random_case(rng, 6)
        phat = softmax_with_temperature(tl, 4.0)
        r = kd_loss(z, phat, y, KDConfig(alpha=1.0, temperature=4.0))
        c = ce_loss(z, y)
        assert abs(r.value - c.value) < 1e-12
        assert np.abs(r.grad_logits - c.grad_logits).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = Rng(40)
        for T in (1.0, 2.0, 4.0):
            z, y, _, tl = random_case(rng, 5)
            cfg = KDConfig(alpha=0.5, temperature=T)
            phat = softmax_with_temperature(tl, T)
            fd = finite_difference_gradient(lambda v: kd_loss(v, phat, y, cfg).value, z)
            assert np.abs(kd_loss(z, phat, y, cfg).grad_logits - fd).max() < 1e-7

    def test_zero_teacher_entries_contribute_nothing(self):
        z = np.array([0.3, -0.2, 0.6])
        phat = np.array([0.0, 0.25, 0.75])
        cfg = KDConfig(alpha=0.0, temperature=2.0)
        r = kd_loss(z, phat, y=1, cfg=cfg)
        p = softmax_with_temperature(z, 2.0)
        assert abs(r.value - 4.0 * kl(phat, p)) < 1e-12
        assert np.isfinite(r.grad_logits).all()

    def test_huge_logit_below_unit_temperature_gives_no_nan(self):
        # KL(phat || p_T) correctly rounds to +inf here; the gradient is finite
        r = kd_loss([1e308, 0.0], [0.5, 0.5], 0, KDConfig(alpha=0.5, temperature=0.5))
        assert r.value == math.inf
        np.testing.assert_array_equal(r.grad_logits, [0.125, -0.125])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            KDConfig(alpha=1.5)
        with pytest.raises(ValueError):
            KDConfig(temperature=0.0)
        with pytest.raises(ValueError):
            kd_loss(np.zeros(2), np.array([0.5, 0.5]), 0, cfg=None)

    def test_teacher_probs_validated(self):
        with pytest.raises(ValueError):
            kd_loss(np.zeros(2), np.array([0.9, 0.3]), 0, KDConfig())


class TestBkdLoss:
    def test_constant_weights_reduce_to_ce_plus_scaled_kl(self):
        rng = Rng(41)
        for T in (1.0, 2.0, 4.0):
            z, y, _, tl = random_case(rng, 6)
            phat = softmax_with_temperature(tl, T)
            cfg = BKDConfig(temperature=T)
            r = bkd_loss(z, phat, y, 0.37 * np.ones(6), cfg)
            expected = ce_loss(z, y).value + T * T * kl(phat, softmax_with_temperature(z, T))
            assert abs(r.value - expected) < 1e-10
            kd_r = kd_loss(z, phat, y, KDConfig(alpha=0.5, temperature=T))
            assert np.abs(r.grad_logits - 2.0 * kd_r.grad_logits).max() < 1e-10

    def test_uniform_everything_leaves_pure_ce(self):
        C = 4
        r = bkd_loss(np.zeros(C), np.full(C, 1.0 / C), 2, np.ones(C), BKDConfig(temperature=2.0))
        assert abs(r.value - math.log(C)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = Rng(42)
        counts = np.array([100, 50, 20, 8, 2])
        w = effective_number_weights(counts, 0.99)
        for T in (1.0, 2.0, 4.0):
            z, y, _, tl = random_case(rng, 5)
            cfg = BKDConfig(beta=0.99, temperature=T)
            phat = softmax_with_temperature(tl, T)
            fd = finite_difference_gradient(lambda v: bkd_loss(v, phat, y, w, cfg).value, z)
            assert np.abs(bkd_loss(z, phat, y, w, cfg).grad_logits - fd).max() < 1e-7

    def test_distillation_term_nonnegative(self):
        # Gibbs' inequality must survive the reweighting because the weighted
        # teacher targets are renormalized to a distribution
        rng = Rng(43)
        for _ in range(1000):
            C = 2 + int(rng.uniform() * 9)
            z, y, w, tl = random_case(rng, C)
            T = (1.0, 2.0, 4.0)[int(rng.uniform() * 3)]
            cfg = BKDConfig(temperature=T)
            phat = softmax_with_temperature(tl, T)
            distill = bkd_loss(z, phat, y, w, cfg).value - ce_loss(z, y).value
            assert distill >= -1e-12

    def test_zero_weighted_teacher_mass_is_internal_error(self):
        # unreachable through the validated entry point (weights are positive
        # and teacher probs sum to 1), so poke the batch core directly
        with pytest.raises(RuntimeError, match="mass"):
            balanced_targets(np.zeros((1, 3)), np.ones(3))

    def test_weight_scale_cancels(self):
        rng = Rng(44)
        z, y, w, tl = random_case(rng, 5)
        phat = softmax_with_temperature(tl, 2.0)
        cfg = BKDConfig(temperature=2.0)
        a = bkd_loss(z, phat, y, w, cfg)
        b = bkd_loss(z, phat, y, 1000.0 * w, cfg)
        assert abs(a.value - b.value) < 1e-10
        assert np.abs(a.grad_logits - b.grad_logits).max() < 1e-12


class TestBkdGradFormula:
    def test_zero_weights_reduce_to_ce_gradient(self):
        rng = Rng(45)
        z, y, _, tl = random_case(rng, 5)
        phat = softmax_with_temperature(tl, 1.0)
        g = bkd_grad_formula(z, phat, y, np.zeros(5))
        assert np.abs(g - ce_loss(z, y).grad_logits).max() < 1e-12

    def test_confident_teacher_on_true_class(self):
        rng = Rng(46)
        z, y, _, _ = random_case(rng, 4)
        phat = one_hot(y, 4)
        g = bkd_grad_formula(z, phat, y, np.ones(4))
        p = softmax_with_temperature(z, 1.0)
        assert np.abs(g - (p - one_hot(y, 4))).max() < 1e-12

    def test_matches_finite_differences_of_mimic_target_loss(self):
        rng = Rng(47)
        for _ in range(20):
            z, y, w, tl = random_case(rng, 6)
            phat = softmax_with_temperature(tl, 1.0)
            target = w * phat
            target[y] += 1.0
            target /= target.sum()

            def loss(v):
                p = softmax_with_temperature(v, 1.0)
                return float(-(target * np.log(p)).sum())

            fd = finite_difference_gradient(loss, z)
            assert np.abs(bkd_grad_formula(z, phat, y, w) - fd).max() < 1e-7

    def test_head_class_gradient_gap_bounded_by_weights(self):
        # when every class count is huge the weights collapse toward zero and
        # the balanced target degenerates to the hard label: the gradient must
        # sit within 2*max(w) of the plain cross-entropy gradient
        rng = Rng(48)
        counts = np.full(6, 100_000)
        w = effective_number_weights(counts, 0.9999)
        w_head = w.max()
        assert w_head < 1.2e-4
        for _ in range(100):
            z, y, _, tl = random_case(rng, 6)
            phat = softmax_with_temperature(tl, 1.0)
            gap = bkd_grad_formula(z, phat, y, w) - ce_loss(z, y).grad_logits
            assert np.abs(gap).max() <= 2.0 * w_head


class TestBatchConsistency:
    def test_batch_rows_equal_per_sample_calls(self):
        rng = Rng(49)
        C, N = 7, 23
        Z = 2.0 * rng.normal((N, C))
        TL = 2.0 * rng.normal((N, C))
        ys = (rng.uniform(N) * C).astype(np.int64)
        w = np.exp(rng.normal(C))
        kd_cfg = KDConfig(alpha=0.3, temperature=2.0)
        bkd_cfg = BKDConfig(temperature=2.0)
        phat = np.vstack([softmax_with_temperature(TL[i], 2.0) for i in range(N)])

        cev, ceg = ce_loss_batch(Z, ys)
        cbv, cbg = cb_loss_batch(Z, ys, w)
        kdv, kdg = distill_loss_batch(Z, phat, ys, kd_cfg.alpha, 1.0 - kd_cfg.alpha, kd_cfg.temperature)
        bkv, bkg = distill_loss_batch(Z, balanced_targets(phat, w), ys, 1.0, 1.0, bkd_cfg.temperature)
        for i in range(N):
            y = int(ys[i])
            r = ce_loss(Z[i], y)
            assert r.value == cev[i] and np.array_equal(r.grad_logits, ceg[i])
            r = cb_loss(Z[i], y, w)
            assert r.value == cbv[i] and np.array_equal(r.grad_logits, cbg[i])
            r = kd_loss(Z[i], phat[i], y, kd_cfg)
            assert r.value == kdv[i] and np.array_equal(r.grad_logits, kdg[i])
            r = bkd_loss(Z[i], phat[i], y, w, bkd_cfg)
            assert r.value == bkv[i] and np.array_equal(r.grad_logits, bkg[i])


def two_softmax_reference(Z, targets, ys, ce_coef, kl_coef, T):
    """The distillation kernel with one max-shift per softmax and the KL
    summed over a masked gather."""

    def log_softmax(Z, T):
        with np.errstate(over="ignore"):
            s = (Z - Z.max(axis=1, keepdims=True)) / T
        return s - np.log(np.exp(s).sum(axis=1, keepdims=True))

    rows = np.arange(Z.shape[0])
    log_p = log_softmax(Z, 1.0)
    ce_values = -log_p[rows, ys]
    ce_grads = np.exp(log_p)
    ce_grads[rows, ys] -= 1.0
    log_p_T = log_softmax(Z, T)
    mask = targets > 0
    contrib = np.zeros_like(targets)
    contrib[mask] = targets[mask] * (np.log(targets[mask]) - log_p_T[mask])
    values = ce_coef * ce_values + kl_coef * (T * T) * contrib.sum(axis=1)
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
            for targets, coefs in ((phat, (0.3, 0.7)), (balanced_targets(phat, w), (1.0, 1.0))):
                got = distill_loss_batch(Z, targets, ys, *coefs, T)
                ref = two_softmax_reference(Z, targets, ys, *coefs, T)
                for a, b in zip(got, ref):
                    assert a.tobytes() == b.tobytes()

    def test_ce_gradient_of_column_major_logits(self):
        # the label entries are found by flat index; the layout must not matter
        Z = Rng(82).normal((5, 3))
        ys = np.array([0, 2, 1, 1, 0])
        values, grads = ce_loss_batch(np.asfortranarray(Z), ys)
        ref_values, ref_grads = ce_loss_batch(Z, ys)
        np.testing.assert_allclose(values, ref_values, rtol=1e-15)
        np.testing.assert_allclose(grads, ref_grads, rtol=0, atol=1e-15)
