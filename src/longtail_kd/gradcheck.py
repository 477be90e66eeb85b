"""Finite-difference verification of every analytic loss gradient.

The checker knows nothing about how the analytic gradients are computed: it
only re-evaluates loss values at perturbed logits, so it stays a fully
independent oracle for them.
"""

from __future__ import annotations

import numpy as np

from .losses import (
    BKDConfig,
    KDConfig,
    bkd_grad_formula,
    bkd_loss,
    cb_grad_formula,
    cb_loss,
    ce_loss,
    kd_loss,
)
from .mathutils import Rng, softmax_with_temperature


def finite_difference_gradient(f, z, h=1e-5):
    """Central-difference gradient of a scalar function of a logit vector."""
    z = np.asarray(z, dtype=np.float64)
    g = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def _random_instance(rng, num_classes):
    z = 2.0 * rng.normal(num_classes)
    teacher_logits = 2.0 * rng.normal(num_classes)
    y = int(rng.uniform() * num_classes)
    w = np.exp(rng.normal(num_classes))  # positive, spread over ~2 decades
    return z, teacher_logits, y, w


def run_gradient_checks(trials=100, seed=0, h=1e-5):
    """Max abs(analytic - finite difference) over random instances.

    Covers the four losses plus the two closed-form diagnostic gradients
    (each checked against finite differences of the loss it claims to
    differentiate). Returns a dict: name -> worst error. ``trials`` must
    be at least 1: an empty audit would report every loss as exact.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    rng = Rng(seed)
    temps = (1.0, 2.0, 4.0)
    worst = {name: 0.0 for name in ("ce", "cb", "kd", "bkd", "cb_formula", "bkd_formula")}

    for trial in range(trials):
        num_classes = 2 + int(rng.uniform() * 9)  # C in {2..10}
        z, t_logits, y, w = _random_instance(rng, num_classes)
        T = temps[trial % len(temps)]
        alpha = rng.uniform()
        kd_cfg = KDConfig(alpha=alpha, temperature=T)
        bkd_cfg = BKDConfig(temperature=T)
        phat = softmax_with_temperature(t_logits, T)
        phat1 = softmax_with_temperature(t_logits, 1.0)

        checks = {
            "ce": (ce_loss(z, y).grad_logits, lambda v: ce_loss(v, y).value),
            "cb": (cb_loss(z, y, w).grad_logits, lambda v: cb_loss(v, y, w).value),
            "kd": (
                kd_loss(z, phat, y, kd_cfg).grad_logits,
                lambda v: kd_loss(v, phat, y, kd_cfg).value,
            ),
            "bkd": (
                bkd_loss(z, phat, y, w, bkd_cfg).grad_logits,
                lambda v: bkd_loss(v, phat, y, w, bkd_cfg).value,
            ),
            "cb_formula": (cb_grad_formula(z, y, w), lambda v: cb_loss(v, y, w).value),
            "bkd_formula": (
                bkd_grad_formula(z, phat1, y, w),
                lambda v: _mimic_target_loss(v, phat1, y, w),
            ),
        }

        for name, (analytic, value_fn) in checks.items():
            fd = finite_difference_gradient(value_fn, z, h)
            err = float(np.abs(analytic - fd).max())
            if err > worst[name]:
                worst[name] = err
    return worst


def _mimic_target_loss(z, teacher_probs_t1, y, w):
    """-sum(t * log p) for the renormalized target t that
    ``bkd_grad_formula`` differentiates (temperature 1)."""
    target = w * teacher_probs_t1
    target[int(y)] += 1.0
    target = target / target.sum()
    p = softmax_with_temperature(z, 1.0)
    mask = target > 0
    return float(-(target[mask] * np.log(p[mask])).sum())
