"""Finite-difference verification of every analytic loss gradient.

The checker knows nothing about how the analytic gradients are computed: it
only re-evaluates loss values at perturbed logits, so it stays a fully
independent oracle for them. Each trial takes one finite difference per
loss and holds two gradients against it: the loss's own analytic gradient
and, for ``cb``, ``kd`` and ``bkd``, the one closed form
``distill_grad_formula`` (the ``*_formula`` rows; ``cb`` is distillation
toward the indicator of y at T = 1, scaled by w_y).

The trials run on every available CPU: they are cut into contiguous ranges,
one per CPU (``workers.run_split``), and each worker replays the one seeded
stream of random instances from trial 0 but checks only its own range. The
worst error per gradient is a maximum, which is exact in any order, so the
report is the same bits whatever the CPU count.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np

from .losses import (
    BKDConfig,
    KDConfig,
    bkd_loss,
    cb_loss,
    ce_loss,
    distill_grad_formula,
    kd_loss,
)
from .mathutils import Rng, softmax_with_temperature
from .workers import run_split, split

_CHECKS = ("ce", "cb", "kd", "bkd", "cb_formula", "kd_formula", "bkd_formula")
# one worker's worst error per check, in _CHECKS order: exact float64 bits
_WORST = struct.Struct(f"<{len(_CHECKS)}d")
_TEMPS = (1.0, 2.0, 4.0)
FD_STEP = 1e-5  # the step of every central difference


def finite_difference_gradient(f, z):
    """Central-difference gradient, step ``FD_STEP``, of a scalar function
    of a logit vector."""
    z = np.asarray(z, dtype=np.float64)
    g = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += FD_STEP
        zm[i] -= FD_STEP
        g[i] = (f(zp) - f(zm)) / (2.0 * FD_STEP)
    return g


def _random_instance(rng, num_classes):
    z = 2.0 * rng.normal(num_classes)
    teacher_logits = 2.0 * rng.normal(num_classes)
    y = int(rng.uniform() * num_classes)
    w = np.exp(rng.normal(num_classes))  # positive, spread over ~2 decades
    return z, teacher_logits, y, w


def _instances(seed):
    """Every trial's random instance, in order, from the one ``Rng(seed)``
    stream: (trial, z, teacher logits, y, w, alpha)."""
    rng = Rng(seed)
    for trial in itertools.count():
        num_classes = 2 + int(rng.uniform() * 9)  # C in {2..10}
        z, t_logits, y, w = _random_instance(rng, num_classes)
        yield trial, z, t_logits, y, w, rng.uniform()


def run_gradient_checks(trials=100, seed=0):
    """Max abs(analytic - finite difference) over random instances.

    Covers the four losses plus the three closed-form diagnostic gradients
    (each checked against the finite differences of the loss it claims to
    differentiate). Returns a dict: name -> worst error, NaN if any trial
    gave a NaN for that gradient. ``trials`` must be at least 1: an empty
    audit would report every loss as exact. A failed worker raises OSError
    naming its trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")

    def failed(start, stop, sent):
        return f"the gradient-check worker for trials {start}-{stop}"

    worst = run_split(split(trials), _check_trials, failed, seed)
    merged = dict.fromkeys(_CHECKS, 0.0)
    for errs in _WORST.iter_unpack(worst):
        _keep_worst(merged, errs)
    return merged


def _keep_worst(worst, errs):
    """Raise each entry of ``worst`` to its error in ``errs`` (``_CHECKS``
    order) where that is larger or NaN. A NaN is worse than any number, so
    once kept it stays."""
    for name, err in zip(_CHECKS, errs):
        if err > worst[name] or math.isnan(err):
            worst[name] = err


def _check_trials(send, seed, start, stop):
    """Check trials ``start:stop`` and send the worst error per check."""
    worst = dict.fromkeys(_CHECKS, 0.0)
    for trial, z, t_logits, y, w, alpha in itertools.islice(_instances(seed), start, stop):
        T = _TEMPS[trial % len(_TEMPS)]
        kd_cfg = KDConfig(alpha=alpha, temperature=T)
        bkd_cfg = BKDConfig(temperature=T)
        phat = softmax_with_temperature(t_logits, T)
        q = w * phat
        q /= q.sum()

        audits = {  # loss -> (its value at v, then the gradients it checks)
            "ce": (lambda v: ce_loss(v, y).value, ce_loss(z, y).grad_logits),
            "cb": (
                lambda v: cb_loss(v, y, w).value,
                cb_loss(z, y, w).grad_logits,
                distill_grad_formula(z, np.eye(z.size)[y], y, 0.0, w[y], 1.0),
            ),
            "kd": (
                lambda v: kd_loss(v, phat, y, kd_cfg).value,
                kd_loss(z, phat, y, kd_cfg).grad_logits,
                distill_grad_formula(z, phat, y, alpha, 1.0 - alpha, T),
            ),
            "bkd": (
                lambda v: bkd_loss(v, phat, y, w, bkd_cfg).value,
                bkd_loss(z, phat, y, w, bkd_cfg).grad_logits,
                distill_grad_formula(z, q, y, 1.0, 1.0, T),
            ),
        }

        errs = {}
        for name, (f, *grads) in audits.items():
            fd = finite_difference_gradient(f, z)
            for check, g in zip((name, f"{name}_formula"), grads):
                errs[check] = float(np.abs(g - fd).max())
        _keep_worst(worst, [errs[name] for name in _CHECKS])
    send(_WORST.pack(*worst.values()))
