"""Finite-difference verification of every analytic loss gradient.

The checker knows nothing about how the analytic gradients are computed: it
only re-evaluates loss values at perturbed logits, so it stays a fully
independent oracle for them. Each trial builds the four objectives with
training's constructors (``Objective()``, ``Objective(w)``, ``kd_objective``
and ``bkd_objective``), but keeps them in float64, which a run rounds to
float32, so the differences have float64's headroom. It takes one finite
difference per objective: one ``objective_loss_batch`` call on the 2C + 1
rows z + h e_i, z - h e_i and z gives the central differences and, from
its last row, the analytic gradient. Both that gradient and, for ``cb``, ``kd`` and ``bkd``, the one
closed form ``distill_grad_formula`` (the ``*_formula`` rows; ``cb`` is
distillation toward the indicator of y at T = 1, scaled by w_y) are held
against the differences. The trials run in order from one seeded stream of
random instances, in this process.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .losses import Objective, bkd_objective, distill_grad_formula, kd_objective, objective_loss_batch
from .mathutils import Rng, check_int, check_logits, softmax_with_temperature

_CHECKS = ("ce", "cb", "kd", "bkd", "cb_formula", "kd_formula", "bkd_formula")
_TEMPS = (1.0, 2.0, 4.0)
FD_STEP = 1e-5  # the step of every central difference


def finite_difference_gradient(f, z):
    """Central-difference gradient, step ``FD_STEP``, of a scalar function
    of a logit vector."""
    z = check_logits(z)
    g = np.zeros_like(z)
    for i in range(z.size):
        zp = z.copy()
        zm = z.copy()
        zp[i] += FD_STEP
        zm[i] -= FD_STEP
        g[i] = (f(zp) - f(zm)) / (2.0 * FD_STEP)
    return g


def _finite_differences(objective, z, y):
    """``(central differences, analytic gradient)`` of the objective's loss
    at logits ``z`` and label ``y``, from one ``objective_loss_batch`` call
    on the rows z + FD_STEP e_i, then z - FD_STEP e_i, then z."""
    C = z.size
    Z = np.tile(z, (2 * C + 1, 1))
    i = np.arange(C)
    Z[i, i] += FD_STEP
    Z[C + i, i] -= FD_STEP
    values, grads = objective_loss_batch(Z, np.full(len(Z), y), np.zeros(len(Z), dtype=np.int64), objective)
    return (values[:C] - values[C : 2 * C]) / (2.0 * FD_STEP), grads[-1]


def _instances(seed):
    """Every trial's random instance, in order, from the one ``Rng(seed)``
    stream: (trial, z, teacher logits, y, w, alpha)."""
    rng = Rng(seed)
    for trial in itertools.count():
        num_classes = 2 + int(rng.uniform() * 9)  # C in {2..10}
        z = 2.0 * rng.normal(num_classes)
        t_logits = 2.0 * rng.normal(num_classes)
        y = int(rng.uniform() * num_classes)
        w = np.exp(rng.normal(num_classes))  # positive, spread over ~2 decades
        yield trial, z, t_logits, y, w, rng.uniform()


def run_gradient_checks(trials, seed):
    """Max abs(analytic - finite difference) over random instances.

    Covers the four losses plus the three closed-form diagnostic gradients
    (each checked against the finite differences of the loss it claims to
    differentiate). Returns a dict: name -> worst error, NaN if any trial
    gave a NaN for that gradient. ``trials`` must be at least 1: an empty
    audit would report every loss as exact.
    """
    trials = check_int(trials, "trials", 1)
    worst = dict.fromkeys(_CHECKS, 0.0)
    for trial, z, t_logits, y, w, alpha in itertools.islice(_instances(seed), trials):
        T = _TEMPS[trial % len(_TEMPS)]
        phat = softmax_with_temperature(t_logits, T)
        q = w * phat
        q /= q.sum()
        audits = {  # loss -> (its objective, then its closed form if it has one)
            "ce": (Objective(),),
            "cb": (Objective(w), distill_grad_formula(z, np.eye(z.size)[y], y, 0.0, w[y], 1.0)),
            "kd": (
                kd_objective(phat[None], alpha=alpha, temperature=T),
                distill_grad_formula(z, phat, y, alpha, 1.0 - alpha, T),
            ),
            "bkd": (bkd_objective(phat[None], w, temperature=T), distill_grad_formula(z, q, y, 1.0, 1.0, T)),
        }
        for name, (objective, *formula) in audits.items():
            fd, grad = _finite_differences(objective, z, y)
            for check, g in zip((name, f"{name}_formula"), (grad, *formula)):
                err = float(np.abs(g - fd).max())
                # a NaN is worse than any number, so once kept it stays
                if err > worst[check] or math.isnan(err):
                    worst[check] = err
    return worst
