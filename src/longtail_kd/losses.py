"""Classification and distillation losses over student logits.

Four losses share one contract: given a logit vector they return the scalar
loss and its analytic gradient with respect to the logits.

* ``ce_loss``   — instance-balanced softmax cross-entropy.
* ``cb_loss``   — cross-entropy re-weighted by the true class's weight.
* ``kd_loss``   — alpha-blend of cross-entropy and temperature-scaled KL
  divergence against fixed teacher soft targets.
* ``bkd_loss``  — cross-entropy plus a class-prior-weighted distillation
  term: the teacher's soft targets are multiplied by the per-class weights
  and renormalized to a distribution q, then the student pays
  T^2 * KL(q || softmax(z/T)). Renormalizing keeps the distillation term
  nonnegative while leaving its gradient direction tilted toward rare
  classes.

Teacher probabilities are constants everywhere: no gradient flows to them.
The cross-entropy term inside kd/bkd is always at temperature 1; only the
distillation term uses the configured temperature. 0 * log 0 is taken as 0,
so teacher targets may contain exact zeros.

``cb_grad_formula`` and ``bkd_grad_formula`` are closed-form gradient
expressions kept as independent diagnostics: the first must reproduce
``cb_loss``'s gradient, the second differentiates a temperature-1 variant
whose target mixes the hard label into the weighted soft targets before
renormalizing (a different normalization than ``bkd_loss`` uses).

The ``*_batch`` functions are the vectorized cores, one row per sample; the
scalar entry points validate and delegate to them with a single row. Both
distillation losses share one core, ``distill_loss_batch``, and differ only
in the target and in their config's ``coefs``: plain distillation passes the
teacher's soft targets with (alpha, 1 - alpha), balanced distillation passes
``balanced_targets(phat, w)`` with (1, 1). The kernel shifts each logit row
by its max once and takes both the temperature-1 and the temperature-T
log-softmax from that one shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathutils import log_softmax_rows, log_softmax_shifted, shift_rows

__all__ = [
    "LossResult",
    "KDConfig",
    "BKDConfig",
    "ce_loss",
    "cb_loss",
    "kd_loss",
    "bkd_loss",
    "cb_grad_formula",
    "bkd_grad_formula",
    "ce_loss_batch",
    "cb_loss_batch",
    "distill_loss_batch",
    "balanced_targets",
]


@dataclass(frozen=True)
class LossResult:
    """Scalar loss value and its gradient with respect to the logits."""

    value: float
    grad_logits: np.ndarray


@dataclass(frozen=True)
class KDConfig:
    """Mixing weight alpha in [0, 1] and softening temperature T > 0."""

    alpha: float = 0.5
    temperature: float = 2.0

    def __post_init__(self):
        if not (isinstance(self.alpha, (int, float)) and 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not (isinstance(self.temperature, (int, float)) and math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive, got {self.temperature!r}")

    @property
    def coefs(self):
        """(ce_coef, kl_coef) for ``distill_loss_batch``."""
        return self.alpha, 1.0 - self.alpha


@dataclass(frozen=True)
class BKDConfig:
    """Weight hyperparameter beta in (0, 1), temperature T > 0, and the
    weight normalization mode applied when the weight vector is built."""

    beta: float = 0.9999
    temperature: float = 2.0
    weight_mode: str = "raw"

    def __post_init__(self):
        if not (isinstance(self.beta, (int, float)) and 0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie strictly inside (0, 1), got {self.beta!r}")
        if not (isinstance(self.temperature, (int, float)) and math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive, got {self.temperature!r}")
        if self.weight_mode not in ("raw", "mean-one"):
            raise ValueError(f"weight_mode must be 'raw' or 'mean-one', got {self.weight_mode!r}")

    @property
    def coefs(self):
        """(ce_coef, kl_coef) for ``distill_loss_batch``."""
        return 1.0, 1.0


# ---------------------------------------------------------------------------
# validation helpers


def _check_logits(z):
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a non-empty 1-D vector")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    return z


def _check_label(y, num_classes):
    if not (isinstance(y, (int, np.integer)) and 0 <= y < num_classes):
        raise ValueError(f"label {y!r} out of range [0, {num_classes})")
    return int(y)


def _check_probs(p, num_classes, name="teacher probs"):
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (num_classes,):
        raise ValueError(f"{name} must have shape ({num_classes},), got {p.shape}")
    if not np.isfinite(p).all() or np.any(p < 0):
        raise ValueError(f"{name} must be finite and nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1 (got {p.sum()!r})")
    return p


def _check_weights(w, num_classes, allow_zero=False):
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (num_classes,):
        raise ValueError(f"weights must have shape ({num_classes},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if allow_zero:
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
    elif np.any(w <= 0):
        raise ValueError("weights must be positive")
    return w


# ---------------------------------------------------------------------------
# vectorized cores (rows = samples)


def softmax_rows(Z, temperature=1.0):
    """Row-wise temperature softmax of a (N, C) logit matrix."""
    return np.exp(log_softmax_rows(np.asarray(Z, dtype=np.float64), temperature))


def _ce_rows(log_p, ys):
    """Cross-entropy values -log p_y and logit gradients p - one_hot(y)."""
    at_y = np.arange(0, log_p.size, log_p.shape[1]) + ys  # flat index of each row's label
    values = -log_p.ravel()[at_y]
    grads = np.exp(log_p, order="C")  # so that ravel() is a view
    grads.ravel()[at_y] -= 1.0
    return values, grads


def ce_loss_batch(Z, ys):
    """Cross-entropy per row: values (N,) and logit gradients (N, C)."""
    return _ce_rows(log_softmax_rows(np.asarray(Z, dtype=np.float64)), np.asarray(ys, dtype=np.int64))


def cb_loss_batch(Z, ys, w):
    """Class-weighted cross-entropy: each row scaled by its true class weight."""
    values, grads = ce_loss_batch(Z, ys)
    scale = np.asarray(w, dtype=np.float64)[np.asarray(ys, dtype=np.int64)]
    return scale * values, scale[:, None] * grads


def balanced_targets(teacher_probs, w):
    """Balanced distillation targets: each row of w * phat renormalized to q."""
    weighted = np.asarray(teacher_probs, dtype=np.float64) * np.asarray(w, dtype=np.float64)[None, :]
    mass = weighted.sum(axis=1, keepdims=True)
    if np.any(mass <= 0):
        raise RuntimeError("weighted teacher mass is zero: teacher targets put no probability anywhere")
    return weighted / mass


def distill_loss_batch(Z, targets, ys, ce_coef, kl_coef, temperature):
    """Distillation rows: ce_coef * CE + kl_coef * T^2 * KL(targets || p_T).

    The row max-shift is computed once and serves both the temperature-1
    softmax of the CE term and the temperature-T softmax of the KL term.
    KL takes 0 log 0 as 0, so targets may hold exact zeros.
    """
    Z = np.asarray(Z, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    T = temperature
    shifted = shift_rows(Z)
    ce_values, ce_grads = _ce_rows(log_softmax_shifted(shifted), np.asarray(ys, dtype=np.int64))
    log_p_T = log_softmax_shifted(shifted, T)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(targets > 0, targets * (np.log(targets) - log_p_T), 0.0).sum(axis=1)
    values = ce_coef * ce_values + kl_coef * (T * T) * kl
    grads = ce_coef * ce_grads + kl_coef * T * (np.exp(log_p_T) - targets)
    return values, grads


# ---------------------------------------------------------------------------
# per-sample API


def ce_loss(z, y):
    """Softmax cross-entropy -log p_y; gradient is p - one_hot(y)."""
    z = _check_logits(z)
    y = _check_label(y, z.size)
    values, grads = ce_loss_batch(z[None, :], [y])
    return LossResult(float(values[0]), grads[0])


def cb_loss(z, y, w):
    """Cross-entropy scaled by the true class's weight: -w_y log p_y."""
    z = _check_logits(z)
    y = _check_label(y, z.size)
    w = _check_weights(w, z.size)
    values, grads = cb_loss_batch(z[None, :], [y], w)
    return LossResult(float(values[0]), grads[0])


def kd_loss(z, teacher_probs, y, cfg):
    """Blend of cross-entropy and temperature-scaled distillation.

    ``teacher_probs`` must already be softened at cfg.temperature; the KL
    term compares them with softmax(z / T) and is scaled by T^2, so its
    logit gradient carries a single factor of T.
    """
    z = _check_logits(z)
    y = _check_label(y, z.size)
    phat = _check_probs(teacher_probs, z.size)
    if not isinstance(cfg, KDConfig):
        raise ValueError("cfg must be a KDConfig")
    values, grads = distill_loss_batch(z[None, :], phat[None, :], [y], *cfg.coefs, cfg.temperature)
    return LossResult(float(values[0]), grads[0])


def bkd_loss(z, teacher_probs, y, w, cfg):
    """Cross-entropy plus class-prior-weighted distillation.

    The teacher's soft targets are reweighted per class and renormalized to
    the distribution q = w * phat / sum(w * phat); the distillation term
    T^2 * KL(q || softmax(z/T)) is then nonnegative by Gibbs' inequality.
    Weight scale cancels in q, so only weight ratios matter here.
    """
    z = _check_logits(z)
    y = _check_label(y, z.size)
    phat = _check_probs(teacher_probs, z.size)
    w = _check_weights(w, z.size)
    if not isinstance(cfg, BKDConfig):
        raise ValueError("cfg must be a BKDConfig")
    q = balanced_targets(phat[None, :], w)
    values, grads = distill_loss_batch(z[None, :], q, [y], *cfg.coefs, cfg.temperature)
    return LossResult(float(values[0]), grads[0])


def cb_grad_formula(z, y, w):
    """Closed-form gradient of the class-weighted cross-entropy.

    Component k is w_y * (p_y - 1) at k = y and w_y * p_k elsewhere.
    Diagnostic twin of ``cb_loss(...)``'s gradient.
    """
    z = _check_logits(z)
    y = _check_label(y, z.size)
    w = _check_weights(w, z.size)
    p = np.exp(log_softmax_rows(z[None, :])[0])
    g = w[y] * p
    g[y] = w[y] * (p[y] - 1.0)
    return g


def bkd_grad_formula(z, teacher_probs, y, w):
    """Temperature-1 diagnostic gradient with the hard label folded in.

    The mimic target here is t = (w * phat + one_hot(y)) / s with
    s = sum(w * phat) + 1, i.e. weighted soft targets and the hard label
    renormalized together; the returned vector is softmax(z) - t, the exact
    gradient of -sum(t * log p). Zero weights are allowed (the target then
    degenerates to the hard label and the CE gradient comes back).
    """
    z = _check_logits(z)
    y = _check_label(y, z.size)
    phat = _check_probs(teacher_probs, z.size)
    w = _check_weights(w, z.size, allow_zero=True)
    p = np.exp(log_softmax_rows(z[None, :])[0])
    target = w * phat
    target[y] += 1.0
    target = target / target.sum()
    return p - target
