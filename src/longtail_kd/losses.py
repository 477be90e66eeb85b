"""Classification and distillation losses over student logits.

Every trained loss is one objective, written once: per row,

    ce_weights[y] * CE(z, y) + kl_coef * T^2 * KL(targets || softmax(z / T))

An ``Objective`` holds the per-class CE weights (gathered by each row's
label; None for 1), an optional (N, C) target matrix (gathered by each
row's index), ``kl_coef`` and T; the one kernel ``objective_loss_batch``
returns each row's value and logit gradient. The four losses:

* ``ce``  — weights 1, no targets: instance-balanced cross-entropy.
* ``cb``  — the class weights, no targets: the true class's weight times CE.
* ``kd``  — weights alpha, the teacher's soft targets, kl_coef 1 - alpha
  (``KDConfig.objective``).
* ``bkd`` — weights 1, kl_coef 1, and the teacher's soft targets times the
  per-class weights, renormalized to a distribution q
  (``BKDConfig.objective``). Renormalizing keeps the distillation term
  nonnegative while leaving its gradient direction tilted toward rare
  classes.

Teacher probabilities are constants everywhere: no gradient flows to them.
The cross-entropy term is always at temperature 1; only the distillation
term uses T. 0 * log 0 is taken as 0, so targets may contain exact zeros.
An objective with no targets has no distillation term at all, rather than
KL toward a one-hot row, so ``ce`` and ``cb`` keep the sign of a zero loss.
The kernel shifts each logit row by its max once and takes both the
temperature-1 and the temperature-T log-softmax from that one shift. The
per-sample ``ce_loss``, ``cb_loss``, ``kd_loss`` and ``bkd_loss`` validate
their inputs and call the kernel with a single row.

``distill_grad_formula`` is the one closed-form gradient, kept as an
independent diagnostic for every loss the training loop runs:
ce_coef * (p - e_y) + kl_coef * T * (p_T - targets), with e_y the indicator
vector of class y. The single factor of T is what the T^2 scaling of the KL
term leaves (Hinton et al.). Plain cross-entropy is distillation toward e_y
at T = 1 (ce_coef 0, kl_coef 1), since KL(e_y || p) = -log p_y, and ``cb``
is the same with kl_coef w_y. The formula writes its softmax out itself
rather than through the shared row shift, so a fault in that shift shows up
as a disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mathutils import check_int, check_logits, check_real, check_temperature
from .mathutils import log_softmax_rows, log_softmax_shifted, shift_rows
from .weights import check_beta, check_weights


@dataclass(frozen=True)
class LossResult:
    """Scalar loss value and its gradient with respect to the logits."""

    value: float
    grad_logits: np.ndarray


@dataclass(frozen=True, eq=False)
class Objective:
    """One trained loss: ce_weights[y] * CE + kl_coef * T^2 * KL(targets || p_T).

    ``ce_weights`` is a (C,) vector gathered by each row's label, or None
    for weight 1 (no multiply); ``targets`` is an (N, C) matrix gathered by
    each row's index, or None for a loss with no distillation term.
    """

    ce_weights: np.ndarray | None = None
    targets: np.ndarray | None = None
    kl_coef: float = 0.0
    temperature: float = 1.0


@dataclass(frozen=True)
class KDConfig:
    """Mixing weight alpha in [0, 1] and softening temperature T > 0."""

    alpha: float = 0.5
    temperature: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_real(self.alpha, "alpha", lambda a: 0.0 <= a <= 1.0, "lie in [0, 1]"))
        object.__setattr__(self, "temperature", check_temperature(self.temperature))

    def objective(self, teacher_probs):
        """alpha * CE + (1 - alpha) * T^2 * KL toward the (N, C) teacher
        soft targets, which must already be softened at T."""
        alphas = np.full(teacher_probs.shape[1], self.alpha)
        return Objective(alphas, teacher_probs, 1.0 - self.alpha, self.temperature)


@dataclass(frozen=True)
class BKDConfig:
    """Weight hyperparameter beta in (0, 1) and temperature T > 0."""

    beta: float = 0.9999
    temperature: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "beta", check_beta(self.beta))
        object.__setattr__(self, "temperature", check_temperature(self.temperature))

    def objective(self, teacher_probs, w):
        """CE + T^2 * KL toward ``balanced_targets(teacher_probs, w)``."""
        return Objective(None, balanced_targets(teacher_probs, w), 1.0, self.temperature)


# ---------------------------------------------------------------------------
# validation helpers


def _check_label(y, num_classes):
    y = check_int(y, "label", 0)
    if y >= num_classes:
        raise ValueError(f"label {y!r} out of range [0, {num_classes})")
    return y


def _check_probs(p, num_classes, name="teacher probs"):
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (num_classes,):
        raise ValueError(f"{name} must have shape ({num_classes},), got {p.shape}")
    if not np.isfinite(p).all() or np.any(p < 0):
        raise ValueError(f"{name} must be finite and nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1 (got {p.sum()!r})")
    return p


# ---------------------------------------------------------------------------
# vectorized cores (rows = samples)


def softmax_rows(Z, temperature=1.0):
    """Row-wise temperature softmax of a (N, C) logit matrix."""
    return np.exp(log_softmax_rows(np.asarray(Z, dtype=np.float64), temperature))


def _ce_rows(log_p, ys):
    """Cross-entropy values -log p_y and logit gradients p - e_y."""
    at_y = np.arange(0, log_p.size, log_p.shape[1]) + ys  # flat index of each row's label
    values = -log_p.ravel()[at_y]
    grads = np.exp(log_p, order="C")  # so that ravel() is a view
    grads.ravel()[at_y] -= 1.0
    return values, grads


def balanced_targets(teacher_probs, w):
    """Balanced distillation targets: each row of w * phat renormalized to q."""
    weighted = np.asarray(teacher_probs, dtype=np.float64) * np.asarray(w, dtype=np.float64)[None, :]
    mass = weighted.sum(axis=1, keepdims=True)
    if np.any(mass <= 0):
        raise RuntimeError("weighted teacher mass is zero: teacher targets put no probability anywhere")
    return weighted / mass


def objective_loss_batch(Z, ys, rows, objective):
    """The objective's rows: values (N,) and logit gradients (N, C) of
    ce_weights[ys[i]] * CE + kl_coef * T^2 * KL(targets[rows[i]] || p_T).

    ``rows`` indexes the target matrix and is not read when there is none.
    The row max-shift is computed once and serves both the temperature-1
    softmax of the CE term and the temperature-T softmax of the KL term.
    """
    Z = np.asarray(Z, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    shifted = shift_rows(Z)
    values, grads = _ce_rows(log_softmax_shifted(shifted), ys)
    if objective.ce_weights is not None:
        scale = objective.ce_weights[ys]
        values *= scale
        grads *= scale[:, None]
    if objective.targets is None:
        return values, grads
    targets = objective.targets[rows]
    T = objective.temperature
    log_p_T = log_softmax_shifted(shifted, T)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(targets > 0, targets * (np.log(targets) - log_p_T), 0.0).sum(axis=1)
    values += objective.kl_coef * (T * T) * kl
    grads += objective.kl_coef * T * (np.exp(log_p_T) - targets)
    return values, grads


# ---------------------------------------------------------------------------
# per-sample API


def _one_row(z, y, objective):
    values, grads = objective_loss_batch(z[None, :], [y], [0], objective)
    return LossResult(float(values[0]), grads[0])


def ce_loss(z, y):
    """Softmax cross-entropy -log p_y; gradient is p - e_y (e_y the
    indicator vector of class y)."""
    z = check_logits(z)
    return _one_row(z, _check_label(y, z.size), Objective())


def cb_loss(z, y, w):
    """Cross-entropy scaled by the true class's weight: -w_y log p_y."""
    z = check_logits(z)
    y = _check_label(y, z.size)
    return _one_row(z, y, Objective(check_weights(w, z.size)))


def kd_loss(z, teacher_probs, y, cfg):
    """Blend of cross-entropy and temperature-scaled distillation.

    ``teacher_probs`` must already be softened at cfg.temperature; the KL
    term compares them with softmax(z / T) and is scaled by T^2, so its
    logit gradient carries a single factor of T.
    """
    z = check_logits(z)
    y = _check_label(y, z.size)
    phat = _check_probs(teacher_probs, z.size)
    if not isinstance(cfg, KDConfig):
        raise ValueError("cfg must be a KDConfig")
    return _one_row(z, y, cfg.objective(phat[None, :]))


def bkd_loss(z, teacher_probs, y, w, cfg):
    """Cross-entropy plus class-prior-weighted distillation.

    The teacher's soft targets are reweighted per class and renormalized to
    the distribution q = w * phat / sum(w * phat); the distillation term
    T^2 * KL(q || softmax(z/T)) is then nonnegative by Gibbs' inequality.
    Weight scale cancels in q, so only weight ratios matter here.
    """
    z = check_logits(z)
    y = _check_label(y, z.size)
    phat = _check_probs(teacher_probs, z.size)
    w = check_weights(w, z.size)
    if not isinstance(cfg, BKDConfig):
        raise ValueError("cfg must be a BKDConfig")
    return _one_row(z, y, cfg.objective(phat[None, :], w))


def distill_grad_formula(z, targets, y, ce_coef, kl_coef, temperature):
    """Closed-form gradient of ce_coef * CE + kl_coef * T^2 * KL(targets || p_T):
    ce_coef * (p - e_y) + kl_coef * T * (p_T - targets).

    Diagnostic twin of every trained loss: ``kd_loss`` (the teacher's soft
    targets, coefs (alpha, 1 - alpha)), ``bkd_loss`` (``balanced_targets``,
    coefs (1, 1)), ``cb_loss`` (targets e_y, coefs (0, w_y), T = 1) and so
    ``ce_loss`` (w_y = 1). Each softmax is exp((z - max z) / T) / sum,
    written out here.
    """
    z = check_logits(z)
    y = _check_label(y, z.size)
    targets = _check_probs(targets, z.size, "targets")
    T = check_temperature(temperature)
    shifted = z - z.max()
    p = np.exp(shifted)
    p /= p.sum()
    p_T = np.exp(shifted / T)
    p_T /= p_T.sum()
    g = ce_coef * p + kl_coef * T * (p_T - targets)
    g[y] -= ce_coef
    return g
