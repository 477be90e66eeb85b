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
  (``kd_objective``).
* ``bkd`` — weights 1, kl_coef 1, and the teacher's soft targets times the
  per-class weights, renormalized to a distribution q (``bkd_objective``).
  Renormalizing keeps the distillation term nonnegative while leaving its
  gradient direction tilted toward rare classes.

Teacher probabilities are constants everywhere: no gradient flows to them.
The cross-entropy term is always at temperature 1; only the distillation
term uses T. 0 * log 0 is taken as 0, so targets may contain exact zeros.
An objective with no targets has no distillation term at all, rather than
KL toward a one-hot row, so ``ce`` and ``cb`` keep the sign of a zero loss.
The kernel puts the class axis first: it copies a minibatch's (B, C)
logits once into a C-contiguous (C, B) array, shifts each column by its max
once and takes both the temperature-1 and the temperature-T log-softmax
from that one shift. Every class sum, there, in the teacher targets
(``softmax_rows``) and in the balanced targets' mass, runs in class order
over a (C, B) array (``mathutils.class_sums``), for a batch of one row
too, so a row's bits do not depend on the batch it is in. The two builders
refuse a teacher row that is not a distribution (finite, nonnegative,
summing to 1 within 1e-9); ``kd_loss`` and ``bkd_loss`` pass theirs as a
one-row matrix, and each per-sample loss runs the kernel on one row.

``distill_grad_formula`` is the one closed-form gradient, kept as an
independent diagnostic for every loss the training loop runs:
ce_coef * (p - e_y) + kl_coef * T * (p_T - targets), with e_y the indicator
vector of class y. The single factor of T is what the T^2 scaling of the KL
term leaves (Hinton et al.). Plain cross-entropy is distillation toward e_y
at T = 1 (ce_coef 0, kl_coef 1), since KL(e_y || p) = -log p_y, and ``cb``
is the same with kl_coef w_y. The formula writes its softmax out itself
rather than through the shared class-major shift, so a fault in that shift
shows up as a disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mathutils import check_int, check_logits, check_real, check_real_array, check_temperature
from .mathutils import class_sums, log_softmax_rows, log_softmax_shifted, shift_classes
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
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        object.__setattr__(self, "temperature", check_temperature(self.temperature))


@dataclass(frozen=True)
class BKDConfig:
    """Weight hyperparameter beta in (0, 1) and temperature T > 0."""

    beta: float = 0.9999
    temperature: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "beta", check_beta(self.beta))
        object.__setattr__(self, "temperature", check_temperature(self.temperature))


# ---------------------------------------------------------------------------
# validation helpers


def check_alpha(alpha):
    """``alpha`` as a float, or ValueError unless it is a real in [0, 1]:
    the one rule for the cross-entropy weight of plain distillation."""
    return check_real(alpha, "alpha", lambda a: 0.0 <= a <= 1.0, "lie in [0, 1]")


def _check_label(y, num_classes):
    y = check_int(y, "label", 0)
    if y >= num_classes:
        raise ValueError(f"label {y!r} out of range [0, {num_classes})")
    return y


# ---------------------------------------------------------------------------
# vectorized cores (rows = samples)


def softmax_rows(Z, temperature=1.0):
    """Row-wise temperature softmax of a (N, C) logit matrix, computed over
    its class-major (C, N) copy and returned as that array's transpose."""
    rule = "be a matrix of finite reals with at least one column"
    Z = check_real_array(Z, "logits", lambda Z: Z.shape[1] > 0, rule, (None, None))
    with np.errstate(over="ignore"):
        return np.exp(log_softmax_rows(Z, check_temperature(temperature)))


def _ce_columns(log_p, ys):
    """Cross-entropy values -log p_y and logit gradients p - e_y of a
    C-contiguous (C, B) log-softmax, the gradients written over it."""
    B = log_p.shape[1]
    at_y = ys * B + np.arange(B)  # flat index of each column's label
    values = -log_p.ravel()[at_y]
    grads = np.exp(log_p, out=log_p)
    grads.ravel()[at_y] -= 1.0
    return values, grads


def _check_prob_rows(teacher_probs, name="teacher_probs"):
    """``teacher_probs`` as a float64 (N, C) matrix, or ValueError unless each
    row is a distribution: the one rule for a teacher's probabilities."""
    rule = "be a matrix of finite nonnegative rows that each sum to 1 within 1e-9"
    is_distribution = lambda p: (p >= 0).all() and (np.abs(p.sum(axis=1) - 1.0) <= 1e-9).all()
    return check_real_array(teacher_probs, name, is_distribution, rule, (None, None))


def _check_width(p, num_classes, name="teacher_probs"):
    if p is not None and p.shape[-1] != num_classes:
        raise ValueError(f"{name} must have {num_classes} entries, one per logit, got {p!r}")
    return p


def balanced_targets(teacher_probs, w):
    """Balanced distillation targets: each row of w * phat renormalized to
    q, its mass summed in class order over the (C, N) transpose."""
    phat = _check_prob_rows(teacher_probs)
    weighted = np.array(phat.T, order="C")
    weighted *= check_weights(w, phat.shape[1])[:, None]
    mass = class_sums(weighted)
    if np.any(mass <= 0):
        raise RuntimeError("weighted teacher mass is zero: teacher targets put no probability anywhere")
    weighted /= mass
    return weighted.T


def kd_objective(teacher_probs, *, alpha, temperature):
    """alpha * CE + (1 - alpha) * T^2 * KL toward the (N, C) teacher soft
    targets, which must already be softened at T."""
    phat = _check_prob_rows(teacher_probs)
    alpha = check_alpha(alpha)
    return Objective(np.full(phat.shape[1], alpha), phat, 1.0 - alpha, check_temperature(temperature))


def bkd_objective(teacher_probs, w, *, temperature):
    """CE + T^2 * KL toward ``balanced_targets(teacher_probs, w)``."""
    return Objective(None, balanced_targets(teacher_probs, w), 1.0, check_temperature(temperature))


def objective_loss_batch(Z, ys, rows, objective):
    """The objective's rows: values (N,) and logit gradients (N, C) of
    ce_weights[ys[i]] * CE + kl_coef * T^2 * KL(targets[rows[i]] || p_T).

    ``rows`` indexes the target matrix and is not read when there is none.
    The kernel works on the class-major copy of ``Z`` (``shift_classes``),
    whose one max-shift serves both the temperature-1 softmax of the CE
    term and the temperature-T softmax of the KL term; it builds the KL
    term in place and returns the (B, C) gradient as the transpose view of
    a (C, B) buffer. Every row computes in the dtype of ``Z`` and the
    objective's arrays, which the caller keeps alike, and has the bits it
    has in a batch of one. The kernel opens no numpy error scope: a target
    of 0 takes the log of 0, masked out, and the caller's scope keeps that
    quiet.
    """
    ys = np.asarray(ys, dtype=np.int64)
    shifted = shift_classes(Z)
    values, grads = _ce_columns(log_softmax_shifted(shifted), ys)
    if objective.ce_weights is not None:
        scale = objective.ce_weights[ys]
        values *= scale
        grads *= scale
    if objective.targets is None:
        return values, grads.T
    targets = np.ascontiguousarray(objective.targets[rows].T)
    T = objective.temperature
    log_p_T = log_softmax_shifted(shifted, T)
    kl = np.log(targets)
    kl -= log_p_T
    kl *= targets
    kl[targets == 0] = 0.0
    values += objective.kl_coef * (T * T) * class_sums(kl)
    p_T = np.exp(log_p_T, out=log_p_T)
    p_T -= targets
    p_T *= objective.kl_coef * T
    grads += p_T
    return values, grads.T


# ---------------------------------------------------------------------------
# per-sample API


def _one_row(z, y, objective):
    _check_width(objective.targets, z.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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


def kd_loss(z, teacher_probs, y, *, alpha, temperature):
    """Blend of cross-entropy and temperature-scaled distillation.

    ``teacher_probs`` must already be softened at ``temperature``; the KL
    term compares them with softmax(z / T) and is scaled by T^2, so its
    logit gradient carries a single factor of T.
    """
    z = check_logits(z)
    y = _check_label(y, z.size)
    return _one_row(z, y, kd_objective([teacher_probs], alpha=alpha, temperature=temperature))


def bkd_loss(z, teacher_probs, y, w, *, temperature):
    """Cross-entropy plus class-prior-weighted distillation.

    The teacher's soft targets are reweighted per class and renormalized to
    the distribution q = w * phat / sum(w * phat); the distillation term
    T^2 * KL(q || softmax(z/T)) is then nonnegative by Gibbs' inequality.
    Weight scale cancels in q, so only weight ratios matter here.
    """
    z = check_logits(z)
    y = _check_label(y, z.size)
    return _one_row(z, y, bkd_objective([teacher_probs], w, temperature=temperature))


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
    targets = _check_width(_check_prob_rows([targets], "targets")[0], z.size, "targets")
    ce_coef = check_real(ce_coef, "ce_coef", math.isfinite, "be a finite real")
    kl_coef = check_real(kl_coef, "kl_coef", math.isfinite, "be a finite real")
    T = check_temperature(temperature)
    shifted = z - z.max()
    p = np.exp(shifted)
    p /= p.sum()
    p_T = np.exp(shifted / T)
    p_T /= p_T.sum()
    g = ce_coef * p + kl_coef * T * (p_T - targets)
    g[y] -= ce_coef
    return g
