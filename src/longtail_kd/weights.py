"""Per-class weights from training-set class counts.

The weight for a class with n samples is (1 - beta) / (1 - beta^n): the
inverse of the saturating "effective number" of samples, so rare classes get
weights near 1 and abundant classes get weights near 1 - beta.
"""

from __future__ import annotations

import numpy as np

from .mathutils import check_int_array, check_real


def check_counts(counts):
    """``counts`` as an int64 vector, or ValueError unless it is a non-empty
    integer vector (``check_int_array``) of counts of at least 1."""
    counts = check_int_array(counts, "counts")
    if counts.size == 0 or np.any(counts < 1):
        raise ValueError(f"counts must be a non-empty vector of positive integers, got {counts!r}")
    return counts


def check_beta(beta):
    """``beta`` as a float, or ValueError unless it is a real strictly inside (0, 1)."""
    return check_real(beta, "beta", lambda b: 0.0 < b < 1.0, "lie strictly inside (0, 1)")


def check_weights(w, num_classes=None):
    """``w`` as a float64 vector, or ValueError unless it is a non-empty 1-D
    vector of finite positive weights (``num_classes`` of them, if given)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0 or num_classes not in (None, w.size):
        raise ValueError(f"weights of shape {w.shape} are not a non-empty vector of one weight per class")
    if not (np.isfinite(w).all() and np.all(w > 0)):
        raise ValueError("weights must be finite and positive")
    return w


def effective_number_weights(counts, beta):
    """Weight vector w_i = (1 - beta) / (1 - beta^{n_i}).

    Evaluated via expm1/log1p so beta close to 1 (the useful regime, e.g.
    0.9999) keeps full precision at large n. n = 1 gives exactly 1.0.
    """
    counts = check_counts(counts)
    one_minus_beta = 1.0 - check_beta(beta)
    n = counts.astype(np.float64)
    # 1 - beta^n == -expm1(n * log(beta)), with log(beta) = log1p(-(1-beta))
    denom = -np.expm1(n * np.log1p(-one_minus_beta))
    w = np.where(counts == 1, 1.0, one_minus_beta / denom)
    return w


def normalize_weights(w):
    """Rescale a weight vector so the weights sum to the number of classes
    (mean weight 1), preserving all pairwise ratios: the scale Cui et al.
    give the class-balanced loss, so it trains at the configured rate."""
    w = check_weights(w)
    return w * (w.size / w.sum())
