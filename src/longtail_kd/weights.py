"""Per-class weights from training-set class counts.

The weight for a class with n samples is (1 - beta) / (1 - beta^n): the
inverse of the saturating "effective number" of samples, so rare classes get
weights near 1 and abundant classes get weights near 1 - beta.
"""

from __future__ import annotations

import numpy as np

from .mathutils import is_real


def _validate_counts(counts):
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-D vector")
    if not np.issubdtype(counts.dtype, np.integer):
        if not np.all(counts == np.floor(counts)):
            raise ValueError("counts must be integers")
    if np.any(counts < 1):
        raise ValueError("every class count must be >= 1")
    return counts.astype(np.int64)


def check_beta(beta):
    """``beta`` as a float, or ValueError unless it is a real strictly
    inside (0, 1): the one rule for the effective-number hyperparameter."""
    if not (is_real(beta) and 0.0 < beta < 1.0):
        raise ValueError(f"beta must lie strictly inside (0, 1), got {beta!r}")
    return float(beta)


def effective_number_weights(counts, beta):
    """Weight vector w_i = (1 - beta) / (1 - beta^{n_i}).

    Evaluated via expm1/log1p so beta close to 1 (the useful regime, e.g.
    0.9999) keeps full precision at large n. n = 1 gives exactly 1.0.
    """
    counts = _validate_counts(counts)
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
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D vector")
    if not np.isfinite(w).all() or np.any(w <= 0):
        raise ValueError("weights must be finite and positive")
    return w * (w.size / w.sum())
