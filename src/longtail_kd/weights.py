"""Per-class weights from training-set class counts.

The weight for a class with n samples is (1 - beta) / (1 - beta^n): the
inverse of the saturating "effective number" of samples, so rare classes get
weights near 1 and abundant classes get weights near 1 - beta.
"""

from __future__ import annotations

import numpy as np

from .mathutils import check_int_array, check_real, check_real_array


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
    """``w`` as a float64 vector, or ValueError unless it is a non-empty vector
    of finite positive reals, ``num_classes`` of them if given."""
    rule = "be a non-empty vector of finite positive reals, one per class"
    return check_real_array(w, "weights", lambda w: w.size > 0 and (w > 0).all(), rule, (num_classes,))


def effective_number_weights(counts, beta):
    """Weight vector w_i = (1 - beta) / (1 - beta^{n_i}).

    Evaluated via expm1/log1p so beta close to 1 (the useful regime, e.g.
    0.9999) keeps full precision at large n. n = 1 gives exactly 1.0.
    """
    counts = check_counts(counts)
    one_minus_beta = 1.0 - check_beta(beta)
    n = counts.astype(np.float64)
    # 1 - beta^n == -expm1(n * log1p(-(1-beta))), with 1 - beta capped below 1 (it rounds to 1 at beta < 2**-53)
    denom = -np.expm1(n * np.log1p(-min(one_minus_beta, 1.0 - 2**-53)))
    w = np.where(counts == 1, 1.0, one_minus_beta / denom)
    return w


def normalize_weights(w):
    """Rescale a weight vector so the weights sum to the number of classes
    (mean weight 1), preserving all pairwise ratios: the scale Cui et al.
    give the class-balanced loss, so it trains at the configured rate."""
    w = check_weights(w)
    return w * (w.size / w.sum())
