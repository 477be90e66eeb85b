"""Deterministic numeric primitives: temperature (log-)softmax, stable
log-sum-exp, one-hot encoding, and a seedable counter-based PRNG.

All arithmetic is 64-bit float. The PRNG is SplitMix64 driven by a draw
counter, so its full state is the pair (seed, counter) and any block of
outputs can be produced either one at a time or vectorized with identical
results.
"""

from __future__ import annotations

import math

import numpy as np

_U64_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def shift_rows(Z):
    """Z minus its row max, so every entry is <= 0.

    A logit gap wider than the float range rounds to -inf, which is what
    the softmax needs there, so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return Z - np.maximum.reduce(Z, axis=1, keepdims=True)


def log_softmax_shifted(S, temperature=1.0):
    """Row-wise log-softmax of S / T for rows already shifted by ``shift_rows``.

    Shifting before the division by T keeps every scaled entry <= 0, so
    finite logits cannot overflow to +inf for T < 1. One shift can serve
    several temperatures. Dividing by 1 is exact, so T = 1 skips it.
    """
    s = S
    if temperature != 1:
        with np.errstate(over="ignore"):
            s = S / temperature
    return s - np.log(np.add.reduce(np.exp(s), axis=1, keepdims=True))


def log_softmax_rows(Z, temperature=1.0):
    """Row-wise log of the temperature softmax of a (N, C) logit matrix,
    computed via max-shifted exponentials."""
    return log_softmax_shifted(shift_rows(Z), temperature)


def softmax_with_temperature(z, temperature):
    """Temperature-scaled softmax of a logit vector: exp of ``log_softmax_rows``.

    Higher temperature flattens the distribution; temperature 1 is the
    ordinary softmax. Raises ValueError on non-finite logits or
    non-positive temperature.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a non-empty 1-D vector")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    if not (isinstance(temperature, (int, float, np.floating)) and math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be a positive finite real, got {temperature!r}")
    return np.exp(log_softmax_rows(z[None, :], temperature)[0])


def log_sum_exp(z):
    """max(z) + log(sum(exp(z - max(z)))). Overflow-safe for any finite input."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("log_sum_exp needs a non-empty 1-D vector")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()))


def one_hot(label, num_classes):
    """Indicator vector with a single 1 at position ``label``."""
    if not (isinstance(num_classes, (int, np.integer)) and num_classes >= 1):
        raise ValueError(f"num_classes must be a positive integer, got {num_classes!r}")
    if not (isinstance(label, (int, np.integer)) and 0 <= label < num_classes):
        raise ValueError(f"label {label!r} out of range [0, {num_classes})")
    v = np.zeros(int(num_classes), dtype=np.float64)
    v[int(label)] = 1.0
    return v


def mix64(x):
    """SplitMix64 finalizer: a 64-bit bijective hash."""
    z = x & _U64_MASK
    z = ((z ^ (z >> 30)) * _MIX_1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _U64_MASK
    return z ^ (z >> 31)


def derive_seed(seed, stream):
    """Derive an independent stream seed from a base seed and a stream index."""
    return mix64((seed + (stream + 1) * _GOLDEN) & _U64_MASK)


class Rng:
    """Deterministic SplitMix64 random stream.

    The i-th raw output is ``mix64(seed + i * GOLDEN)``, so state is just
    (seed, number of draws emitted); equal seeds give identical streams on
    every platform. Gaussians come from Box-Muller over the uniform stream.
    One instance per worker; instances are not thread-safe.
    """

    def __init__(self, seed):
        if not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self._seed = int(seed) & _U64_MASK
        self._count = 0

    @property
    def state(self):
        """(seed, draws emitted) — enough to reconstruct the stream position."""
        return (self._seed, self._count)

    @classmethod
    def from_state(cls, state):
        seed, count = state
        rng = cls(int(seed))
        rng._count = int(count)
        return rng

    def _raw(self, n):
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        lo = self._count + 1
        idx = np.arange(lo, lo + n, dtype=np.uint64)
        z = np.uint64(self._seed) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        z = z ^ (z >> np.uint64(31))
        self._count += n
        return z

    def uniform(self, size=None):
        """Doubles in [0, 1) with 53-bit resolution."""
        n = 1 if size is None else int(np.prod(size))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        if size is None:
            return float(u[0])
        return u.reshape(size)

    def normal(self, size=None):
        """Standard normal draws via Box-Muller."""
        n = 1 if size is None else int(np.prod(size))
        pairs = (n + 1) // 2
        raw = self._raw(2 * pairs)
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1)
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def permutation(self, n):
        """Random permutation of range(n): argsort of fresh 64-bit keys."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return np.argsort(self._raw(n), kind="stable").astype(np.int64)

    def subset(self, n, k):
        """k distinct indices from range(n), in ascending order."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        keys = self._raw(n)
        chosen = np.argsort(keys, kind="stable")[:k]
        return np.sort(chosen).astype(np.int64)
