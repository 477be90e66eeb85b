"""Deterministic numeric primitives: temperature (log-)softmax, the
integer, real, positive-real, logit and temperature rules, and a seedable
counter-based PRNG.

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


def is_int(x):
    """True for a Python or numpy integer: the one rule for every count,
    seed, label and threshold."""
    return isinstance(x, (int, np.integer))


def is_real(x):
    """True for a Python int or float or a numpy float: the one type rule
    for every real setting, which is then stored as ``float(x)``."""
    return isinstance(x, (int, float, np.floating))


def is_positive_finite(x):
    """True for a positive finite real: the one rule for temperatures,
    learning rates and step factors."""
    return is_real(x) and math.isfinite(x) and x > 0


def check_logits(z):
    """``z`` as a float64 vector, or ValueError unless it is a non-empty,
    finite 1-D vector."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must be a non-empty 1-D vector")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    return z


def check_temperature(temperature):
    """``temperature`` as a float, or ValueError unless it is a positive
    finite real: the one rule for every softmax temperature."""
    if not is_positive_finite(temperature):
        raise ValueError(f"temperature must be a positive finite real, got {temperature!r}")
    return float(temperature)


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
    z = check_logits(z)
    check_temperature(temperature)
    return np.exp(log_softmax_rows(z[None, :], temperature)[0])


class Rng:
    """Deterministic SplitMix64 random stream.

    The i-th raw output (i from 1) is the SplitMix64 finalizer of
    ``seed + i * GOLDEN`` modulo 2^64, so state is just
    (seed, number of draws emitted); equal seeds give identical streams on
    every platform. Gaussians come from Box-Muller over the uniform stream.
    One instance per worker; instances are not thread-safe.
    """

    def __init__(self, seed):
        # the rule of ``is_int``, written inline: bench/tracer.py wraps each
        # public function, and making an Rng is to record no span of its own
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


def derive_seed(seed, stream):
    """An independent stream seed from a base seed and a stream index: the
    (stream + 1)-th draw of ``Rng(seed)``."""
    return int(Rng.from_state((seed, stream))._raw(1)[0])
