"""Deterministic numeric primitives: temperature (log-)softmax, the number
rules, and a seedable counter-based PRNG.

The number rules alone decide what an integer, a real, an integer array or a
real array is and which type is stored: ``is_real`` and ``check_int`` refuse
``bool``, and ``check_int``, ``check_real``, ``check_int_array`` and
``check_real_array`` return a Python int, a Python float, an int64 vector and
a float64 array, so a fractional count or label is refused. A real array is
every logit vector (``check_logits``, behind ``softmax_with_temperature``,
each per-sample loss and ``finite_difference_gradient``) and logit matrix,
teacher probability and target array, class-weight vector and feature
matrix a caller hands in (a feature matrix takes ``as_real_array``, the
rule's dtype and shape half, and ``LabeledDataset`` checks its entries,
a float32 matrix in place); one of bool, text, object or complex
dtype is refused, never converted. A ragged nested list, of which numpy
makes no array, is refused by both array rules, naming the argument and its
rule.

The softmax kernels put the class axis first: they copy a (B, C) logit
matrix into a C-contiguous (C, B) array once, and every max and sum over
the classes is a reduction over its axis 0, summed in class order
(``class_sums``) for every B, one row included, so a row's softmax has the
same bits in any batch. They compute in the dtype of the logits they are
given: float32 in training, float64 behind every checked entry. They open
no numpy error scope of their own, since they run once per minibatch; each
public entry (``softmax_with_temperature`` here, the losses' per-sample API
and ``softmax_rows``, and the training loop) holds one around them. The PRNG is
SplitMix64 driven by a draw counter, so its full state is the pair (seed,
counter) and any block of outputs can be produced either one at a time or
vectorized with identical results.
"""

from __future__ import annotations

import math

import numpy as np

_U64_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def is_real(x):
    """True for a Python or numpy integer or float other than a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def is_positive_finite(x):
    """True for a positive finite real (``is_real``)."""
    return is_real(x) and math.isfinite(x) and x > 0


def check_int(x, name, minimum=None):
    """``x`` as a Python int, or ValueError naming ``name`` unless it is a
    Python or numpy integer other than a bool, of at least ``minimum``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or (minimum is not None and x < minimum):
        bound = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
        raise ValueError(f"{name} must be {bound.get(minimum, f'an integer >= {minimum}')}, got {x!r}")
    return int(x)


def check_real(x, name, valid, rule):
    """``x`` as a Python float, or ValueError "<name> must <rule>" unless it
    is a real (``is_real``) that ``valid`` accepts."""
    if not (is_real(x) and valid(x)):
        raise ValueError(f"{name} must {rule}, got {x!r}")
    return float(x)


def _as_array(a, name, rule):
    """``np.asarray(a)``, or ValueError "<name> must <rule>" where numpy
    cannot make one array of it, as for a ragged nested list."""
    try:
        return np.asarray(a)
    except ValueError:
        raise ValueError(f"{name} must {rule}, got {a!r}") from None


def check_int_array(a, name):
    """``a`` as a 1-D int64 array, or ValueError naming ``name`` unless it is a 1-D
    array of integers, or of integral reals within int64: every count or label vector."""
    rule = "be a 1-D vector of integers"
    a = _as_array(a, name, rule)
    if np.issubdtype(a.dtype, np.floating) and np.all((a == np.floor(a)) & (np.abs(a) < 2.0**63)):
        a = a.astype(np.int64)
    if a.ndim != 1 or not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{name} must {rule}, got {a!r}")
    return a.astype(np.int64, copy=False)


def as_real_array(a, name, rule, shape):
    """``a`` as a float64 array (``a`` itself if it is one), or ValueError "<name>
    must <rule>" unless it has an integer or floating dtype (not bool, text,
    object or complex) and the ``shape`` given (None matching any length)."""
    a = _as_array(a, name, rule)
    fits = len(a.shape) == len(shape) and all(n in (None, m) for n, m in zip(shape, a.shape))
    if a.dtype.kind in "iuf" and fits:
        return a.astype(np.float64, copy=False)
    raise ValueError(f"{name} must {rule}, got {a!r}")


def check_real_array(a, name, valid, rule, shape):
    """``as_real_array(a, name, rule, shape)``, or ValueError "<name> must
    <rule>" unless its entries are finite and ``valid``, a predicate on the
    float64 array, accepts them."""
    a = as_real_array(a, name, rule, shape)
    if np.isfinite(a).all() and np.all(valid(a)):
        return a
    raise ValueError(f"{name} must {rule}, got {a!r}")


def check_logits(z):
    """``z`` as a float64 vector, or ValueError unless it is a non-empty vector of finite reals."""
    return check_real_array(z, "logits", lambda z: z.size > 0, "be a non-empty vector of finite reals", (None,))


def check_temperature(temperature):
    """``temperature`` as a float, or ValueError unless it is a positive
    finite real: the one rule for every softmax temperature."""
    return check_real(temperature, "temperature", is_positive_finite, "be a positive finite real")


def shift_classes(Z):
    """The (B, C) rows of Z as the columns of a new C-contiguous (C, B)
    array, each minus its max, so every entry is <= 0.

    Classes first, each per-row max and sum is a reduction over axis 0,
    which numpy runs as one vector op per class rather than one call per
    row. A logit gap wider than the float range rounds to -inf, which is
    what the softmax needs there; the caller's error scope keeps that
    overflow quiet.
    """
    S = np.array(Z.T, order="C")
    S -= np.maximum.reduce(S, axis=0)
    return S


def class_sums(S):
    """Each column's sum over the classes of a C-contiguous (C, B) array,
    added in class order: ((s_0 + s_1) + s_2) + ...

    numpy's axis-0 reduce adds in that order for B >= 2, but sums a single
    (C, 1) column pairwise, which differs from C = 8 on; so one column is
    accumulated instead, and a row's sums do not depend on its batch.
    """
    return np.add.reduce(S, axis=0) if S.shape[1] != 1 else np.add.accumulate(S, axis=0)[-1]


def log_softmax_shifted(S, temperature=1.0):
    """Column-wise log-softmax of S / T for a (C, B) array from ``shift_classes``.

    Shifting before the division by T keeps every scaled entry <= 0, so
    finite logits cannot overflow to +inf for T < 1. One shift can serve
    several temperatures. Dividing by 1 is exact, so T = 1 skips it. An
    entry that overflows at a small T is -inf, under the caller's scope.
    """
    s = S if temperature == 1 else S / temperature
    return s - np.log(class_sums(np.exp(s)))


def log_softmax_rows(Z, temperature=1.0):
    """Row-wise log of the temperature softmax of a (N, C) logit matrix, as
    the (N, C) transpose of the class-major ``log_softmax_shifted``."""
    return log_softmax_shifted(shift_classes(Z), temperature).T


def softmax_with_temperature(z, temperature):
    """Temperature-scaled softmax of a logit vector: exp of ``log_softmax_rows``.

    Higher temperature flattens the distribution; temperature 1 is the
    ordinary softmax. Raises ValueError on non-finite logits or
    non-positive temperature.
    """
    z = check_logits(z)
    check_temperature(temperature)
    with np.errstate(over="ignore"):
        return np.exp(log_softmax_rows(z[None, :], temperature)[0])


class Rng:
    """Deterministic SplitMix64 random stream.

    The i-th raw output (i from 1) is the SplitMix64 finalizer of
    ``seed + i * GOLDEN`` modulo 2^64, so the stream repeats after 2^64
    draws and state is just (seed, draws emitted modulo 2^64); equal seeds
    give identical streams on every platform. Gaussians come from Box-Muller
    over the uniform stream. Instances are not thread-safe.
    """

    # bench/tracer.py wraps module names, not this one: an Rng records no span of the rule
    _check_int = staticmethod(check_int)

    def __init__(self, seed):
        self._seed = self._check_int(seed, "seed") & _U64_MASK
        self._count = 0

    @property
    def state(self):
        """(seed, draws emitted) — enough to reconstruct the stream position."""
        return (self._seed, self._count)

    @classmethod
    def from_state(cls, state):
        seed, count = state
        rng = cls(seed)
        rng._count = cls._check_int(count, "draw count", 0)
        if rng._count > _U64_MASK:
            raise ValueError(f"draw count must be below 2**64, got {count!r}")
        return rng

    def _count_of(self, size):
        """Draws for a ``size`` of None (one), a length or a shape, each length
        refused unless a nonnegative integer before anything is drawn."""
        if size is None:
            return 1
        lengths = size if isinstance(size, (tuple, list)) else (size,)
        return math.prod(self._check_int(n, "size", 0) for n in lengths)

    def _raw(self, n):
        """Next ``n`` raw 64-bit outputs as a uint64 array, mixed in place
        in it and one shift buffer, so a block holds twice its output."""
        # uint64 array arithmetic wraps, so the draw index does too
        z = np.arange(n, dtype=np.uint64)
        z += np.uint64((self._count + 1) & _U64_MASK)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._seed)
        t = np.empty_like(z)
        for shift, mix in ((30, _MIX_1), (27, _MIX_2), (31, None)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            if mix is not None:
                z *= np.uint64(mix)
        self._count = (self._count + n) & _U64_MASK
        return z

    def uniform(self, size=None):
        """Doubles in [0, 1) with 53-bit resolution."""
        n = self._count_of(size)
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        if size is None:
            return float(u[0])
        return u.reshape(size)

    def normal(self, size=None):
        """Standard normal draws via Box-Muller."""
        n = self._count_of(size)
        pairs = (n + 1) // 2
        u = (self._raw(2 * pairs) >> np.uint64(11)).astype(np.float64)
        u1, u2 = u[:pairs], u[pairs:]
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1); r and theta overwrite them
        u1 += 1.0
        u *= 2.0 ** -53
        np.log(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)
        u2 *= 2.0 * np.pi
        out = np.empty((2, pairs))
        np.cos(u2, out=out[0])
        np.sin(u2, out=out[1])
        out *= u1
        out = out.reshape(-1)[:n]
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def permutation(self, n):
        """Random permutation of range(n): argsort of fresh 64-bit keys.

        The i-th key is the finalizer of seed + i * GOLDEN. With GOLDEN odd,
        both maps are bijections of the 64-bit words, so no two keys tie,
        every sort gives the stable order, and numpy's default sort, the
        fastest, is used."""
        n = self._check_int(n, "n", 0)
        return np.argsort(self._raw(n)).astype(np.int64, copy=False)


def derive_seed(seed, stream):
    """An independent stream seed from a base seed and a stream index: the
    (stream + 1)-th draw of ``Rng(seed)``."""
    return int(Rng.from_state((seed, stream))._raw(1)[0])
