"""Dense rectifier network with explicit forward/backward passes, SGD with
momentum, learning-rate schedules, and a versioned binary parameter format.

Layers are affine maps with rectified-linear hidden activations; the final
layer emits raw logits. ``forward`` takes an (N, d) batch (one sample is a
(1, d) batch); ``backward`` consumes the matching cache and the (N, C) loss
gradient with respect to the logits, summing parameter gradients over the
batch rows (scale grad_logits by 1/N beforehand for a mean reduction). The
cache holds each layer's input and no pre-activations: ``backward`` masks
on the rectified inputs. A caller that scores the same number of rows again
and again can pass per-layer ``out`` buffers to ``forward`` and reuse them,
and a gradient ``MlpParams`` to ``backward``, so no layer-sized array is
allocated per call.

Each model state is one flat float64 vector: parameters, the gradients
``backward`` returns and the optimizer's velocities are all ``MlpParams``
whose per-layer arrays are views of their ``flat``, so the SGD step and
weight decay run once over whole vectors.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .mathutils import Rng, check_int, check_real, is_positive_finite

MLP_MAGIC = b"mlp-v1"
SCHEDULE_KINDS = ("constant", "step", "cosine")


def _layer_views(flat, dims):
    """Per-layer weight and bias views of ``flat``, in mlp-v1 payload order."""
    weights, biases, off = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[off : off + fan_out * fan_in].reshape(fan_out, fan_in))
        off += fan_out * fan_in
        biases.append(flat[off : off + fan_out])
        off += fan_out
    return weights, biases


class MlpParams:
    """Per-layer weight matrices (fan_out, fan_in) and bias vectors (fan_out,).

    Every array is a view of one float64 vector, ``flat``, laid out layer by
    layer, weights then bias (the mlp-v1 payload order); ``dims`` holds the
    layer widths, input first. Gradients and momentum buffers are MlpParams
    too. The constructor copies the given arrays into a new vector;
    ``from_flat`` wraps an existing one.
    """

    def __init__(self, weights, biases):
        if not weights or len(biases) != len(weights):
            raise ValueError("need at least one layer, and one bias vector per weight matrix")
        dims = (np.shape(weights[0])[-1], *[len(w) for w in weights])
        self._bind(np.concatenate([np.ravel(a) for wb in zip(weights, biases) for a in wb], dtype=np.float64), dims)
        if [np.shape(a) for a in (*weights, *biases)] != [v.shape for v in self.weights + self.biases]:
            raise ValueError("layer shapes do not chain into a network")

    def _bind(self, flat, dims):
        self.flat, self.dims = flat, tuple(int(d) for d in dims)
        self.weights, self.biases = _layer_views(flat, self.dims)

    @classmethod
    def from_flat(cls, flat, dims):
        """Parameters of widths ``dims`` (input first) viewing ``flat``, without a copy."""
        params = cls.__new__(cls)
        params._bind(flat, dims)
        return params

    @classmethod
    def zeros(cls, dims):
        """Zero parameters of widths ``dims`` (input first), in one new vector."""
        return cls.from_flat(np.zeros(sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))), dims)

    def copy(self):
        return MlpParams.from_flat(self.flat.copy(), self.dims)


@dataclass
class OptimizerState:
    """Momentum buffers: one velocity per parameter, in the same layout."""

    vel: MlpParams
    momentum: float = 0.9


@dataclass(frozen=True)
class LrSchedule:
    """Constant, step-decay, or cosine-decay schedule over epochs.

    ``steps`` holds (epoch, multiplicative factor) pairs for kind "step";
    each factor applies from its epoch onward. The base rate and every
    factor must be positive and finite, and step epochs nonnegative
    integers, so every epoch's rate is a valid SGD step size. They are
    stored as Python floats and ints, so equal schedules digest the same.
    """

    kind: str = "cosine"
    base_lr: float = 0.1
    steps: tuple = ()

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        rate = lambda r, name: check_real(r, name, is_positive_finite, "be positive and finite")
        object.__setattr__(self, "base_lr", rate(self.base_lr, "base_lr"))
        if not isinstance(self.steps, (tuple, list)) or any(np.shape(step) != (2,) for step in self.steps):
            raise ValueError(f"steps must be a sequence of (epoch, factor) pairs, got {self.steps!r}")
        steps = tuple((check_int(e, "each step epoch", 0), rate(f, "step factors")) for e, f in self.steps)
        if any(e2 <= e1 for (e1, _), (e2, _) in zip(steps, steps[1:])):
            raise ValueError("step epochs must be strictly increasing")
        object.__setattr__(self, "steps", steps)


def init_mlp(dims, seed):
    """Weights uniform in +-sqrt(6 / fan_in), biases zero, deterministic in seed."""
    dims = [check_int(d, "each layer width", 1) for d in dims]
    if len(dims) < 2:
        raise ValueError("need at least an input and an output layer")
    rng = Rng(seed)
    params = MlpParams.zeros(dims)
    for w in params.weights:
        w[...] = (2.0 * rng.uniform(w.shape) - 1.0) * math.sqrt(6.0 / w.shape[1])
    return params


def forward(params, x, out=None):
    """Logits and an activation cache for ``backward``.

    An (N, d) batch gives (N, C) logits; any other shape is refused. Each
    layer adds its bias and rectifies in place, so a layer makes one array.
    ``out``, if given, holds one (N, fan_out) float64 buffer per layer; the
    layers are written into them, and the logits and the cache are views of
    those buffers, valid until the buffers are written again. The cache
    keeps only each layer's input: relu(x) > 0 exactly when x > 0, so the
    rectified input of layer l is also the mask of layer l - 1.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise ValueError(f"input of shape {x.shape} is not an (N, {params.dims[0]}) batch")
    inputs = [x]
    a = x
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = np.matmul(a, w.T, out=None if out is None else out[l])
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
            inputs.append(a)
    return a, {"inputs": inputs}


def backward(params, cache, grad_logits, out=None):
    """Parameter gradients by reverse-mode chain rule, as an ``MlpParams``.

    The rectifier subgradient at exactly 0 is taken as 0. Gradients are
    summed over the batch rows present in ``grad_logits``, and each layer's
    are written straight into its views of one flat vector: that of
    ``out``, a caller-owned ``MlpParams`` of the same dims that is
    overwritten and returned, or else a new one.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    inputs = cache["inputs"]
    if g.shape != (inputs[0].shape[0], params.dims[-1]):
        raise ValueError(f"grad_logits shape {g.shape} does not match the forward cache")
    grads = MlpParams.from_flat(np.empty_like(params.flat), params.dims) if out is None else out
    if grads.dims != params.dims:
        raise ValueError(f"gradient buffer dims {grads.dims} do not match parameters {params.dims}")
    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(g.T, inputs[l], out=grads.weights[l])
        np.add.reduce(g, axis=0, out=grads.biases[l])
        if l > 0:
            g = (g @ params.weights[l]) * (inputs[l] > 0)
    return grads


def init_optimizer(params, momentum=0.9):
    return OptimizerState(MlpParams.zeros(params.dims), float(momentum))


def sgd_momentum_step(params, grads, state, lr):
    """v <- momentum * v + g; p <- p - lr * v, each once over the flat
    vectors. Updates in place and returns both."""
    if not is_positive_finite(lr):
        raise ValueError(f"learning rate must be positive and finite, got {lr!r}")
    if not params.dims == grads.dims == state.vel.dims:
        raise ValueError("gradient or velocity shapes do not match parameters")
    v = state.vel.flat
    v *= state.momentum
    v += grads.flat
    params.flat -= lr * v
    return params, state


def lr_at(schedule, epoch, total_epochs):
    """Learning rate for a 0-based epoch under the schedule."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} out of range [0, {total_epochs})")
    if schedule.kind == "constant":
        return schedule.base_lr
    if schedule.kind == "step":
        lr = schedule.base_lr
        for step_epoch, factor in schedule.steps:
            if step_epoch <= epoch:
                lr *= factor
        return lr
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


# ---------------------------------------------------------------------------
# serialization: magic, layer count, then per layer fan_in/fan_out as little-
# endian int64 followed by row-major weights and bias as little-endian float64


def params_to_bytes(params):
    chunks = [MLP_MAGIC, struct.pack("<q", len(params.weights))]
    for w, b in zip(params.weights, params.biases):
        fan_out, fan_in = w.shape
        chunks.append(struct.pack("<qq", fan_in, fan_out))
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(chunks)


class BlobReader:
    """Bounds-checked reads from a bytes blob, starting at ``off``; a read
    past the end raises ValueError(``truncated``)."""

    def __init__(self, blob, off, truncated):
        self.blob, self.off, self.truncated = blob, off, truncated

    def take(self, n):
        if self.off + n > len(self.blob):
            raise ValueError(self.truncated)
        self.off += n
        return self.blob[self.off - n : self.off]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def params_from_bytes(blob):
    if blob[: len(MLP_MAGIC)] != MLP_MAGIC:
        raise ValueError("not an mlp-v1 parameter blob")
    r = BlobReader(blob, len(MLP_MAGIC), "truncated mlp-v1 parameter blob")
    (n_layers,) = r.unpack("<q")
    if n_layers < 1:
        raise ValueError("mlp-v1 blob declares no layers")
    weights, biases = [], []
    for _ in range(n_layers):
        fan_in, fan_out = r.unpack("<qq")
        if fan_in < 1 or fan_out < 1:
            raise ValueError("mlp-v1 blob has non-positive layer dimensions")
        weights.append(np.frombuffer(r.take(8 * fan_in * fan_out), dtype="<f8").reshape(fan_out, fan_in))
        biases.append(np.frombuffer(r.take(8 * fan_out), dtype="<f8"))
    if r.off != len(blob):
        raise ValueError("trailing bytes after mlp-v1 parameter blob")
    return MlpParams(weights, biases)
