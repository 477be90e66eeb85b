"""Dense rectifier network with explicit forward/backward passes, SGD with
momentum, learning-rate schedules, and a model's canonical bytes.

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

Each model state is one flat float vector: parameters, the gradients
``backward`` returns and the SGD velocity are all ``MlpParams`` whose
per-layer arrays are views of their ``flat``, so the SGD step and weight
decay run once over whole vectors. The velocity is the one optimizer
state; ``sgd_momentum_step`` takes the momentum from its caller.
Forward, backward and the SGD step compute in the dtype of the parameters
they are given: float32 for a model the training loop trains or a
checkpoint holds, float64 for ``init_mlp``'s draw and the gradient audits'
models. They let values overflow, quietly under the training loop and
``evaluate.predict``, which refuse non-finite results.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .mathutils import Rng, check_int, check_real, is_positive_finite

MLP_MAGIC = b"mlp-v2"
SCHEDULE_KINDS = ("constant", "step", "cosine")


def flat_size(dims):
    """The number of values an ``MlpParams`` of widths ``dims`` holds."""
    return sum(fan_out * fan_in + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _layer_views(flat, dims):
    """Per-layer weight and bias views of ``flat``: layer by layer, weights
    then bias, the order of ``params_to_bytes`` and of a checkpoint."""
    weights, biases, off = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[off : off + fan_out * fan_in].reshape(fan_out, fan_in))
        off += fan_out * fan_in
        biases.append(flat[off : off + fan_out])
        off += fan_out
    return weights, biases


class MlpParams:
    """Per-layer weight matrices (fan_out, fan_in) and bias vectors (fan_out,).

    Every array is a view of one float vector, ``flat``, laid out layer by
    layer, weights then bias (``_layer_views``); ``dims`` holds the
    layer widths, input first. Gradients and the SGD velocity are MlpParams
    too. The constructor copies the given arrays into a new vector of their
    float dtype (float64 for integer arrays); ``from_flat`` wraps an
    existing one.
    """

    def __init__(self, weights, biases):
        if not weights or len(biases) != len(weights):
            raise ValueError("need at least one layer, and one bias vector per weight matrix")
        dims = (np.shape(weights[0])[-1], *[len(w) for w in weights])
        arrays = [np.ravel(a) for wb in zip(weights, biases) for a in wb]
        dtype = np.result_type(*arrays)
        self._bind(np.concatenate(arrays, dtype=dtype if dtype.kind == "f" else np.float64), dims)
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
    def zeros(cls, dims, dtype=np.float64):
        """Zero parameters of widths ``dims`` (input first), in one new vector."""
        return cls.from_flat(np.zeros(flat_size(dims), dtype), dims)

    def copy(self):
        return MlpParams.from_flat(self.flat.copy(), self.dims)

    def astype(self, dtype):
        """A copy of these parameters, each value rounded to ``dtype``."""
        return MlpParams.from_flat(self.flat.astype(dtype), self.dims)


def check_momentum(momentum):
    """``momentum`` as a float, or ValueError unless it is a real in [0, 1):
    the one momentum rule, for ``sgd_momentum_step`` and ``TrainConfig``."""
    return check_real(momentum, "momentum", lambda m: 0.0 <= m < 1.0, "lie in [0, 1)")


@dataclass(frozen=True)
class LrSchedule:
    """Constant, step-decay, or cosine-decay schedule over epochs.

    ``steps`` holds (epoch, multiplicative factor) pairs; each factor
    applies from its epoch onward. Steps act only under kind "step": any
    other kind stores ``()`` whatever it is given, so two schedules that
    train alike compare and digest alike. The base rate and every factor
    must be positive and finite, and step epochs nonnegative integers. A
    rate made of them can still round to 0 or overflow to inf, which
    ``check_schedule`` refuses for the epochs a ``TrainConfig`` trains.
    They are stored as Python floats and ints, so equal schedules digest
    the same.
    """

    kind: str = "cosine"
    base_lr: float = 0.02
    steps: tuple = ()

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if self.kind != "step":
            object.__setattr__(self, "steps", ())
        rate = lambda r, name: check_real(r, name, is_positive_finite, "be positive and finite")
        object.__setattr__(self, "base_lr", rate(self.base_lr, "base_lr"))
        if not isinstance(self.steps, (tuple, list)) or any(np.shape(step) != (2,) for step in self.steps):
            raise ValueError(f"steps must be a sequence of (epoch, factor) pairs, got {self.steps!r}")
        steps = tuple((check_int(e, "each step epoch", 0), rate(f, "step factors")) for e, f in self.steps)
        if any(e2 <= e1 for (e1, _), (e2, _) in zip(steps, steps[1:])):
            raise ValueError("step epochs must be strictly increasing")
        object.__setattr__(self, "steps", steps)


def init_mlp(dims, seed):
    """Weights uniform in +-sqrt(6 / fan_in), biases zero, deterministic in
    seed: a float64 draw, which a training run rounds to float32 once."""
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

    An (N, d) batch gives (N, C) logits; any other shape is refused. The
    batch is cast to the parameters' dtype, in which every layer computes:
    a dataset's float32 rows need no cast for a trained model, and are
    widened exactly for a float64 one. Each layer adds its bias and
    rectifies in place, so a layer makes one array.
    ``out``, if given, holds one (N, fan_out) buffer of that dtype per layer;
    the layers are written into them, and the logits and the cache are views
    of those buffers, valid until the buffers are written again. The cache
    keeps only each layer's input: relu(x) > 0 exactly when x > 0, so the
    rectified input of layer l is also the mask of layer l - 1.
    """
    x = np.asarray(x, dtype=params.flat.dtype)
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
    summed, in the parameters' dtype, over the rows of ``grad_logits``
    (numpy refuses any shape but the logits') into the views of one flat
    vector: that of ``out``, a caller-owned ``MlpParams`` of the same dims
    it overwrites, or a new one.
    """
    g = np.asarray(grad_logits, dtype=params.flat.dtype)
    inputs = cache["inputs"]
    grads = MlpParams.from_flat(np.empty_like(params.flat), params.dims) if out is None else out
    if grads.dims != params.dims:
        raise ValueError(f"gradient buffer dims {grads.dims} do not match parameters {params.dims}")
    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(g.T, inputs[l], out=grads.weights[l])
        np.add.reduce(g, axis=0, out=grads.biases[l])
        if l > 0:
            g = g @ params.weights[l]
            g *= inputs[l] > 0
    return grads


def sgd_momentum_step(params, grads, vel, momentum, lr):
    """v <- momentum * v + g; p <- p - lr * v, each once over the flat
    vectors, with ``momentum`` under ``check_momentum``. Updates ``params``
    and the velocity ``vel`` in place and returns both."""
    if not is_positive_finite(lr):
        raise ValueError(f"learning rate must be positive and finite, got {lr!r}")
    momentum = check_momentum(momentum)
    if not params.dims == grads.dims == vel.dims:
        raise ValueError("gradient or velocity shapes do not match parameters")
    v = vel.flat
    v *= momentum
    v += grads.flat
    params.flat -= lr * v
    return params, vel


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


def check_schedule(schedule, total_epochs):
    """ValueError unless ``schedule`` gives a positive, finite rate at each
    of ``total_epochs`` epochs: a base rate and factors that each are can
    still multiply to 0 or overflow to inf."""
    for epoch in range(total_epochs):
        lr = lr_at(schedule, epoch, total_epochs)
        if not is_positive_finite(lr):
            rule = "each epoch's must be positive and finite"
            raise ValueError(f"schedule gives learning rate {lr!r} at epoch {epoch}; {rule}")


# ---------------------------------------------------------------------------
# a model's canonical bytes: magic, layer count, then per layer fan_in/fan_out
# as little-endian int64 followed by row-major weights and bias as
# little-endian float32


def params_to_bytes(params):
    """The mlp-v2 bytes of ``params``, rounded to float32 if they are wider:
    the bytes two models compare and digest by. Nothing reads them back; a
    checkpoint (``pipeline``) stores a model its own way."""
    chunks = [MLP_MAGIC, struct.pack("<q", len(params.weights))]
    for w, b in zip(params.weights, params.biases):
        fan_out, fan_in = w.shape
        chunks.append(struct.pack("<qq", fan_in, fan_out))
        chunks.append(np.ascontiguousarray(w, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f4").tobytes())
    return b"".join(chunks)
