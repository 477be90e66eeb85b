"""Dense rectifier network with explicit forward/backward passes, SGD with
momentum, learning-rate schedules, and a versioned binary parameter format.

Layers are affine maps with rectified-linear hidden activations; the final
layer emits raw logits. ``forward`` accepts a single feature vector or an
(N, d) batch; ``backward`` consumes the matching cache and the loss gradient
with respect to the logits, summing parameter gradients over the batch rows
it is given (scale grad_logits by 1/N beforehand for a mean reduction). The
cache holds each layer's input and no pre-activations: ``backward`` masks
on the rectified inputs. A caller that scores the same number of rows again
and again can pass per-layer ``out`` buffers to ``forward`` and reuse them,
so no layer-sized array is allocated per call.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .mathutils import Rng

MLP_MAGIC = b"mlp-v1"


@dataclass
class MlpParams:
    """Per-layer weight matrices (fan_out, fan_in) and bias vectors (fan_out,)."""

    weights: list
    biases: list

    @property
    def dims(self):
        """Layer widths, input first: (d_in, hidden..., d_out)."""
        return tuple([self.weights[0].shape[1]] + [w.shape[0] for w in self.weights])

    def copy(self):
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class MlpGradients:
    weights: list
    biases: list


@dataclass
class OptimizerState:
    """Momentum buffers mirroring the parameter shapes."""

    vel_weights: list
    vel_biases: list
    momentum: float = 0.9


@dataclass(frozen=True)
class LrSchedule:
    """Constant, step-decay, or cosine-decay schedule over epochs.

    ``steps`` holds (epoch, multiplicative factor) pairs for kind "step";
    each factor applies from its epoch onward.
    """

    kind: str = "cosine"
    base_lr: float = 0.1
    steps: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "step", "cosine"):
            raise ValueError(f"schedule kind must be constant/step/cosine, got {self.kind!r}")
        if not (isinstance(self.base_lr, (int, float)) and self.base_lr > 0):
            raise ValueError(f"base_lr must be positive, got {self.base_lr!r}")
        epochs = [e for e, _ in self.steps]
        if any(e2 <= e1 for e1, e2 in zip(epochs, epochs[1:])):
            raise ValueError("step epochs must be strictly increasing")


def init_mlp(dims, seed):
    """Weights uniform in +-sqrt(6 / fan_in), biases zero, deterministic in seed."""
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError("need at least an input and an output layer")
    if any(d < 1 for d in dims):
        raise ValueError("all layer widths must be positive")
    rng = Rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / fan_in)
        w = (2.0 * rng.uniform((fan_out, fan_in)) - 1.0) * bound
        weights.append(w)
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MlpParams(weights, biases)


def forward(params, x, out=None):
    """Logits and an activation cache for ``backward``.

    1-D input gives a 1-D logit vector; an (N, d) batch gives (N, C). Each
    layer adds its bias and rectifies in place, so a layer makes one array.
    ``out``, if given, holds one (N, fan_out) float64 buffer per layer; the
    layers are written into them, and the logits and the cache are views of
    those buffers, valid until the buffers are written again. The cache
    keeps only each layer's input: relu(x) > 0 exactly when x > 0, so the
    rectified input of layer l is also the mask of layer l - 1.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input dimension {x.shape} does not match first layer fan_in {params.weights[0].shape[1]}"
        )
    inputs = [X]
    a = X
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = np.matmul(a, w.T, out=None if out is None else out[l])
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
            inputs.append(a)
    cache = {"inputs": inputs, "single": single}
    return (a[0] if single else a), cache


def backward(params, cache, grad_logits):
    """Parameter gradients by reverse-mode chain rule.

    The rectifier subgradient at exactly 0 is taken as 0. Gradients are
    summed over the batch rows present in ``grad_logits``.
    """
    g = np.asarray(grad_logits, dtype=np.float64)
    if cache["single"]:
        if g.ndim != 1:
            raise ValueError("grad_logits must be 1-D for a single-sample cache")
        g = g[None, :]
    n_layers = len(params.weights)
    inputs = cache["inputs"]
    if g.shape != (inputs[0].shape[0], params.weights[-1].shape[0]):
        raise ValueError(f"grad_logits shape {grad_logits.shape} does not match the forward cache")
    gw = [None] * n_layers
    gb = [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        gw[l] = g.T @ inputs[l]
        gb[l] = g.sum(axis=0)
        if l > 0:
            g = (g @ params.weights[l]) * (inputs[l] > 0)
    return MlpGradients(gw, gb)


def init_optimizer(params, momentum=0.9):
    return OptimizerState(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        float(momentum),
    )


def sgd_momentum_step(params, grads, state, lr):
    """v <- momentum * v + g; p <- p - lr * v. Updates in place and returns both."""
    if not (isinstance(lr, (int, float)) and lr > 0):
        raise ValueError(f"learning rate must be positive, got {lr!r}")
    for p, g, v in zip(params.weights, grads.weights, state.vel_weights):
        if p.shape != g.shape:
            raise ValueError("gradient shapes do not match parameters")
        v *= state.momentum
        v += g
        p -= lr * v
    for p, g, v in zip(params.biases, grads.biases, state.vel_biases):
        if p.shape != g.shape:
            raise ValueError("gradient shapes do not match parameters")
        v *= state.momentum
        v += g
        p -= lr * v
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


def params_from_bytes(blob):
    if blob[: len(MLP_MAGIC)] != MLP_MAGIC:
        raise ValueError("not an mlp-v1 parameter blob")
    off = len(MLP_MAGIC)

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise ValueError("truncated mlp-v1 parameter blob")
        piece = blob[off : off + n]
        off += n
        return piece

    (n_layers,) = struct.unpack("<q", take(8))
    if n_layers < 1:
        raise ValueError("mlp-v1 blob declares no layers")
    weights, biases = [], []
    for _ in range(n_layers):
        fan_in, fan_out = struct.unpack("<qq", take(16))
        if fan_in < 1 or fan_out < 1:
            raise ValueError("mlp-v1 blob has non-positive layer dimensions")
        w = np.frombuffer(take(8 * fan_in * fan_out), dtype="<f8").reshape(fan_out, fan_in)
        b = np.frombuffer(take(8 * fan_out), dtype="<f8")
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    if off != len(blob):
        raise ValueError("trailing bytes after mlp-v1 parameter blob")
    return MlpParams(weights, biases)


def save_mlp(params, path):
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_mlp(path):
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
