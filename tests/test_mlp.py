import math

import numpy as np
import pytest

from longtail_kd.losses import ce_loss_batch
from longtail_kd.mathutils import Rng
from longtail_kd.mlp import (
    LrSchedule,
    MlpParams,
    backward,
    forward,
    init_mlp,
    init_optimizer,
    load_mlp,
    lr_at,
    params_from_bytes,
    params_to_bytes,
    save_mlp,
    sgd_momentum_step,
)


def naive_forward(params, x):
    # independent re-implementation: plain loops, no shared code with forward()
    a = [float(v) for v in x]
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for r in range(w.shape[0]):
            s = b[r]
            for c in range(w.shape[1]):
                s += w[r, c] * a[c]
            out.append(s)
        if layer < len(params.weights) - 1:
            a = [v if v > 0 else 0.0 for v in out]
        else:
            a = out
    return np.array(a)


class TestInit:
    def test_bound_and_zero_bias(self):
        params = init_mlp([4, 3], seed=0)
        assert np.abs(params.weights[0]).max() <= math.sqrt(6.0 / 4.0)
        np.testing.assert_array_equal(params.biases[0], np.zeros(3))

    def test_deterministic(self):
        a = init_mlp([5, 7, 2], seed=9)
        b = init_mlp([5, 7, 2], seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_single_width_rejected(self):
        with pytest.raises(ValueError):
            init_mlp([2], seed=0)
        with pytest.raises(ValueError):
            init_mlp([2, 0], seed=0)

    def test_dims_property(self):
        assert init_mlp([6, 8, 4], seed=1).dims == (6, 8, 4)


class TestForward:
    def test_zero_params_zero_logits(self):
        params = init_mlp([3, 2], seed=0)
        params.weights[0][:] = 0.0
        logits, _ = forward(params, np.ones(3))
        np.testing.assert_array_equal(logits, [0.0, 0.0])

    def test_single_linear_layer_is_affine(self):
        rng = Rng(50)
        w = rng.normal((3, 4))
        b = rng.normal(3)
        params = MlpParams([w], [b])
        x = rng.normal(4)
        logits, _ = forward(params, x)
        np.testing.assert_allclose(logits, w @ x + b, atol=1e-15)

    def test_matches_independent_reimplementation(self):
        rng = Rng(51)
        params = init_mlp([6, 8, 5, 4], seed=3)
        for _ in range(10):
            x = rng.normal(6)
            got, _ = forward(params, x)
            assert np.abs(got - naive_forward(params, x)).max() < 1e-12

    def test_batch_rows_match_single(self):
        # BLAS may pick different kernels for (1, d) and (N, d) inputs, so
        # rows agree to summation-order rounding rather than bit-exactly
        params = init_mlp([4, 6, 3], seed=5)
        X = Rng(52).normal((9, 4))
        batch_logits, _ = forward(params, X)
        for i in range(9):
            single, _ = forward(params, X[i])
            np.testing.assert_allclose(batch_logits[i], single, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = init_mlp([4, 3], seed=0)
        with pytest.raises(ValueError):
            forward(params, np.ones(5))


class TestBackward:
    def test_zero_grad_logits_give_zero_grads(self):
        params = init_mlp([4, 5, 3], seed=1)
        _, cache = forward(params, np.ones(4))
        grads = backward(params, cache, np.zeros(3))
        for g in grads.weights + grads.biases:
            assert not g.any()

    def test_single_linear_layer_outer_product(self):
        rng = Rng(53)
        params = MlpParams([rng.normal((3, 4))], [rng.normal(3)])
        x = rng.normal(4)
        g = rng.normal(3)
        _, cache = forward(params, x)
        grads = backward(params, cache, g)
        np.testing.assert_allclose(grads.weights[0], np.outer(g, x), atol=1e-15)
        np.testing.assert_allclose(grads.biases[0], g, atol=1e-15)

    def test_end_to_end_finite_differences(self):
        # loss(theta) = mean CE of the network output; perturb every scalar
        rng = Rng(54)
        params = init_mlp([6, 8, 4], seed=7)
        X = rng.normal((3, 6))
        ys = np.array([0, 2, 3])

        def loss_value():
            logits, _ = forward(params, X)
            values, _ = ce_loss_batch(logits, ys)
            return float(values.mean())

        logits, cache = forward(params, X)
        _, grads_logits = ce_loss_batch(logits, ys)
        grads = backward(params, cache, grads_logits / 3.0)

        h = 1e-5
        for kind, analytic_list, param_list in (
            ("w", grads.weights, params.weights),
            ("b", grads.biases, params.biases),
        ):
            for analytic, p in zip(analytic_list, param_list):
                flat = p.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss_value()
                    flat[idx] = orig - h
                    down = loss_value()
                    flat[idx] = orig
                    fd = (up - down) / (2.0 * h)
                    assert abs(analytic.reshape(-1)[idx] - fd) < 1e-6

    def test_shape_mismatch_rejected(self):
        params = init_mlp([4, 3], seed=0)
        _, cache = forward(params, np.ones(4))
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros((2, 3)))


def preact_reference(params, X, grad_logits):
    """Logits and parameter gradients the allocating way: every layer's
    pre-activation kept in its own array, and backward masking on it."""
    a, inputs, preacts = X, [X], []
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = a @ w.T + b
        if l < last:
            preacts.append(pre)
            a = np.maximum(pre, 0.0)
            inputs.append(a)
        else:
            a = pre
    g = grad_logits
    gw, gb = [None] * len(params.weights), [None] * len(params.weights)
    for l in range(last, -1, -1):
        gw[l] = g.T @ inputs[l]
        gb[l] = g.sum(axis=0)
        if l > 0:
            g = (g @ params.weights[l]) * (preacts[l - 1] > 0)
    return a, gw, gb


def random_net(dims, n, seed):
    rng = Rng(seed)
    params = init_mlp(dims, seed=seed)
    for b in params.biases:
        b[:] = 0.1 * rng.normal(b.size)
    X = rng.normal((n, dims[0]))
    X[:3] = 0.0  # rows whose first-layer pre-activations are the bias alone
    params.biases[0][:2] = 0.0  # ... and exactly zero in two units
    return params, X


class TestBuffers:
    """Per-layer ``out`` buffers and the input-masked backward keep every bit."""

    @pytest.mark.parametrize("n, dims", [(1000, (20, 64, 64, 10)), (2000, (64, 512, 512, 20))])
    def test_buffered_forward_matches_allocating_call_bit_for_bit(self, n, dims):
        params, X = random_net(dims, n, seed=71)
        expected, _, _ = preact_reference(params, X, np.zeros((n, dims[-1])))
        allocating, _ = forward(params, X)
        assert allocating.tobytes() == expected.tobytes()
        out = [np.full((n, w.shape[0]), np.nan) for w in params.weights]
        for _ in range(2):  # a reused set of buffers gives the same bits again
            logits, cache = forward(params, X, out=out)
            assert logits.tobytes() == expected.tobytes()
        assert np.shares_memory(logits, out[-1])
        for a, buf in zip(cache["inputs"][1:], out[:-1]):
            assert np.shares_memory(a, buf)

    @pytest.mark.parametrize("dims", [(6, 8, 4), (20, 64, 64, 10)])
    def test_backward_masks_like_the_preactivation_reference(self, dims):
        params, X = random_net(dims, 64, seed=72)
        G = Rng(73).normal((64, dims[-1]))
        _, ref_w, ref_b = preact_reference(params, X, G)
        grads = backward(params, forward(params, X)[1], G)
        for got, ref in zip(grads.weights + grads.biases, ref_w + ref_b):
            assert got.tobytes() == ref.tobytes()

    def test_cache_holds_no_preactivations(self):
        params, X = random_net((6, 8, 4), 5, seed=74)
        assert set(forward(params, X)[1]) == {"inputs", "single"}


class TestSgdMomentum:
    def test_zero_momentum_is_vanilla_sgd(self):
        params = init_mlp([2, 2], seed=0)
        before = params.copy()
        grads = backward(params, forward(params, np.ones(2))[1], np.array([1.0, -1.0]))
        state = init_optimizer(params, momentum=0.0)
        sgd_momentum_step(params, grads, state, lr=1.0)
        for p, p0, g in zip(params.weights, before.weights, grads.weights):
            np.testing.assert_array_equal(p, p0 - g)

    def test_zero_grads_still_move_with_loaded_buffer(self):
        params = init_mlp([2, 2], seed=0)
        before = params.copy()
        state = init_optimizer(params, momentum=0.9)
        state.vel_weights[0][:] = 1.0
        zero = backward(params, forward(params, np.zeros(2))[1], np.zeros(2))
        sgd_momentum_step(params, zero, state, lr=0.5)
        np.testing.assert_allclose(params.weights[0], before.weights[0] - 0.5 * 0.9 * 1.0)

    def test_two_runs_bit_identical(self):
        def run():
            rng = Rng(55)
            params = init_mlp([3, 4, 2], seed=2)
            state = init_optimizer(params, momentum=0.9)
            for _ in range(20):
                x = rng.normal(3)
                logits, cache = forward(params, x)
                grads = backward(params, cache, logits - np.array([1.0, 0.0]))
                sgd_momentum_step(params, grads, state, lr=0.01)
            return params

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestLrSchedule:
    def test_cosine_start_and_midpoint(self):
        s = LrSchedule("cosine", 0.2)
        assert lr_at(s, 0, 100) == 0.2
        assert abs(lr_at(s, 50, 100) - 0.1) < 1e-12

    def test_step_decay_recipe(self):
        s = LrSchedule("step", 0.1, steps=((160, 0.01), (180, 0.01)))
        assert abs(lr_at(s, 0, 200) - 0.1) < 1e-15
        assert abs(lr_at(s, 170, 200) - 0.001) < 1e-15
        assert abs(lr_at(s, 185, 200) - 0.00001) < 1e-15

    def test_constant(self):
        assert lr_at(LrSchedule("constant", 0.05), 33, 100) == 0.05

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(LrSchedule("cosine", 0.1), 100, 100)
        with pytest.raises(ValueError):
            lr_at(LrSchedule("cosine", 0.1), -1, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule("warmup", 0.1)
        with pytest.raises(ValueError):
            LrSchedule("cosine", -0.1)
        with pytest.raises(ValueError):
            LrSchedule("step", 0.1, steps=((10, 0.1), (10, 0.1)))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_mlp([5, 9, 3], seed=21)
        path = str(tmp_path / "model.mlp")
        save_mlp(params, path)
        loaded = load_mlp(path)
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            np.testing.assert_array_equal(a, b)
        x = Rng(56).normal(5)
        np.testing.assert_array_equal(forward(params, x)[0], forward(loaded, x)[0])

    def test_magic_enforced(self):
        with pytest.raises(ValueError):
            params_from_bytes(b"not-a-model")

    def test_truncation_detected(self):
        blob = params_to_bytes(init_mlp([3, 2], seed=0))
        with pytest.raises(ValueError):
            params_from_bytes(blob[:-4])
        with pytest.raises(ValueError):
            params_from_bytes(blob + b"xx")
