import math

import numpy as np
import pytest

from longtail_kd.losses import Objective, objective_loss_batch
from longtail_kd.mathutils import Rng
from longtail_kd.mlp import (
    LrSchedule,
    MlpParams,
    backward,
    forward,
    init_mlp,
    lr_at,
    params_to_bytes,
    sgd_momentum_step,
)
from longtail_kd.pipeline import RunState, read_checkpoint, write_checkpoint


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
        logits, _ = forward(params, np.ones((1, 3)))
        np.testing.assert_array_equal(logits, [[0.0, 0.0]])

    def test_single_linear_layer_is_affine(self):
        rng = Rng(50)
        w = rng.normal((3, 4))
        b = rng.normal(3)
        params = MlpParams([w], [b])
        x = rng.normal((1, 4))
        logits, _ = forward(params, x)
        np.testing.assert_allclose(logits[0], w @ x[0] + b, atol=1e-15)

    def test_matches_independent_reimplementation(self):
        rng = Rng(51)
        params = init_mlp([6, 8, 5, 4], seed=3)
        for _ in range(10):
            x = rng.normal((1, 6))
            got, _ = forward(params, x)
            assert np.abs(got[0] - naive_forward(params, x[0])).max() < 1e-12

    def test_batch_rows_match_single(self):
        # BLAS may pick different kernels for (1, d) and (N, d) inputs, so
        # rows agree to summation-order rounding rather than bit-exactly
        params = init_mlp([4, 6, 3], seed=5)
        X = Rng(52).normal((9, 4))
        batch_logits, _ = forward(params, X)
        for i in range(9):
            single, _ = forward(params, X[i : i + 1])
            np.testing.assert_allclose(batch_logits[i], single[0], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = init_mlp([4, 3], seed=0)
        with pytest.raises(ValueError):
            forward(params, np.ones((1, 5)))

    def test_vector_input_rejected(self):
        # one sample is a (1, d) batch; a bare vector is refused
        params = init_mlp([4, 3], seed=0)
        with pytest.raises(ValueError, match=r"input of shape \(4,\) is not an \(N, 4\) batch"):
            forward(params, np.ones(4))


class TestBackward:
    def test_zero_grad_logits_give_zero_grads(self):
        params = init_mlp([4, 5, 3], seed=1)
        _, cache = forward(params, np.ones((1, 4)))
        grads = backward(params, cache, np.zeros((1, 3)))
        for g in grads.weights + grads.biases:
            assert not g.any()

    def test_single_linear_layer_outer_product(self):
        rng = Rng(53)
        params = MlpParams([rng.normal((3, 4))], [rng.normal(3)])
        x = rng.normal((1, 4))
        g = rng.normal((1, 3))
        _, cache = forward(params, x)
        grads = backward(params, cache, g)
        np.testing.assert_allclose(grads.weights[0], np.outer(g, x), atol=1e-15)
        np.testing.assert_allclose(grads.biases[0], g[0], atol=1e-15)

    def test_end_to_end_finite_differences(self):
        # loss(theta) = mean CE of the network output; perturb every scalar
        rng = Rng(54)
        params = init_mlp([6, 8, 4], seed=7)
        X = rng.normal((3, 6))
        ys = np.array([0, 2, 3])

        def loss_value():
            logits, _ = forward(params, X)
            values, _ = objective_loss_batch(logits, ys, None, ce)
            return float(values.mean())

        ce = Objective()
        logits, cache = forward(params, X)
        _, grads_logits = objective_loss_batch(logits, ys, None, ce)
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
        _, cache = forward(params, np.ones((1, 4)))
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros((2, 3)))

    @pytest.mark.parametrize("dims", [(4, 5, 3), (4, 3), (4, 1, 1), (1, 1)])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_every_gradient_shape_but_the_logits_refused(self, dims, buffered):
        # backward checks no shape itself: numpy's matmul refuses each of these
        params = init_mlp(dims, seed=0)
        _, cache = forward(params, np.ones((2, dims[0])))
        C = dims[-1]
        shapes = [(3, C), (1, C), (2, C + 1), (2, C - 1), (2,), (C,), (2 * C,), (2, C, 1), (1, 2, C), ()]
        for shape in shapes:
            with pytest.raises(ValueError):
                backward(params, cache, np.ones(shape), out=MlpParams.zeros(dims) if buffered else None)


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

    @pytest.mark.parametrize("dims", [(6, 8, 4), (20, 64, 64, 10)])
    def test_buffered_backward_matches_allocating_call_bit_for_bit(self, dims):
        params, X = random_net(dims, 64, seed=75)
        out = MlpParams.from_flat(np.full(params.flat.size, np.nan), params.dims)
        for seed in (76, 77):  # the second call overwrites the first call's gradients
            G = Rng(seed).normal((64, dims[-1]))
            cache = forward(params, X)[1]
            expected = backward(params, cache, G)
            assert backward(params, cache, G, out=out) is out
            assert out.flat.tobytes() == expected.flat.tobytes()

    def test_backward_buffer_of_other_dims_rejected(self):
        params, X = random_net((6, 8, 4), 5, seed=78)
        with pytest.raises(ValueError, match="gradient buffer dims"):
            backward(params, forward(params, X)[1], np.zeros((5, 4)), out=MlpParams.zeros((6, 9, 4)))

    def test_cache_holds_no_preactivations(self):
        params, X = random_net((6, 8, 4), 5, seed=74)
        assert set(forward(params, X)[1]) == {"inputs"}


class TestSgdMomentum:
    def test_zero_momentum_is_vanilla_sgd(self):
        params = init_mlp([2, 2], seed=0)
        before = params.copy()
        grads = backward(params, forward(params, np.ones((1, 2)))[1], np.array([[1.0, -1.0]]))
        sgd_momentum_step(params, grads, MlpParams.zeros(params.dims), momentum=0.0, lr=1.0)
        for p, p0, g in zip(params.weights, before.weights, grads.weights):
            np.testing.assert_array_equal(p, p0 - g)

    def test_zero_grads_still_move_with_loaded_buffer(self):
        params = init_mlp([2, 2], seed=0)
        before = params.copy()
        vel = MlpParams.zeros(params.dims)
        vel.weights[0][:] = 1.0
        zero = backward(params, forward(params, np.zeros((1, 2)))[1], np.zeros((1, 2)))
        sgd_momentum_step(params, zero, vel, momentum=0.9, lr=0.5)
        np.testing.assert_allclose(params.weights[0], before.weights[0] - 0.5 * 0.9 * 1.0)

    def test_two_runs_bit_identical(self):
        def run():
            rng = Rng(55)
            params = init_mlp([3, 4, 2], seed=2)
            vel = MlpParams.zeros(params.dims)
            for _ in range(20):
                x = rng.normal((1, 3))
                logits, cache = forward(params, x)
                grads = backward(params, cache, logits - np.array([[1.0, 0.0]]))
                sgd_momentum_step(params, grads, vel, momentum=0.9, lr=0.01)
            return params

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("dims, n", [((20, 64, 64, 10), 64), ((64, 512, 512, 20), 256)])
    def test_flat_step_matches_per_layer_loop_bit_for_bit(self, dims, n):
        params, X = random_net(dims, n, seed=75)
        G = Rng(76).normal((n, dims[-1]))
        vel = MlpParams.zeros(params.dims)
        # the per-layer reference: separate arrays, one update per array
        ref_p = [a.copy() for a in params.weights + params.biases]
        ref_v = [np.zeros_like(a) for a in ref_p]
        for step in range(20):
            grads = backward(params, forward(params, X)[1], G / n)
            lr = 0.05 / (1 + step)
            sgd_momentum_step(params, grads, vel, 0.9, lr)
            for p, g, v in zip(ref_p, grads.weights + grads.biases, ref_v):
                v *= 0.9
                v += g
                p -= lr * v
        for got, ref in zip(params.weights + params.biases, ref_p):
            assert got.tobytes() == ref.tobytes()
        for got, ref in zip(vel.weights + vel.biases, ref_v):
            assert got.tobytes() == ref.tobytes()

    def test_mismatched_shapes_rejected(self):
        params = init_mlp([3, 4, 2], seed=0)
        grads = backward(params, forward(params, np.ones((1, 3)))[1], np.ones((1, 2)))
        # (12, 2) has the 26 values of (3, 4, 2): only the dims tell it apart
        for other in ((3, 5, 2), (12, 2)):
            with pytest.raises(ValueError, match=r"^gradient or velocity shapes do not match parameters$"):
                sgd_momentum_step(params, grads, MlpParams.zeros(other), 0.9, lr=0.1)
        with pytest.raises(ValueError, match="positive"):
            sgd_momentum_step(params, grads, MlpParams.zeros(params.dims), 0.9, lr=0.0)

    @pytest.mark.parametrize("lr", [math.inf, math.nan, 0, -1])
    def test_rate_must_be_positive_and_finite(self, lr):
        # an infinite rate once made every parameter non-finite, with no error
        params = init_mlp([3, 4, 2], seed=0)
        grads = backward(params, forward(params, np.ones((1, 3)))[1], np.ones((1, 2)))
        before = params_to_bytes(params)
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            sgd_momentum_step(params, grads, MlpParams.zeros(params.dims), 0.9, lr=lr)
        assert params_to_bytes(params) == before

    @pytest.mark.parametrize("momentum", [math.nan, 1.5, -0.5])
    def test_momentum_outside_zero_one_refused_before_any_update(self, momentum):
        params = init_mlp([3, 4, 2], seed=0)
        grads = backward(params, forward(params, np.ones((1, 3)))[1], np.ones((1, 2)))
        vel = params.copy()
        before = params_to_bytes(params), params_to_bytes(vel)
        with pytest.raises(ValueError) as info:
            sgd_momentum_step(params, grads, vel, momentum, lr=0.1)
        assert str(info.value) == f"momentum must lie in [0, 1), got {momentum!r}"
        assert (params_to_bytes(params), params_to_bytes(vel)) == before

    def test_momentum_of_exactly_one_refused(self):
        params = init_mlp([3, 4, 2], seed=0)
        grads = backward(params, forward(params, np.ones((1, 3)))[1], np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"^momentum must lie in \[0, 1\), got 1\.0$"):
            sgd_momentum_step(params, grads, MlpParams.zeros(params.dims), 1.0, lr=0.1)


class TestFloatDtype:
    """Forward, backward and the SGD step compute in the parameters' dtype."""

    def test_a_float32_model_computes_in_float32(self):
        params = init_mlp([5, 7, 3], seed=4).astype(np.float32)
        X = Rng(6).normal((4, 5))
        logits, cache = forward(params, X)  # the float64 batch is cast, not the model
        assert logits.dtype == np.float32
        assert logits.tobytes() == forward(params, X.astype(np.float32))[0].tobytes()
        grads = backward(params, cache, np.ones((4, 3)))
        vel = MlpParams.zeros(params.dims, np.float32)
        sgd_momentum_step(params, grads, vel, momentum=0.9, lr=0.1)
        assert params.flat.dtype == grads.flat.dtype == vel.flat.dtype == np.float32

    def test_a_float64_model_stays_float64(self):
        params = init_mlp([5, 7, 3], seed=4)
        logits, cache = forward(params, np.ones((2, 5), np.float32))
        assert logits.dtype == backward(params, cache, np.ones((2, 3), np.float32)).flat.dtype == np.float64

    @pytest.mark.parametrize("dtype, kept", [(np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64)])
    def test_constructor_keeps_the_float_dtype_it_is_built_from(self, dtype, kept):
        params = MlpParams([np.ones((2, 3), dtype)], [np.zeros(2, dtype)])
        assert params.flat.dtype == kept
        assert params.astype(np.float32).flat.dtype == np.float32


class TestFlatStorage:
    """Parameters, gradients and velocities each live in one flat vector."""

    @staticmethod
    def assert_views_of_own_flat(p, dtype=np.float64):
        assert p.flat.ndim == 1 and p.flat.dtype == dtype
        off = 0
        for w, b in zip(p.weights, p.biases):  # mlp-v2 payload order: weights, then bias
            for a in (w, b):
                assert np.shares_memory(a, p.flat)
                assert a.reshape(-1).tobytes() == p.flat[off : off + a.size].tobytes()
                off += a.size
        assert off == p.flat.size

    def test_params_gradients_and_velocities_view_their_own_flat(self, tmp_path):
        params = init_mlp([5, 7, 3], seed=4)
        grads = backward(params, forward(params, np.ones((2, 5)))[1], np.ones((2, 3)))
        vel = MlpParams.zeros(params.dims)
        for p in (params, grads, vel, params.copy()):
            self.assert_views_of_own_flat(p)
        path = str(tmp_path / "a.ckpt")
        write_checkpoint(path, RunState(params, vel, Rng(1), [], bytes(32)))
        read = read_checkpoint(path)
        for p in (read.params, read.vel):
            self.assert_views_of_own_flat(p, np.float32)  # a checkpoint holds float32
        flats = [params.flat, grads.flat, vel.flat, params.copy().flat, read.params.flat, read.vel.flat]
        for i, a in enumerate(flats):
            for b in flats[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_constructor_copies_into_a_new_vector(self):
        w, b = np.arange(6.0).reshape(2, 3), np.array([1.0, 2.0])
        params = MlpParams([w], [b])
        self.assert_views_of_own_flat(params)
        assert params.dims == (3, 2)
        assert params.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0]
        assert not np.shares_memory(params.flat, w)

    def test_constructor_rejects_shapes_that_do_not_chain(self):
        with pytest.raises(ValueError):
            MlpParams([np.ones((2, 3)), np.ones((4, 3))], [np.ones(2), np.ones(4)])
        with pytest.raises(ValueError):
            MlpParams([np.ones((2, 3))], [np.ones(3)])
        with pytest.raises(ValueError):
            MlpParams([], [])


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

    @pytest.mark.parametrize("kind", ["cosine", "constant"])
    def test_steps_act_only_under_the_step_kind(self, kind):
        # a cosine schedule given steps once compared, and digested, apart
        # from the same schedule without them, though the two train alike
        assert LrSchedule(kind, 0.02, steps=((1, 0.5),)) == LrSchedule(kind, 0.02)
        assert LrSchedule(kind, 0.02, steps=((2, 0.5), (1, 0.5))).steps == ()
        assert LrSchedule("step", 0.02, steps=((1, 0.5),)).steps == ((1, 0.5),)

    @pytest.mark.parametrize("base_lr", [0.0, float("inf"), float("nan")])
    def test_base_rate_must_be_positive_and_finite(self, base_lr):
        with pytest.raises(ValueError, match="base_lr must be positive and finite"):
            LrSchedule("constant", base_lr)

    @pytest.mark.parametrize("factor", [0.0, -0.5, float("nan"), float("inf"), -float("inf")])
    def test_step_factor_must_be_positive_and_finite(self, factor):
        # a factor of 0 once let training start and fail at the first SGD step
        with pytest.raises(ValueError, match="step factors must be positive and finite"):
            LrSchedule("step", 0.1, steps=((1, 0.5), (3, factor)))

    def test_numpy_reals_stored_as_python_floats_and_ints(self):
        schedule = LrSchedule("step", np.float32(0.5), steps=((np.int64(2), np.float32(0.25)), (3, 1)))
        assert schedule == LrSchedule("step", 0.5, steps=((2, 0.25), (3, 1.0)))
        assert type(schedule.base_lr) is float
        assert [(type(e), type(f)) for e, f in schedule.steps] == [(int, float), (int, float)]

    def test_step_epoch_must_be_an_integer(self):
        with pytest.raises(ValueError, match="each step epoch must be a nonnegative integer, got 1.5"):
            LrSchedule("step", 0.1, steps=((1.5, 0.5),))

    @pytest.mark.parametrize("steps", [5, (5,), ((1, 0.5, 2),), "1:0.5"])
    def test_steps_must_be_epoch_factor_pairs(self, steps):
        # steps=5 and (5,) once raised TypeError ("... is not iterable")
        with pytest.raises(ValueError, match=r"steps must be a sequence of \(epoch, factor\) pairs"):
            LrSchedule("step", 0.1, steps)

    def test_step_epoch_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="each step epoch must be a nonnegative integer, got -1"):
            LrSchedule("step", 0.1, steps=((-1, 0.5),))
        assert lr_at(LrSchedule("step", 0.1, steps=((0, 0.5),)), 0, 2) == 0.05


class TestSerialization:
    def test_a_float64_model_is_stored_rounded_to_float32(self):
        params = init_mlp([4, 6, 3], seed=5)
        assert params_to_bytes(params) == params_to_bytes(params.astype(np.float32))
        assert len(params_to_bytes(params)) == len(b"mlp-v2") + 8 + 2 * 16 + 4 * params.flat.size
