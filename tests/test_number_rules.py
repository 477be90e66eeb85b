"""The number rules of ``mathutils`` at every entry point that takes an
integer, a real, an integer array or a real array: a bool and a fractional
integer are refused, a numpy number is stored as the Python number it
equals, and a real array of bool, text, object or complex dtype is refused."""

import math
import re
import struct

import numpy as np
import pytest

from longtail_kd.data import FEW, MANY, ImbalanceProfile, LabeledDataset, subset_tags, synth_gaussian_mixture
from longtail_kd.evaluate import accuracy_report, confusion_matrix
from longtail_kd.gradcheck import finite_difference_gradient, run_gradient_checks
from longtail_kd.losses import BKDConfig, KDConfig, balanced_targets, bkd_loss, cb_loss, ce_loss, distill_grad_formula
from longtail_kd.losses import kd_loss, softmax_rows
from longtail_kd.mathutils import Rng, check_int, check_int_array, check_real, check_real_array, is_real
from longtail_kd.mathutils import softmax_with_temperature
from longtail_kd.mlp import LrSchedule, MlpParams, init_mlp, sgd_momentum_step
from longtail_kd.weights import effective_number_weights, normalize_weights
from test_pipeline import small_cfg


def _synth(counts=(3, 2), dim=2, separation=1.0, per_class_test=2):
    return synth_gaussian_mixture(counts, dim, separation, 0, per_class_test)


def _momentum_step(momentum):
    """The velocity bytes after one SGD step under ``momentum`` from a nonzero velocity."""
    params = init_mlp([2, 2], 0)
    vel = params.copy()
    sgd_momentum_step(params, MlpParams.zeros(params.dims), vel, momentum, 0.1)
    return vel.flat.tobytes()


# entry point -> (what it stores or returns for a value, a valid Python int)
INTS = {
    "TrainConfig.epochs": (lambda v: small_cfg(epochs=v).epochs, 4),
    "TrainConfig.batch_size": (lambda v: small_cfg(batch_size=v).batch_size, 16),
    "TrainConfig.seed": (lambda v: small_cfg(seed=v).seed, 3),
    "TrainConfig.hidden_dims": (lambda v: small_cfg(hidden_dims=(v,)).hidden_dims[0], 12),
    "TrainConfig.many_thresh": (lambda v: small_cfg(many_thresh=v).many_thresh, 100),
    "TrainConfig.few_thresh": (lambda v: small_cfg(few_thresh=v).few_thresh, 20),
    "LrSchedule step epoch": (lambda v: LrSchedule("step", 0.5, ((v, 0.25),)).steps[0][0], 2),
    "ImbalanceProfile.n_max": (lambda v: ImbalanceProfile("step", 10.0, v, 4).n_max, 100),
    "ImbalanceProfile.num_classes": (lambda v: ImbalanceProfile("step", 10.0, 100, v).num_classes, 4),
    "synth_gaussian_mixture dim": (lambda v: _synth(dim=v)[0].features.tobytes(), 3),
    "synth_gaussian_mixture per_class_test": (lambda v: _synth(per_class_test=v)[1].features.tobytes(), 4),
    "LabeledDataset.num_classes": (lambda v: LabeledDataset(np.zeros((2, 2)), [0, 1], v).num_classes, 3),
    "subset_tags thresholds": (lambda v: subset_tags([150, 50, 5], v, 20), 100),
    "ce_loss label": (lambda v: ce_loss([0.5, -1.0, 2.0], v).grad_logits.tolist(), 1),
    "init_mlp width": (lambda v: init_mlp([3, v, 2], 0).dims[1], 4),
    "Rng seed": (lambda v: Rng(v).state[0], 7),
    "Rng.permutation": (lambda v: Rng(1).permutation(v).tolist(), 5),
    "run_gradient_checks trials": (lambda v: run_gradient_checks(trials=v, seed=0), 1),
    "confusion_matrix num_classes": (lambda v: confusion_matrix([0, 1], [0, 1], v).tolist(), 2),
    "Rng.uniform size": (lambda v: Rng(1).uniform((2, v)).tolist(), 3),
    "Rng.normal size": (lambda v: Rng(1).normal(v).tolist(), 3),
}

# entry point -> (what it stores for a value, a valid fractional real, a
# valid integer or None where no integer is valid)
REALS = {
    "TrainConfig.momentum": (lambda v: small_cfg(momentum=v).momentum, 0.5, 0),
    "TrainConfig.weight_decay": (lambda v: small_cfg(weight_decay=v).weight_decay, 0.25, 1),
    "KDConfig.alpha": (lambda v: KDConfig(alpha=v).alpha, 0.5, 1),
    "KDConfig.temperature": (lambda v: KDConfig(temperature=v).temperature, 2.5, 2),
    "BKDConfig.beta": (lambda v: BKDConfig(beta=v).beta, 0.5, None),
    "kd_loss alpha": (lambda v: _loss(kd_loss(LOGITS, PROBS, 1, alpha=v, temperature=2)).tobytes(), 0.5, 1),
    "kd_loss temperature": (lambda v: _loss(kd_loss(LOGITS, PROBS, 1, alpha=0.5, temperature=v)).tobytes(), 2.5, 2),
    "bkd_loss temperature": (lambda v: _loss(bkd_loss(LOGITS, PROBS, 1, WEIGHTS, temperature=v)).tobytes(), 2.5, 2),
    "LrSchedule.base_lr": (lambda v: LrSchedule("cosine", v).base_lr, 0.5, 1),
    "LrSchedule step factor": (lambda v: LrSchedule("step", 0.5, ((2, v),)).steps[0][1], 0.25, 2),
    "ImbalanceProfile.rho": (lambda v: ImbalanceProfile("exponential", v, 100, 4).rho, 10.5, 10),
    "synth_gaussian_mixture separation": (lambda v: _synth(separation=v)[0].features.tobytes(), 1.5, 2),
    "sgd_momentum_step momentum": (_momentum_step, 0.5, 0),
    "distill_grad_formula ce_coef": (lambda v: distill_grad_formula([1, 0], [0, 1], 0, v, 1, 2).tobytes(), 0.5, 2),
    "distill_grad_formula kl_coef": (lambda v: distill_grad_formula([1, 0], [0, 1], 0, 1, v, 2).tobytes(), 0.5, 2),
}

# entry point -> (what it stores or returns for a vector, a valid list of ints)
ARRAYS = {
    "synth_gaussian_mixture counts": (lambda v: _synth(counts=v)[0].labels.tolist(), [3, 2]),
    "effective_number_weights counts": (lambda v: effective_number_weights(v, 0.9).tolist(), [3, 2]),
    "subset_tags counts": (lambda v: subset_tags(v, 100, 20), [150, 50]),
    "LabeledDataset labels": (lambda v: LabeledDataset(np.zeros((2, 2)), v, 2).labels.tobytes(), [0, 1]),
    "confusion_matrix preds": (lambda v: confusion_matrix(v, [0, 1], 2).tolist(), [1, 1]),
    "confusion_matrix labels": (lambda v: confusion_matrix([0, 1], v, 2).tolist(), [0, 1]),
    "accuracy_report preds": (lambda v: accuracy_report(v, [0, 1], (MANY, FEW)), [0, 0]),
}


# the float64 values each real-array argument below is given, or a cast of
# them: integers, so int32 and int64 arrays hold them exactly, and
# probabilities that float32 holds exactly
LOGITS, PROBS, WEIGHTS = [1.0, -2.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0, 4.0]


def _loss(result):
    return np.append(result.grad_logits, result.value)


# entry point -> (the argument's name in its ValueError, what it returns for
# an array, a valid float64 value, a value of the wrong shape)
REAL_ARRAYS = {
    "softmax_with_temperature logits": ("logits", lambda v: softmax_with_temperature(v, 2.0), LOGITS, [LOGITS]),
    "ce_loss logits": ("logits", lambda v: _loss(ce_loss(v, 1)), LOGITS, [LOGITS]),
    "cb_loss logits": ("logits", lambda v: _loss(cb_loss(v, 1, WEIGHTS)), LOGITS, [LOGITS]),
    "cb_loss weights": ("weights", lambda v: _loss(cb_loss(LOGITS, 1, v)), WEIGHTS, WEIGHTS + [1.0]),
    "kd_loss logits": ("logits", lambda v: _loss(kd_loss(v, PROBS, 1, alpha=0.5, temperature=2.0)), LOGITS, [LOGITS]),
    "kd_loss teacher_probs": (
        "teacher_probs", lambda v: _loss(kd_loss(LOGITS, v, 1, alpha=0.5, temperature=2.0)), PROBS, PROBS[1:]
    ),
    "bkd_loss logits": ("logits", lambda v: _loss(bkd_loss(v, PROBS, 1, WEIGHTS, temperature=2.0)), LOGITS, [LOGITS]),
    "bkd_loss teacher_probs": (
        "teacher_probs", lambda v: _loss(bkd_loss(LOGITS, v, 1, WEIGHTS, temperature=2.0)), PROBS, [PROBS]
    ),
    "bkd_loss weights": ("weights", lambda v: _loss(bkd_loss(LOGITS, PROBS, 1, v, temperature=2.0)), WEIGHTS, [1.0]),
    "distill_grad_formula logits": ("logits", lambda v: distill_grad_formula(v, PROBS, 1, 0.5, 0.5, 2.0), LOGITS, []),
    "distill_grad_formula targets": (
        "targets", lambda v: distill_grad_formula(LOGITS, v, 1, 0.5, 0.5, 2.0), PROBS, PROBS + [0.0]
    ),
    "normalize_weights weights": ("weights", normalize_weights, WEIGHTS, [WEIGHTS]),
    "balanced_targets teacher_probs": ("teacher_probs", lambda v: balanced_targets(v, WEIGHTS), [PROBS], PROBS),
    "balanced_targets weights": ("weights", lambda v: balanced_targets([PROBS], v), WEIGHTS, WEIGHTS + [1.0]),
    "softmax_rows logits": ("logits", lambda v: softmax_rows(v, 2.0), [LOGITS], LOGITS),
    "finite_difference_gradient logits": (
        "logits", lambda v: finite_difference_gradient(lambda u: float(u @ u), v), LOGITS, [LOGITS]
    ),
    # stored as float32 (test_data checks that), widened back exactly here
    "LabeledDataset features": (
        "features",
        lambda v: LabeledDataset(v, [0, 1], 2).features.astype(np.float64),
        [[1.0, 2.0], [3.0, -4.0]],
        [1.0, 2.0],
    ),
}


def _rows():
    """(entry point, kind of value, the value, the Python value it must
    act as, or None where it must be refused)."""
    for name, (_, valid) in INTS.items():
        yield name, "bool", True, None
        yield name, "np.bool_", np.bool_(True), None
        yield name, "fraction", valid + 0.5, None
        yield name, "numpy integer", np.int32(valid), valid
        yield name, "numpy float", np.float64(valid), None
    for name, (_, fraction, integer) in REALS.items():
        yield name, "bool", True, None
        yield name, "np.bool_", np.bool_(True), None
        yield name, "fraction", fraction, fraction
        if integer is not None:
            yield name, "numpy integer", np.int64(integer), float(integer)
        yield name, "numpy float", np.float32(fraction), fraction
    for name, (_, valid) in ARRAYS.items():
        yield name, "bool", np.array(valid, dtype=bool), None
        yield name, "fraction", np.array(valid) + 0.5, None
        yield name, "numpy integer", np.array(valid, dtype=np.int32), valid
        yield name, "numpy float", np.array(valid, dtype=np.float64), valid


@pytest.mark.parametrize("name, kind, value, acts_as", [pytest.param(*r, id=f"{r[0]}-{r[1]}") for r in _rows()])
def test_entry_point_refuses_or_stores_the_python_number(name, kind, value, acts_as):
    stores = {**INTS, **REALS, **ARRAYS}[name][0]
    if acts_as is None:
        with pytest.raises(ValueError):
            stores(value)
        return
    got, want = stores(value), stores(acts_as)
    assert got == want
    assert type(got) is type(want)


def _refused_arrays():
    """(entry point, kind of value, a value its real-array argument must refuse)."""
    for entry, (_, _, valid, wrong_shape) in REAL_ARRAYS.items():
        with_nan = np.array(valid)
        with_nan.flat[0] = np.nan
        yield entry, "bool", np.array(valid, dtype=bool)
        yield entry, "str", np.array(valid).astype(str)
        yield entry, "object", np.array(valid, dtype=object)
        yield entry, "complex", np.array(valid, dtype=complex)
        yield entry, "NaN entry", with_nan
        yield entry, "wrong shape", np.array(wrong_shape)


@pytest.mark.parametrize("entry, kind, value", [pytest.param(*r, id=f"{r[0]}-{r[1]}") for r in _refused_arrays()])
def test_real_array_argument_refuses_what_is_not_an_array_of_finite_reals(entry, kind, value):
    # one message for every refusal: "<argument> must <rule>, got <the
    # array>", but for a feature float32 cannot hold, named by its place
    name, returns = REAL_ARRAYS[entry][:2]
    got = r"nan at row 0, column 0$" if (entry, kind) == ("LabeledDataset features", "NaN entry") else r"array\("
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must .+, got {got}"):
        returns(value)


@pytest.mark.parametrize("entry", REAL_ARRAYS)
def test_real_array_argument_refuses_a_ragged_nesting_by_name_and_rule(entry):
    # numpy cannot make one array of it; its own message named neither
    name, returns, valid, _ = REAL_ARRAYS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must .+, got \[\["):
        returns([valid, [valid]])


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32, np.float64])
@pytest.mark.parametrize("entry", REAL_ARRAYS)
def test_real_array_argument_takes_any_integer_or_float_dtype_as_the_float64_it_equals(entry, dtype):
    _, returns, valid, _ = REAL_ARRAYS[entry]
    got, want = returns(np.array(valid, dtype=dtype)), returns(np.array(valid))
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: _momentum_step(math.nan), id="sgd_momentum_step momentum nan"),
        pytest.param(lambda: _momentum_step(1.5), id="sgd_momentum_step momentum 1.5"),
        pytest.param(lambda: _momentum_step(-0.5), id="sgd_momentum_step momentum -0.5"),
        pytest.param(lambda: distill_grad_formula([1, 0], [0, 1], 0, math.nan, 1, 2), id="ce_coef nan"),
        pytest.param(lambda: distill_grad_formula([1, 0], [0, 1], 0, 1, math.inf, 2), id="kl_coef inf"),
        pytest.param(lambda: confusion_matrix([0, 1], [0, 1], 0), id="confusion_matrix num_classes 0"),
    ],
)
def test_real_or_count_outside_its_range_is_refused(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: synth_gaussian_mixture([5.9, 3.2], 2, 1.0, 0, 2), id="synth counts 5.9, 3.2"),
        pytest.param(lambda: subset_tags([100.9, 20.5, 19.99], 100, 20), id="subset_tags 100.9 as medium"),
        pytest.param(lambda: LabeledDataset(np.zeros((3, 2)), [0.9, 1.5, 2.99], 3), id="labels 0.9, 1.5, 2.99"),
        pytest.param(lambda: accuracy_report([0.5, 1.7], [0, 1], (MANY, FEW)), id="preds 0.5, 1.7 scored 1.0"),
        pytest.param(lambda: init_mlp([3, 2.5, 2], 0), id="init_mlp width 2.5"),
        pytest.param(lambda: small_cfg(seed=True), id="TrainConfig seed True"),
        pytest.param(lambda: KDConfig(temperature=True), id="KDConfig temperature True"),
    ],
)
def test_value_once_truncated_or_taken_as_a_number_is_refused(call):
    with pytest.raises(ValueError):
        call()


def test_fractional_permutation_length_is_refused_and_leaves_the_stream_as_it_was():
    # permutation(2.5) once returned 3 items and left the draw counter at
    # 2.5, which the checkpoint's "<QQ" state record then could not pack
    rng = Rng(1)
    rng.permutation(4)
    with pytest.raises(ValueError, match="n must be a nonnegative integer, got 2.5"):
        rng.permutation(2.5)
    assert rng.state == (1, 4)
    struct.pack("<QQ", *rng.state)
    assert rng.permutation(3).tolist() == Rng.from_state((1, 4)).permutation(3).tolist()


@pytest.mark.parametrize("count", [2**64, 2**70, -1])
def test_draw_count_outside_the_checkpoints_field_is_refused(count):
    # from_state((0, 2**64)) once passed, and write_checkpoint then failed
    # with struct.error packing the count into its "<Q" field
    with pytest.raises(ValueError, match="^draw count must be "):
        Rng.from_state((0, count))


@pytest.mark.parametrize("draw", ["uniform", "normal"])
@pytest.mark.parametrize("size", [2.5, (2, 2.5), -1, (2, -1), True, "3"])
def test_size_that_is_not_a_count_is_refused_before_anything_is_drawn(draw, size):
    # uniform(2.5) once drew 2 values, moved the stream on and only then
    # failed in reshape
    rng = Rng(1)
    rng.uniform(4)
    with pytest.raises(ValueError, match="^size must be a nonnegative integer, got "):
        getattr(rng, draw)(size)
    assert rng.state == (1, 4)
    assert getattr(rng, draw)(3).tolist() == getattr(Rng.from_state((1, 4)), draw)(3).tolist()


# nested lists numpy cannot make one array of
RAGGED = [[1.0, [2.0, 3.0]], [[1, 2], [3]], [np.zeros((2, 2)), np.zeros((2, 3))]]


class TestRules:
    def test_bool_is_neither_an_integer_nor_a_real(self):
        for value in (True, False, np.bool_(True), 3.0):
            with pytest.raises(ValueError, match="^n must be an integer, got "):
                check_int(value, "n")
        for flag in (True, False, np.bool_(True)):
            assert not is_real(flag)
        assert check_int(np.uint8(3), "n") == 3 and is_real(np.uint8(3)) and is_real(np.float16(0.5))
        assert not is_real(1j) and not is_real("1")

    def test_check_int_names_the_value_and_its_bound(self):
        assert type(check_int(np.int16(-3), "x")) is int
        for minimum, words in ((None, "an integer"), (0, "a nonnegative integer"), (1, "a positive integer"),
                               (2, "an integer >= 2")):
            with pytest.raises(ValueError, match=f"^width must be {words}, got 1.5$"):
                check_int(1.5, "width", minimum)
        with pytest.raises(ValueError, match="^width must be an integer >= 2, got 1$"):
            check_int(1, "width", 2)

    def test_check_real_stores_a_float_and_names_the_rule(self):
        assert type(check_real(np.int8(2), "x", lambda v: True, "be anything")) is float
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got 2$"):
            check_real(2, "x", lambda v: 0 <= v <= 1, "lie in [0, 1]")

    @pytest.mark.parametrize(
        "vector",
        [[[1, 2]], 3, [1.0, np.nan], [1.0, np.inf], [2.0**63], ["1"], [1 + 0j], [None], [True, False], *RAGGED],
    )
    def test_check_int_array_refuses_what_is_not_a_vector_of_integers(self, vector):
        with pytest.raises(ValueError, match="^counts must be a 1-D vector of integers, got "):
            check_int_array(vector, "counts")

    def test_check_int_array_returns_int64_without_copying_an_int64_vector(self):
        ints = np.array([3, 1], dtype=np.int64)
        assert check_int_array(ints, "counts") is ints
        for vector in ([3, 1], np.array([3.0, 1.0]), np.array([3, 1], dtype=np.uint16), []):
            got = check_int_array(vector, "counts")
            assert got.dtype == np.int64 and got.tolist() == list(map(int, vector))

    @pytest.mark.parametrize(
        "array", [[True, False], ["1.0"], [1.0, None], [1 + 0j], [1.0, np.nan], [1.0, -np.inf], [[1.0]], 1.0]
    )
    def test_check_real_array_refuses_what_is_not_a_vector_of_finite_reals(self, array):
        with pytest.raises(ValueError, match=r"^scores must be finite reals, got array\("):
            check_real_array(array, "scores", lambda a: True, "be finite reals", (None,))

    @pytest.mark.parametrize("array", RAGGED)
    def test_check_real_array_refuses_a_ragged_nesting_by_name_and_rule(self, array):
        with pytest.raises(ValueError, match=r"^scores must be finite reals, got \["):
            check_real_array(array, "scores", lambda a: True, "be finite reals", (None,))

    def test_check_real_array_checks_the_named_shape_and_the_predicate(self):
        positive = lambda a: a > 0
        assert check_real_array([[1, 2]], "m", positive, "be positive", (1, None)).shape == (1, 2)
        for array, shape in (([[1, 2]], (2, None)), ([[1, 2]], (None, 3)), ([1, 2], (None, None)), ([1, 0], (2,))):
            with pytest.raises(ValueError, match="^m must be positive, got array"):
                check_real_array(array, "m", positive, "be positive", shape)

    def test_check_real_array_returns_float64_without_copying_a_float64_array(self):
        floats = np.array([3.0, 1.0])
        assert check_real_array(floats, "w", lambda a: True, "be reals", (2,)) is floats
        for array in ([3, 1], np.array([3, 1], dtype=np.uint8), np.array([3.0, 1.0], dtype=np.float16)):
            got = check_real_array(array, "w", lambda a: True, "be reals", (2,))
            assert got.dtype == np.float64 and got.tolist() == [3.0, 1.0]
