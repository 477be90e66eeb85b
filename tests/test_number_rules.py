"""The number rules of ``mathutils`` at every entry point that takes an
integer, a real or an integer array: a bool and a fractional integer are
refused, and a numpy number is stored as the Python number it equals."""

import struct

import numpy as np
import pytest

from longtail_kd.data import FEW, MANY, ImbalanceProfile, LabeledDataset, subset_tags, synth_gaussian_mixture
from longtail_kd.evaluate import accuracy_report, confusion_matrix
from longtail_kd.gradcheck import run_gradient_checks
from longtail_kd.losses import BKDConfig, KDConfig, ce_loss
from longtail_kd.mathutils import Rng, check_int, check_int_array, check_real, is_int, is_real
from longtail_kd.mlp import LrSchedule, init_mlp
from longtail_kd.weights import effective_number_weights
from test_pipeline import small_cfg


def _synth(counts=(3, 2), dim=2, separation=1.0, per_class_test=2):
    return synth_gaussian_mixture(counts, dim, separation, 0, per_class_test)


# entry point -> (what it stores or returns for a value, a valid Python int)
INTS = {
    "TrainConfig.epochs": (lambda v: small_cfg(epochs=v).epochs, 4),
    "TrainConfig.batch_size": (lambda v: small_cfg(batch_size=v).batch_size, 16),
    "TrainConfig.seed": (lambda v: small_cfg(seed=v).seed, 3),
    "TrainConfig.defer_epoch": (lambda v: small_cfg(loss="bkd", epochs=4, defer_epoch=v).defer_epoch, 2),
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
    "run_gradient_checks trials": (lambda v: run_gradient_checks(trials=v), 1),
}

# entry point -> (what it stores for a value, a valid fractional real, a
# valid integer or None where no integer is valid)
REALS = {
    "TrainConfig.momentum": (lambda v: small_cfg(momentum=v).momentum, 0.5, 0),
    "TrainConfig.weight_decay": (lambda v: small_cfg(weight_decay=v).weight_decay, 0.25, 1),
    "KDConfig.alpha": (lambda v: KDConfig(alpha=v).alpha, 0.5, 1),
    "KDConfig.temperature": (lambda v: KDConfig(temperature=v).temperature, 2.5, 2),
    "BKDConfig.beta": (lambda v: BKDConfig(beta=v).beta, 0.5, None),
    "LrSchedule.base_lr": (lambda v: LrSchedule("cosine", v).base_lr, 0.5, 1),
    "LrSchedule step factor": (lambda v: LrSchedule("step", 0.5, ((2, v),)).steps[0][1], 0.25, 2),
    "ImbalanceProfile.rho": (lambda v: ImbalanceProfile("exponential", v, 100, 4).rho, 10.5, 10),
    "synth_gaussian_mixture separation": (lambda v: _synth(separation=v)[0].features.tobytes(), 1.5, 2),
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


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: synth_gaussian_mixture([5.9, 3.2], 2, 1.0, 0, 2), id="synth counts 5.9, 3.2"),
        pytest.param(lambda: subset_tags([100.9, 20.5, 19.99]), id="subset_tags 100.9 as medium"),
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


class TestRules:
    def test_bool_is_neither_an_integer_nor_a_real(self):
        for flag in (True, False, np.bool_(True)):
            assert not is_int(flag) and not is_real(flag)
        assert is_int(np.uint8(3)) and is_real(np.uint8(3)) and is_real(np.float16(0.5))
        assert not is_int(3.0) and not is_real(1j) and not is_real("1")

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
        "vector", [[[1, 2]], 3, [1.0, np.nan], [1.0, np.inf], [2.0**63], ["1"], [1 + 0j], [None], [True, False]]
    )
    def test_check_int_array_refuses_what_is_not_a_vector_of_integers(self, vector):
        with pytest.raises(ValueError, match="counts must be a 1-D vector of integers"):
            check_int_array(vector, "counts")

    def test_check_int_array_returns_int64_without_copying_an_int64_vector(self):
        ints = np.array([3, 1], dtype=np.int64)
        assert check_int_array(ints, "counts") is ints
        for vector in ([3, 1], np.array([3.0, 1.0]), np.array([3, 1], dtype=np.uint16), []):
            got = check_int_array(vector, "counts")
            assert got.dtype == np.int64 and got.tolist() == list(map(int, vector))
