"""The gradient audit's batched finite differences: the same bits as one
per-sample loss call per perturbed logit vector, and the same report."""

import numpy as np
import pytest

from longtail_kd.gradcheck import _finite_differences, finite_difference_gradient, run_gradient_checks
from longtail_kd.losses import Objective, bkd_loss, bkd_objective, cb_loss, ce_loss, kd_loss, kd_objective
from longtail_kd.mathutils import Rng, softmax_with_temperature

# the worst error per gradient, as float64 hex, that one finite difference
# per perturbed logit vector (central differences of the per-sample losses)
# gave for these (trials, seed)
PINNED = {
    (100, 1): {
        "ce": "0x1.86aec00000000p-34",
        "cb": "0x1.d575700000000p-31",
        "kd": "0x1.0b73980000000p-32",
        "bkd": "0x1.19e7480000000p-31",
        "cb_formula": "0x1.d575700000000p-31",
        "kd_formula": "0x1.0b73880000000p-32",
        "bkd_formula": "0x1.19e7480000000p-31",
    },
    (100, 7): {
        "ce": "0x1.5159e00000000p-34",
        "cb": "0x1.8456400000000p-31",
        "kd": "0x1.39a9800000000p-32",
        "bkd": "0x1.0d577c0000000p-31",
        "cb_formula": "0x1.8456400000000p-31",
        "kd_formula": "0x1.39a97a0000000p-32",
        "bkd_formula": "0x1.0d57780000000p-31",
    },
    (50, 9000): {
        "ce": "0x1.4fe5600000000p-34",
        "cb": "0x1.16a6200000000p-32",
        "kd": "0x1.1de3d00000000p-32",
        "bkd": "0x1.8052200000000p-32",
        "cb_formula": "0x1.16a6200000000p-32",
        "kd_formula": "0x1.1de3c80000000p-32",
        "bkd_formula": "0x1.8052200000000p-32",
    },
}


@pytest.mark.parametrize("trials, seed", list(PINNED))
def test_report_keeps_its_pinned_bits(trials, seed):
    worst = run_gradient_checks(trials=trials, seed=seed)
    assert {name: err.hex() for name, err in worst.items()} == PINNED[trials, seed]
    assert list(worst) == list(PINNED[trials, seed])


def _cases():
    """(C, T, loss) over every class count the audit draws, its three
    temperatures and the four losses."""
    for num_classes in range(2, 11):
        for T in (1.0, 2.0, 4.0):
            for loss in ("ce", "cb", "kd", "bkd"):
                yield num_classes, T, loss


@pytest.mark.parametrize("num_classes, T, loss", list(_cases()))
def test_batched_differences_equal_the_per_sample_path_bit_for_bit(num_classes, T, loss):
    rng = Rng(1000 * num_classes + int(T))
    z = 2.0 * rng.normal(num_classes)
    phat = softmax_with_temperature(2.0 * rng.normal(num_classes), T)
    y = int(rng.uniform() * num_classes)
    w = np.exp(rng.normal(num_classes))
    alpha = rng.uniform()
    per_sample, objective = {
        "ce": (lambda v: ce_loss(v, y), Objective()),
        "cb": (lambda v: cb_loss(v, y, w), Objective(w)),
        "kd": (
            lambda v: kd_loss(v, phat, y, alpha=alpha, temperature=T),
            kd_objective(phat[None], alpha=alpha, temperature=T),
        ),
        "bkd": (lambda v: bkd_loss(v, phat, y, w, temperature=T), bkd_objective(phat[None], w, temperature=T)),
    }[loss]
    fd, grad = _finite_differences(objective, z, y)
    assert fd.tobytes() == finite_difference_gradient(lambda v: per_sample(v).value, z).tobytes()
    assert grad.tobytes() == per_sample(z).grad_logits.tobytes()
