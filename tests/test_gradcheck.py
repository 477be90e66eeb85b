"""The gradient audit's batched finite differences: the same bits as one
per-sample loss call per perturbed logit vector, and the same report on
any CPU count; and a NaN gradient reported as the worst error."""

import os

import numpy as np
import pytest

from longtail_kd import gradcheck
from longtail_kd.gradcheck import _finite_differences, finite_difference_gradient, run_gradient_checks
from longtail_kd.losses import Objective, bkd_loss, bkd_objective, cb_loss, ce_loss, kd_loss, kd_objective
from longtail_kd.mathutils import Rng, softmax_with_temperature
from test_cli import run

# the worst error per gradient, as float64 hex, that one finite difference
# per perturbed logit vector (central differences of the per-sample losses,
# each softmax and KL sum added in class order) gave for these (trials, seed)
PINNED = {
    (100, 1): {
        "ce": "0x1.545e8df000000p-34",
        "cb": "0x1.d575500000000p-31",
        "kd": "0x1.0b73980000000p-32",
        "bkd": "0x1.19e7480000000p-31",
        "cb_formula": "0x1.d575700000000p-31",
        "kd_formula": "0x1.0b73880000000p-32",
        "bkd_formula": "0x1.19e7480000000p-31",
    },
    (100, 7): {
        "ce": "0x1.5159e00000000p-34",
        "cb": "0x1.8456400000000p-31",
        "kd": "0x1.cc256c0000000p-32",
        "bkd": "0x1.6eff740000000p-31",
        "cb_formula": "0x1.8456400000000p-31",
        "kd_formula": "0x1.cc25720000000p-32",
        "bkd_formula": "0x1.6eff780000000p-31",
    },
    (50, 9000): {
        "ce": "0x1.4fe5600000000p-34",
        "cb": "0x1.8a30700000000p-32",
        "kd": "0x1.154e6c0000000p-32",
        "bkd": "0x1.50e7aa0000000p-32",
        "cb_formula": "0x1.8a30700000000p-32",
        "kd_formula": "0x1.154e6c0000000p-32",
        "bkd_formula": "0x1.50e7a60000000p-32",
    },
}


@pytest.mark.parametrize("trials, seed", list(PINNED))
def test_report_keeps_its_pinned_bits(trials, seed):
    worst = run_gradient_checks(trials=trials, seed=seed)
    assert {name: err.hex() for name, err in worst.items()} == PINNED[trials, seed]
    assert list(worst) == list(PINNED[trials, seed])


@pytest.mark.parametrize("cpus, trials", [(1, 7), (2, 7), (3, 7), (8, 3)])
def test_gradient_audit_is_the_same_bits_on_any_cpu_count(monkeypatch, cpus, trials):
    # the audit runs in this process whatever the affinity mask holds
    def no_fork():
        raise AssertionError("the gradient audit forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = run_gradient_checks(trials=trials, seed=4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", no_fork)
    worst = run_gradient_checks(trials=trials, seed=4)
    assert list(worst) == list(serial)
    assert [err.hex() for err in worst.values()] == [err.hex() for err in serial.values()]


def test_a_nan_gradient_is_the_worst_error(monkeypatch, capsys):
    # only trial 0's closed-form cb gradient is NaN, and the finite trials
    # after it must not replace it
    first_z = next(gradcheck._instances(5))[1]
    real = gradcheck.distill_grad_formula

    def distill_grad_formula(z, targets, y, ce_coef, kl_coef, temperature):
        g = real(z, targets, y, ce_coef, kl_coef, temperature)
        # cb's closed form is the one call with ce_coef 0
        return np.full_like(g, np.nan) if np.array_equal(z, first_z) and ce_coef == 0.0 else g

    monkeypatch.setattr(gradcheck, "distill_grad_formula", distill_grad_formula)
    worst = run_gradient_checks(trials=5, seed=5)
    assert np.isnan(worst["cb_formula"])
    assert all(np.isfinite(err) for name, err in worst.items() if name != "cb_formula")
    assert run("gradcheck", "--trials", 5, "--seed", 5) == 2
    out = capsys.readouterr().out
    assert "cb_formula   max |analytic - finite difference| = nan  FAIL" in out
    assert out.splitlines()[-1] == "worst case: cb_formula at nan"


def _cases():
    """(C, T, loss) over every class count the audit draws, the 20 classes
    of the benchmark's wide shape and 64, its three temperatures and the
    four losses. From C = 8 on, numpy sums a lone (C, 1) column pairwise,
    so the per-sample path's one row must be summed in class order."""
    for num_classes in (*range(2, 11), 20, 64):
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
