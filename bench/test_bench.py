"""Tests for the benchmark harness: self time on hand-built spans, the
pacing rule, the tracer's patching, and a tiny-size run of each workload
through the same code as a full run.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import CliSpec, DataShape, LibrarySpec  # noqa: E402

# counts 40/25/16/10: one many-shot, two medium and one few-shot class
TINY_SHAPE = DataShape(C=4, d=5, rho=4.0, n_max=40, per_class_test=10, many_thresh=30, few_thresh=15)
TINY = {
    "desk-seeds": LibrarySpec(TINY_SHAPE, seeds=2, epochs=3, hidden=(8, 8), batch=16, students=("kd", "bkd")),
    "wide-batch": LibrarySpec(TINY_SHAPE, seeds=1, epochs=2, hidden=(16, 16), batch=32, students=("bkd",)),
    "cli-roundtrip": CliSpec(TINY_SHAPE, units=1, epochs=2, hidden=(8, 8), batch=16, temps=(1.0, 2.0),
                             gradcheck_trials=3),
}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("a", 0.0, 10.0),
        Span("b", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 3.0, 6.0, parent=0),  # overlaps b: [1, 6] is covered once
        Span("e", 8.0, 9.0, parent=0, hidden=0.5),
        Span("f", 9.5, 12.0, parent=0),  # only [9.5, 10] lies inside a
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1 - 0.5, 3 - 1, 1, 3, 0.5, 2.5])


def test_timer_paces_an_operation_by_the_references_around_it(monkeypatch):
    refs = iter([0.01, 0.03])  # the reference runs before and after it average 0.02 s
    monkeypatch.setattr(workloads, "reference", lambda: next(refs))
    timer = workloads.Timer()
    result, seconds, paced = timer(0, lambda: "done")
    assert result == "done"
    assert paced == pytest.approx(seconds * workloads.REFERENCE_S / 0.02)


def test_tracer_patches_every_binding_and_restores_them():
    import longtail_kd
    from longtail_kd import evaluate, mathutils, mlp, pipeline

    forward, permutation = mlp.forward, vars(mathutils.Rng)["permutation"]
    tracer = Tracer()
    tracer.install()
    try:
        assert mlp.forward is not forward
        assert pipeline.forward is mlp.forward is evaluate.forward is longtail_kd.forward
        tracer.active = True
        mathutils.Rng(1).permutation(5)
        tracer.active = False
        assert [s.name for s in tracer.spans] == ["mathutils.Rng.permutation"]
    finally:
        tracer.uninstall()
    assert pipeline.forward is forward and evaluate.forward is forward and longtail_kd.forward is forward
    assert vars(mathutils.Rng)["permutation"] is permutation


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_runs_checks_and_traces_transparently(name, tmp_path):
    spec = TINY[name]
    plain, metrics = workloads.run_workload(spec, 3, False, ROOT, str(tmp_path / "plain"))
    assert plain.ops and plain.failed == 0, plain.ops
    assert set(metrics) == declared("end_to_end")
    assert all(metrics[m] > 0 for m in metrics if not m.startswith("acc_"))

    spans = tmp_path / "spans.csv"
    traced, layers = workloads.run_workload(spec, 3, True, ROOT, str(tmp_path / "traced"), str(spans))
    assert traced.failed == 0, traced.ops  # traced outputs equal the untraced pass of the same run
    assert traced.digest() == plain.digest()  # and those of the earlier run
    assert set(layers) == declared("per_layer")
    assert layers["trace.spans"] == len(spans.read_text().splitlines()) - 1
    assert sum(layers[f"{m}.errors"] for m in ("mlp", "pipeline", "losses", "data", "cli")) == 0
    if isinstance(spec, LibrarySpec):
        assert layers["mlp.forward.teacher_useful_ratio"] == pytest.approx(1 / spec.epochs)
        nets = spec.seeds * (1 + len(spec.students))
        batches = math.ceil(int(TINY_SHAPE.counts().sum()) / spec.batch)
        assert layers["mlp.backward.calls"] == nets * spec.epochs * batches
    else:
        assert layers["data.save_dataset.calls"] == 2 * spec.units
        assert layers["evaluate.predict.useful_ratio"] < 1.0  # the CLI predicts the final model again


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-seeds", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
