"""Memory budgets: each step that builds a split-sized array holds it once.

Each test traces one call with ``tracemalloc``, which sees numpy's array
buffers, and bounds the call's peak as a multiple of the bytes of what it
returns. Each bound sits above the peak measured for the call as it is
written (stated per test) and below the peak of a build that keeps a float64
copy of the array, so a second copy of the result breaks it.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from longtail_kd import pipeline
from longtail_kd.data import load_dataset, save_dataset, synth_gaussian_mixture
from longtail_kd.mathutils import Rng
from longtail_kd.mlp import init_mlp

from test_pipeline import small_cfg


def traced_peak(call):
    """``call()``'s result and the peak bytes traced while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_synthesis_holds_its_splits_once():
    # measured 1.05x the splits' bytes; a float64 stack of the classes,
    # rounded after, peaks at 4.3x
    (train, test), peak = traced_peak(lambda: synth_gaussian_mixture([200] * 40, 64, 3.0, seed=5, per_class_test=50))
    kept = sum(split.features.nbytes + split.labels.nbytes for split in (train, test))
    assert peak < 1.25 * kept


@pytest.mark.parametrize(
    "draw",
    [lambda: Rng(1).normal((2000, 64)), lambda: Rng(1).uniform((2000, 64)), lambda: Rng(1).permutation(128000)],
    ids=["normal", "uniform", "permutation"],
)
def test_draw_holds_its_result_and_the_raw_stream(draw):
    # measured 2.0x the draw's bytes: the raw SplitMix64 block and its shift
    # buffer while it mixes, then the block and its conversion. Mixing with
    # a new array per step peaks at 3.0x, and the Box-Muller halves built
    # apart and concatenated at 5.0x
    result, peak = traced_peak(draw)
    assert peak < 2.5 * result.nbytes


def test_sidecar_load_holds_the_features_once(tmp_path):
    # measured 1.02x the loaded arrays' bytes; a float64 check of the
    # float32 features, rounded after, peaks at 3.9x
    train, _ = synth_gaussian_mixture([400] * 20, 64, 3.0, seed=5, per_class_test=1)
    path = str(tmp_path / "train.csv")
    save_dataset(train, path)
    data, peak = traced_peak(lambda: load_dataset(path))
    assert data.features.tobytes() == train.features.tobytes()
    assert peak < 1.25 * (data.features.nbytes + data.labels.nbytes)


def test_save_holds_nothing_split_sized(tmp_path):
    # measured 0.03x the split's bytes: a save writes the split's own
    # arrays. Formatting its rows as text, one 1024-row chunk of this
    # 1000 x 64 split, peaks at 19x
    train, _ = synth_gaussian_mixture([50] * 20, 64, 3.0, seed=5, per_class_test=1)
    _, peak = traced_peak(lambda: save_dataset(train, str(tmp_path / "train.csv")))
    assert peak < 1.25 * (train.features.nbytes + train.labels.nbytes)


@pytest.mark.parametrize("loss", ["kd", "bkd"])
def test_target_build_holds_the_targets_and_one_chunk(loss):
    # one chunk: the teacher's activations of ``batch_size`` rows at every
    # layer, in float64. Measured 1.0x the targets' bytes plus 1.8 to 1.95
    # chunks, 13% under the bound; a whole-matrix build in float64, rounded
    # after, peaks at 9.4x the targets' bytes
    C = 10
    train, _ = synth_gaussian_mixture([800] * C, 16, 3.0, seed=5, per_class_test=1)
    teacher = init_mlp((16, 32, C), 1).astype(np.float32)
    cfg = small_cfg(loss=loss, batch_size=64, hidden_dims=(32,))
    objective, peak = traced_peak(lambda: pipeline._objective(cfg, teacher, train))
    chunk = cfg.batch_size * sum(teacher.dims[1:]) * 8
    assert peak < 1.25 * objective.targets.nbytes + chunk
