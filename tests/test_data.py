import hashlib
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from longtail_kd import data as data_module
from longtail_kd.data import (
    FEW,
    MANY,
    MEDIUM,
    ImbalanceProfile,
    LabeledDataset,
    load_dataset,
    make_longtail_counts,
    open_output,
    save_dataset,
    subset_tags,
    synth_gaussian_mixture,
)
from longtail_kd.mathutils import Rng
from longtail_kd.pipeline import TrainConfig


class TestMakeLongtailCounts:
    def test_balanced_degenerate(self):
        counts = make_longtail_counts(ImbalanceProfile("exponential", 1.0, 500, 10))
        np.testing.assert_array_equal(counts, np.full(10, 500))

    def test_exponential_cifar_style(self):
        counts = make_longtail_counts(ImbalanceProfile("exponential", 100.0, 5000, 10))
        assert counts[0] == 5000
        assert counts[-1] == 50
        assert counts[0] / counts[-1] == 100.0

    def test_step_profile(self):
        counts = make_longtail_counts(ImbalanceProfile("step", 10.0, 100, 4))
        np.testing.assert_array_equal(counts, [100, 100, 10, 10])

    def test_nonincreasing_and_ratio_near_rho(self):
        for rho in (10.0, 50.0, 100.0):
            for C in (5, 10, 37):
                counts = make_longtail_counts(ImbalanceProfile("exponential", rho, 1000, C))
                assert np.all(np.diff(counts) <= 0)
                ratio = counts[0] / counts[-1]
                assert abs(ratio - rho) / rho < 0.05

    def test_counts_clamped_to_one(self):
        counts = make_longtail_counts(ImbalanceProfile("exponential", 1000.0, 100, 10))
        assert counts.min() >= 1

    def test_two_classes_may_be_imbalanced(self):
        np.testing.assert_array_equal(make_longtail_counts(ImbalanceProfile("exponential", 4.0, 20, 2)), [20, 5])

    def test_single_class_needs_rho_one(self):
        with pytest.raises(ValueError):
            ImbalanceProfile("exponential", 10.0, 100, 1)
        counts = make_longtail_counts(ImbalanceProfile("exponential", 1.0, 100, 1))
        np.testing.assert_array_equal(counts, [100])

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            ImbalanceProfile("linear", 10.0, 100, 4)
        with pytest.raises(ValueError):
            ImbalanceProfile("step", 0.5, 100, 4)

    def test_what_is_not_a_profile_rejected(self):
        with pytest.raises(ValueError) as info:
            make_longtail_counts(("exponential", 10.0, 100, 4))
        assert str(info.value) == "profile must be an ImbalanceProfile"

    @pytest.mark.parametrize(
        "n_max, num_classes, message",
        [(7.5, 4, "n_max must be a positive integer"), (100, 3.0, "num_classes must be a positive integer")],
    )
    def test_non_integer_count_rejected(self, n_max, num_classes, message):
        # a step head of 7.5 once truncated to 7 while exponential rounded
        with pytest.raises(ValueError, match=message):
            ImbalanceProfile("step", 100.0, n_max, num_classes)

    def test_numpy_integer_counts_accepted(self):
        profile = ImbalanceProfile("step", 10.0, np.int64(100), np.int32(4))
        np.testing.assert_array_equal(make_longtail_counts(profile), [100, 100, 10, 10])


class TestSynthGaussianMixture:
    def test_well_separated_clusters_are_nearest_mean_classifiable(self):
        train, test = synth_gaussian_mixture([10, 10], 2, separation=10.0, seed=7, per_class_test=200)
        means = np.vstack([train.features[train.labels == c].mean(axis=0) for c in range(2)])
        d = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        preds = d.argmin(axis=1)
        assert (preds == test.labels).mean() >= 0.99

    def test_zero_separation_is_chance_level(self):
        train, test = synth_gaussian_mixture([200, 200, 200], 4, separation=0.0, seed=3, per_class_test=300)
        means = np.vstack([train.features[train.labels == c].mean(axis=0) for c in range(3)])
        d = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        acc = (d.argmin(axis=1) == test.labels).mean()
        assert abs(acc - 1.0 / 3.0) < 0.1

    def test_same_seed_bit_identical(self):
        a_train, a_test = synth_gaussian_mixture([30, 20, 10], 5, 2.0, seed=11, per_class_test=40)
        b_train, b_test = synth_gaussian_mixture([30, 20, 10], 5, 2.0, seed=11, per_class_test=40)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)

    def test_counts_and_balance(self):
        train, test = synth_gaussian_mixture([30, 20, 10], 5, 2.0, seed=11, per_class_test=40)
        np.testing.assert_array_equal(train.class_counts, [30, 20, 10])
        np.testing.assert_array_equal(test.class_counts, [40, 40, 40])

    def test_mean_radius_matches_separation(self):
        train, _ = synth_gaussian_mixture([5000], 8, separation=6.0, seed=2, per_class_test=1)
        mean = train.features.mean(axis=0)
        assert abs(np.linalg.norm(mean) - 6.0) < 0.2

    @pytest.mark.parametrize(
        "counts, dim, separation, per_class_test",
        [([30, 20, 10], 5, 2.0, 40), ([1], 2, 0.0, 1), ([7, 7, 3, 1, 1], 11, 1e30, 3), ([200] * 12, 9, 3.0, 17)],
    )
    def test_features_equal_the_float64_formula_bit_for_bit(self, counts, dim, separation, per_class_test):
        # the reference: one float64 array per class, stacked, then the
        # whole stack rounded to float32 once
        rng = Rng(13)
        means = separation * data_module._orthonormalish_rows(rng, len(counts), dim)
        train_rows = [means[c] + rng.normal((n, dim)) for c, n in enumerate(counts)]
        test_rows = [means[c] + rng.normal((per_class_test, dim)) for c in range(len(counts))]
        train, test = synth_gaussian_mixture(counts, dim, separation, 13, per_class_test)
        for split, rows in ((train, train_rows), (test, test_rows)):
            assert split.features.dtype == np.float32
            assert split.features.tobytes() == np.vstack(rows).astype(np.float32).tobytes()

    def test_separation_float32_cannot_hold_refused_by_the_features_rule(self):
        rule = r"^features must be an \(N, d\) matrix of finite reals within float32's range, got"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rule):
                synth_gaussian_mixture([5, 5], 3, 1e39, seed=0, per_class_test=2)

    def test_infinite_separation_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^separation must be a nonnegative real, got inf$"):
            synth_gaussian_mixture([5, 5], 3, float("inf"), seed=0, per_class_test=2)

    def test_dimension_too_small_rejected(self):
        with pytest.raises(ValueError):
            synth_gaussian_mixture([10], 1, 1.0, seed=0, per_class_test=5)


class TestSubsetTags:
    def test_spec_thresholds(self):
        # the spec's pair is the one TrainConfig states
        spec = TrainConfig()
        assert (spec.many_thresh, spec.few_thresh) == (100, 20)
        tags = subset_tags([5000, 50, 5], spec.many_thresh, spec.few_thresh)
        assert tags == (MANY, MEDIUM, FEW)

    def test_boundaries_inclusive_on_medium(self):
        assert subset_tags([100], 100, 20) == (MEDIUM,)
        assert subset_tags([101], 100, 20) == (MANY,)
        assert subset_tags([20], 100, 20) == (MEDIUM,)
        assert subset_tags([19], 100, 20) == (FEW,)

    def test_custom_thresholds(self):
        tags = subset_tags([30, 10, 2], many_thresh=20, few_thresh=5)
        assert tags == (MANY, MEDIUM, FEW)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            subset_tags([10], many_thresh=5, few_thresh=20)

    @pytest.mark.parametrize("many, few", [(10, 20), (20, 20), (20, 0), (5, -1), (20.0, 5)])
    def test_training_config_refuses_the_pairs_subset_tags_refuses(self, many, few):
        # one rule, check_thresholds, serves both
        with pytest.raises(ValueError) as tagged:
            subset_tags([10], many_thresh=many, few_thresh=few)
        with pytest.raises(ValueError) as configured:
            TrainConfig(many_thresh=many, few_thresh=few)
        assert str(configured.value) == str(tagged.value)

    def test_classes_tagged_lookup(self):
        tags = subset_tags([5000, 50, 5, 5000], 100, 20)
        np.testing.assert_array_equal([c for c, t in enumerate(tags) if t == MANY], [0, 3])
        np.testing.assert_array_equal([c for c, t in enumerate(tags) if t == FEW], [2])


class TestDiskFormat:
    def test_round_trip_is_exact(self, tmp_path):
        train, _ = synth_gaussian_mixture([7, 3], 4, 1.5, seed=13, per_class_test=1)
        path = tmp_path / "train.csv"
        save_dataset(train, str(path))
        loaded = load_dataset(str(path))
        np.testing.assert_array_equal(loaded.features, train.features)
        np.testing.assert_array_equal(loaded.labels, train.labels)
        assert loaded.num_classes == train.num_classes

    def test_header_format(self, tmp_path):
        train, _ = synth_gaussian_mixture([2, 2], 3, 1.0, seed=1, per_class_test=1)
        path = tmp_path / "d.csv"
        save_dataset(train, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "longtail-csv v2, C=2, d=3"

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_dataset("/nonexistent/nope.csv")

    def test_file_that_cannot_be_opened_names_the_file(self, tmp_path):
        with pytest.raises(ValueError) as info:
            load_dataset(str(tmp_path))
        assert str(info.value) == f"{tmp_path}: cannot read the dataset file: Is a directory"
        with pytest.raises(FileNotFoundError) as info:
            load_dataset(str(tmp_path / "absent.csv"))
        assert str(info.value) == f"dataset file not found: {tmp_path / 'absent.csv'}"

    def test_open_output_replaces_the_file_only_when_the_block_ends_cleanly(self, tmp_path):
        path = str(tmp_path / "out.txt")
        (tmp_path / "out.txt").write_bytes(b"previous")
        with pytest.raises(RuntimeError, match="block failed"):
            with open_output(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("block failed")
        assert os.listdir(tmp_path) == ["out.txt"]
        assert (tmp_path / "out.txt").read_bytes() == b"previous"
        with open_output(path, "w", encoding="utf-8") as fh:
            fh.write("next\n")
        assert os.listdir(tmp_path) == ["out.txt"]
        assert (tmp_path / "out.txt").read_bytes() == b"next\n"

    @pytest.mark.parametrize("C, d", [(1, 2), (2, 1)])
    def test_one_class_or_one_feature_loads(self, tmp_path, C, d):
        path = str(tmp_path / "narrow.csv")
        save_dataset(LabeledDataset(np.full((1, d), 1.5, np.float32), [0], C), path)
        data = load_dataset(path)
        assert (data.num_classes, data.dimension) == (C, d)
        np.testing.assert_array_equal(data.features, [[1.5] * d])


def _reference_csv(data):
    """The row-at-a-time writer the chunked, vectorized save_dataset must match."""
    lines = [f"longtail-csv v2, C={data.num_classes}, d={data.dimension}"]
    for row in range(len(data)):
        feats = ",".join(format(float(v), "+.8e") for v in data.features[row])
        lines.append(f"{int(data.labels[row])},{feats}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_sidecar(data, csv_bytes):
    """The longtail-bin v3 sidecar of ``data`` saved as ``csv_bytes``, built field by field."""
    body = b"".join(
        [
            b"longtail-bin v3",
            hashlib.sha256(csv_bytes).digest(),
            struct.pack("<qqq", len(data), data.dimension, data.num_classes),
            data.labels.astype("<i8").tobytes(),
            data.features.astype("<f4").tobytes(),
        ]
    )
    return body + hashlib.sha256(body).digest()


F32 = np.finfo(np.float32)
# the signed zero, the smallest and largest subnormals, the smallest normal,
# the largest magnitude, the value whose nine digits carry into the next
# decade (float32's 1e-23 is +1.00000000e-23 at nine digits) and a value
# with no short decimal
F32_SPECIALS = np.float32(
    [-0.0, 0.0, F32.smallest_subnormal, -np.nextafter(F32.tiny, 0), F32.tiny, F32.max, -F32.max, 1e-23, 0.1]
)


def _awkward_dataset(rows=2500, dim=3):
    """Signed zeros, subnormals and extreme magnitudes of float32, over
    more rows than one save chunk."""
    rng = np.random.default_rng(4)
    features = rng.standard_normal((rows, dim))
    features.flat[: len(F32_SPECIALS)] = F32_SPECIALS
    return LabeledDataset(features, rng.integers(0, 3, rows), num_classes=3)


def _assert_same_bits(a, b):
    assert a.features.shape == b.features.shape
    assert a.features.tobytes() == b.features.tobytes()
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.num_classes == b.num_classes


def _reseal(blob):
    """Recompute the sidecar's sha256 trailer over its edited body."""
    body = blob[:-32]
    return body + hashlib.sha256(body).digest()


def _flip_last_feature_byte(blob):
    return blob[:-33] + bytes([blob[-33] ^ 0x40]) + blob[-32:]


def _rewrite(path, edit):
    """Replace the bytes of the file at ``path`` with ``edit`` of them."""
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(blob))


def _non_ascii_byte(line):
    """An edit that puts an e-acute, in UTF-8, after the first comma of CSV line ``line``."""

    def edit(blob):
        lines = blob.split(b"\n")
        lines[line] = lines[line].replace(b",", b",\xc3\xa9", 1)
        return b"\n".join(lines)

    return edit


def _swap_in_the_sidecar_of_another_save(csv, sidecar):
    other = csv + ".other"
    save_dataset(LabeledDataset(np.float32([[0.25, 1.5, 2.0]]), np.array([1]), 3), other)
    os.replace(other + ".bin", sidecar)
    os.remove(other)


# The 135-byte sidecar of TINY: the magic, the CSV digest, then N, d and C
# from byte 47, the labels from byte 71, the features from byte 87 and the
# trailer from byte 103. Each case damages the saved pair through
# ``(csv path, sidecar path)``; its message names ``{csv}`` and ``{bin}``.
TINY = LabeledDataset(np.float32([[0.25, 1.5], [2.5, -3.0]]), np.array([0, 1]), 2)
_side = lambda edit: lambda csv, sidecar: _rewrite(sidecar, edit)
RERUN = "; rerun make-data"
SIDECAR_REFUSALS = {
    "missing-sidecar": (
        lambda csv, sidecar: os.remove(sidecar),
        "{bin}: cannot read the dataset sidecar: No such file or directory" + RERUN,
    ),
    "sidecar-is-a-directory": (
        lambda csv, sidecar: (os.remove(sidecar), os.mkdir(sidecar)),
        "{bin}: cannot read the dataset sidecar: Is a directory" + RERUN,
    ),
    # a sealed sidecar of the previous format, which has no C: it gets no reader
    "v2-magic": (
        _side(lambda blob: _reseal(b"longtail-bin v2" + blob[15:63] + blob[71:])),
        "{bin}: not a longtail-bin v3 sidecar" + RERUN,
    ),
    "cut-inside-header": (_side(lambda blob: blob[:40]), "{bin}: 40 bytes, fewer than its 71-byte header" + RERUN),
    "truncated": (_side(lambda blob: blob[:-1]), "{bin}: 134 bytes do not fit N=2 and d=2" + RERUN),
    "more-rows-than-bytes": (
        _side(lambda blob: _reseal(blob[:47] + struct.pack("<qqq", 3, 2, 2) + blob[71:])),
        "{bin}: 135 bytes do not fit N=3 and d=2" + RERUN,
    ),
    # 91 bytes are what N = -1 and d = 1 would take
    "negative-N": (
        _side(lambda blob: blob[:47] + struct.pack("<qqq", -1, 1, 2) + blob[71:91]),
        "{bin}: 91 bytes do not fit N=-1 and d=1" + RERUN,
    ),
    # a sealed sidecar of two rows of no features, which LabeledDataset would accept
    "d=0": (
        _side(lambda blob: _reseal(blob[:47] + struct.pack("<qqq", 2, 0, 2) + blob[71:87] + blob[103:])),
        "{bin}: needs C >= 1 and d >= 1, got C=2, d=0" + RERUN,
    ),
    "C=0": (
        _side(lambda blob: _reseal(blob[:63] + struct.pack("<q", 0) + blob[71:])),
        "{bin}: needs C >= 1 and d >= 1, got C=0, d=2" + RERUN,
    ),
    "flipped-payload-byte": (
        _side(_flip_last_feature_byte),
        "{bin}: its sha256 trailer does not match its contents" + RERUN,
    ),
    "label-equal-to-C": (
        _side(lambda blob: _reseal(blob[:79] + struct.pack("<q", 2) + blob[87:])),
        "{bin}: labels must lie in [0, num_classes)" + RERUN,
    ),
    "nan-feature": (
        _side(lambda blob: _reseal(blob[:95] + np.float32(np.nan).tobytes() + blob[99:])),
        "{bin}: features must be an (N, d) matrix of finite reals within float32's range, got "
        "nan at row 1, column 0" + RERUN,
    ),
    "csv-edited-after-save": (
        lambda csv, sidecar: _rewrite(csv, lambda blob: blob.replace(b"+2.50000000e-01", b"0.75")),
        "{bin}: the CSV digest it records is not that of {csv}" + RERUN,
    ),
    **{
        f"non-ascii-byte-in-csv{where}": (
            lambda csv, sidecar, line=line: _rewrite(csv, _non_ascii_byte(line)),
            "{bin}: the CSV digest it records is not that of {csv}" + RERUN,
        )
        for where, line in [("", 1), ("-header", 0), ("-last-row", 2)]
    },
    # the magic of a format with no reader: a made-up one and the first sidecar's
    "unknown-magic": (
        _side(lambda blob: _reseal(b"something-else!" + blob[15:])),
        "{bin}: not a longtail-bin v3 sidecar" + RERUN,
    ),
    "v1-magic": (
        _side(lambda blob: _reseal(b"longtail-bin v1" + blob[15:])),
        "{bin}: not a longtail-bin v3 sidecar" + RERUN,
    ),
    "empty-sidecar": (_side(lambda blob: b""), "{bin}: not a longtail-bin v3 sidecar" + RERUN),
    "C=-1": (
        _side(lambda blob: _reseal(blob[:63] + struct.pack("<q", -1) + blob[71:])),
        "{bin}: needs C >= 1 and d >= 1, got C=-1, d=2" + RERUN,
    ),
    "d=-1": (
        _side(lambda blob: _reseal(blob[:55] + struct.pack("<q", -1) + blob[63:])),
        "{bin}: needs C >= 1 and d >= 1, got C=2, d=-1" + RERUN,
    ),
    # an N whose byte count overflows int64 is compared as a Python int
    "N=2**62": (
        _side(lambda blob: _reseal(blob[:47] + struct.pack("<q", 2**62) + blob[55:])),
        "{bin}: 135 bytes do not fit N=4611686018427387904 and d=2" + RERUN,
    ),
    "trailing-byte": (_side(lambda blob: blob + b"\0"), "{bin}: 136 bytes do not fit N=2 and d=2" + RERUN),
    # a damaged recorded digest is met before the trailer that would also catch it
    "flipped-recorded-digest-byte": (
        _side(lambda blob: blob[:15] + bytes([blob[15] ^ 0x01]) + blob[16:]),
        "{bin}: the CSV digest it records is not that of {csv}" + RERUN,
    ),
    "sidecar-of-another-save": (
        _swap_in_the_sidecar_of_another_save,
        "{bin}: the CSV digest it records is not that of {csv}" + RERUN,
    ),
    "label-above-C": (
        _side(lambda blob: _reseal(blob[:79] + struct.pack("<q", 5) + blob[87:])),
        "{bin}: labels must lie in [0, num_classes)" + RERUN,
    ),
    "negative-label": (
        _side(lambda blob: _reseal(blob[:71] + struct.pack("<q", -1) + blob[79:])),
        "{bin}: labels must lie in [0, num_classes)" + RERUN,
    ),
    "inf-feature": (
        _side(lambda blob: _reseal(blob[:95] + np.float32(np.inf).tobytes() + blob[99:])),
        "{bin}: features must be an (N, d) matrix of finite reals within float32's range, got "
        "inf at row 1, column 0" + RERUN,
    ),
    "negative-inf-feature": (
        _side(lambda blob: _reseal(blob[:91] + np.float32(-np.inf).tobytes() + blob[95:])),
        "{bin}: features must be an (N, d) matrix of finite reals within float32's range, got "
        "-inf at row 0, column 1" + RERUN,
    ),
}


class TestSidecar:
    def _saved(self, tmp_path, data):
        path = str(tmp_path / "train.csv")
        save_dataset(data, path)
        assert os.path.exists(path + ".bin")
        return path

    def test_save_bytes_match_reference_writer(self, tmp_path):
        data = _awkward_dataset()
        path = self._saved(tmp_path, data)
        with open(path, "rb") as fh:
            assert fh.read() == _reference_csv(data)
        with open(path + ".bin", "rb") as fh:
            assert fh.read() == _reference_sidecar(data, _reference_csv(data))
        assert sorted(os.listdir(tmp_path)) == ["train.csv", "train.csv.bin"]
        _assert_same_bits(load_dataset(path), data)

    @pytest.mark.parametrize("damage, message", SIDECAR_REFUSALS.values(), ids=SIDECAR_REFUSALS.keys())
    def test_damaged_or_stale_pair_refused_by_name(self, tmp_path, damage, message):
        path = self._saved(tmp_path, TINY)
        _assert_same_bits(load_dataset(path), TINY)
        damage(path, path + ".bin")
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == message.format(csv=path, bin=path + ".bin")
        assert sorted(os.listdir(tmp_path)) == before  # loading never writes


class TestSave:
    """A failure leaves the previous dataset."""

    def test_failed_format_leaves_previous_dataset_and_no_temporary_files(self, tmp_path, monkeypatch):
        path = str(tmp_path / "train.csv")
        previous = _awkward_dataset(rows=5)
        save_dataset(previous, path)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        format_rows = data_module._format_rows

        def failing_format(data, start, stop):
            if start == 8:  # the third chunk of 4 rows, after two were written
                raise RuntimeError("formatter failed")
            return format_rows(data, start, stop)

        monkeypatch.setattr(data_module, "_CHUNK_ROWS", 4)
        monkeypatch.setattr(data_module, "_format_rows", failing_format)
        with pytest.raises(RuntimeError, match="formatter failed"):
            save_dataset(_awkward_dataset(rows=25), path)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
        _assert_same_bits(load_dataset(path), previous)

    def test_failed_sidecar_write_leaves_previous_dataset_and_no_temporary_files(self, tmp_path, monkeypatch):
        path = str(tmp_path / "train.csv")
        previous = _awkward_dataset(rows=5)
        save_dataset(previous, path)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

        def failing_sidecar(fh, csv_digest, data):
            fh.write(b"partial")
            raise RuntimeError("sidecar write failed")

        monkeypatch.setattr(data_module, "_CHUNK_ROWS", 4)
        monkeypatch.setattr(data_module, "_write_sidecar", failing_sidecar)
        with pytest.raises(RuntimeError, match="sidecar write failed"):
            save_dataset(_awkward_dataset(rows=25), path)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
        _assert_same_bits(load_dataset(path), previous)


def _powers_of_ten_and_neighbours():
    """Float32's nearest value to each power of ten from 1e-45 to 1e38, and
    its float32 neighbours."""
    powers = np.float32([float(f"1e{k}") for k in range(-45, 39)])
    return np.concatenate([np.nextafter(powers, np.float32(0)), powers, np.nextafter(powers, np.float32(np.inf))])


def _cells(values):
    """``_format_cells`` of ``values`` as a list of cell strings."""
    return data_module._format_cells(values).tobytes().decode("ascii").split(",")[:-1]


class TestCellFormatter:
    """``_format_cells``: fixed-width cells that parse back to the same float32 bits."""

    def test_cells_have_their_layout_and_parse_back_to_the_same_bits(self):
        bits = np.random.default_rng(35).integers(0, 2**32, 1_050_000, dtype=np.uint64).astype(np.uint32)
        values = np.concatenate([bits.view(np.float32), F32_SPECIALS, _powers_of_ten_and_neighbours()])
        values = values[np.isfinite(values)]
        assert values.size > 1_000_000
        cells = data_module._format_cells(values)
        assert cells.shape == (values.size, 16)
        # [+-]d.dddddddde[+-]dd, then the separator
        for column, allowed in [(0, b"+-"), (2, b"."), (11, b"e"), (12, b"+-"), (13, b"01234"), (15, b",")]:
            assert np.isin(cells[:, column], list(allowed)).all(), column
        digits = cells[:, [1, 3, 4, 5, 6, 7, 8, 9, 10, 14]]
        assert ((digits >= ord("0")) & (digits <= ord("9"))).all()
        assert ((cells[:, 1] == ord("0")) == (values == 0)).all()  # a leading zero only for a zero
        parsed = np.fromiter(map(float, cells.tobytes().split(b",")[:-1]), np.float64, values.size)
        assert parsed.astype(np.float32).tobytes() == values.tobytes()

    def test_cells_are_pythons_nine_digit_format(self):
        # 2**-14 and 1704300.375 are exact ties at nine digits, which round to even
        bits = np.random.default_rng(36).integers(0, 2**32, 50_000, dtype=np.uint64).astype(np.uint32)
        ties = np.float32([2.0**-14, -(2.0**-14), 1704300.375, 629201.8125])
        # the first and last entry of each word table: lead 10 and 99 of
        # either sign, mid 0000 and 9999, low 000 and 999, exponents -45 and +38
        edges = np.float32([1.0, -1.0, 9.99999905, -9.99999905, 8.75139999, F32.smallest_subnormal, F32.max])
        values = np.concatenate([bits.view(np.float32), F32_SPECIALS, _powers_of_ten_and_neighbours(), ties, edges])
        values = values[np.isfinite(values)]
        assert _cells(values) == [format(float(v), "+.8e") for v in values]
        assert _cells(ties) == ["+6.10351562e-05", "-6.10351562e-05", "+1.70430038e+06", "+6.29201812e+05"]
        assert _cells(edges) == [
            "+1.00000000e+00",
            "-1.00000000e+00",
            "+9.99999905e+00",
            "-9.99999905e+00",
            "+8.75139999e+00",
            "+1.40129846e-45",
            "+3.40282347e+38",
        ]

    @pytest.mark.parametrize("shift", [-1.0, 1.0], ids=["decade-too-low", "decade-too-high"])
    def test_a_misestimated_decade_is_corrected(self, monkeypatch, shift):
        bits = np.random.default_rng(37).integers(0, 2**32, 20_000, dtype=np.uint64).astype(np.uint32)
        values = np.concatenate([bits.view(np.float32), F32_SPECIALS, _powers_of_ten_and_neighbours()])
        values = values[np.isfinite(values) & (values != 0)]
        expected = _cells(values)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        assert _cells(values) == expected

    def test_import_builds_no_word_tables(self):
        # the tables are built by the first save: an import that built them
        # would add to the start-up of every command
        src = os.path.dirname(os.path.dirname(data_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import longtail_kd; print(longtail_kd.data._cell_words.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


class TestLabeledDataset:
    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), num_classes=2)

    def test_label_equal_to_num_classes_rejected(self):
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, num_classes\)$"):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 2]), num_classes=2)

    def test_one_label_per_feature_row(self):
        with pytest.raises(ValueError) as info:
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), num_classes=2)
        assert str(info.value) == "labels must be a vector matching the feature rows"

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[np.inf, 0.0]]), np.array([0]), num_classes=1)

    def test_features_are_stored_as_float32_rounded_once(self):
        for dtype in (np.int64, np.float32, np.float64):
            assert LabeledDataset(np.array([[1, 2], [3, -4]], dtype=dtype), [0, 1], 2).features.dtype == np.float32
        assert LabeledDataset([[0.1, 1 / 3]], [0], 1).features.tobytes() == np.float32([[0.1, 1 / 3]]).tobytes()

    @pytest.mark.parametrize(
        "features, got",
        [
            (np.float32([[0.0, np.nan], [1.0, 2.0]]), "nan at row 0, column 1"),
            (np.float32([[0.0, 1.0], [np.inf, 2.0]]), "inf at row 1, column 0"),
            (np.float32([[0.0, 1.0], [2.0, -np.inf]]), "-inf at row 1, column 1"),
            (np.float32([[np.inf, -np.inf]]), "inf at row 0, column 0"),
            (np.float32([0.0, 1.0]), "array([0., 1.], dtype=float32)"),
            (np.zeros((2, 1, 2), np.float32), repr(np.zeros((2, 1, 2), np.float32))),
        ],
        ids=["nan", "+inf", "-inf", "both-infinities", "1-d", "3-d"],
    )
    def test_float32_matrix_checked_in_place_refused_with_the_rule(self, features, got):
        # an entry float32 cannot hold is named by its place, the first in
        # row-major order; an array of another shape by its repr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                LabeledDataset(features, np.zeros(len(features), np.int64), 1)
        assert str(info.value) == f"features must be an (N, d) matrix of finite reals within float32's range, got {got}"

    @pytest.mark.parametrize(
        "features, got",
        [
            (np.float64([[0.0, 0.0, 0.0], [0.0, 0.0, -1e39], [np.nan, 0.0, 0.0]]), "-1e+39 at row 1, column 2"),
            (np.float32([[0.0, 0.0], [0.0, np.inf], [np.nan, np.nan]]), "inf at row 1, column 1"),
            ([[0.0, 1.0], [2.0, 3.0], [4.0, float("nan")]], "nan at row 2, column 1"),
        ],
        ids=["float64-beyond-float32", "float32-infinity", "list-nan"],
    )
    def test_first_refused_entry_in_row_major_order_named(self, features, got):
        # an earlier row wins over a later one, whatever the entries' kinds
        with pytest.raises(ValueError) as info:
            LabeledDataset(features, np.zeros(len(features), np.int64), 1)
        assert str(info.value) == f"features must be an (N, d) matrix of finite reals within float32's range, got {got}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bad_entry_of_a_large_split_named_in_a_short_message(self, dtype):
        # numpy's summarized repr of the whole matrix once stood here: 708
        # characters for this split, whose "..." hid the NaN
        features = np.zeros((8000, 64), dtype)
        features[5000, 3] = np.nan
        with pytest.raises(ValueError) as info:
            LabeledDataset(features, np.zeros(8000, np.int64), 1)
        assert str(info.value) == (
            "features must be an (N, d) matrix of finite reals within float32's range, got nan at row 5000, column 3"
        )

    @pytest.mark.parametrize(
        "features",
        [np.zeros((0, 3), np.float32), np.float32([[F32.max, -F32.max], [F32.tiny, -0.0]]), np.float32([[1.5, -2.0]])],
        ids=["empty", "float32-extremes", "plain"],
    )
    def test_float32_matrix_kept_as_it_is(self, features):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = LabeledDataset(features, np.zeros(len(features), np.int64), 1)
        assert data.features is features

    def test_feature_float32_cannot_hold_refused(self):
        # 1e300 was a valid float64 feature; the largest float64 that rounds
        # to float32's largest value is accepted, the next one refused
        rule = "features must be an (N, d) matrix of finite reals within float32's range, got"
        for value in (1e300, -1e300, data_module._F32_OVERFLOW):
            with pytest.raises(ValueError) as info:
                LabeledDataset([[0.0, 1.0], [value, 0.0]], [0, 0], 1)
            assert str(info.value) == f"{rule} {value!r} at row 1, column 0"
        below = np.nextafter(data_module._F32_OVERFLOW, 0.0)
        assert LabeledDataset([[below, -below]], [0], 1).features.tolist() == [[F32.max, -F32.max]]
