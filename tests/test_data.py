import hashlib
import os
import struct
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

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_dataset("/nonexistent/nope.csv")

    def test_file_that_cannot_be_opened_names_the_file(self, tmp_path):
        # a split named ``<path>`` is read from ``<path>.bin`` alone
        adir = tmp_path / "adir.csv.bin"
        adir.mkdir()
        with pytest.raises(ValueError) as info:
            load_dataset(str(tmp_path / "adir.csv"))
        assert str(info.value) == f"{adir}: cannot read the dataset file: Is a directory; rerun make-data"
        with pytest.raises(FileNotFoundError) as info:
            load_dataset(str(tmp_path / "absent.csv"))
        assert str(info.value) == f"dataset file not found: {tmp_path / 'absent.csv.bin'}; rerun make-data"

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

    def test_header_format(self, tmp_path):
        # the magic, then N, d and C as little-endian int64, and the file
        # is exactly the labels, the features and the trailer after that
        train, _ = synth_gaussian_mixture([7, 3], 4, 1.5, seed=13, per_class_test=1)
        save_dataset(train, str(tmp_path / "train.csv"))
        blob = (tmp_path / "train.csv.bin").read_bytes()
        assert blob[:39] == b"longtail-bin v4" + struct.pack("<qqq", 10, 4, 2)
        assert len(blob) == 39 + 8 * 10 + 4 * 10 * 4 + 32

    @pytest.mark.parametrize("C, d", [(1, 2), (2, 1)])
    def test_one_class_or_one_feature_loads(self, tmp_path, C, d):
        path = str(tmp_path / "narrow.csv")
        save_dataset(LabeledDataset(np.full((1, d), 1.5, np.float32), [0], C), path)
        data = load_dataset(path)
        assert (data.num_classes, data.dimension) == (C, d)
        np.testing.assert_array_equal(data.features, [[1.5] * d])


def _reference_file(data):
    """The longtail-bin v4 file of ``data``, built field by field."""
    body = b"".join(
        [
            b"longtail-bin v4",
            struct.pack("<qqq", len(data), data.dimension, data.num_classes),
            data.labels.astype("<i8").tobytes(),
            data.features.astype("<f4").tobytes(),
        ]
    )
    return body + hashlib.sha256(body).digest()


def _v2_csv(data):
    """The longtail-csv v2 text the previous format saved for ``data``."""
    lines = [f"longtail-csv v2, C={data.num_classes}, d={data.dimension}"]
    for label, row in zip(data.labels, data.features):
        lines.append(f"{label}," + ",".join(format(float(v), "+.8e") for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def _v3_file(data):
    """The longtail-bin v3 sidecar the previous format saved beside the CSV
    of ``data``: the v4 fields with that CSV's sha256 after the magic."""
    body = b"longtail-bin v3" + hashlib.sha256(_v2_csv(data)).digest() + _reference_file(data)[15:-32]
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
    """Signed zeros, subnormals and extreme magnitudes of float32."""
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
    """Recompute the file's sha256 trailer over its edited body."""
    body = blob[:-32]
    return body + hashlib.sha256(body).digest()


def _flip_last_feature_byte(blob):
    return blob[:-33] + bytes([blob[-33] ^ 0x40]) + blob[-32:]


def _write_bytes(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def _rewrite(path, edit):
    """Replace the bytes of the file at ``path`` with ``edit`` of them."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _write_bytes(path, edit(blob))


# The 103-byte file of TINY: the magic, then N, d and C from byte 15, the
# labels from byte 39, the features from byte 55 and the trailer from byte
# 71. Each case damages the saved split through ``(path, file path)``; its
# message names ``{bin}``, and a case of no message loads the same bits.
TINY = LabeledDataset(np.float32([[0.25, 1.5], [2.5, -3.0]]), np.array([0, 1]), 2)
_file = lambda edit: lambda path, file: _rewrite(file, edit)
RERUN = "; rerun make-data"
SPLIT_REFUSALS = {
    "missing-sidecar": (
        lambda path, file: os.remove(file),
        "dataset file not found: {bin}" + RERUN,
    ),
    "sidecar-is-a-directory": (
        lambda path, file: (os.remove(file), os.mkdir(file)),
        "{bin}: cannot read the dataset file: Is a directory" + RERUN,
    ),
    # the file of the previous format, byte for byte, and a sealed one of
    # the format before it, which has no C: neither gets a reader
    "v3-file": (_file(lambda blob: _v3_file(TINY)), "{bin}: not a longtail-bin v4 file" + RERUN),
    "v2-magic": (
        _file(lambda blob: _reseal(b"longtail-bin v2" + _v3_file(TINY)[15:63] + blob[39:])),
        "{bin}: not a longtail-bin v4 file" + RERUN,
    ),
    "cut-inside-header": (_file(lambda blob: blob[:20]), "{bin}: 20 bytes, fewer than its 39-byte header" + RERUN),
    "truncated": (_file(lambda blob: blob[:-1]), "{bin}: 102 bytes do not fit N=2 and d=2" + RERUN),
    "more-rows-than-bytes": (
        _file(lambda blob: _reseal(blob[:15] + struct.pack("<qqq", 3, 2, 2) + blob[39:])),
        "{bin}: 103 bytes do not fit N=3 and d=2" + RERUN,
    ),
    # 59 bytes are what N = -1 and d = 1 would take
    "negative-N": (
        _file(lambda blob: blob[:15] + struct.pack("<qqq", -1, 1, 2) + blob[39:59]),
        "{bin}: 59 bytes do not fit N=-1 and d=1" + RERUN,
    ),
    # a sealed file of two rows of no features, which LabeledDataset would accept
    "d=0": (
        _file(lambda blob: _reseal(blob[:15] + struct.pack("<qqq", 2, 0, 2) + blob[39:55] + blob[71:])),
        "{bin}: needs C >= 1 and d >= 1, got C=2, d=0" + RERUN,
    ),
    "C=0": (
        _file(lambda blob: _reseal(blob[:31] + struct.pack("<q", 0) + blob[39:])),
        "{bin}: needs C >= 1 and d >= 1, got C=0, d=2" + RERUN,
    ),
    "flipped-payload-byte": (
        _file(_flip_last_feature_byte),
        "{bin}: its sha256 trailer does not match its contents" + RERUN,
    ),
    "label-equal-to-C": (
        _file(lambda blob: _reseal(blob[:47] + struct.pack("<q", 2) + blob[55:])),
        "{bin}: labels must lie in [0, num_classes)" + RERUN,
    ),
    "nan-feature": (
        _file(lambda blob: _reseal(blob[:63] + np.float32(np.nan).tobytes() + blob[67:])),
        "{bin}: features must be an (N, d) matrix of finite reals within float32's range, got "
        "nan at row 1, column 0" + RERUN,
    ),
    # the magic of a format with no reader: a made-up one and the first file's
    "unknown-magic": (
        _file(lambda blob: _reseal(b"something-else!" + blob[15:])),
        "{bin}: not a longtail-bin v4 file" + RERUN,
    ),
    "v1-magic": (
        _file(lambda blob: _reseal(b"longtail-bin v1" + blob[15:])),
        "{bin}: not a longtail-bin v4 file" + RERUN,
    ),
    "empty-sidecar": (_file(lambda blob: b""), "{bin}: not a longtail-bin v4 file" + RERUN),
    "C=-1": (
        _file(lambda blob: _reseal(blob[:31] + struct.pack("<q", -1) + blob[39:])),
        "{bin}: needs C >= 1 and d >= 1, got C=-1, d=2" + RERUN,
    ),
    "d=-1": (
        _file(lambda blob: _reseal(blob[:23] + struct.pack("<q", -1) + blob[31:])),
        "{bin}: needs C >= 1 and d >= 1, got C=2, d=-1" + RERUN,
    ),
    # an N whose byte count overflows int64 is compared as a Python int
    "N=2**62": (
        _file(lambda blob: _reseal(blob[:15] + struct.pack("<q", 2**62) + blob[23:])),
        "{bin}: 103 bytes do not fit N=4611686018427387904 and d=2" + RERUN,
    ),
    "trailing-byte": (_file(lambda blob: blob + b"\0"), "{bin}: 104 bytes do not fit N=2 and d=2" + RERUN),
    "label-above-C": (
        _file(lambda blob: _reseal(blob[:47] + struct.pack("<q", 5) + blob[55:])),
        "{bin}: labels must lie in [0, num_classes)" + RERUN,
    ),
    "negative-label": (
        _file(lambda blob: _reseal(blob[:39] + struct.pack("<q", -1) + blob[47:])),
        "{bin}: labels must lie in [0, num_classes)" + RERUN,
    ),
    "inf-feature": (
        _file(lambda blob: _reseal(blob[:63] + np.float32(np.inf).tobytes() + blob[67:])),
        "{bin}: features must be an (N, d) matrix of finite reals within float32's range, got "
        "inf at row 1, column 0" + RERUN,
    ),
    "negative-inf-feature": (
        _file(lambda blob: _reseal(blob[:59] + np.float32(-np.inf).tobytes() + blob[63:])),
        "{bin}: features must be an (N, d) matrix of finite reals within float32's range, got "
        "-inf at row 0, column 1" + RERUN,
    ),
    # a damaged byte that every field check lets through: the trailer alone
    # refuses it, whether it is in the labels, in C or in the trailer
    "flipped-label-byte": (
        _file(lambda blob: blob[:47] + bytes([blob[47] ^ 0x01]) + blob[48:]),
        "{bin}: its sha256 trailer does not match its contents" + RERUN,
    ),
    "flipped-C-byte": (
        _file(lambda blob: blob[:31] + bytes([blob[31] ^ 0x01]) + blob[32:]),
        "{bin}: its sha256 trailer does not match its contents" + RERUN,
    ),
    "flipped-trailer-byte": (
        _file(lambda blob: blob[:-1] + bytes([blob[-1] ^ 0x01])),
        "{bin}: its sha256 trailer does not match its contents" + RERUN,
    ),
    "magic-only": (_file(lambda blob: blob[:15]), "{bin}: 15 bytes, fewer than its 39-byte header" + RERUN),
    "header-only": (_file(lambda blob: blob[:39]), "{bin}: 39 bytes do not fit N=2 and d=2" + RERUN),
    "trailer-cut-off": (_file(lambda blob: blob[:-32]), "{bin}: 71 bytes do not fit N=2 and d=2" + RERUN),
    # the split's CSV text of the previous format saved under the file's name
    "csv-text-at-bin": (_file(lambda blob: _v2_csv(TINY)), "{bin}: not a longtail-bin v4 file" + RERUN),
    "dangling-symlink": (
        lambda path, file: (os.remove(file), os.symlink(file + ".gone", file)),
        "dataset file not found: {bin}" + RERUN,
    ),
    # the temporary file of a save is never read: one left over beside the
    # file leaves the split as it was saved
    "stale-temporary-file": (lambda path, file: _write_bytes(file + ".tmp", b"longtail-bin v4 partial"), None),
    # ``<path>`` itself is never opened: a stale CSV of other rows, or a
    # directory, in its place leaves the split as it was saved
    "stale-csv-at-path": (
        lambda path, file: _write_bytes(path, _v2_csv(LabeledDataset(np.float32([[9.0, 9.0]]), [1], 2))),
        None,
    ),
    "directory-at-path": (lambda path, file: os.mkdir(path), None),
}


class TestSidecar:
    """The split's .bin file, a sidecar of its CSV before longtail-bin v4;
    the test and case names keep the word."""

    def _saved(self, tmp_path, data):
        path = str(tmp_path / "train.csv")
        save_dataset(data, path)
        assert os.listdir(tmp_path) == ["train.csv.bin"]
        return path

    def test_save_bytes_match_reference_writer(self, tmp_path):
        data = _awkward_dataset()
        path = self._saved(tmp_path, data)
        with open(path + ".bin", "rb") as fh:
            assert fh.read() == _reference_file(data)
        _assert_same_bits(load_dataset(path), data)

    @pytest.mark.parametrize("damage, message", SPLIT_REFUSALS.values(), ids=SPLIT_REFUSALS.keys())
    def test_damaged_or_stale_pair_refused_by_name(self, tmp_path, damage, message):
        path = self._saved(tmp_path, TINY)
        _assert_same_bits(load_dataset(path), TINY)
        damage(path, path + ".bin")
        before = sorted(os.listdir(tmp_path))
        if message is None:
            _assert_same_bits(load_dataset(path), TINY)
        else:
            with pytest.raises((FileNotFoundError, ValueError)) as info:
                load_dataset(path)
            assert str(info.value) == message.format(bin=path + ".bin")
        assert sorted(os.listdir(tmp_path)) == before  # loading never writes


class _Unreadable:
    """An array of a given shape whose values cannot be read."""

    def __init__(self, shape, what="features"):
        self.shape, self.what = shape, what

    def __array__(self, *args, **kwargs):
        raise RuntimeError(f"{self.what} unreadable")


class TestSave:
    """A failure leaves the previous dataset."""

    def test_failed_sidecar_write_leaves_previous_dataset_and_no_temporary_files(self, tmp_path):
        path = str(tmp_path / "train.csv")
        previous = _awkward_dataset(rows=5)
        save_dataset(previous, path)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        # the header and the labels are written before the features fail
        failing = _awkward_dataset(rows=25)
        failing.features = _Unreadable(failing.features.shape)
        with pytest.raises(RuntimeError, match="features unreadable"):
            save_dataset(failing, path)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
        _assert_same_bits(load_dataset(path), previous)

    @pytest.mark.parametrize("fail", ["labels", "commit"])
    def test_failed_label_write_or_commit_leaves_previous_dataset_and_no_temporary_files(
        self, tmp_path, monkeypatch, fail
    ):
        path = str(tmp_path / "train.csv")
        previous = _awkward_dataset(rows=5)
        save_dataset(previous, path)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        failing = _awkward_dataset(rows=25)
        if fail == "labels":
            # only the header is written before the labels fail
            failing.labels = _Unreadable(failing.labels.shape, "labels")
            expected = "labels unreadable"
        else:
            # the whole file is written, and putting it onto the path fails
            def replace(src, dst):
                raise OSError("replace refused")

            monkeypatch.setattr(os, "replace", replace)
            expected = "replace refused"
        with pytest.raises((RuntimeError, OSError), match=expected):
            save_dataset(failing, path)
        monkeypatch.undo()
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
        _assert_same_bits(load_dataset(path), previous)


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
