"""Long-tailed dataset construction, synthesis, subset tagging, and the
on-disk format of a split.

Train splits follow an imbalance profile; test splits are always balanced.
Counts, dimensions and labels go through the number rules of ``mathutils``
and ``weights.check_counts``, so a ``bool`` or a fractional count or label
is refused, never truncated.

A split's features are one float32 (N, d) array, made once and kept:
``synth_gaussian_mixture`` writes each class's float64 draws straight into
its rows, rounding each value once, and ``LabeledDataset`` checks a float32
matrix in place (a matrix of any other dtype it checks as reals and rounds
once).

On disk a split is one ``longtail-bin v4`` file, ``<path>.bin`` for the
split named ``<path>``: the magic, N, d and C (int64), N int64 labels, N*d
row-major float32 features and a sha256 trailer over all of that, every
number little-endian. ``save_dataset`` writes the split's own arrays, so a
save holds nothing split-sized beyond them, and commits the file through
``open_output``, so a failed save leaves no temporary file behind and a
previous dataset at the same path untouched.

``load_dataset`` opens that file alone, through ``open_input``, and refuses,
naming the file and "rerun make-data", one that is missing or cannot be
opened, one of another format (an older ``longtail-bin`` among them), one
whose size does not fit N and d, whose C or d is below 1, or whose trailer
does not verify. It hands ``LabeledDataset`` the float32 matrix it read,
which it keeps, so a load holds its features once.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .mathutils import Rng, as_real_array, check_int, check_int_array, check_real
from .weights import check_counts

SPLIT_MAGIC = b"longtail-bin v4"
SPLIT_SUFFIX = ".bin"
_DIGEST_BYTES = 32  # sha256
# magic, N, d, C
_SPLIT_HEAD = struct.Struct(f"<{len(SPLIT_MAGIC)}sqqq")
# the least magnitude that rounds to float32's infinity: halfway between its
# largest finite value and 2**128, where a tie rounds to the even 2**128
_F32_OVERFLOW = 2.0**128 - 2.0**103

PROFILE_KINDS = ("exponential", "step")

MANY = "many"
MEDIUM = "medium"
FEW = "few"


@dataclass(frozen=True)
class ImbalanceProfile:
    """Shape of a long-tailed count profile.

    ``rho`` is the imbalance ratio: most frequent class count over least
    frequent. ``kind`` is "exponential" (geometric decay across classes) or
    "step" (head half at n_max, tail half at n_max / rho).
    """

    kind: str = "exponential"
    rho: float = 100.0
    n_max: int = 500
    num_classes: int = 10

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"profile kind must be one of {PROFILE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "rho", check_real(self.rho, "imbalance ratio", lambda r: r >= 1.0, "be >= 1"))
        object.__setattr__(self, "n_max", check_int(self.n_max, "n_max", 1))
        object.__setattr__(self, "num_classes", check_int(self.num_classes, "num_classes", 1))
        if self.num_classes < 2 and self.rho > 1.0:
            raise ValueError("an imbalanced profile (rho > 1) needs at least 2 classes")


@dataclass
class LabeledDataset:
    """Float32 feature matrix with integer labels; class counts derive from
    labels. A float32 (N, d) array is checked in place and kept as it is,
    as ``labels`` is; any other is checked as reals and rounded once. A
    NaN, an infinity or a real beyond float32's range is refused by its
    value, row and column."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        f = self.features
        rule = "be an (N, d) matrix of finite reals within float32's range"
        if not (type(f) is np.ndarray and f.dtype == np.float32 and f.ndim == 2):
            f = as_real_array(f, "features", rule, (None, None))
        if not _fits_float32(f):
            # the first entry in row-major order that is not below the bound
            i, j = divmod(int(np.argmin(np.abs(f, dtype=np.float64) < _F32_OVERFLOW)), f.shape[1])
            raise ValueError(f"features must {rule}, got {float(f[i, j])!r} at row {i}, column {j}")
        self.features = f.astype(np.float32, copy=False)
        self.labels = check_int_array(self.labels, "labels")
        self.num_classes = check_int(self.num_classes, "num_classes", 1)
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector matching the feature rows")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    @property
    def dimension(self):
        return self.features.shape[1]

    @property
    def class_counts(self):
        return np.bincount(self.labels, minlength=self.num_classes).astype(np.int64)

    def __len__(self):
        return self.features.shape[0]


def _fits_float32(f):
    """True when every entry of the real array ``f`` is a value float32
    holds: its max and min, compared as Python floats, lie below
    ``_F32_OVERFLOW`` in magnitude. A NaN or an infinity carries through
    both reductions and fails, so a float32 array needs no other check and
    no (N, d) temporary."""
    return float(f.max(initial=0.0)) < _F32_OVERFLOW and -float(f.min(initial=0.0)) < _F32_OVERFLOW


def make_longtail_counts(profile):
    """Per-class training counts for a profile, sorted nonincreasing.

    Exponential: n_i = round(n_max * rho^(-i / (C - 1))) for i = 0..C-1.
    Step: first ceil(C / 2) classes at n_max, the rest at round(n_max / rho).
    Counts are clamped to at least 1.
    """
    if not isinstance(profile, ImbalanceProfile):
        raise ValueError("profile must be an ImbalanceProfile")
    C, n_max, rho = profile.num_classes, profile.n_max, profile.rho
    if profile.kind == "exponential":
        if C == 1:
            counts = np.array([n_max], dtype=np.int64)
        else:
            i = np.arange(C, dtype=np.float64)
            raw = n_max * rho ** (-i / (C - 1))
            counts = np.floor(raw + 0.5).astype(np.int64)
    else:
        head = (C + 1) // 2
        tail_count = int(math.floor(n_max / rho + 0.5))
        counts = np.array([n_max] * head + [tail_count] * (C - head), dtype=np.int64)
    return np.maximum(counts, 1)


def _orthonormalish_rows(rng, num_rows, dim):
    """Rows of a seeded random frame: orthonormal while num_rows <= dim,
    merely unit-norm beyond that."""
    g = rng.normal((num_rows, dim))
    out = np.zeros_like(g)
    for r in range(num_rows):
        v = g[r].copy()
        for prev in range(min(r, dim)):
            v -= (v @ out[prev]) * out[prev]
        norm = np.linalg.norm(v)
        # every row past the dim-th lands here, not only a degenerate draw: the
        # rows before it span R^dim, so v is rounding (norm ~1e-15); keep g[r]
        if norm < 1e-12:
            v = g[r]
            norm = np.linalg.norm(v)
        out[r] = v / norm
    return out


def synth_gaussian_mixture(counts, dim, separation, seed, per_class_test):
    """Synthesize a Gaussian-mixture classification problem.

    Class means are a seeded orthonormal-ish frame scaled to radius
    ``separation``; samples are unit-variance isotropic around them. The
    train split follows ``counts`` per class, the test split is balanced
    with ``per_class_test`` samples per class. Each split is one float32
    matrix, and each class's float64 draws are rounded once as they are
    written into its rows. Identical seeds reproduce the datasets bit for
    bit.
    """
    counts = check_counts(counts)
    dim = check_int(dim, "feature dimension", 2)
    separation = check_real(separation, "separation", lambda s: 0.0 <= s < math.inf, "be a nonnegative real")
    per_class_test = check_int(per_class_test, "per_class_test", 1)

    C = counts.size
    rng = Rng(seed)
    means = separation * _orthonormalish_rows(rng, C, dim)

    splits = []
    for split_counts in (counts, np.full(C, per_class_test, np.int64)):
        features = np.empty((int(split_counts.sum()), dim), np.float32)
        start = 0
        for c, n in enumerate(split_counts.tolist()):
            rows = rng.normal((n, dim))
            rows += means[c]
            # each float64 value is rounded once as it is written; one that
            # float32 cannot hold becomes inf, quietly, for LabeledDataset to refuse
            with np.errstate(over="ignore"):
                features[start : start + n] = rows
            del rows  # freed before the next class's draws, which can reuse it
            start += n
        splits.append(LabeledDataset(features, np.repeat(np.arange(C, dtype=np.int64), split_counts), C))
    return tuple(splits)


def check_thresholds(many_thresh, few_thresh):
    """The subset thresholds as Python ints, or ValueError unless they are
    integers with many_thresh > few_thresh > 0."""
    many, few = check_int(many_thresh, "many_thresh"), check_int(few_thresh, "few_thresh")
    if not many > few > 0:
        raise ValueError(f"need many_thresh > few_thresh > 0, got {many}, {few}")
    return many, few


def subset_tags(counts, many_thresh, few_thresh):
    """One tag per class, by training count, as a tuple: many
    (> many_thresh), few (< few_thresh), medium otherwise (both boundaries
    inclusive)."""
    many_thresh, few_thresh = check_thresholds(many_thresh, few_thresh)
    counts = check_int_array(counts, "counts")
    return tuple(MANY if n > many_thresh else FEW if n < few_thresh else MEDIUM for n in counts)


def save_dataset(data, path):
    """Commit the split to ``<path>.bin`` (``open_output``) in the
    ``longtail-bin v4`` format of the module docstring."""
    trailer = hashlib.sha256()
    with open_output(path + SPLIT_SUFFIX) as fh:
        for part in (
            _SPLIT_HEAD.pack(SPLIT_MAGIC, len(data), data.dimension, data.num_classes),
            np.ascontiguousarray(data.labels, dtype="<i8"),
            np.ascontiguousarray(data.features, dtype="<f4"),
        ):
            trailer.update(part)
            fh.write(part)
        fh.write(trailer.digest())


def _read_split(fh):
    """``(features, labels, num_classes)`` from the open ``longtail-bin v4``
    file ``fh``. ValueError says what does not check out."""
    head = fh.read(_SPLIT_HEAD.size)
    if head[: len(SPLIT_MAGIC)] != SPLIT_MAGIC:
        raise ValueError(f"not a {SPLIT_MAGIC.decode()} file")
    size = os.fstat(fh.fileno()).st_size
    if len(head) != _SPLIT_HEAD.size:
        raise ValueError(f"{size} bytes, fewer than its {_SPLIT_HEAD.size}-byte header")
    _, n, d, num_classes = _SPLIT_HEAD.unpack(head)
    if d < 1 or num_classes < 1:
        raise ValueError(f"needs C >= 1 and d >= 1, got C={num_classes}, d={d}")
    if n < 0 or size != _SPLIT_HEAD.size + 8 * n + 4 * n * d + _DIGEST_BYTES:
        raise ValueError(f"{size} bytes do not fit N={n} and d={d}")
    labels = np.fromfile(fh, dtype="<i8", count=n)
    features = np.fromfile(fh, dtype="<f4", count=n * d).reshape(n, d)
    payload = hashlib.sha256(head)
    payload.update(labels)
    payload.update(features)
    if payload.digest() != fh.read(_DIGEST_BYTES):
        raise ValueError("its sha256 trailer does not match its contents")
    return features, labels, num_classes


def open_input(path, what, mode="rb", **kwargs):
    """``open(path, mode, **kwargs)`` for an input file, with the refusals
    every input shares: FileNotFoundError ``<what> not found: <path>`` for a
    missing file, and ValueError ``<path>: cannot read the <what>: <reason>``
    for any other that cannot be opened, such as a directory."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"{path}: cannot read the {what}: {exc.strerror}") from None


def temp_path(path):
    """The temporary file ``open_output`` writes before committing it onto ``path``."""
    return path + ".tmp"


def check_output(path, what):
    """ValueError ``<path>: cannot write the <what>: <reason>`` where
    ``open_output`` could not commit a file onto ``path``: a directory at
    ``path``, which ``os.replace`` cannot overwrite, or at its
    ``temp_path``, which ``open`` cannot write. Every CLI command probes
    each file it commits here before any work (``cli._prepare_out``), so
    a path it could not commit is refused up front."""
    if os.path.isdir(path):
        raise ValueError(f"{path}: cannot write the {what}: Is a directory")
    tmp = temp_path(path)
    if os.path.isdir(tmp):
        raise ValueError(f"{path}: cannot write the {what}: its temporary file {tmp} is a directory")


@contextlib.contextmanager
def open_output(path, mode="wb", **kwargs):
    """``open(temp_path(path), mode, **kwargs)`` for an output file, the
    one rule for committing a file: the block writes the temporary file,
    which ``os.replace`` puts onto ``path`` when the block ends cleanly. On
    any failure the temporary file is removed and ``path`` is left as it
    was. ``check_output`` refuses in advance a ``path`` this could not
    commit."""
    tmp = temp_path(path)
    fh = open(tmp, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_dataset(path):
    """The split ``save_dataset`` wrote for ``path``, read from
    ``<path>.bin`` alone; ``<path>`` itself is never opened. Counts derive
    from labels. Every refusal names the file and ends "; rerun make-data":
    ``open_input``'s, keeping its type, and as a ValueError
    ``<path>.bin: <reason>`` every refusal of what the file holds,
    ``LabeledDataset``'s included."""
    path += SPLIT_SUFFIX
    try:
        fh = open_input(path, "dataset file")
    except (FileNotFoundError, ValueError) as exc:
        raise type(exc)(f"{exc}; rerun make-data") from None
    with fh:
        try:
            return LabeledDataset(*_read_split(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}; rerun make-data") from None
