"""Long-tailed dataset construction, synthesis, subset tagging, and the
on-disk CSV format.

Train splits follow an imbalance profile; test splits are always balanced.
Counts, dimensions and labels go through the number rules of ``mathutils``
and ``weights.check_counts``, so a ``bool`` or a fractional count or label
is refused, never truncated.

On disk a dataset is a ``longtail-csv v1`` text file, the one canonical form.
``save_dataset`` also writes a ``longtail-bin v1`` sidecar next to it
(``<path>.bin``) so that later loads skip parsing the text. All integers
in it are little-endian int64. It holds:

- the magic ``longtail-bin v1``;
- the sha256 of the exact CSV bytes it was written with;
- N and d;
- N labels (int64), then N*d row-major features (little-endian float64);
- a sha256 trailer over everything before it.

``load_dataset`` always parses the CSV header. It takes the rows from the
sidecar only when the magic, the CSV digest, d, the file size (N*(d+1)
eight-byte values) and the trailer all check out. Otherwise (no sidecar,
or a stale, truncated or corrupt one) it parses the CSV text, so a CSV
from elsewhere, or one edited after saving, loads as written. Both paths
give the same bits, and ``LabeledDataset`` validates either result.

Formatting floats with ``repr`` is nearly all the cost of a save, so
``save_dataset`` spreads it over every CPU it may run on, through the one
fork path ``workers.run_split``. The rows are cut into contiguous ranges of
whole 1024-row chunks, one range per CPU but never more ranges than chunks.
A forked child formats each range after the first into
``<path>.part<start>`` while the saving process formats the first range
straight into ``<path>.tmp``. It then appends the part files in range
order, hashing every byte of the CSV as it is written, so the CSV and its
digest are the same bytes whatever the CPU count. With one CPU, one chunk,
or a platform that cannot fork, nothing is forked and the same code formats
every row in one range. The CSV and the sidecar are built as ``.tmp`` files
and put in place with ``os.replace``, so a failed save leaves no part or
temporary file behind and a previous dataset at the same path untouched.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .mathutils import Rng, check_int, check_int_array, check_real
from .weights import check_counts
from .workers import run_split, split

FORMAT_MAGIC = "longtail-csv v1"
SIDECAR_MAGIC = b"longtail-bin v1"
SIDECAR_SUFFIX = ".bin"
_DIGEST_BYTES = 32  # sha256
# magic, CSV digest, N, d
_SIDECAR_HEAD = struct.Struct(f"<{len(SIDECAR_MAGIC)}s{_DIGEST_BYTES}sqq")
# rows formatted per write in save_dataset, and bytes hashed per read: both
# bound the memory a save or a load holds beyond the arrays themselves
_SAVE_CHUNK_ROWS = 1024
_HASH_CHUNK_BYTES = 1 << 20

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
    """Feature matrix with integer labels; class counts derive from labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = check_int_array(self.labels, "labels")
        self.num_classes = check_int(self.num_classes, "num_classes", 1)
        if self.features.ndim != 2:
            raise ValueError("features must be an (N, d) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector matching the feature rows")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
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
        if norm < 1e-12:  # degenerate draw; keep the raw direction
            v = g[r]
            norm = np.linalg.norm(v)
        out[r] = v / norm
    return out


def synth_gaussian_mixture(counts, dim, separation, seed, per_class_test):
    """Synthesize a Gaussian-mixture classification problem.

    Class means are a seeded orthonormal-ish frame scaled to radius
    ``separation``; samples are unit-variance isotropic around them. The
    train split follows ``counts`` per class, the test split is balanced
    with ``per_class_test`` samples per class. Identical seeds reproduce
    the datasets bit for bit.
    """
    counts = check_counts(counts)
    dim = check_int(dim, "feature dimension", 2)
    separation = check_real(separation, "separation", lambda s: 0.0 <= s < math.inf, "be a nonnegative real")
    per_class_test = check_int(per_class_test, "per_class_test", 1)

    C = counts.size
    rng = Rng(seed)
    means = separation * _orthonormalish_rows(rng, C, dim)

    train_feats = [means[c] + rng.normal((int(counts[c]), dim)) for c in range(C)]
    test_feats = [means[c] + rng.normal((per_class_test, dim)) for c in range(C)]
    train_labels = np.repeat(np.arange(C, dtype=np.int64), counts)
    test_labels = np.repeat(np.arange(C, dtype=np.int64), per_class_test)
    train = LabeledDataset(np.vstack(train_feats), train_labels, C)
    test = LabeledDataset(np.vstack(test_feats), test_labels, C)
    return train, test


def check_thresholds(many_thresh, few_thresh):
    """The subset thresholds as Python ints, or ValueError unless they are
    integers with many_thresh > few_thresh > 0."""
    many, few = check_int(many_thresh, "many_thresh"), check_int(few_thresh, "few_thresh")
    if not many > few > 0:
        raise ValueError(f"need many_thresh > few_thresh > 0, got {many}, {few}")
    return many, few


def subset_tags(counts, many_thresh=100, few_thresh=20):
    """One tag per class, by training count, as a tuple: many
    (> many_thresh), few (< few_thresh), medium otherwise (both boundaries
    inclusive)."""
    many_thresh, few_thresh = check_thresholds(many_thresh, few_thresh)
    counts = check_int_array(counts, "counts")
    return tuple(MANY if n > many_thresh else FEW if n < few_thresh else MEDIUM for n in counts)


def save_dataset(data, path):
    """Write the on-disk format: a header line
    ``longtail-csv v1, C=<int>, d=<int>`` then one ``label,f_1,...,f_d``
    row per sample with shortest round-trip float representations, plus
    the ``longtail-bin v1`` sidecar ``<path>.bin`` (see the module
    docstring).

    The rows are split into contiguous ranges of whole save chunks, one per
    available CPU (``workers.split``, never more ranges than chunks), and
    formatted through ``workers.run_split``: this process formats the first
    range into ``<path>.tmp`` after the header while a forked child formats
    each other range into ``<path>.part<start>``. This process then appends
    the part files in order. Every byte of ``<path>.tmp`` is hashed as it is
    written. With one CPU, one chunk, or a platform that cannot fork,
    nothing is forked. The sidecar is written as ``<path>.bin.tmp``, then
    both files are put in place with ``os.replace``. A failed child raises
    OSError naming its rows; on any failure the children still running are
    stopped, the part and temporary files are removed and a previous
    ``<path>`` is left as it was. The bytes do not depend on the CPU count.
    """
    n = len(data)
    ranges = [(a * _SAVE_CHUNK_ROWS, min(b * _SAVE_CHUNK_ROWS, n)) for a, b in split(-(-n // _SAVE_CHUNK_ROWS))]
    parts = [f"{path}.part{start}" for start, _ in ranges[1:]]
    tmp, sidecar_tmp = path + ".tmp", path + SIDECAR_SUFFIX + ".tmp"

    def failed(start, stop, sent):
        return f"{path}: the worker formatting rows {start}-{stop}"

    try:
        csv_digest = hashlib.sha256()
        with open(tmp, "wb") as fh:

            def emit(blob):
                csv_digest.update(blob)
                fh.write(blob)

            emit(f"{FORMAT_MAGIC}, C={data.num_classes}, d={data.dimension}\n".encode("ascii"))
            run_split(ranges, _write_range, failed, data, path, emit)
            for part in parts:
                with open(part, "rb") as src:
                    while block := src.read(_HASH_CHUNK_BYTES):
                        emit(block)
                os.remove(part)
        _write_sidecar(sidecar_tmp, csv_digest.digest(), data)
        os.replace(tmp, path)
        os.replace(sidecar_tmp, path + SIDECAR_SUFFIX)
    except BaseException:
        for leftover in (*parts, tmp, sidecar_tmp):
            if os.path.exists(leftover):
                os.remove(leftover)
        raise


def _format_rows(data, start, stop):
    """CSV lines of rows ``start:stop`` as ASCII bytes."""
    rows = zip(data.labels[start:stop].tolist(), data.features[start:stop].tolist())
    return "".join(f"{label},{','.join(map(repr, feats))}\n" for label, feats in rows).encode("ascii")


def _format_range(write, data, start, stop):
    for chunk in range(start, stop, _SAVE_CHUNK_ROWS):
        write(_format_rows(data, chunk, min(chunk + _SAVE_CHUNK_ROWS, stop)))


def _write_range(_send, data, path, emit, start, stop):
    """A save job: format rows ``start:stop`` chunk by chunk, through
    ``emit`` (into ``<path>.tmp``) for the first range and into
    ``<path>.part<start>`` for any other."""
    if start:
        with open(f"{path}.part{start}", "wb") as fh:
            _format_range(fh.write, data, start, stop)
    else:
        _format_range(emit, data, start, stop)


def _write_sidecar(path, csv_digest, data):
    labels = np.ascontiguousarray(data.labels, dtype="<i8")
    features = np.ascontiguousarray(data.features, dtype="<f8")
    head = _SIDECAR_HEAD.pack(SIDECAR_MAGIC, csv_digest, len(data), data.dimension)
    trailer = hashlib.sha256(head)
    trailer.update(labels)
    trailer.update(features)
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(labels)
        fh.write(features)
        fh.write(trailer.digest())


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.digest()


def _read_sidecar(csv_path, dim):
    """``(labels, features)`` from the sidecar of ``csv_path`` when it is
    intact and was written for the CSV's current bytes, else None."""
    try:
        fh = open(csv_path + SIDECAR_SUFFIX, "rb")
    except OSError:
        return None
    with fh:
        head = fh.read(_SIDECAR_HEAD.size)
        if len(head) != _SIDECAR_HEAD.size:
            return None
        magic, csv_digest, n, d = _SIDECAR_HEAD.unpack(head)
        expected_size = _SIDECAR_HEAD.size + 8 * n * (d + 1) + _DIGEST_BYTES
        if (
            magic != SIDECAR_MAGIC
            or d != dim
            or n < 0
            or os.fstat(fh.fileno()).st_size != expected_size
            or csv_digest != _file_sha256(csv_path)
        ):
            return None
        labels = np.fromfile(fh, dtype="<i8", count=n)
        features = np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)
        trailer = fh.read(_DIGEST_BYTES)
    payload = hashlib.sha256(head)
    payload.update(labels)
    payload.update(features)
    if payload.digest() != trailer:
        return None
    return labels, features


def _parse_rows(fh, path, num_classes, dim):
    labels = []
    rows = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ValueError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(cells)}")
        try:
            label, row = int(cells[0]), [float(v) for v in cells[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not 0 <= label < num_classes:
            raise ValueError(f"{path}:{lineno}: label {label} outside [0, {num_classes})")
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: features must be finite")
        labels.append(label)
        rows.append(row)
    return np.array(labels, dtype=np.int64), np.array(rows, dtype=np.float64).reshape(len(rows), dim)


def load_dataset(path):
    """Read a file written by ``save_dataset``; counts derive from labels.
    The rows come from the sidecar when it verifies, else from the text."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            parts = [p.strip() for p in header.split(",")]
            if (
                len(parts) != 3
                or parts[0] != FORMAT_MAGIC
                or not parts[1].startswith("C=")
                or not parts[2].startswith("d=")
            ):
                raise ValueError(f"{path}: not a {FORMAT_MAGIC} file (header {header!r})")
            try:
                num_classes = int(parts[1][2:])
                dim = int(parts[2][2:])
            except ValueError:
                raise ValueError(f"{path}: malformed header {header!r}") from None
            if num_classes < 1 or dim < 1:
                raise ValueError(f"{path}: header needs C >= 1 and d >= 1 (header {header!r})")
            cached = _read_sidecar(path, dim)
            labels, features = cached if cached is not None else _parse_rows(fh, path, num_classes, dim)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not ASCII text: {exc}") from None
    return LabeledDataset(features, labels, num_classes)
