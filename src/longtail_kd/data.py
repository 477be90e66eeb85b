"""Long-tailed dataset construction, synthesis, subset tagging, and the
on-disk CSV format.

Train splits follow an imbalance profile; test splits are always balanced.
Counts, dimensions and labels go through the number rules of ``mathutils``
and ``weights.check_counts``, so a ``bool`` or a fractional count or label
is refused, never truncated.

A split's features are one float32 (N, d) array, made once and kept:
``synth_gaussian_mixture`` writes each class's float64 draws straight into
its rows, rounding each value once, and ``LabeledDataset`` checks a float32
matrix in place (a matrix of any other dtype it checks as reals and rounds
once).

On disk a dataset is a pair of files. ``<path>`` is a ``longtail-csv v2``
text file, the human-readable form: its float32 features are each written
as ``format(x, "+.8e")``, nine significant digits, as many as any float32
needs to parse back to its own bits. ``save_dataset`` formats the rows in
this process, one 1024-row chunk at a time through ``_format_cells``, which
gathers each 16-byte cell as four 4-byte words from small tables of text
built on the first save, and it hashes the CSV as it writes it. Its
``longtail-bin v3`` sidecar ``<path>.bin`` states the whole split: the
magic, the sha256 of the CSV bytes, N, d and C (int64), N int64 labels, N*d
row-major float32 features and a sha256 trailer over all of that, every
number little-endian. Each file is committed through ``open_output``, so a
failed save leaves no temporary file behind and a previous dataset at the
same path untouched, and a save killed while it formats leaves only the
CSV's temporary file.

``load_dataset`` reads the split from the sidecar alone. It opens the CSV
only to hash it, and refuses, naming the file and "rerun make-data", a
missing sidecar, one of another format, one whose size does not fit N and
d, whose C or d is below 1, whose trailer does not verify, or whose
recorded CSV digest is not that of the CSV beside it. It hands
``LabeledDataset`` the float32 matrix it read, which it keeps, so a load
holds its features once.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .mathutils import Rng, as_real_array, check_int, check_int_array, check_real
from .weights import check_counts

FORMAT_MAGIC = "longtail-csv v2"
SIDECAR_MAGIC = b"longtail-bin v3"
SIDECAR_SUFFIX = ".bin"
_DIGEST_BYTES = 32  # sha256
# magic, CSV digest, N, d, C
_SIDECAR_HEAD = struct.Struct(f"<{len(SIDECAR_MAGIC)}s{_DIGEST_BYTES}sqqq")
# bytes per read of ``_file_sha256``: the buffer a file is hashed through
_BLOCK_BYTES = 1 << 20
# rows formatted per write in save_dataset: it bounds the memory a save
# holds beyond the split's arrays
_CHUNK_ROWS = 1024
# the least magnitude that rounds to float32's infinity: halfway between its
# largest finite value and 2**128, where a tie rounds to the even 2**128
_F32_OVERFLOW = 2.0**128 - 2.0**103
# bytes of a feature cell and its separator, ``[+-]d.dddddddde[+-]dd,``
_CELL_BYTES = 16
# 10.0**k for k in [-_EXP_BIAS, _EXP_BIAS), indexed by k + _EXP_BIAS; it
# spans every decade a float32 has, with room for a misestimated one
_EXP_BIAS = 64
_POW10 = 10.0 ** np.arange(-_EXP_BIAS, _EXP_BIAS)
# entries of each sign in the lead-word table: one per value of m // 10**7
# for every uint32 m, so a cell the fallback patches still indexes in range
_LEADS = 430

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
    """Write the on-disk format: a header line
    ``longtail-csv v2, C=<int>, d=<int>`` then one ``label,f_1,...,f_d``
    row per sample, plus the ``longtail-bin v3`` sidecar ``<path>.bin``
    (see the module docstring). The sidecar, then the CSV, is committed
    through ``open_output``."""
    csv_digest = hashlib.sha256()
    with open_output(path) as fh:
        header = f"{FORMAT_MAGIC}, C={data.num_classes}, d={data.dimension}\n".encode("ascii")
        starts = range(0, len(data), _CHUNK_ROWS)
        for blob in itertools.chain([header], (_format_rows(data, s, s + _CHUNK_ROWS) for s in starts)):
            csv_digest.update(blob)
            fh.write(blob)
        with open_output(path + SIDECAR_SUFFIX) as sidecar:
            _write_sidecar(sidecar, csv_digest.digest(), data)


def _format_rows(data, start, stop):
    """CSV lines of rows ``start:stop`` as ASCII bytes."""
    cells = _format_cells(data.features[start:stop])
    cells[..., -1, -1] = ord("\n")
    rows = cells.reshape(len(cells), -1)
    return b"".join(b"%d,%b" % row for row in zip(data.labels[start:stop].tolist(), rows))


def _format_cells(values):
    """The cells ``format(v, "+.8e") + ","`` of a float32 array as a uint8
    array of shape ``values.shape + (16,)``. Each magnitude is scaled by a
    float64 power of ten to nine digits before the point, its decade from
    ``log10``; a second scaling corrects a misestimated decade either way,
    or a ninth digit that carries. The scaled value is within 1e-6 of
    exact, so ``rint`` rounds it correctly unless it is that close to a
    tie, and Python formats those few cells. The rounded nine digits m and
    the exponent e index the four words of a cell in ``_cell_words``' tables:
    the sign and m // 10**7 (``+d.d``), (m // 1000) % 10000 (``dddd``),
    m % 1000 (``ddde``) and e (``+dd,``)."""
    a = np.abs(values, dtype=np.float64)
    nonzero = a > 0
    e = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.int64)
    scaled = a * _POW10[8 + _EXP_BIAS - e]
    e += (np.rint(scaled) >= 1e9).astype(np.int64) - ((scaled < 1e8) & nonzero)
    scaled = a * _POW10[8 + _EXP_BIAS - e]
    m = np.rint(scaled)
    near_tie = nonzero & ((np.abs(scaled - m) > 0.5 - 1e-6) | (m < 1e8) | (m >= 1e9))
    m = m.astype(np.uint32)
    lead = m // 10**7
    lead[np.signbit(values)] += _LEADS
    out = np.empty(values.shape + (4,), "<u4")
    # every index is in range by construction; a mode other than "raise"
    # spares np.take a buffered copy of its strided output
    for k, (table, index) in enumerate(zip(_cell_words(), (lead, m // 1000 % 10000, m % 1000, e + _EXP_BIAS))):
        np.take(table, index, out=out[..., k], mode="wrap")
    cells = out.view(np.uint8)
    flat = cells.reshape(-1, _CELL_BYTES)
    for i in np.flatnonzero(near_tie):
        flat[i, :-1] = np.frombuffer(format(float(values.flat[i]), "+.8e").encode("ascii"), np.uint8)
    return cells


@functools.cache
def _cell_words():
    """The four ``<u4`` word tables of ``_format_cells``, each 4-byte word
    the ASCII text of one entry: ``+d.d`` then ``-d.d`` for each lead value
    below ``_LEADS`` (tens digit mod 10), ``dddd``, ``ddde`` and ``+dd,``
    for each exponent from -``_EXP_BIAS``. Built on the first save, not at
    import."""
    words = lambda texts: np.frombuffer("".join(texts).encode("ascii"), "<u4")
    return (
        words(f"{sign}{n // 10 % 10}.{n % 10}" for sign in "+-" for n in range(_LEADS)),
        words(f"{n:04d}" for n in range(10000)),
        words(f"{n:03d}e" for n in range(1000)),
        words(f"{n:+03d}," for n in range(-_EXP_BIAS, _EXP_BIAS)),
    )


def _write_sidecar(fh, csv_digest, data):
    trailer = hashlib.sha256()
    for part in (
        _SIDECAR_HEAD.pack(SIDECAR_MAGIC, csv_digest, len(data), data.dimension, data.num_classes),
        np.ascontiguousarray(data.labels, dtype="<i8"),
        np.ascontiguousarray(data.features, dtype="<f4"),
    ):
        trailer.update(part)
        fh.write(part)
    fh.write(trailer.digest())


def _file_sha256(fh):
    """sha256 of the open binary file ``fh``, read into one reused
    ``_BLOCK_BYTES`` buffer, so hashing a file of any size allocates one
    block, not one per block read."""
    digest = hashlib.sha256()
    buf = memoryview(bytearray(_BLOCK_BYTES))
    while n := fh.readinto(buf):
        digest.update(buf[:n])
    return digest.digest()


def _read_sidecar(fh, csv_path, csv_digest):
    """``(labels, features, num_classes)`` from the open sidecar ``fh`` of
    ``csv_path``, whose bytes hash to ``csv_digest``. ValueError says what
    does not check out."""
    head = fh.read(_SIDECAR_HEAD.size)
    if head[: len(SIDECAR_MAGIC)] != SIDECAR_MAGIC:
        raise ValueError(f"not a {SIDECAR_MAGIC.decode()} sidecar")
    size = os.fstat(fh.fileno()).st_size
    if len(head) != _SIDECAR_HEAD.size:
        raise ValueError(f"{size} bytes, fewer than its {_SIDECAR_HEAD.size}-byte header")
    _, recorded, n, d, num_classes = _SIDECAR_HEAD.unpack(head)
    if d < 1 or num_classes < 1:
        raise ValueError(f"needs C >= 1 and d >= 1, got C={num_classes}, d={d}")
    if n < 0 or size != _SIDECAR_HEAD.size + 8 * n + 4 * n * d + _DIGEST_BYTES:
        raise ValueError(f"{size} bytes do not fit N={n} and d={d}")
    if recorded != csv_digest:
        raise ValueError(f"the CSV digest it records is not that of {csv_path}")
    labels = np.fromfile(fh, dtype="<i8", count=n)
    features = np.fromfile(fh, dtype="<f4", count=n * d).reshape(n, d)
    payload = hashlib.sha256(head)
    payload.update(labels)
    payload.update(features)
    if payload.digest() != fh.read(_DIGEST_BYTES):
        raise ValueError("its sha256 trailer does not match its contents")
    return labels, features, num_classes


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
    """The split ``save_dataset`` wrote to ``path``; counts derive from
    labels. The CSV is hashed first, through ``open_input``, then the whole
    split is read from its sidecar ``<path>.bin``. Every refusal of the
    sidecar, ``LabeledDataset``'s included, is a ValueError
    ``<path>.bin: <reason>; rerun make-data``."""
    with open_input(path, "dataset file") as fh:
        csv_digest = _file_sha256(fh)
    sidecar = path + SIDECAR_SUFFIX
    try:
        with open(sidecar, "rb") as fh:
            labels, features, num_classes = _read_sidecar(fh, path, csv_digest)
        return LabeledDataset(features, labels, num_classes)
    except OSError as exc:
        reason = f"cannot read the dataset sidecar: {exc.strerror}"
    except ValueError as exc:
        reason = str(exc)
    raise ValueError(f"{sidecar}: {reason}; rerun make-data")
