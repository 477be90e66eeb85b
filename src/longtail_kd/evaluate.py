"""Prediction, overall/per-subset accuracy, confusion matrices, and the
text forms of reports, confusion matrices and temperature sweeps.

``predict`` scores a split through ``mlp.forward``, optionally into
caller-owned per-layer buffers (the training loop keeps one set for a run
and scores every epoch through it). There is one tally: ``confusion_matrix``
counts (true, predicted) pairs with one ``bincount``, and
``report_from_confusion`` takes each class's hits and totals from its
diagonal and row sums; ``accuracy_report`` is the two in turn.

A leaf module: the sweep itself trains students, so it lives next to the
training loop in ``pipeline``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import FEW, MANY, MEDIUM
from .mathutils import check_int, check_int_array
from .mlp import forward


@dataclass(frozen=True)
class EvalReport:
    """Accuracies as exact correct/total ratios.

    Subset and per-class accuracies are None when the subset or class has
    no test samples (undefined, not zero).
    """

    overall: float
    many: float | None
    medium: float | None
    few: float | None
    per_class: tuple
    n: int


def predict(params, data, out=None):
    """Argmax class per sample; ties break toward the lowest class index.

    ``out`` is passed on to ``forward``: per-layer (len(data), fan_out)
    buffers that a caller scoring the same split every epoch allocates once.
    ``forward`` refuses data of another width than the model's input and
    scores in the model's dtype, so a float32 checkpoint scores as the run
    that wrote it did; it overflows quietly, and non-finite logits, with no
    argmax, are a ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = forward(params, data.features, out=out)
    if not np.isfinite(logits).all():
        raise ValueError("the model gives non-finite logits")
    return np.argmax(logits, axis=1).astype(np.int64)


def accuracy_report(preds, labels, tags):
    """Overall, per-subset, and per-class accuracy from predictions.

    ``tags`` holds one subset tag per class, as ``data.subset_tags`` gives
    them. The pairs are tallied by ``confusion_matrix``, so a prediction
    or label outside [0, C) is refused, and reported by
    ``report_from_confusion``.
    """
    return report_from_confusion(confusion_matrix(preds, labels, len(tags)), tags)


def report_from_confusion(confusion, tags):
    """The ``accuracy_report`` of a (C, C) confusion matrix, with one
    subset tag per class: hits and totals per class are its diagonal and
    row sums, so every accuracy is a ratio of exact integers."""
    hits, totals = confusion.diagonal(), confusion.sum(axis=1)
    n = int(totals.sum())
    if n == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    tags = np.asarray(tags)

    def ratio(h, t):
        return float(h / t) if t else None

    def subset_acc(tag):
        members = tags == tag
        return ratio(hits[members].sum(), totals[members].sum())

    return EvalReport(
        overall=ratio(hits.sum(), n),
        many=subset_acc(MANY),
        medium=subset_acc(MEDIUM),
        few=subset_acc(FEW),
        per_class=tuple(ratio(h, t) for h, t in zip(hits.tolist(), totals.tolist())),
        n=n,
    )


def confusion_matrix(preds, labels, num_classes):
    """Counts[i, j] = samples of true class i predicted as class j, tallied
    with one ``bincount`` over the flat cell index labels * C + preds."""
    preds, labels = check_int_array(preds, "preds"), check_int_array(labels, "labels")
    num_classes = check_int(num_classes, "num_classes", 1)
    if preds.shape != labels.shape:
        raise ValueError("preds and labels must be 1-D vectors of equal length")
    for name, v in (("preds", preds), ("labels", labels)):
        if v.size and (v.min() < 0 or v.max() >= num_classes):
            raise ValueError(f"{name} contain entries outside [0, {num_classes})")
    return np.bincount(labels * num_classes + preds, minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )


def row_normalized(confusion):
    """Confusion counts as per-true-class fractions; empty rows stay zero."""
    confusion = np.asarray(confusion, dtype=np.float64)
    sums = confusion.sum(axis=1, keepdims=True)
    return np.divide(confusion, sums, out=np.zeros_like(confusion), where=sums > 0)


def report_to_json(report):
    """EvalReport as a JSON object; undefined accuracies are omitted."""
    payload = {k: v for k, v in asdict(report).items() if v is not None}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def confusion_to_csv(matrix):
    """CSV with a header row of predicted class indices."""
    rows = np.asarray(matrix).tolist()  # Python ints or floats, as the matrix holds
    lines = ["true\\pred," + ",".join(str(j) for j in range(len(rows)))]
    lines += [f"{i}," + ",".join(map(repr, row)) for i, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def sweep_to_csv(rows):
    lines = ["temperature,accuracy"]
    for T, acc in rows:
        lines.append(f"{repr(float(T))},{repr(float(acc))}")
    return "\n".join(lines) + "\n"
