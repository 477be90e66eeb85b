"""Prediction, overall/per-subset accuracy, confusion matrices, and the
text forms of reports, confusion matrices and temperature sweeps.

``predict`` scores a split through ``mlp.forward``, optionally into
caller-owned per-layer buffers (the training loop keeps one set for a run
and scores every epoch through it). ``accuracy_report`` counts per-class
hits and totals with one ``bincount`` each.

A leaf module: the sweep itself trains students, so it lives next to the
training loop in ``pipeline``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import FEW, MANY, MEDIUM
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
    """
    if data.dimension != params.weights[0].shape[1]:
        raise ValueError(
            f"data dimension {data.dimension} does not match model input {params.weights[0].shape[1]}"
        )
    logits, _ = forward(params, data.features, out=out)
    return np.argmax(logits, axis=1).astype(np.int64)


def accuracy_report(preds, labels, tags):
    """Overall, per-subset, and per-class accuracy from predictions.

    Hits and totals are counted per class; every accuracy is then a ratio
    of exact integers.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("preds and labels must be 1-D vectors of equal length")
    if preds.size == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    num_classes = len(tags.tags)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels contain entries outside [0, {num_classes})")
    totals = np.bincount(labels, minlength=num_classes)
    hits = np.bincount(labels[preds == labels], minlength=num_classes)

    def ratio(h, t):
        return float(h / t) if t else None

    def subset_acc(tag):
        members = tags.classes_tagged(tag)
        return ratio(hits[members].sum(), totals[members].sum())

    return EvalReport(
        overall=ratio(hits.sum(), preds.size),
        many=subset_acc(MANY),
        medium=subset_acc(MEDIUM),
        few=subset_acc(FEW),
        per_class=tuple(ratio(h, t) for h, t in zip(hits.tolist(), totals.tolist())),
        n=int(preds.size),
    )


def confusion_matrix(preds, labels, num_classes):
    """Counts[i, j] = samples of true class i predicted as class j."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("preds and labels must be 1-D vectors of equal length")
    for name, v in (("preds", preds), ("labels", labels)):
        if v.size and (v.min() < 0 or v.max() >= num_classes):
            raise ValueError(f"{name} contain entries outside [0, {num_classes})")
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(m, (labels, preds), 1)
    return m


def row_normalized(confusion):
    """Confusion counts as per-true-class fractions; empty rows stay zero."""
    confusion = np.asarray(confusion, dtype=np.float64)
    sums = confusion.sum(axis=1, keepdims=True)
    return np.divide(confusion, sums, out=np.zeros_like(confusion), where=sums > 0)


def report_to_json(report):
    """EvalReport as a JSON object; undefined accuracies are omitted."""
    payload = {"overall": report.overall, "n": report.n}
    for key in ("many", "medium", "few"):
        value = getattr(report, key)
        if value is not None:
            payload[key] = value
    payload["per_class"] = [v for v in report.per_class]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def confusion_to_csv(matrix):
    """CSV with a header row of predicted class indices."""
    matrix = np.asarray(matrix)
    C = matrix.shape[0]
    lines = ["true\\pred," + ",".join(str(j) for j in range(C))]
    for i in range(C):
        if np.issubdtype(matrix.dtype, np.integer):
            cells = ",".join(str(int(v)) for v in matrix[i])
        else:
            cells = ",".join(repr(float(v)) for v in matrix[i])
        lines.append(f"{i},{cells}")
    return "\n".join(lines) + "\n"


def sweep_to_csv(rows):
    lines = ["temperature,accuracy"]
    for T, acc in rows:
        lines.append(f"{repr(float(T))},{repr(float(acc))}")
    return "\n".join(lines) + "\n"
