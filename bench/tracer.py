"""Span tracer for the longtail_kd package, installed from outside it.

``Tracer.install`` replaces each public function of each package module, and
each public ``Rng`` method, with a wrapper that records a span (name, start,
end, parent, run id) while the tracer is active. The wrapper is bound in
every package namespace that holds the original object, so a from-import
such as ``pipeline``'s ``from .mlp import forward`` is traced too.
``uninstall`` puts the originals back. No file of the package changes.

At some boundaries the tracer also counts work: rows, computed flop and
bytes, file sizes, and the distinct inputs behind two redundancy ratios.
The time spent counting is recorded on the parent span and left out of its
self time, so counting shows up as tracing overhead, not as a layer's time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "longtail_kd"

# The layers: every module of the package that holds code.
MODULES = (
    "mathutils", "weights", "losses", "data", "mlp",
    "pipeline", "evaluate", "gradcheck", "config", "cli",
)

# Per-function metrics reported besides the per-module calls/self_s/errors.
FUNCTION_METRICS = {
    "mlp.forward": ("calls", "self_s", "rows", "gflop", "gflop_per_s", "teacher_rows", "teacher_useful_ratio"),
    "mlp.backward": ("calls", "self_s", "gflop", "gflop_per_s"),
    "mlp.sgd_momentum_step": ("calls", "self_s", "mb"),
    "mathutils.Rng.permutation": ("calls", "self_s"),
    "evaluate.predict": ("calls", "self_s", "rows", "useful_ratio"),
    "data.load_dataset": ("calls", "self_s", "mb", "mb_per_s"),
    "data.save_dataset": ("calls", "self_s", "mb", "mb_per_s"),
    "pipeline.write_checkpoint": ("calls", "self_s", "mb"),
    "pipeline.read_checkpoint": ("calls", "self_s", "mb"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "error", "hidden")

    def __init__(self, name, start, end, parent=-1, run=0, error=False, hidden=0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the parent span in the span list, -1 at top level
        self.run = run
        self.error = error
        self.hidden = hidden  # tracer time spent inside this span outside any child span


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans
    cover (overlapping children count once) and minus its hidden time."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children.get(i, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, s.end - s.start - covered - s.hidden))
    return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_mb(path):
    return os.path.getsize(path) / 1e6 if os.path.exists(path) else 0.0


def _matmul_gflop(params, rows):
    return 2.0 * rows * sum(w.shape[0] * w.shape[1] for w in params.weights) / 1e9


def _rows_of(x):
    shape = getattr(x, "shape", None)
    return 1 if not shape or len(shape) == 1 else int(shape[0])


# Counting hooks. ``before`` runs ahead of the call, ``after`` once it has
# returned or raised. Flop and byte figures are computed from array shapes.


def _forward_before(tr, args, kwargs):
    params, x = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "x")
    rows = _rows_of(x)
    tr.add("mlp.forward", "rows", rows)
    tr.add("mlp.forward", "gflop", _matmul_gflop(params, rows))
    ctx = tr.student_runs[-1] if tr.student_runs else None
    if ctx is not None and params is ctx["teacher"]:
        tr.add("mlp.forward", "teacher_rows", rows)
        X = x.reshape(1, -1) if x.ndim == 1 else x
        X = X.astype("<f8", copy=False)
        ctx["seen"].update(bytes(row) for row in X)


def _backward_before(tr, args, kwargs):
    params, cache = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "cache")
    rows = cache["inputs"][0].shape[0]
    # weight gradients in every layer, input gradients in all but the first
    flop = sum(2.0 * rows * w.shape[0] * w.shape[1] for w in params.weights)
    flop += sum(2.0 * rows * w.shape[0] * w.shape[1] for w in params.weights[1:])
    tr.add("mlp.backward", "gflop", flop / 1e9)


def _sgd_before(tr, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    nbytes = sum(a.nbytes for a in params.weights) + sum(a.nbytes for a in params.biases)
    # read parameters, gradients and velocities; write parameters and velocities
    tr.add("mlp.sgd_momentum_step", "mb", 5 * nbytes / 1e6)


def _loss_before(tr, args, kwargs):
    if tr.parent_name().startswith("losses."):
        return  # count rows where they enter the loss layer, not again inside it
    tr.add("losses", "rows", _rows_of(args[0] if args else next(iter(kwargs.values()))))


def _predict_before(tr, args, kwargs):
    params, data = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "data")
    tr.add("evaluate.predict", "rows", len(data))
    h = hashlib.sha256()
    for a in (*params.weights, *params.biases, data.features, data.labels):
        h.update(a.tobytes())
    tr.predict_pairs.add(h.digest())


def _load_before(tr, args, kwargs):
    tr.add("data.load_dataset", "mb", _file_mb(_arg(args, kwargs, 0, "path")))


def _save_after(tr, args, kwargs):
    tr.add("data.save_dataset", "mb", _file_mb(_arg(args, kwargs, 1, "path")))


def _write_ckpt_after(tr, args, kwargs):
    tr.add("pipeline.write_checkpoint", "mb", _file_mb(_arg(args, kwargs, 0, "path")))


def _read_ckpt_before(tr, args, kwargs):
    tr.add("pipeline.read_checkpoint", "mb", _file_mb(_arg(args, kwargs, 0, "path")))


def _student_before(tr, args, kwargs):
    tr.student_runs.append({"teacher": _arg(args, kwargs, 2, "teacher"), "seen": set()})


def _student_after(tr, args, kwargs):
    tr.add("mlp.forward", "teacher_distinct", len(tr.student_runs.pop()["seen"]))


HOOKS = {
    "mlp.forward": (_forward_before, None),
    "mlp.backward": (_backward_before, None),
    "mlp.sgd_momentum_step": (_sgd_before, None),
    "evaluate.predict": (_predict_before, None),
    "data.load_dataset": (_load_before, None),
    "data.save_dataset": (None, _save_after),
    "pipeline.write_checkpoint": (None, _write_ckpt_after),
    "pipeline.read_checkpoint": (_read_ckpt_before, None),
    "pipeline.train_student": (_student_before, _student_after),
}


def _hooks_for(name):
    module, _, fn = name.partition(".")
    if module == "losses" and (fn.endswith("_loss") or fn.endswith("_loss_batch")):
        return _loss_before, None
    return HOOKS.get(name, (None, None))


class Tracer:
    """Records spans and counts for one traced run.

    Spans are kept in memory; ``write_spans`` writes them out at the end.
    ``run_id`` is set by the caller to the index of the operation (one
    training run or one CLI command) whose calls follow.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.predict_pairs = set()
        self.student_runs = []
        self.run_id = 0
        self.active = False
        self._stack = []
        self._patches = []

    def add(self, scope, metric, value):
        self.counts[(scope, metric)] += value

    def parent_name(self):
        return self.spans[self._stack[-1]].name if self._stack else ""

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the package's public functions and Rng methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for bound_name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patches.append((ns, bound_name, obj))
                            setattr(ns, bound_name, wrapped)
        rng_cls = modules["mathutils"].Rng
        for attr, member in list(vars(rng_cls).items()):
            if attr.startswith("_"):
                continue
            name = f"mathutils.Rng.{attr}"
            if inspect.isfunction(member):
                replacement = self._wrap(name, member)
            elif isinstance(member, classmethod):
                replacement = classmethod(self._wrap(name, member.__func__))
            else:
                continue  # properties stay as they are
            self._patches.append((rng_cls, attr, member))
            setattr(rng_cls, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        before, after = _hooks_for(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            parent = stack[-1] if stack else -1
            hidden = 0.0
            if before is not None:
                t = perf_counter()
                before(tracer, args, kwargs)
                hidden += perf_counter() - t
            span = Span(name, perf_counter(), 0.0, parent, tracer.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if after is not None:
                    after(tracer, args, kwargs)
                    hidden += perf_counter() - span.end
                if parent >= 0:
                    spans[parent].hidden += hidden

        return traced

    # -- results ----------------------------------------------------------

    def per_layer(self, overhead_ratio):
        """Every per-layer metric as a name -> value dict."""
        selfs = self_times(self.spans)
        fn_stats = defaultdict(lambda: [0, 0.0])
        mod_stats = {m: [0, 0.0, 0] for m in MODULES}
        for span, own in zip(self.spans, selfs):
            stats = fn_stats[span.name]
            stats[0] += 1
            stats[1] += own
            mod = mod_stats[span.name.partition(".")[0]]
            mod[0] += 1
            mod[1] += own
            mod[2] += span.error
        out = {}
        for m, (calls, own, errors) in mod_stats.items():
            out[f"{m}.calls"] = calls
            out[f"{m}.self_s"] = own
            out[f"{m}.errors"] = errors
        out["losses.rows"] = int(self.counts[("losses", "rows")])
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        for fn, metrics in FUNCTION_METRICS.items():
            calls, own = fn_stats[fn]
            values = {
                "calls": calls,
                "self_s": own,
                "rows": int(c[(fn, "rows")]),
                "gflop": c[(fn, "gflop")],
                "gflop_per_s": ratio(c[(fn, "gflop")], own),
                "mb": c[(fn, "mb")],
                "mb_per_s": ratio(c[(fn, "mb")], own),
                "teacher_rows": int(c[(fn, "teacher_rows")]),
                "teacher_useful_ratio": ratio(c[(fn, "teacher_distinct")], c[(fn, "teacher_rows")]),
                "useful_ratio": ratio(len(self.predict_pairs), calls),
            }
            for m in metrics:
                out[f"{fn}.{m}"] = values[m]
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path):
        """Spans as CSV: index, name, start and end (seconds), parent index,
        run id, error flag."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,run,error\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.run},{int(s.error)}\n")
