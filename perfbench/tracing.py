"""Spans around the calls into each ssnmf layer, installed from outside.

``install`` replaces public functions with timing wrappers in every module
that looks the name up, and restores them afterwards. Names imported with
``from .x import f`` are looked up in the importing module, so the wrapper is
installed there too; names used as ``module.f`` need one wrapper. Each span
keeps its name, start, end, parent and the id of its root (one CLI command).
Spans stay in memory; ``layer_metrics`` turns one round's spans into the
per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

from ssnmf.objectives import VARIANTS

# span name -> modules whose attribute of the same function name is replaced
TARGETS = {
    "solver.mu_step": ("ssnmf.solver", "ssnmf.synth"),
    "solver.fit": ("ssnmf.classify", "ssnmf.cli"),
    "objectives.objective": ("ssnmf.solver", "ssnmf.synth"),
    "classify.transform": ("ssnmf.classify",),
    "classify.predict": ("ssnmf.classify",),
    "matrix.read_csv": ("ssnmf.matrix",),
    "matrix.write_csv": ("ssnmf.matrix",),
    "textprep.load_corpus_jsonl": ("ssnmf.textprep",),
    "textprep.split": ("ssnmf.textprep",),
    "textprep.build_vocabulary": ("ssnmf.textprep",),
    "textprep.tfidf": ("ssnmf.textprep",),
    "synth.run_benchmark": ("ssnmf.synth",),
}
CLI_KINDS = ("fit", "classify", "synth_bench", "prep")


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    root: int
    start: float = 0.0
    end: float = 0.0
    note: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.spans[parent].root if parent >= 0 else index)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                annotate(span.note, args, kwargs, out)
            return out
        return wrapper

    def write(self, fh, round_index):
        """Write every span as one JSON line tagged with its round."""
        for i, s in enumerate(self.spans):
            fh.write(json.dumps({"round": round_index, "id": i, "name": s.name,
                                 "parent": s.parent, "root": s.root, "start": s.start,
                                 "end": s.end, "note": s.note}) + "\n")


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _term_flops(loss, m, n, r, masked):
    # matrix products of one fit term: f@s, the two products of the
    # dictionary update and the two of the S update (the unmasked divergence
    # denominators are row/column sums, not products)
    products = 6 if (loss == "fro" or masked) else 4
    return 2 * products * m * n * r


def _note_mu_step(note, args, kwargs, out):
    variant, state = args[0], args[1]
    x, y = args[2], args[3]
    w, l = _arg(args, kwargs, 4, "w"), _arg(args, kwargs, 5, "l")
    r, n2 = state.s.shape
    note["variant"] = variant.key
    note["flops"] = (
        _term_flops(variant.reconstruction.value, x.shape[0], n2, r, w is not None)
        + _term_flops(variant.supervision.value, y.shape[0], n2, r, l is not None))


def _note_objective(note, args, kwargs, out):
    note["variant"] = args[0].variant.key


def _note_transform(note, args, kwargs, out):
    note["iters"] = _arg(args, kwargs, 3, "iters", 200)


def _note_file(note, args, kwargs, out):
    note["bytes"] = os.path.getsize(args[0])


def _note_tfidf(note, args, kwargs, out):
    note["nonzero"] = int(out.size - (out == 0).sum())
    note["size"] = int(out.size)


ANNOTATE = {
    "solver.mu_step": _note_mu_step,
    "objectives.objective": _note_objective,
    "classify.transform": _note_transform,
    "matrix.read_csv": _note_file,
    "matrix.write_csv": _note_file,
    "textprep.tfidf": _note_tfidf,
}


@contextlib.contextmanager
def install(tracer):
    """Replace every traced function with a wrapper for the block's duration."""
    saved = []
    try:
        for name, modules in TARGETS.items():
            attr = name.split(".")[1]
            original = getattr(importlib.import_module(modules[0]), attr)
            wrapper = tracer.wrap(name, original, ANNOTATE.get(name))
            for module_name in modules:
                module = importlib.import_module(module_name)
                # a module that stopped importing the name by itself is skipped
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans, wall_s):
    """Per-layer figures of one traced round. Every key is always present;
    a layer the round never entered reads 0."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    self_s = {}
    calls = {}
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + s.seconds - child[i]
        calls[s.name] = calls.get(s.name, 0) + 1

    def under_fit(i):
        while i >= 0:
            if spans[i].name == "solver.fit":
                return True
            i = spans[i].parent
        return False

    def per_variant(name):
        total = {v.key: [0.0, 0] for v in VARIANTS}
        for i, s in enumerate(spans):
            if s.name == name:
                total[s.note["variant"]][0] += s.seconds - child[i]
                total[s.note["variant"]][1] += 1
        return {v: (t * 1e6 / c if c else 0.0) for v, (t, c) in total.items()}

    def notes(name, key):
        return sum(s.note[key] for s in spans if s.name == name)

    def self_of(name):
        return self_s.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("solver.mu_step", "objectives.objective"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_of(name)
        m[f"{name}.us_per_call"] = ratio(self_of(name) * 1e6, calls.get(name, 0))
        for v, us in per_variant(name).items():
            m[f"{name}.us_per_call.{v}"] = us
    m["solver.mu_step.computed_gflop_per_s"] = ratio(
        notes("solver.mu_step", "flops") / 1e9, self_of("solver.mu_step"))
    fit_s = sum(s.seconds for s in spans if s.name == "solver.fit")
    objective_in_fit = sum(s.seconds for i, s in enumerate(spans)
                           if s.name == "objectives.objective" and under_fit(i))
    m["objectives.objective.share_of_fit"] = ratio(objective_in_fit, fit_s)
    m["solver.fit.calls"] = calls.get("solver.fit", 0)
    m["solver.fit.self_s"] = self_of("solver.fit")
    m["classify.transform.calls"] = calls.get("classify.transform", 0)
    m["classify.transform.self_s"] = self_of("classify.transform")
    m["classify.transform.us_per_iter"] = ratio(
        self_of("classify.transform") * 1e6, notes("classify.transform", "iters"))
    m["classify.predict.self_s"] = self_of("classify.predict")
    for name in ("matrix.read_csv", "matrix.write_csv"):
        size = notes(name, "bytes")
        m[f"{name}.self_s"] = self_of(name)
        m[f"{name}.bytes"] = size
        m[f"{name}.mb_per_s"] = ratio(size / 1e6, self_of(name))
    for name in ("load_corpus_jsonl", "split", "build_vocabulary", "tfidf"):
        m[f"textprep.{name}.self_s"] = self_of(f"textprep.{name}")
    m["textprep.tfidf.density"] = ratio(notes("textprep.tfidf", "nonzero"),
                                        notes("textprep.tfidf", "size"))
    m["synth.run_benchmark.self_s"] = self_of("synth.run_benchmark")
    for kind in CLI_KINDS:
        m[f"cli.{kind}.self_s"] = self_of(f"cli.{kind}")
    m["cli.self_s"] = sum(self_of(f"cli.{kind}") for kind in CLI_KINDS)
    m["trace.self_sum_s"] = sum(self_s.values())
    m["trace.wall_s"] = wall_s
    # every layer's self time as a share of the traced round
    for name in list(m):
        if name.endswith(".self_s") and name.count(".") == 2:
            m[name[: -len("self_s")] + "self_share"] = ratio(m[name], wall_s)
    return m
