"""In-memory span tracing of cosd's layers for the benchmark's traced run.

Each layer's public function is wrapped at the name its caller looks it up
by: a function imported by name (``from .numerics import backward``) is
wrapped in the importing module, one reached through its module
(``cpa.propagate``) in its home module. Wrappers record one span per call
(name, start, end, parent) plus counts computed from the call's arguments
or result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1                 # index into Tracer.spans; -1 for a root
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _fit_counts(args, result) -> dict[str, int]:
    # each model sweeps its own in-vocabulary tokens trained_sweeps times
    updates = sum(int(m.topic_totals.sum()) * m.trained_sweeps
                  for m in result.models)
    return {"gibbs_token_updates": updates}


def _laplacian_counts(args, result) -> dict[str, int]:
    return {"nnz": result.nnz}


def _spmm_counts(args, result) -> dict[str, int]:
    matrix, dense = args[0], args[1]
    work = matrix.nnz * dense.shape[1]
    # a multiply-add per stored entry and column; float64 reads of one dense
    # row and updates of one output row per stored entry
    return {"flops": 2 * work, "bytes": 16 * work}


# (module, attribute the caller looks up, span name, counter)
WRAP_POINTS = (
    ("cosd.cli", "load_semeval", "corpus.load", None),
    ("cosd.corpus", "_tweet_rows", "corpus.load", None),
    ("cosd.training", "load_embeddings", "training.load_embeddings", None),
    ("cosd.topics", "fit_triple", "topics.fit", _fit_counts),
    ("cosd.topics", "dis_vector", "topics.fold_in", None),
    ("cosd.inference", "dis_vector", "topics.fold_in", None),
    ("cosd.topics", "load_lda", "topics.load_lda", None),
    ("cosd.cpa", "load_checkpoint", "cpa.load_checkpoint", None),
    ("cosd.graph", "build_adjacency", "graph.build", None),
    ("cosd.graph", "laplacian", "graph.build", _laplacian_counts),
    ("cosd.graph", "dropout_graph", "graph.dropout", None),
    ("cosd.cpa", "propagate", "cpa.propagate", None),
    ("cosd.cpa", "spmm", "numerics.spmm", _spmm_counts),
    ("cosd.training", "backward", "numerics.backward", None),
    ("cosd.training", "adam_step", "numerics.adam_step", None),
    ("cosd.training", "_val_metrics", "training.val_metrics", None),
    ("cosd.training", "semantic_matrix", "training.semantic_matrix", None),
    ("cosd.inference", "infer_transform", "cpa.infer_transform", None),
    ("cosd.inference", "predict", "inference.predict", None),
)


class Tracer:
    """Records nested spans; install() wraps the layers, uninstall() undoes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    parent=self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, func, name: str, counter):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every WRAP_POINTS entry; an absent one is listed in missing."""
        for module_name, attr, name, counter in WRAP_POINTS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, func = self._originals.pop()
            setattr(module, attr, func)

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.name, round(s.start - t0, 9), round(s.end - t0, 9),
                 s.parent, s.counts] for s in self.spans]
        path.write_text(json.dumps({"columns": ["name", "start_s", "end_s",
                                                "parent", "counts"],
                                    "spans": rows}) + "\n", encoding="utf-8")


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _command_times(spans: list[Span]) -> list[tuple[str, float, float]]:
    """(name, seconds, seconds covered by child spans) per cli.* span."""
    commands = {i: 0.0 for i, s in enumerate(spans)
                if s.name.startswith("cli.")}
    for span in spans:
        if span.parent in commands:
            commands[span.parent] += span.seconds
    return [(spans[i].name, spans[i].seconds, covered)
            for i, covered in commands.items()]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (see README.md)."""
    spans = tracer.spans
    # a layer calling itself (corpus.load) counts once
    top = [s for s in spans if not _has_ancestor(spans, s, s.name)]
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for span in top:
        seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value

    def rate(count: float, name: str) -> float:
        return count / seconds[name] if seconds.get(name) else 0.0

    commands = _command_times(spans)
    command_seconds = sum(total for _, total, _ in commands)
    cli_self = sum(total - covered for _, total, covered in commands)

    predict_ms = [s.seconds * 1e3 for s in top
                  if s.name == "inference.predict"]
    transforms_in_predict = sum(
        1 for s in top if s.name == "cpa.infer_transform"
        and _has_ancestor(spans, s, "cli.predict"))

    m = {f"{name}_s": seconds.get(name, 0.0) for name in (
        "corpus.load", "training.load_embeddings", "topics.fit",
        "topics.fold_in", "topics.load_lda", "cpa.load_checkpoint",
        "graph.build", "graph.dropout", "cpa.propagate", "numerics.spmm",
        "numerics.backward", "numerics.adam_step", "training.val_metrics",
        "training.semantic_matrix", "cpa.infer_transform")}
    m["topics.gibbs_token_updates"] = counts.get("gibbs_token_updates", 0)
    m["topics.gibbs_tokens_per_s"] = rate(m["topics.gibbs_token_updates"],
                                          "topics.fit")
    m["topics.fold_in_docs"] = calls.get("topics.fold_in", 0)
    m["topics.fold_in_docs_per_s"] = rate(m["topics.fold_in_docs"],
                                          "topics.fold_in")
    m["graph.nnz"] = counts.get("nnz", 0)
    m["cpa.propagate_calls"] = calls.get("cpa.propagate", 0)
    m["numerics.spmm_flops"] = counts.get("flops", 0)
    m["numerics.spmm_bytes"] = counts.get("bytes", 0)
    m["numerics.backward_calls"] = calls.get("numerics.backward", 0)
    m["cpa.infer_transform_calls_per_text"] = (
        transforms_in_predict / len(predict_ms) if predict_ms else 0.0)
    m["inference.predict_samples"] = len(predict_ms)
    m["inference.predict_ms_p50"] = (statistics.median(predict_ms)
                                     if predict_ms else 0.0)
    m["inference.predict_ms_p99"] = (
        statistics.quantiles(predict_ms, n=100)[98]
        if len(predict_ms) > 1 else m["inference.predict_ms_p50"])
    m["cli.self_s"] = cli_self
    m["trace.coverage_pct"] = (100.0 * (1.0 - cli_self / command_seconds)
                               if command_seconds else 0.0)
    return m


def coverage_by_command(tracer: Tracer) -> dict[str, float]:
    """Percent of each command kind's wall time covered by layer spans."""
    total: dict[str, float] = {}
    covered: dict[str, float] = {}
    for name, seconds, child_seconds in _command_times(tracer.spans):
        total[name] = total.get(name, 0.0) + seconds
        covered[name] = covered.get(name, 0.0) + child_seconds
    return {name: round(100.0 * covered[name] / total[name], 2)
            for name in total if total[name]}
