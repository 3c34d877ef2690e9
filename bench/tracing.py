"""Span tracing installed from outside the package.

The package imports names with ``from .x import f``, so each consumer module
holds its own binding of a function.  A ``Binding`` names one such binding
(module, attribute path) and the span it records; ``Tracer.install`` swaps
every binding for a wrapper and returns the bindings it could not find.
Spans stay in memory until ``Tracer.dump`` writes them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

TRAIN, ABLATION = "train-shift", "ablation-eval"
BOTH = (TRAIN, ABLATION)


def _first_len(args, kwargs):
    return len(args[1])


def _block_pairs(args, kwargs):
    return len(args[0]) * len(args[1])


def _assignable_cells(args, kwargs):
    return sum(len(cols) for cols in args[0])


@dataclass(frozen=True)
class Binding:
    module: str
    attr: str                    # attribute path, e.g. "DescriptorBank.descriptors_for"
    span: str                    # "<layer>.<what>"
    required: tuple[str, ...]    # workloads whose measured phase must call it
    size: object = None          # (args, kwargs) -> work items of one call

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


# Every binding the measured workloads reach, grouped by the layer that owns
# the wrapped function.  The set-up-only binding (synthesis) carries no
# requirement because requirements apply to the measured phase.
BINDINGS = (
    # imaging
    Binding("corrmatch.imaging", "decode_ppm", "imaging.decode", BOTH),
    Binding("corrmatch.harness", "scale_to_canonical", "imaging.rescale", BOTH),
    Binding("corrmatch.harness", "extract_descriptors", "imaging.describe", BOTH),
    # metric
    Binding("corrmatch.harness", "build_training_pairs", "metric.training_pairs", BOTH),
    Binding("corrmatch.harness", "train_metric", "metric.train_metric", BOTH),
    Binding("corrmatch.learning", "build_avg_similarity", "metric.avg_similarity", BOTH),
    Binding("corrmatch.matching", "batched_similarity", "metric.similarity", BOTH, _first_len),
    # structure
    Binding("corrmatch.learning", "init_structure", "structure.init", BOTH),
    Binding("corrmatch.learning", "blend_update", "structure.blend", BOTH),
    # assignment
    Binding("corrmatch.learning", "solve_sparse", "assignment.solve", BOTH, _assignable_cells),
    Binding("corrmatch.assignment", "solve_sparse", "assignment.solve", (ABLATION,),
            _assignable_cells),
    Binding("corrmatch.matching", "solve_assignment", "assignment.solve_assignment",
            (ABLATION,)),
    # matching
    Binding("corrmatch.harness", "correlation_matrix", "matching.correlation", (ABLATION,)),
    Binding("corrmatch.harness", "score_correlation", "matching.score", (ABLATION,)),
    Binding("corrmatch.harness", "greedy_score", "matching.greedy", (ABLATION,)),
    Binding("corrmatch.harness", "binary_structure_score_matrix", "matching.binary_score",
            (ABLATION,), _block_pairs),
    Binding("corrmatch.learning", "binary_structure_score_matrix", "matching.binary_score",
            BOTH, _block_pairs),
    Binding("corrmatch.matching", "binary_structure_score_matrix", "matching.binary_score",
            BOTH, _block_pairs),
    Binding("corrmatch.learning", "adjacency_candidates", "matching.adjacency", BOTH),
    # learning
    Binding("corrmatch.harness", "learn_structure", "learning.learn", BOTH),
    Binding("corrmatch.learning", "find_binary_structures", "learning.find_binary", BOTH),
    # harness
    Binding("corrmatch.harness", "generate_synthetic", "harness.synth", ()),
    Binding("corrmatch.harness", "DescriptorBank.descriptors_for", "harness.bank", BOTH),
    Binding("corrmatch.harness", "train_on_split", "harness.train_split", BOTH),
    Binding("corrmatch.harness", "run_ablations", "harness.run_ablations", (ABLATION,)),
)

LAYERS = ("imaging", "metric", "structure", "assignment", "matching", "learning", "harness")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    request: str
    binding: str
    size: int
    overhead: float = 0.0   # tracer time around the call, outside [start, end]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; single-threaded, like the workloads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = "setup"
        self.last: dict[str, object] = {}   # span name -> latest return value
        self._restore: list[tuple[object, str, object]] = []

    def _record(self, entered, name, binding, size, fn, args, kwargs):
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.request, binding, size)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            self.last[name] = result
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            span.overhead = span.start - entered + time.perf_counter() - span.end

    def wrap(self, name: str, fn, binding: str = "", size=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            n = size(args, kwargs) if size is not None else 1
            return self._record(entered, name, binding, n, fn, args, kwargs)
        return wrapper

    def request_span(self, request: str, name: str, fn):
        """Run fn() as the root span of a new request."""
        self.request = request
        return self._record(time.perf_counter(), name, "", 1, fn, (), {})

    def install(self) -> list[str]:
        """Wrap every binding; returns the keys of those that do not exist."""
        missing = []
        for b in BINDINGS:
            try:
                owner = importlib.import_module(b.module)
                *path, leaf = b.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                original = None
            if not callable(original):
                missing.append(b.key)
                continue
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(b.span, original, b.key, b.size))
        return missing

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover, their
        tracer overhead included, so no layer carries the tracer's cost."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration + span.overhead
        return [span.duration - c for span, c in zip(self.spans, child)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.request]
                                 for s in self.spans]}, fh)

