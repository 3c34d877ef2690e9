"""Per-layer metrics of a traced run, computed from its spans.

A traced run sets up once and then runs the measured phase; the metrics
cover both.  Gate-shape counts come from the structures the workload
returns, never from inside the package.
"""
from __future__ import annotations

import numpy as np

from tracing import BINDINGS, LAYERS


# Zero on every train-shift run, which scores no pairs and runs no arms, so
# they are printed but kept out of the JSON line, where every per-layer
# metric must be measured on every workload.
TEXT_ONLY = ("matching.correlation_s", "matching.score_s", "matching.greedy_s",
             "harness.arm_scoring_s")


def unit_of(name: str) -> str:
    for suffix, unit in (("_us_per_call", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_pct", "%"), ("_per_row", "cells/row"),
                         ("_per_iteration", "solves/iter")):
        if name.endswith(suffix):
            return unit
    return "count"


def gate_shape(probs: np.ndarray, t_c: float) -> dict[str, float]:
    """Cells per row, connected components and the largest component of the
    bipartite gate ``probs > t_c`` (rows and columns without cells excluded)."""
    mask = probs > t_c
    n_a, n_b = mask.shape
    parent = list(range(n_a + n_b))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(mask)):
        parent[find(int(i))] = find(n_a + int(j))
    live = np.concatenate([mask.any(axis=1), mask.any(axis=0)])
    sizes: dict[int, list[int]] = {}
    for node in np.flatnonzero(live):
        rows_cols = sizes.setdefault(find(int(node)), [0, 0])
        rows_cols[0 if node < n_a else 1] += 1
    largest = max(sizes.values(), key=lambda rc: (rc[0] + rc[1], rc[0]), default=[0, 0])
    return {"gate_cells_per_row": float(mask.sum() / n_a),
            "gate_components": float(len(sizes)),
            "gate_largest_rows": float(largest[0]),
            "gate_largest_cols": float(largest[1])}


def coverage(tracer, missing: list[str], workload: str) -> list[str]:
    """Bindings that could not be installed, or that the measured phase of a
    workload that must call them never called."""
    called = {span.binding for span in tracer.spans if not span.request.startswith("setup")}
    problems = [f"{key} not installed" for key in missing]
    for b in BINDINGS:
        if workload in b.required and b.key not in missing and b.key not in called:
            problems.append(f"{b.key} recorded zero calls")
    return problems


def layer_metrics(tracer, init_probs, final_probs, t_c: float,
                  uncovered: int) -> dict[str, float]:
    """Every per-layer metric over the whole traced run (one set-up plus the
    measured phase)."""
    spans = tracer.spans
    self_s = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for k, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(k)

    def total(name):
        return sum(spans[k].duration for k in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def median_ms(name):
        durations = [spans[k].duration for k in by_name.get(name, ())]
        return 1e3 * float(np.median(durations)) if durations else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for span, t in zip(spans, self_s)
                                     if span.name.startswith(layer + "."))

    out["imaging.decode_ms"] = median_ms("imaging.decode")
    out["imaging.rescale_ms"] = median_ms("imaging.rescale")
    out["imaging.describe_ms"] = median_ms("imaging.describe")
    out["imaging.images"] = count("imaging.describe")

    out["metric.train_metric_s"] = total("metric.train_metric")
    out["metric.avg_similarity_s"] = total("metric.avg_similarity")
    out["metric.similarity_calls"] = count("metric.similarity")
    out["metric.similarity_pairs"] = sum(spans[k].size for k in by_name.get("metric.similarity", ()))

    out["structure.update_s"] = total("structure.blend")
    for tag, probs in (("init", init_probs), ("final", final_probs)):
        shape = gate_shape(probs, t_c) if probs is not None else {}
        for key in ("gate_cells_per_row", "gate_components", "gate_largest_rows",
                    "gate_largest_cols"):
            out[f"structure.{tag}.{key}"] = shape.get(key, 0.0)

    solves = by_name.get("assignment.solve", [])
    out["assignment.solve_calls"] = len(solves)
    out["assignment.cells"] = sum(spans[k].size for k in solves)
    out["assignment.solve_s"] = total("assignment.solve")
    out["assignment.solve_us_per_call"] = (1e6 * out["assignment.solve_s"] / len(solves)
                                           if solves else 0.0)

    # Image pairs scored by any path: one per score or greedy call, and a
    # probe x gallery block per closed-form binary call (its fallback path
    # scores through score_correlation, so those calls are not counted twice).
    scored = [k for name in ("matching.score", "matching.greedy") for k in by_name.get(name, ())
              if spans[k].parent < 0 or spans[spans[k].parent].name != "matching.binary_score"]
    out["matching.correlation_s"] = total("matching.correlation")
    out["matching.score_s"] = sum(self_s[k] for k in by_name.get("matching.score", ()))
    out["matching.greedy_s"] = total("matching.greedy")
    out["matching.pairs_scored"] = len(scored) + sum(
        spans[k].size for k in by_name.get("matching.binary_score", ()))
    out["matching.binary_score_s"] = total("matching.binary_score")
    out["matching.adjacency_s"] = total("matching.adjacency")

    iterations = count("structure.blend")
    learning_solves = sum(1 for k in solves
                          if spans[k].binding == "corrmatch.learning.solve_sparse")
    out["learning.learn_s"] = total("learning.learn")
    out["learning.find_binary_s"] = total("learning.find_binary")
    out["learning.iterations"] = iterations
    out["learning.solves_per_iteration"] = learning_solves / iterations if iterations else 0.0

    training = set(by_name.get("harness.train_split", ()))
    out["harness.synth_s"] = total("harness.synth")
    out["harness.bank_s"] = total("harness.bank")
    out["harness.train_split_s"] = total("harness.train_split")
    out["harness.arm_scoring_s"] = total("harness.run_ablations") - sum(
        spans[k].duration for k in training
        if spans[k].parent >= 0 and spans[spans[k].parent].name == "harness.run_ablations")

    roots = [k for k, span in enumerate(spans) if span.parent < 0]
    traced_s = sum(spans[k].duration for k in roots)
    overhead_s = sum(span.overhead for span in spans if span.parent >= 0)
    out["trace.spans"] = len(spans)
    out["trace.overhead_pct"] = (100.0 * overhead_s / (traced_s - overhead_s)
                                 if traced_s > overhead_s else 0.0)
    out["trace.unmeasured_bindings"] = uncovered
    out["bench.self_s"] = sum(self_s[k] for k in roots)
    return {name: float(value) for name, value in out.items()}
