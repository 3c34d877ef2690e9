"""The benchmark workloads: set-up, measured closed loop, checks.

Each workload builds its inputs from the workload seed alone.  A training
op (~35 s) or an evaluation op (~40 s) outlasts any ``--seconds`` the
benchmark uses, so each workload runs exactly one measured op.  At
``PINNED_SEED`` the train-shift and ablation-eval inputs are exactly the
acceptance suite's recipes (``tests/test_acceptance.py``).  Every operation
runs through ``Run.op``, which times it, counts it as attempted, and counts
it as failed when it raises or when its output fails a check.
"""
from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from corrmatch import geometry, harness, structure
from corrmatch.config import RunConfig

PINNED_SEED = 7

# Pinned shift-recovery recipe: 60 identities, shift 2, noise 0.05, data seed
# = workload seed, split seed 3; the 70% floor is the acceptance bound.
SHIFT_IDS, SHIFT_ROWS, SHIFT_NOISE, SPLIT_SEED = 60, 2, 0.05, 3
SHIFT_RECOVERY_FLOOR_PCT = 70.0

# Ablation recipe: two shift populations, data seeds seed + ord(tag).
ABLATION_SHIFTS = (4, 7)
ABLATION_IDS_PER_SHIFT = 30
ABLATION_WEAK_FRACTION = 0.35
ABLATION_PALETTE = 4
ABLATION_MAX_ITERATIONS = 60
ABLATION_SPLITS = 1


@dataclass
class Run:
    """Per-process record of operations, checks, named metrics and outputs."""

    tracer: object = None
    ops: list = field(default_factory=list)          # (kind, seconds, ok)
    checks: dict = field(default_factory=dict)       # name -> [passed, failed]
    info: dict = field(default_factory=dict)         # name -> (value, unit)
    digest: object = field(default_factory=hashlib.sha256)

    def op(self, kind: str, fn, *checks):
        """Time fn(); each check maps its result to (name, ok).  None if fn raised."""
        request = f"{kind}-{len(self.latencies(kind))}"
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn()
            else:
                result = self.tracer.request_span(request, f"bench.{kind}", fn)
        except Exception:  # an operation that raises counts as failed, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.ops.append((kind, time.perf_counter() - start, False))
            self.check(f"{kind} completes", False)
            return None
        elapsed = time.perf_counter() - start
        ok = True
        for check in checks:
            name, passed = check(result)
            ok &= self.check(name, passed)
        self.ops.append((kind, elapsed, ok))
        return result

    def check(self, name: str, passed: bool) -> bool:
        tally = self.checks.setdefault(name, [0, 0])
        tally[0 if passed else 1] += 1
        return passed

    def latencies(self, kind: str) -> list[float]:
        return [seconds for k, seconds, _ in self.ops if k == kind]

    def hash_array(self, array) -> None:
        self.digest.update(np.ascontiguousarray(array).tobytes())


def _row_stochastic(s) -> tuple[str, bool]:
    probs = s.probs
    ok = bool(np.all(probs >= 0.0)
              and np.abs(probs.sum(axis=1) - 1.0).max() <= structure.ROW_SUM_TOL)
    return "structure non-negative and row-stochastic", ok


def _hash_model(run: Run, s, model) -> None:
    run.hash_array(s.probs)
    for array in (model.matrices, model.sigmas, model.global_matrix,
                  np.array([model.global_sigma]), model.fallback):
        run.hash_array(array)


def shift_recovery_pct(probs, config: RunConfig, shift_rows: int) -> float:
    """Share of interior probe patches whose argmax lands within one cell of
    the shifted co-located patch (the acceptance suite's measure)."""
    probe_grid, gallery_grid = config.probe_grid(), config.gallery_grid()
    hits = total = 0
    for i in range(probe_grid.n_patches):
        co = geometry.colocated_patch(probe_grid, gallery_grid,
                                      geometry.patch_at(probe_grid, i))
        target_row, target_col = co.row + shift_rows, co.col
        if not 0 <= target_row < gallery_grid.n_rows:
            continue
        total += 1
        got = geometry.patch_at(gallery_grid, int(np.argmax(probs[i])))
        hits += abs(got.row - target_row) <= 1 and abs(got.col - target_col) <= 1
    return 100.0 * hits / total


class TrainShift:
    """Train on the 30-identity training split of the shift recipe."""

    name = "train-shift"
    main_op = "train"

    def __init__(self, seed: int):
        self.seed = seed
        self.config = RunConfig(seed=SPLIT_SEED)

    def setup(self, work: str):
        manifest, _ = harness.generate_synthetic(work, SHIFT_IDS, SHIFT_ROWS, SHIFT_NOISE,
                                                 self.seed, self.config)
        train_ids, _ = harness.make_splits(manifest, seed=SPLIT_SEED, repeats=1).splits[0]
        return manifest, train_ids

    def measure(self, state, run: Run) -> None:
        manifest, train_ids = state

        def train():
            bank = harness.DescriptorBank(manifest, self.config)
            return harness.train_on_split(bank, train_ids, self.config, need_structure=True)

        checks = [lambda a: _row_stochastic(a.learned.structure)]
        if self.seed == PINNED_SEED:
            checks.append(lambda a: (
                f"shift recovery >= {SHIFT_RECOVERY_FLOOR_PCT:g}% at the pinned seed",
                shift_recovery_pct(a.learned.structure.probs, self.config, SHIFT_ROWS)
                >= SHIFT_RECOVERY_FLOOR_PCT))
        artifacts = run.op("train", train, *checks)
        if artifacts is None:
            return
        learned = artifacts.learned
        run.info["train_s"] = (run.latencies("train")[0], "s")
        run.info["shift_recovery_pct"] = (
            shift_recovery_pct(learned.structure.probs, self.config, SHIFT_ROWS), "%")
        run.info["iterations"] = (len(learned.diagnostics), "count")
        _hash_model(run, learned.structure, artifacts.metric)


class AblationEval:
    """All four ablation arms over a fixed number of splits."""

    name = "ablation-eval"
    main_op = "evaluate"

    def __init__(self, seed: int):
        self.seed = seed
        self.config = RunConfig(seed=SPLIT_SEED, max_iterations=ABLATION_MAX_ITERATIONS,
                                repeats=ABLATION_SPLITS)

    def setup(self, work: str):
        rows = ["identity,camera,path"]
        for tag, shift in zip("ab", ABLATION_SHIFTS):
            manifest, _ = harness.generate_synthetic(
                os.path.join(work, tag), ABLATION_IDS_PER_SHIFT, shift, SHIFT_NOISE,
                self.seed + ord(tag), self.config, weak_fraction=ABLATION_WEAK_FRACTION,
                palette_size=ABLATION_PALETTE)
            rows.extend(f"{tag}-{e.identity},{e.camera},{e.path}" for e in manifest.entries)
        merged = os.path.join(work, "merged.csv")
        with open(merged, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        manifest = harness.load_manifest(merged)
        return manifest, harness.make_splits(manifest, seed=SPLIT_SEED,
                                             repeats=self.config.repeats)

    def measure(self, state, run: Run) -> None:
        manifest, splits = state

        def curves_valid(results):
            curves = [c for averaged, per_split in results.values()
                      for c in (averaged, *per_split)]
            return "CMC curves monotone and ending at 1", all(
                np.all(np.diff(c.values) >= 0.0) and c.values[-1] == 1.0 for c in curves)

        results = run.op("evaluate",
                         lambda: harness.run_ablations(manifest, splits, harness.ARMS,
                                                       self.config),
                         curves_valid)
        if results is None:
            return
        run.info["evaluate_s"] = (run.latencies("evaluate")[0], "s")
        for arm in harness.ARMS:
            averaged, per_split = results[arm]
            run.info[f"cmc1.{arm}"] = (100.0 * averaged.values[0], "%")
            for curve in per_split:
                run.hash_array(curve.values)


WORKLOADS = {w.name: w for w in (TrainShift, AblationEval)}
