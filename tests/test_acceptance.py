"""Acceptance suite: one test per criterion, one printed line per criterion.

The heavyweight fixtures (synthetic training runs) are module-scoped and
shared between criteria.  Each passing criterion prints an
``ACCEPTANCE PASS`` line directly to the terminal.
"""
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from corrmatch import learning
from corrmatch.assignment import solve_assignment
from corrmatch.config import RunConfig, save_config
from corrmatch.geometry import colocated_patch, patch_at
from corrmatch.harness import (DescriptorBank, generate_synthetic, load_manifest,
                               make_splits, run_ablations, train_on_split, train_split_metric)
from corrmatch.learning import learn_structure
from corrmatch.matching import CellTable, gated_correlations
from corrmatch.metric import MetricModel, build_avg_similarity, train_metric
from corrmatch.structure import init_structure

from conftest import record_acceptance
from oracles import correct_pair_log_similarity, dp_best_score

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Frozen synthetic benchmark recipe for the ablation-ordering criterion: two
# shift populations merged into one camera pair, so the simple average of
# per-probe mapping structures blurs while the boosted structure stays
# usable through its one-to-many rows.
ABLATION_SHIFTS = (4, 7)
ABLATION_IDS_PER_SHIFT = 30
ABLATION_WEAK_FRACTION = 0.35
ABLATION_PALETTE = 4
ABLATION_CONFIG = dict(seed=3, max_iterations=60, repeats=10)

# Pinned shift-recovery dataset.
SHIFT_IDS, SHIFT_ROWS, SHIFT_NOISE, SHIFT_SEED = 60, 2, 0.05, 7


def report(name: str) -> None:
    line = f"PASS {name}"
    print(line)
    record_acceptance(line)


@pytest.fixture(scope="module")
def shift_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("shift"))
    config = RunConfig(seed=3)
    started = time.perf_counter()
    manifest, gt = generate_synthetic(out, SHIFT_IDS, SHIFT_ROWS, SHIFT_NOISE,
                                      SHIFT_SEED, config)
    splits = make_splits(manifest, seed=3, repeats=1)
    bank = DescriptorBank(manifest, config)
    train_ids, _ = splits.splits[0]
    artifacts = train_on_split(bank, train_ids, config, need_structure=True)
    elapsed = time.perf_counter() - started
    # The split's stacks come from the bank's cache, so the characterization
    # test below needs no second training run.
    probe_stack, gallery_stack = bank.stacks(train_ids)
    return config, gt, artifacts.learned, elapsed, (probe_stack, gallery_stack, artifacts.metric)


@pytest.fixture(scope="module")
def ablation_plan(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ablation"))
    config = RunConfig(**ABLATION_CONFIG)
    rows = ["identity,camera,path"]
    for tag, shift in zip("ab", ABLATION_SHIFTS):
        manifest, _ = generate_synthetic(os.path.join(out, tag), ABLATION_IDS_PER_SHIFT,
                                         shift, 0.05, 7 + ord(tag), config,
                                         weak_fraction=ABLATION_WEAK_FRACTION,
                                         palette_size=ABLATION_PALETTE)
        rows.extend(f"{tag}-{e.identity},{e.camera},{e.path}" for e in manifest.entries)
    merged = os.path.join(out, "merged.csv")
    with open(merged, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    manifest = load_manifest(merged)
    return manifest, make_splits(manifest, seed=3, repeats=config.repeats), config


@pytest.fixture(scope="module")
def ablation_run(ablation_plan):
    return run_ablations(*ablation_plan[:2],
                         ["no-structure", "simple-average", "no-global", "proposed"],
                         ablation_plan[2])


def test_solver_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    for _ in range(1000):
        n_rows = int(rng.integers(1, 8))
        n_cols = int(rng.integers(n_rows, 10))
        values = -10.0 * rng.random((n_rows, n_cols))
        assignable = rng.random((n_rows, n_cols)) > 0.25
        assignable[rng.random(n_rows) < 0.1] = False  # all-excluded rows
        values = np.where(assignable, values, -np.inf)
        got = solve_assignment(values, kappa=-50.0).score
        want = dp_best_score(values, assignable, -50.0)
        assert got == want, f"psi mismatch: {got!r} != {want!r}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 1000
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    report(f"solver-oracle-equivalence (1000 matrices, {elapsed:.1f}s)")


def test_probability_invariants_300_iterations(tmp_path):
    config = RunConfig(seed=3, max_iterations=300, tolerance=0.0)
    manifest, _ = generate_synthetic(str(tmp_path), 12, 2, 0.05, 7, config)
    splits = make_splits(manifest, seed=3, repeats=1)
    bank = DescriptorBank(manifest, config)
    train_ids, _ = splits.splits[0]

    init = init_structure(config.probe_grid(), config.gallery_grid(), config.t_d)
    assert np.all(init.probs >= 0.0)
    assert np.abs(init.probs.sum(axis=1) - 1.0).max() <= 1e-9

    artifacts = train_on_split(bank, train_ids, config, need_structure=True)
    diagnostics = artifacts.learned.diagnostics
    assert len(diagnostics) == 300
    violations = sum(1 for d in diagnostics
                     if d.max_row_sum_error > 1e-9 or d.min_entry < 0.0)
    assert violations == 0
    final = artifacts.learned.structure.probs
    assert np.all(final >= 0.0)
    assert np.abs(final.sum(axis=1) - 1.0).max() <= 1e-9
    report("probability-invariants (init + 300 iterations, 0 violations)")


def test_init_boundary_canonical_grids():
    config = RunConfig()
    probe_grid, gallery_grid = config.probe_grid(), config.gallery_grid()
    structure = init_structure(probe_grid, gallery_grid, t_d=32)
    ordinals = np.arange(gallery_grid.n_patches)
    for i in range(probe_grid.n_patches):
        co = colocated_patch(probe_grid, gallery_grid, patch_at(probe_grid, i))
        dist = np.abs(ordinals - co.ordinal)
        row = structure.probs[i]
        assert np.all(row[dist >= 32] == 0.0)
        assert int(np.argmax(row)) == co.ordinal
    report("init-boundary (distance >= 32 exactly zero, argmax co-located)")


def test_cmc_properties(ablation_run):
    for arm, (averaged, per_split) in ablation_run.items():
        for curve in [averaged, *per_split]:
            assert np.all(np.diff(curve.values) >= 0.0), f"{arm} curve decreases"
            assert curve.values[-1] == 1.0
        stack = np.stack([c.values for c in per_split])
        assert np.abs(stack.mean(axis=0) - averaged.values).max() <= 1e-12
    report("cmc-properties (monotone, terminal 1, exact averaging)")


def test_shift_recovery(shift_run):
    config, gt, learned, elapsed, _ = shift_run
    probe_grid, gallery_grid = config.probe_grid(), config.gallery_grid()
    probs = learned.structure.probs
    hits = total = 0
    for i in range(probe_grid.n_patches):
        co = colocated_patch(probe_grid, gallery_grid, patch_at(probe_grid, i))
        target_row, target_col = co.row + gt["shift_rows"], co.col
        if not 0 <= target_row < gallery_grid.n_rows:
            continue  # displaced position leaves the grid; not interior
        total += 1
        got = patch_at(gallery_grid, int(np.argmax(probs[i])))
        if abs(got.row - target_row) <= 1 and abs(got.col - target_col) <= 1:
            hits += 1
    fraction = hits / total
    assert fraction >= 0.70, f"shift recovery {fraction:.1%} below 70%"
    assert elapsed < 600.0, f"shift recovery run took {elapsed:.0f}s"
    report(f"shift-recovery ({fraction:.1%} of {total} interior patches, {elapsed:.0f}s)")


def test_ablation_ordering(ablation_run):
    at1 = {arm: 100.0 * ablation_run[arm][0].values[0] for arm in ablation_run}
    assert at1["proposed"] >= at1["no-global"] >= at1["no-structure"]
    assert at1["proposed"] - at1["no-structure"] >= 5.0
    assert abs(at1["simple-average"] - at1["no-structure"]) <= 5.0
    report("ablation-ordering (CMC@1: " +
           ", ".join(f"{arm}={at1[arm]:.1f}" for arm in
                     ("no-structure", "simple-average", "no-global", "proposed")) + ")")


def test_convergence_diagnostics(shift_run):
    _, _, learned, _, _ = shift_run
    deltas = [d.delta for d in learned.diagnostics]
    assert len(deltas) <= 300
    assert deltas[-1] < 1e-4, f"final delta {deltas[-1]:.2e}"
    # decay in trend, not strict monotonicity
    head = np.mean(deltas[: max(1, len(deltas) // 3)])
    tail = np.mean(deltas[-max(1, len(deltas) // 3):])
    assert tail < head
    report(f"convergence-diagnostics (delta {deltas[-1]:.2e} after {len(deltas)} iterations)")


def test_shift_structure_is_the_closed_form_blend(shift_run):
    # Characterization on the pinned split, not an acceptance criterion:
    # every update is rownorm(avg), so K blends from S0 give
    # (1-eps)^K * S0 + (1-(1-eps)^K) * rownorm(avg) (README, "Known
    # departures").  A change that makes the binary structures reach the
    # update fails here and must update this test on purpose.
    config, _, learned, _, (probe_stack, gallery_stack, metric) = shift_run
    avg = build_avg_similarity(np.exp(correct_pair_log_similarity(
        CellTable(probe_stack, gallery_stack, metric))))
    start = init_structure(config.probe_grid(), config.gallery_grid(), config.t_d).probs
    keep = (1.0 - config.epsilon) ** len(learned.diagnostics)
    expect = keep * start + (1.0 - keep) * avg / avg.sum(axis=1, keepdims=True)
    assert np.abs(learned.structure.probs - expect).max() <= 1e-15


def test_shift_updates_do_not_drift(shift_run):
    # Characterization on the pinned split, like the test above: every
    # iteration's normalized update is the first one's up to rounding
    # (measured at most 8.3e-17), so boosting's selection does not move it.
    _, _, learned, _, _ = shift_run
    assert learned.diagnostics[0].update_drift == 0.0
    assert max(d.update_drift for d in learned.diagnostics) <= 1e-15


def test_shift_ranking_diagnostics_are_pinned(shift_run):
    # Characterization on the pinned split, like the tests around it: the
    # training ranking's per-iteration counts.  component_solves counts the
    # clashing (component, pair) cases whether they were solved exactly or
    # pruned by their bound, so pruning must not move it (35,567 in all).
    _, _, learned, _, _ = shift_run
    diagnostics = learned.diagnostics
    assert [d.component_solves for d in diagnostics] == [
        2214, 2134, 1461, 3532, 4838, 4726, 4737, 4073, 3135, 2607, 2110]
    assert [d.gate_components for d in diagnostics] == [
        14, 14, 40, 47, 34, 26, 36, 48, 51, 48, 50]
    assert [d.sum_ranks for d in diagnostics] == [30] * 11


def test_shift_structure_does_not_depend_on_the_selection_seed(shift_run):
    # Characterization on the pinned split, like the two tests above: the
    # update does not depend on which probes boosting selects, so a second
    # selection seed learns the same structure up to rounding (measured at
    # most 5.6e-17).
    config, _, learned, _, (probe_stack, gallery_stack, metric) = shift_run
    other = learn_structure(probe_stack, gallery_stack, metric, replace(config, seed=99))
    assert len(other.diagnostics) == len(learned.diagnostics)
    assert np.abs(other.structure.probs - learned.structure.probs).max() <= 1e-15


def learn_traced(monkeypatch, probe_stack, gallery_stack, metric, config):
    """``learn_structure``'s result, the heap peak of its boosting loop
    (``tracemalloc``, from the first ranking on), its split table and the
    union of its ranking gates' cells as i * N_B + j."""
    tables, gates = [], set()

    def gated(table, structure, t_c):
        tables.append(table)
        gate, values = gated_correlations(table, structure, t_c)
        gates.update(np.flatnonzero(gate).tolist())
        return gate, values

    def loop_start(*args):  # called once the training context is built
        tracemalloc.reset_peak()
        return init_structure(*args)

    monkeypatch.setattr(learning, "gated_correlations", gated)
    monkeypatch.setattr(learning, "init_structure", loop_start)
    metric.factors  # a lazy property, computed before the trace
    tracemalloc.start()
    try:
        learned = learn_structure(probe_stack, gallery_stack, metric, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({id(table) for table in tables}) == 1
    return learned, peak, tables[0], gates


def test_split_memo_holds_only_the_ranking_gates_cells(shift_run, ablation_plan, monkeypatch):
    # Characterization on the pinned splits: the link cells the scoring
    # passes read leave the split's memo, 971 and 1,503 cells while they
    # stayed.  Both splits are the bench's at seed 7.
    config, _, learned, _, (probe_stack, gallery_stack, metric) = shift_run
    again, _, table, gates = learn_traced(monkeypatch, probe_stack, gallery_stack, metric,
                                          config)
    assert np.array_equal(again.structure.probs, learned.structure.probs)
    assert set(table._rows) == gates and len(gates) == 478
    manifest, splits, config = ablation_plan
    probe_stack, gallery_stack = DescriptorBank(manifest, config).stacks(splits.splits[0][0])
    metric = train_split_metric(probe_stack, gallery_stack, config)
    _, _, table, gates = learn_traced(monkeypatch, probe_stack, gallery_stack, metric, config)
    assert set(table._rows) == gates and len(gates) == 282


def test_boosting_loop_heap_holds_no_link_cells_or_joint_matrices(shift_run, monkeypatch):
    # On the pinned shift split the loop's heap peaks at 10.9 MB.  It read
    # 14.5 MB with every link cell back in the split memo, 16.5 MB with
    # every drawn structure's joint matrix kept, and 18.4 MB with both.
    config, _, _, _, (probe_stack, gallery_stack, metric) = shift_run
    _, peak, _, _ = learn_traced(monkeypatch, probe_stack, gallery_stack, metric, config)
    assert peak < 12.5e6


def test_training_context_heap_holds_no_stacked_pair_table(shift_run):
    # Building the context streams the correct pairs a block at a time, so
    # on the pinned shift split its heap peaks 3.5 MB above where it
    # starts, under the 6.0 MB of the stacked (30, 84, 297) table of their
    # log similarities.  It read 9.3 MB with that table kept, 9.3 MB with a
    # stacked exponentiated copy kept instead, and 12.8 MB with both.
    config, _, _, _, (probe_stack, gallery_stack, metric) = shift_run
    stacked = probe_stack.nbytes // probe_stack.shape[2] * gallery_stack.shape[1]
    metric.factors  # a lazy property, computed before the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        learning._TrainingContext(probe_stack, gallery_stack, metric, config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert stacked == 5_987_520 and peak < stacked


def test_determinism_cli(tmp_path):
    config_path = tmp_path / "small.cfg"
    save_config(config_path, RunConfig(max_iterations=6, repeats=2, selection_count=4,
                                       seed=11, tolerance=0.0))
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "corrmatch.cli", *args],
                              capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr
        return proc

    data = tmp_path / "data"
    run(["synth", "--out", str(data), "--identities", "8", "--shift-rows", "2",
         "--noise", "0.05", "--seed", "7", "--config", str(config_path)])
    outputs = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        run(["train", "--manifest", str(data / "manifest.csv"),
             "--config", str(config_path), "--out", str(run_dir)])
        run(["evaluate", "--manifest", str(data / "manifest.csv"),
             "--config", str(config_path), "--out", str(run_dir)])
        blobs = {}
        for name in sorted(os.listdir(run_dir)):
            with open(run_dir / name, "rb") as fh:
                blobs[name] = fh.read()
        outputs.append(blobs)
    assert outputs[0].keys() == outputs[1].keys()
    expected = {"structure.bin", "structure.csv", "metric.bin", "diagnostics.csv"}
    assert expected <= set(outputs[0])
    assert any(name.startswith("cmc_") for name in outputs[0])
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    report(f"determinism ({len(outputs[0])} files bitwise identical across runs)")


def test_metric_sanity():
    rng = np.random.default_rng(99)
    n_loc, dim = 84, 32
    mats = rng.standard_normal((n_loc, dim, dim))
    mats = (mats + mats.transpose(0, 2, 1)) / 2.0
    model = MetricModel(matrices=mats, sigmas=rng.random(n_loc) + 0.1,
                        global_matrix=mats[0], global_sigma=1.0)
    descriptors = rng.random((10_000, dim))

    def self_similarity(rows):
        # Pair k holds descriptor rows[k] at every probe location and as its
        # one gallery patch, so entry (k, loc, 0) is its self-similarity at loc.
        probe = np.broadcast_to(descriptors[rows, None], (len(rows), n_loc, dim))
        return np.exp(correct_pair_log_similarity(CellTable(probe, descriptors[rows, None],
                                                            model))[:, :, 0])
    sims = np.concatenate([self_similarity(np.arange(lo, lo + 1000))
                           for lo in range(0, 10_000, 1000)])
    for loc in range(n_loc):
        assert np.all(sims[:, loc] == 1.0), f"self-similarity not exactly 1 at location {loc}"
    for k in range(0, 10_000, 997):  # one-pair spot checks
        assert self_similarity([k])[0, k % n_loc] == 1.0

    # scalar training case, hand arithmetic with ridge gamma = 1e-3 * trace / dim
    similar = [np.array([[1.0], [-1.0]])]
    dissimilar = [np.array([[2.0], [-2.0]])]
    trained = train_metric(similar, dissimilar, sigma_scale=0.15)
    expected = 1.0 / (1.0 + 1e-3) - 1.0 / (4.0 + 4e-3)
    assert abs(float(trained.matrices[0][0, 0]) - expected) <= 1e-12
    report("metric-sanity (10^4 descriptors x 84 locations, scalar case to 1e-12)")
