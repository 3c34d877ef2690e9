import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrmatch.config import RunConfig
from corrmatch.errors import ConfigurationError
from corrmatch.learning import (CmcCurve, cmc_curve, compute_update,
                                conditional_matrix, impact_table,
                                patch_importance, structure_prior)
from corrmatch.matching import (BinaryMappingStructure, CellTable, cell_log_similarity,
                               correct_pair_log_similarity)

import oracles


# ----------------------------------------------------------------- CMC

def test_cmc_all_rank_one():
    curve = cmc_curve([1, 1, 1], gallery_size=4)
    assert np.array_equal(curve.values, [1.0, 1.0, 1.0, 1.0])


def test_cmc_counts_example():
    curve = cmc_curve([1, 3], gallery_size=4)
    assert np.array_equal(curve.values, [0.5, 0.5, 1.0, 1.0])


def test_cmc_single_probe_worst_rank():
    curve = cmc_curve([4], gallery_size=4)
    assert np.array_equal(curve.values, [0.0, 0.0, 0.0, 1.0])


def test_cmc_non_decreasing_and_terminal_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        size = int(rng.integers(1, 30))
        ranks = rng.integers(1, size + 1, size=int(rng.integers(1, 40)))
        curve = cmc_curve(ranks, size)
        assert np.all(np.diff(curve.values) >= 0)
        assert curve.values[-1] == 1.0
        # values are rational with denominator = probe count
        assert np.allclose(curve.values * len(ranks),
                           np.round(curve.values * len(ranks)), atol=1e-9)


def test_cmc_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        cmc_curve([], 4)
    with pytest.raises(ValueError):
        cmc_curve([0], 4)
    with pytest.raises(ValueError):
        cmc_curve([5], 4)
    for rank in (0, -1):  # values[n - 1] read 1.0 at rank 0 and 0.667 at rank -1
        with pytest.raises(ValueError, match="rank must be >= 1"):
            cmc_curve([2, 1, 3], 3).at_rank(rank)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=40),
       st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(1e-9, 1.0)))
@example([1, 2], 0.9999999999999999)  # the lerp rounds up to the next rank
def test_quantile_equals_numpy_quantile_bit_for_bit(ranks, q):
    from corrmatch.learning import _quantile
    ranks = np.array(ranks, dtype=np.int64)
    assert np.array_equal(_quantile(ranks, q), np.quantile(ranks, q))


# ------------------------------------------------------------- priors

def test_structure_prior_single():
    assert np.array_equal(structure_prior([0.4]), [1.0])


def test_structure_prior_normalization():
    assert np.allclose(structure_prior([0.6, 0.2]), [0.75, 0.25])


def test_structure_prior_all_zero_uniform():
    assert np.allclose(structure_prior([0.0, 0.0, 0.0, 0.0]), 0.25)


# ----------------------------------------------------------- impacts

def test_impact_table_examples():
    table = impact_table(40, t_d=32)
    assert table[5, 5] == 1.0
    assert table[0, 32] == 0.0
    assert table[4, 7] == 0.25


def test_impact_table_symmetry():
    table = impact_table(10, t_d=4)
    assert np.array_equal(table, table.T)
    assert np.all(np.diag(table) == 1.0)
    assert table[0, 5] == 0.0


def test_patch_importance_single_link_peaks_and_decays():
    imp = patch_importance(np.eye(8)[3], t_d=32)
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(imp) == 3
    raw = impact_table(8, t_d=32)[:, 3]
    assert np.allclose(imp, raw / raw.sum(), atol=1e-12)


def test_patch_importance_zero_beyond_reach():
    imp = patch_importance(np.eye(40)[0], t_d=4)
    assert np.all(imp[4:] == 0.0)
    assert np.all(imp[:4] > 0.0)


def test_patch_importance_uniform_coverage_is_near_uniform():
    n = 30
    imp = patch_importance(np.full(n, 1.0 / n), t_d=32)
    # oracle: row sums of the impact table, normalized
    raw = impact_table(n, 32) @ np.full(n, 1.0 / n)
    assert np.allclose(imp, raw / raw.sum(), atol=1e-12)
    interior = imp[8:-8]
    assert interior.max() / interior.min() < 1.5


# -------------------------------------------------------- conditional

def test_conditional_single_link_hand_computed():
    avg = np.array([[0.2, 0.5, 0.3]])
    binary = BinaryMappingStructure(targets=(1,))
    out = conditional_matrix(binary, avg)[0]
    raw = np.array([0.2 / 0.5, 1.0, 0.3 / 0.5])
    assert np.allclose(out, raw / raw.sum(), atol=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_linked_patch_tops_uniform_table():
    # With a perfectly uniform table the unlinked ratios all equal 1, so the
    # linked patch ties the row maximum instead of strictly beating it.
    avg = np.full((1, 5), 0.4)
    binary = BinaryMappingStructure(targets=(2,))
    out = conditional_matrix(binary, avg)[0]
    assert out[2] == out.max()
    assert np.allclose(out, 0.2, atol=1e-12)


def test_conditional_linked_patch_strictly_dominates_decaying_table():
    # As soon as unlinked averages fall below the linked one, the linked
    # patch holds the strict row maximum.
    avg = np.array([[0.39, 0.38, 0.4, 0.37, 0.2]])
    binary = BinaryMappingStructure(targets=(2,))
    out = conditional_matrix(binary, avg)[0]
    assert np.argmax(out) == 2
    assert out[2] > out[0]


def test_conditional_matrix_rows_sum_to_one():
    rng = np.random.default_rng(1)
    avg = rng.random((6, 9)) + 1e-3
    binary = BinaryMappingStructure(targets=tuple(rng.integers(0, 9, 6).tolist()))
    mat = conditional_matrix(binary, avg)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)


# ------------------------------------------------------ update mixing

def test_compute_update_single_structure_identity():
    rng = np.random.default_rng(2)
    joint = rng.random((4, 6))
    out = compute_update([joint], [1.0])
    assert np.array_equal(out, joint)


def test_compute_update_duplicate_structures_convexity():
    rng = np.random.default_rng(3)
    joint = rng.random((4, 6))
    out = compute_update([joint, joint], [0.5, 0.5])
    assert np.allclose(out, joint, atol=1e-12)


def test_compute_update_hand_mixture():
    j1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    j2 = np.array([[0.0, 2.0], [2.0, 0.0]])
    out = compute_update([j1, j2], [0.75, 0.25])
    assert np.allclose(out, [[0.75, 0.5], [0.5, 0.75]], atol=1e-12)


def test_compute_update_reads_a_generator_one_joint_at_a_time():
    # The learner rebuilds each joint as the update reads it: no joint the
    # generator handed out before may still be alive when it builds the next.
    rng = np.random.default_rng(4)
    joints, priors, handed = [rng.random((4, 6)) for _ in range(3)], [0.5, 0.25, 0.25], []

    def rebuilt():
        for joint in joints:
            assert [ref() for ref in handed] == [None] * len(handed)
            fresh = joint.copy()
            handed.append(weakref.ref(fresh))
            yield fresh
            del fresh

    assert np.array_equal(compute_update(rebuilt(), priors), compute_update(joints, priors))
    assert len(handed) == 3


def test_compute_update_desk_scale_chain():
    # 2 probe patches x 2 gallery patches, one structure, priors = 1.
    avg = np.array([[0.5, 0.25], [0.25, 0.5]])
    binary = BinaryMappingStructure(targets=(0, 1))
    cond = conditional_matrix(binary, avg)
    imp = patch_importance(np.array([0.5, 0.5]), t_d=32)
    update = compute_update([imp[:, None] * cond], [1.0])
    # by hand: cond rows raw {1, .5}->{2/3, 1/3}; impacts rows {1, 1/2} sums 1.5
    assert np.allclose(cond, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)
    assert np.allclose(imp, [0.5, 0.5], atol=1e-12)
    assert np.allclose(update, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-12)
    assert np.all(update >= 0) and np.all(np.isfinite(update))


def test_cmc_curve_type_validation():
    with pytest.raises(ValueError):
        CmcCurve(values=np.array([0.5, 0.4, 1.0]), gallery_size=3)
    with pytest.raises(ValueError):
        CmcCurve(values=np.array([0.5, 0.9]), gallery_size=2)


def _tiny_config(**learner) -> RunConfig:
    """3x5 = 15 probe patches and 5x9 = 45 gallery patches."""
    return RunConfig(image_width=12, image_height=20, patch_width=4, patch_height=4,
                     probe_stride_x=4, probe_stride_y=4, gallery_stride_x=2,
                     gallery_stride_y=2, **learner)


def _tiny_training_world(seed=0, n_ids=6, dim=6):
    rng = np.random.default_rng(seed)
    from corrmatch.metric import MetricModel
    probe_grid, gallery_grid = _tiny_config().probe_grid(), _tiny_config().gallery_grid()
    mats = np.repeat(np.eye(dim)[None], probe_grid.n_patches, axis=0)
    model = MetricModel(matrices=mats, sigmas=np.full(probe_grid.n_patches, 0.5),
                        global_matrix=np.eye(dim), global_sigma=0.5)
    probe = rng.random((n_ids, probe_grid.n_patches, dim))
    gallery = rng.random((n_ids, gallery_grid.n_patches, dim))
    return probe, gallery, model, probe_grid, gallery_grid


def test_learn_structure_fixed_seed_bitwise_identical():
    from corrmatch.learning import learn_structure
    probe, gallery, model, pg, gg = _tiny_training_world()
    config = _tiny_config(max_iterations=4, tolerance=0.0, selection_count=2, seed=13)
    first = learn_structure(probe, gallery, model, config)
    second = learn_structure(probe, gallery, model, config)
    assert np.array_equal(first.structure.probs, second.structure.probs)
    assert first.diagnostics == second.diagnostics
    assert all(d.gate_components > 0 for d in first.diagnostics)


def _closed_form_structure(probe, gallery, model, config, iterations):
    """(1-eps)^K * S0 + (1-(1-eps)^K) * rownorm(avg): K blends of the same
    update, the row-normalized average-similarity table."""
    from corrmatch.metric import build_avg_similarity
    from corrmatch.structure import init_structure
    table = correct_pair_log_similarity(CellTable(probe, gallery, model))
    avg = build_avg_similarity(table)
    start = init_structure(config.probe_grid(), config.gallery_grid(), config.t_d).probs
    keep = (1.0 - config.epsilon) ** iterations
    return keep * start + (1.0 - keep) * avg / avg.sum(axis=1, keepdims=True)


def test_learned_structure_is_the_closed_form_blend_of_the_average_table():
    # Characterization: every binary structure links each probe patch once,
    # so its conditional is rownorm(avg) and the selection cannot move the
    # update.  A change that makes the binary structures matter fails here.
    from corrmatch.learning import learn_structure
    probe, gallery, model, pg, gg = _tiny_training_world()
    config = _tiny_config(max_iterations=6, tolerance=0.0, selection_count=4, seed=13)
    learned = learn_structure(probe, gallery, model, config)
    expect = _closed_form_structure(probe, gallery, model, config, len(learned.diagnostics))
    assert np.abs(learned.structure.probs - expect).max() <= 1e-15


# One changed value of each key that only steers the ranking and the
# selection of binary structures; README "Known departures" lists them.
# Each value changes the run's diagnostics, and adjacency_ranges and kappa
# also change the binary structures found.
SELECTION_KEYS = [dict(seed=99), dict(kappa=-0.5), dict(t_c=0.03), dict(n_cmc=1),
                  dict(selection_count=2), dict(top_fraction=0.25),
                  dict(adjacency_ranges=(2,))]


@pytest.mark.parametrize("change", SELECTION_KEYS, ids=lambda change: next(iter(change)))
def test_learned_structure_does_not_depend_on_the_selection_seed(change):
    from corrmatch.learning import learn_structure
    probe, gallery, model, pg, gg = _tiny_training_world()
    base = dict(max_iterations=6, tolerance=0.0, selection_count=4, seed=13)
    first = learn_structure(probe, gallery, model, _tiny_config(**base))
    other = learn_structure(probe, gallery, model, _tiny_config(**{**base, **change}))
    assert other.diagnostics != first.diagnostics  # the change reached the run
    assert len(other.diagnostics) == len(first.diagnostics)
    assert np.abs(first.structure.probs - other.structure.probs).max() <= 1e-15


def test_rank_correct_matches_equals_per_pair_reference():
    from corrmatch.learning import _TrainingContext, learn_structure
    from corrmatch.structure import init_structure
    probe, gallery, model, pg, gg = _tiny_training_world()
    config = _tiny_config(max_iterations=4, tolerance=0.0, selection_count=2, seed=13)
    learned = learn_structure(probe, gallery, model, config)
    ctx = _TrainingContext(probe, gallery, model, config)

    def pair_log_similarity(i, j):
        return cell_log_similarity(CellTable(probe, gallery, model), [i], [j])[0]

    for structure in (init_structure(pg, gg, config.t_d), learned.structure):
        ranks, scored = ctx.rank_correct_matches(structure)
        assert scored.solves > 0  # the exact fallback ran, not only greedy picks
        expect = oracles.rank_correct_matches(pair_log_similarity, structure.probs,
                                              config.t_c, config.kappa, ctx.n_train)
        assert ranks.tolist() == expect


def test_training_and_evaluation_score_a_pair_bit_for_bit_alike():
    from corrmatch.assignment import score_gate
    from corrmatch.learning import _TrainingContext, learn_structure
    from corrmatch.matching import (CellTable, gated_correlations, match_score, rank_gallery,
                                    rank_of_scores)
    from corrmatch.metric import MetricModel
    from corrmatch.structure import init_structure
    probe, gallery, _, pg, gg = _tiny_training_world(seed=3, dim=32)
    # Random PSD matrices: with identity matrices every formula is exact
    # and a split between two formulas could not show.
    rng = np.random.default_rng(17)
    a = rng.standard_normal((pg.n_patches, 32, 32))
    mats = a @ a.transpose(0, 2, 1) / 32.0
    model = MetricModel(matrices=mats, sigmas=rng.random(pg.n_patches) + 4.0,
                        global_matrix=mats[0], global_sigma=4.0)
    config = _tiny_config(max_iterations=3, tolerance=0.0, selection_count=2, seed=5)
    learned = learn_structure(probe, gallery, model, config)
    ctx = _TrainingContext(probe, gallery, model, config)
    n = ctx.n_train
    for structure in (init_structure(pg, gg, config.t_d), learned.structure):
        ranks, _ = ctx.rank_correct_matches(structure)
        # Exact totals of every pair over the training table, whose memo
        # the ranking has filled, and over a fresh evaluation table.
        trained = score_gate(*gated_correlations(ctx.table, structure, config.t_c),
                             config.kappa).totals
        gate, values = gated_correlations(CellTable(probe, gallery, model), structure,
                                          config.t_c)
        evaluated = score_gate(gate, values, config.kappa).totals
        assert np.array_equal(trained, evaluated)
        assert np.array_equal(ranks, rank_of_scores(trained.reshape(n, n), np.arange(n)))
        for p in range(n):  # the serving path scores one probe at a time
            ranked, _ = rank_gallery(probe[p], list(gallery), structure, model,
                                     config.t_c, config.kappa)
            served = [score for _, score in sorted(ranked)]
            assert np.array_equal(served, trained[p * n:(p + 1) * n])
            for g in (p, (p + 1) % n):  # `corrmatch match`: its own gallery and one other
                _, matched = match_score(probe[p], gallery[g], structure, model, config.t_c,
                                         config.kappa)
                # Its solver and score_gate agree bit for bit on its own cells.
                one = gated_correlations(CellTable(probe[p:p + 1], gallery[g:g + 1], model),
                                         structure, config.t_c)
                assert matched.score == score_gate(*one, config.kappa).totals[0]
                # A one-gallery table's cells equal the training table's bit
                # for bit, so serving scores a pair as training did.
                assert np.array_equal(matched.score, trained[p * n + g])
        # Each cell is log similarity + log p; the other way to write it,
        # log(similarity * p), would move some of these bits.
        log_sim = cell_log_similarity(CellTable(probe, gallery, model),
                                      *np.nonzero(gate)).reshape(len(values), -1)
        probs = structure.probs[gate][:, None]
        assert np.array_equal(values, log_sim + np.log(probs))
        assert not np.array_equal(values, np.log(np.exp(log_sim) * probs))


@pytest.mark.parametrize("n_cmc", [1, 2, 10])  # 10 is past the 6 training identities
def test_scored_equals_the_per_cell_reference_for_every_structure(n_cmc):
    # The update's row normalization cancels priors and importances, so a
    # wrong CMC would move the learned structure only at rounding level.
    from corrmatch.learning import _TrainingContext
    probe, gallery, model, pg, gg = _tiny_training_world()
    config = _tiny_config(n_cmc=n_cmc)
    ctx = _TrainingContext(probe, gallery, model, config)
    n = len(ctx.binary_structures)
    # Two passes, the second of which finds some links already stored.
    assert ctx.score(range(n // 2)) > 0 and ctx.score(reversed(range(n))) > 0
    assert ctx.table.computed == 0  # the passes leave the split memo as it is
    cmcs = []
    for alpha, binary in enumerate(ctx.binary_structures):
        cmc, joint = ctx.cmc(alpha), ctx.joint(alpha)
        expect_cmc, expect_joint = oracles.scored_structure(probe, gallery, model, binary,
                                                            ctx.avg_table, config)
        assert cmc == expect_cmc
        assert np.array_equal(joint, expect_joint)
        cmcs.append(cmc)
    assert (len(set(cmcs)) > 1) == (n_cmc < 6)


def test_learn_structure_scores_each_binary_structure_once(monkeypatch):
    import corrmatch.learning as learning
    scored, requested = [], []
    score, lookup = learning.binary_structure_score_matrix, learning._TrainingContext.joint

    def counting_score(probes, galleries, binaries, table, kappa):
        scored.extend(binaries)
        return score(probes, galleries, binaries, table, kappa)

    def counting_lookup(ctx, alpha):
        requested.append(alpha)
        return lookup(ctx, alpha)

    monkeypatch.setattr(learning, "binary_structure_score_matrix", counting_score)
    monkeypatch.setattr(learning._TrainingContext, "joint", counting_lookup)
    probe, gallery, model, pg, gg = _tiny_training_world()
    config = _tiny_config(max_iterations=6, tolerance=0.0, selection_count=4, seed=13)
    result = learning.learn_structure(probe, gallery, model, config)
    assert len(requested) > len(set(requested))  # the run draws some structure again
    first_draws = [result.binary_structures[alpha] for alpha in dict.fromkeys(requested)]
    assert [id(b) for b in scored] == [id(b) for b in first_draws]


def test_learn_structure_rejects_single_identity():
    from corrmatch.learning import learn_structure
    probe, gallery, model, pg, gg = _tiny_training_world(n_ids=1)
    with pytest.raises(ConfigurationError):
        learn_structure(probe, gallery, model, _tiny_config())


def test_diagnostics_record_gate_size_and_clamped_selection():
    from corrmatch.learning import learn_structure
    from corrmatch.structure import init_structure
    probe, gallery, model, pg, gg = _tiny_training_world()
    # Halves of 10 draws each from 6 probes: every selection is clamped.
    config = _tiny_config(max_iterations=2, tolerance=0.0, selection_count=20, seed=13)
    first = learn_structure(probe, gallery, model, config).diagnostics[0]
    gate = init_structure(pg, gg, config.t_d).probs > config.t_c
    assert (first.gate_cells, first.gated_rows) == (gate.sum(), gate.any(axis=1).sum())
    assert first.clamped == 1
    assert first.new_cells >= gate.sum()  # the first ranking computes every gate cell
