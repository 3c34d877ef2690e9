import numpy as np
import pytest

from corrmatch.assignment import solve_assignment
from corrmatch.geometry import GridSpec, colocated_patch, patch_at
from corrmatch.matching import (BinaryMappingStructure, CellTable, adjacency_candidates,
                                best_binary_structure, binary_structure_score_matrix,
                                correct_pair_log_similarity, gated_correlations, greedy_scores,
                                match_score, rank_gallery, rank_of_scores)
from corrmatch.metric import MetricModel
from corrmatch.structure import CorrespondenceStructure

import oracles

PROBE_1 = GridSpec(4, 4, 4, 4, 1, 1)       # one probe patch
GALLERY_2 = GridSpec(4, 4, 4, 2, 2, 2)     # two gallery patches


def flat_model(dim: int, n_loc: int, m: float = 1.0, sigma: float = 1.0) -> MetricModel:
    mats = np.repeat(np.eye(dim)[None] * m, n_loc, axis=0)
    return MetricModel(matrices=mats, sigmas=np.full(n_loc, sigma),
                       global_matrix=np.eye(dim) * m, global_sigma=sigma)


def correlation_matrix(probe_desc, gallery_desc, structure, model, t_c):
    """The structure-gated correlation matrix that ``match_score`` solves."""
    return match_score(probe_desc, gallery_desc, structure, model, t_c, kappa=-50.0)[0]


def tiny_structure(probs) -> CorrespondenceStructure:
    return CorrespondenceStructure(probs=np.asarray(probs, dtype=np.float64),
                                   probe_grid=PROBE_1, gallery_grid=GALLERY_2)


def test_correlation_gates_low_probability():
    structure = tiny_structure([[0.96, 0.04]])
    model = flat_model(1, 1)
    corr = correlation_matrix(np.array([[0.5]]), np.array([[0.5], [0.5]]),
                              structure, model, t_c=0.05)
    assert corr[0, 1] == -np.inf
    assert np.isfinite(corr[0, 0])
    # The gate is strict: a probability equal to t_c is excluded too.
    corr = correlation_matrix(np.array([[0.5]]), np.array([[0.5], [0.5]]),
                              tiny_structure([[0.95, 0.05]]), model, t_c=0.05)
    assert corr[0, 1] == -np.inf and np.isfinite(corr[0, 0])


def test_correlation_exact_values_and_nonpositive():
    structure = tiny_structure([[0.5, 0.5]])
    model = flat_model(1, 1)
    probe = np.array([[1.0]])
    gallery = np.array([[1.0], [0.0]])
    corr = correlation_matrix(probe, gallery, structure, model, t_c=0.05)
    # identical descriptors: phi = 1, C = log(0.5)
    assert corr[0, 0] == pytest.approx(np.log(0.5), abs=1e-12)
    # difference 1: phi = e^-1, C = log(e^-1 * 0.5)
    assert corr[0, 1] == pytest.approx(-1.0 + np.log(0.5), abs=1e-12)
    assert np.all(corr <= 0.0)


def test_perfect_match_degenerate_grids_scores_zero():
    probe = GridSpec(4, 4, 4, 4, 1, 1)
    gallery = GridSpec(4, 4, 4, 4, 1, 1)
    structure = CorrespondenceStructure(probs=np.array([[1.0]]),
                                        probe_grid=probe, gallery_grid=gallery)
    model = flat_model(1, 1)
    _, result = match_score(np.array([[0.3]]), np.array([[0.3]]), structure, model,
                            t_c=0.05, kappa=-50.0)
    assert result.score == 0.0
    assert result.pairs == ((0, 0),)


def test_all_rows_excluded_gives_kappa_floor():
    structure = tiny_structure([[0.5, 0.5]])
    model = flat_model(1, 1)
    corr = correlation_matrix(np.array([[0.5]]), np.array([[0.5], [0.5]]),
                              structure, model, t_c=0.9)
    assert np.all(corr == -np.inf)
    result = solve_assignment(corr, kappa=-50.0)
    assert result.pairs == ()
    assert result.score == -50.0


def test_match_score_two_patch_hand_computed():
    probe_grid = GridSpec(4, 8, 4, 4, 1, 4)     # two probe patches stacked
    gallery_grid = GridSpec(4, 8, 4, 4, 1, 4)   # two gallery patches stacked
    probs = np.array([[0.8, 0.2], [0.2, 0.8]])
    structure = CorrespondenceStructure(probs=probs, probe_grid=probe_grid,
                                        gallery_grid=gallery_grid)
    model = flat_model(1, 2)
    probe = np.array([[0.0], [1.0]])
    gallery = np.array([[0.0], [1.0]])
    corr, result = match_score(probe, gallery, structure, model, t_c=0.05, kappa=-50.0)
    # diagonal pairs: phi = 1 each, C = log 0.8 twice
    assert result.pairs == ((0, 0), (1, 1))
    assert result.score == pytest.approx(np.log(0.8) + np.log(0.8), abs=1e-12)
    assert result.score == corr[0, 0] + corr[1, 1]


def test_rank_gallery_exact_duplicate_first():
    rng = np.random.default_rng(0)
    structure = tiny_structure([[0.5, 0.5]])
    model = flat_model(1, 1)
    probe = np.array([[0.42]])
    duplicate = probe.copy().repeat(2, axis=0).reshape(2, 1)[:2]
    noise = [np.array([[0.9], [0.1]]), np.array([[0.0], [0.77]])]
    galleries = [noise[0], np.array([[0.42], [0.42]]), noise[1]]
    ranked, rank = rank_gallery(probe, galleries, structure, model, t_c=0.05, kappa=-50.0,
                                correct_index=1)
    assert ranked[0][0] == 1
    assert rank == 1


def test_rank_gallery_tie_keeps_input_order():
    structure = tiny_structure([[0.5, 0.5]])
    model = flat_model(1, 1)
    probe = np.array([[0.5]])
    same = np.array([[0.5], [0.5]])
    ranked, rank = rank_gallery(probe, [same, same.copy()], structure, model,
                                t_c=0.05, kappa=-50.0, correct_index=1)
    assert [idx for idx, _ in ranked] == [0, 1]
    assert rank == 2


def test_rank_of_scores_stable():
    rows = [[1.0, 3.0, 3.0, 0.5]] * 3
    assert rank_of_scores(rows, [2, 1, 3]).tolist() == [2, 1, 4]


def test_rank_of_scores_matches_sort_reference():
    # Scores from a four-value set (signed zeros included) tie often; owners
    # hold several galleries each, and every probe's owner holds at least one.
    rng = np.random.default_rng(9)
    for _ in range(300):
        n_rows, n_gal = int(rng.integers(1, 6)), int(rng.integers(1, 10))
        scores = rng.choice([-1.5, -0.0, 0.0, 2.0], size=(n_rows, n_gal))
        owners = rng.integers(0, n_gal, size=n_gal) if rng.random() < 0.5 else np.arange(n_gal)
        correct = rng.choice(owners, size=n_rows)
        got = rank_of_scores(scores, correct, owners)
        assert got.tolist() == [oracles.rank_of_owner(list(scores[r]), owners, correct[r])
                                for r in range(n_rows)]
        if np.array_equal(owners, np.arange(n_gal)):
            assert np.array_equal(rank_of_scores(scores, correct), got)
        # Without owners each row's correct gallery is its own: ties included.
        correct = rng.integers(0, n_gal, size=n_rows)
        assert rank_of_scores(scores, correct).tolist() == [
            oracles.rank_of_owner(list(scores[r]), range(n_gal), correct[r])
            for r in range(n_rows)]


def test_rank_of_scores_rejects_missing_owner():
    with pytest.raises(ValueError):
        rank_of_scores([[1.0, 2.0]], [3], owners=[0, 0])


@pytest.mark.parametrize("correct", [[2], [-1], [0, 2]])
def test_rank_of_scores_without_owners_rejects_a_missing_gallery(correct):
    # A gathered score would wrap a negative index round to the last gallery.
    with pytest.raises(ValueError, match="missing"):
        rank_of_scores([[1.0, 2.0]] * len(correct), correct)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_of_scores_rejects_non_finite_scores(bad):
    # A sort would place a NaN last without a word.
    with pytest.raises(ValueError, match="finite"):
        rank_of_scores([[1.0, bad, 0.5]], [0])


def test_greedy_score_matches_row_maxima():
    structure = tiny_structure([[0.5, 0.5]])
    model = flat_model(1, 1)
    probe, gallery = np.array([[0.3]]), np.array([[0.3], [0.9]])
    corr = correlation_matrix(probe, gallery, structure, model, t_c=0.05)
    gate, values = gated_correlations(CellTable(probe[None], gallery[None], model), structure,
                                      t_c=0.05)
    (total,) = greedy_scores(gate, values, kappa=-50.0)
    assert total == pytest.approx(float(corr[0].max()), abs=1e-15)


CANON_PROBE = GridSpec(48, 128, 18, 24, 6, 8)
CANON_GALLERY = GridSpec(48, 128, 18, 24, 3, 4)


def striped_descriptors(rng, grid, n_patterns=32):
    """Deterministic descriptors that vary smoothly with patch position."""
    base = rng.random((n_patterns, 8))
    out = np.empty((grid.n_patches, 8))
    for k in range(grid.n_patches):
        ref = patch_at(grid, k)
        out[k] = base[(ref.row * 3 + ref.col) % n_patterns]
    return out


def pair_table(probe_desc, gallery_desc, model):
    """Log similarities of one image pair, as the adjacency search takes them."""
    return correct_pair_log_similarity(CellTable(probe_desc[None], gallery_desc[None], model))[0]


def test_adjacency_candidates_self_match_links_colocated():
    rng = np.random.default_rng(1)
    model = flat_model(8, 84)
    gallery_desc = rng.random((297, 8))
    # probe descriptors copied from the co-located gallery patches
    probe_desc = np.empty((84, 8))
    for i in range(84):
        co = colocated_patch(CANON_PROBE, CANON_GALLERY, patch_at(CANON_PROBE, i))
        probe_desc[i] = gallery_desc[co.ordinal]
    for cand in adjacency_candidates(pair_table(probe_desc, gallery_desc, model),
                                     CANON_PROBE, CANON_GALLERY, ranges=(1, 3)):
        for i, j in enumerate(cand.targets):
            co = colocated_patch(CANON_PROBE, CANON_GALLERY, patch_at(CANON_PROBE, i))
            assert j == co.ordinal


def test_adjacency_candidates_window_respects_range():
    rng = np.random.default_rng(2)
    model = flat_model(8, 84)
    probe_desc = rng.random((84, 8))
    gallery_desc = rng.random((297, 8))
    for span in (1, 2, 4):
        (cand,) = adjacency_candidates(pair_table(probe_desc, gallery_desc, model),
                                       CANON_PROBE, CANON_GALLERY, ranges=(span,))
        for i, j in enumerate(cand.targets):
            co = colocated_patch(CANON_PROBE, CANON_GALLERY, patch_at(CANON_PROBE, i))
            assert abs(patch_at(CANON_GALLERY, j).row - co.row) <= span


def test_adjacency_large_range_is_global_argmax():
    rng = np.random.default_rng(3)
    model = flat_model(8, 84)
    probe_desc = rng.random((84, 8))
    gallery_desc = rng.random((297, 8))
    (cand,) = adjacency_candidates(pair_table(probe_desc, gallery_desc, model),
                                   CANON_PROBE, CANON_GALLERY, ranges=(27,))
    for i, j in enumerate(cand.targets):
        sims = np.exp(oracles.location_log_similarity(model, i, probe_desc[i] - gallery_desc))
        assert sims[j] == sims.max()


def binary_scores_by_solver(probe_stack, gallery_stack, binary, model, kappa,
                            factor_form=False):
    """Each pair's score as ``solve_assignment`` gives it on the one-pair
    correlations of the binary structure.  With ``factor_form`` each link's
    value comes from ``oracles.factor_cell_values`` over the whole stacks,
    the cell kernel's form, instead of d . M . d on the pair alone."""
    n_probe, n_gal = probe_stack.shape[1], gallery_stack.shape[1]
    if not factor_form:
        return np.array([[solve_assignment(oracles.binary_correlation(p, g, binary, model,
                                                                      n_gal),
                                           kappa=kappa).score
                          for g in gallery_stack] for p in probe_stack])
    links = oracles.factor_cell_values(probe_stack, gallery_stack, model,
                                       np.arange(n_probe), binary.targets)
    scores = np.empty((len(probe_stack), len(gallery_stack)))
    for p, g in np.ndindex(scores.shape):
        values = np.full((n_probe, n_gal), -np.inf)
        values[np.arange(n_probe), binary.targets] = links[:, p, g]
        scores[p, g] = solve_assignment(values, kappa=kappa).score
    return scores


def test_binary_score_matrix_matches_generic_path():
    rng = np.random.default_rng(4)
    n_probe, n_gal, dim = 6, 9, 4
    model = flat_model(dim, n_probe)
    probe_stack = rng.random((3, n_probe, dim))
    gallery_stack = rng.random((4, n_gal, dim))
    binary = BinaryMappingStructure(targets=tuple(rng.integers(0, n_gal, n_probe).tolist()))
    table = CellTable(probe_stack, gallery_stack, model)
    fast = binary_structure_score_matrix(table.probe_images, table.gallery_images, [binary],
                                         table, kappa=-50.0)[0]
    assert np.array_equal(fast, binary_scores_by_solver(probe_stack, gallery_stack, binary,
                                                        model, -50.0, factor_form=True))


def test_binary_score_matrix_with_conflicts_matches_generic_path():
    rng = np.random.default_rng(5)
    n_probe, n_gal, dim = 5, 3, 4
    model = flat_model(dim, n_probe)
    probe_stack = rng.random((2, n_probe, dim))
    gallery_stack = rng.random((3, n_gal, dim))
    # heavy column contention: four probe patches bid for gallery patch 1
    binary = BinaryMappingStructure(targets=(1, 1, 1, 0, 1))
    table = CellTable(probe_stack, gallery_stack, model)
    fast = binary_structure_score_matrix(table.probe_images, table.gallery_images, [binary],
                                         table, kappa=-50.0)[0]
    assert np.array_equal(fast, binary_scores_by_solver(probe_stack, gallery_stack, binary,
                                                        model, -50.0))


def test_binary_score_matrix_scores_the_requested_images():
    rng = np.random.default_rng(9)
    n_probe, n_gal, dim = 4, 5, 3
    model = flat_model(dim, n_probe)
    table = CellTable(rng.random((3, n_probe, dim)), rng.random((4, n_gal, dim)), model)
    binary = BinaryMappingStructure(targets=(1, 1, 3, 4))
    full = binary_structure_score_matrix(table.probe_images, table.gallery_images, [binary],
                                         table, kappa=-50.0)[0]
    block = binary_structure_score_matrix(np.array([2, 0]), np.array([3, 1, 1]), [binary],
                                          table, kappa=-50.0)[0]
    assert np.array_equal(block, full[np.ix_([2, 0], [3, 1, 1])])


def test_best_binary_structure_prefers_lower_rank():
    rng = np.random.default_rng(7)
    n_probe, n_gal, dim = 4, 6, 3
    model = flat_model(dim, n_probe)
    galleries = rng.random((5, n_gal, dim))
    probe = galleries[2, [0, 1, 2, 3], :].copy()  # correct gallery is index 2
    good = BinaryMappingStructure(targets=tuple(range(n_probe)))
    # under "bad" every probe patch bids on gallery patch 5, where a wrong
    # gallery image holds an exact copy of probe patch 0: correct can't rank 1
    galleries[0, 5] = probe[0]
    bad = BinaryMappingStructure(targets=(n_gal - 1,) * n_probe)
    chosen = best_binary_structure(CellTable(probe[None], galleries, model), 2, [bad, good],
                                   kappa=-50.0)
    assert chosen == good


def test_best_binary_structure_single_candidate():
    rng = np.random.default_rng(8)
    model = flat_model(2, 3)
    galleries = rng.random((3, 4, 2))
    probe = rng.random((3, 2))
    only = BinaryMappingStructure(targets=(0, 1, 2))
    table = CellTable(probe[None], galleries, model)
    assert best_binary_structure(table, 0, [only], kappa=-50.0) == only
    with pytest.raises(ValueError, match="no candidate"):
        best_binary_structure(table, 0, [], kappa=-50.0)


def test_negative_target_rejected():
    with pytest.raises(ValueError, match="negative"):
        BinaryMappingStructure(targets=(0, -1))


@pytest.mark.parametrize("targets", [(0, 1, 3), (0, 1), (0, 1, 2, 0)],
                         ids=["target-past-last-gallery-patch", "too-few", "too-many"])
def test_bad_targets_rejected_when_scored(targets):
    rng = np.random.default_rng(10)
    table = CellTable(rng.random((2, 3, 2)), rng.random((2, 3, 2)), flat_model(2, 3))
    with pytest.raises(ValueError):
        binary_structure_score_matrix(table.probe_images, table.gallery_images,
                                      [BinaryMappingStructure(targets=targets)], table,
                                      kappa=-50.0)


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
def test_binary_score_matrix_rejects_non_finite_kappa(kappa):
    rng = np.random.default_rng(12)
    table = CellTable(rng.random((2, 3, 2)), rng.random((2, 3, 2)), flat_model(2, 3))
    with pytest.raises(ValueError, match="kappa must be finite"):
        binary_structure_score_matrix(table.probe_images, table.gallery_images,
                                      [BinaryMappingStructure(targets=(0, 1, 1))], table, kappa)


def test_cell_table_rejects_a_metric_of_another_lattice():
    rng = np.random.default_rng(11)
    probe, gallery = rng.random((1, 4, 3)), rng.random((2, 6, 3))
    with pytest.raises(ValueError, match="4 probe patches for a 5-location metric"):
        CellTable(probe, gallery, flat_model(3, 5))
    with pytest.raises(ValueError, match="dimension"):
        CellTable(probe, gallery, flat_model(2, 4))
    with pytest.raises(ValueError, match="dimension"):
        CellTable(probe, gallery[:, :, :2], flat_model(3, 4))


def test_correlation_value_example_e_inverse():
    # phi = e^-1 and P = e^-1 combine to a correlation of exactly -2.
    probe_grid = GridSpec(4, 4, 4, 4, 1, 1)
    gallery_grid = GridSpec(4, 4, 4, 2, 2, 2)
    p = float(np.exp(-1.0))
    structure = CorrespondenceStructure(probs=np.array([[p, 1.0 - p]]),
                                        probe_grid=probe_grid, gallery_grid=gallery_grid)
    model = flat_model(1, 1)
    f_diff = np.sqrt(1.0)  # distance 1 under the identity metric, sigma 1
    corr = correlation_matrix(np.array([[f_diff]]), np.array([[0.0], [0.0]]),
                              structure, model, t_c=0.05)
    assert corr[0, 0] == pytest.approx(-2.0, abs=1e-12)


def test_correct_pair_table_needs_aligned_non_empty_stacks():
    model = flat_model(2, 3)
    for n_probe, n_gallery in ((2, 3), (0, 0)):
        table = CellTable(np.zeros((n_probe, 3, 2)), np.zeros((n_gallery, 4, 2)), model)
        with pytest.raises(ValueError):
            correct_pair_log_similarity(table)
