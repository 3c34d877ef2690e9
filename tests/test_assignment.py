import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrmatch import assignment
from corrmatch.assignment import Assignment, score_gate, solve_assignment
from corrmatch.matching import greedy_scores

from oracles import brute_force_best, dp_best_score

KAPPA = -50.0


def assert_pairs_give_score(res, values, assignable, kappa):
    """The pairs are one-to-one and assignable, and their row-order sum
    (``kappa`` per skipped row) is the score bit for bit."""
    rows = [i for i, _ in res.pairs]
    cols = [j for _, j in res.pairs]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    assert all(assignable[i, j] for i, j in res.pairs)
    chosen = dict(res.pairs)
    total = 0.0
    for i in range(values.shape[0]):
        total += values[i, chosen[i]] if i in chosen else kappa
    assert total == res.score


def test_diagonal_dominance():
    res = solve_assignment(np.array([[0.0, -1.0], [-1.0, 0.0]]), kappa=KAPPA)
    assert res.pairs == ((0, 0), (1, 1))
    assert res.score == 0.0


def test_anti_diagonal():
    res = solve_assignment(np.array([[-1.0, 0.0], [0.0, -1.0]]), kappa=KAPPA)
    assert res.pairs == ((0, 1), (1, 0))
    assert res.score == 0.0


def test_empty_matrix():
    res = solve_assignment(np.zeros((0, 5)), kappa=KAPPA)
    assert res.pairs == ()
    assert res.score == 0.0


def test_all_rows_excluded():
    values = np.full((3, 4), -np.inf)
    res = solve_assignment(values, kappa=KAPPA)
    assert res.pairs == ()
    assert res.score == 3 * KAPPA


def test_partially_excluded_row():
    values = np.array([[-1.0, -np.inf], [-np.inf, -np.inf]])
    res = solve_assignment(values, kappa=KAPPA)
    assert res.pairs == ((0, 0),)
    assert res.score == -1.0 + KAPPA


def test_conflict_forces_one_row_unmatched():
    # Both rows can only use column 0; the better row wins, the other skips.
    values = np.array([[-2.0, -np.inf], [-1.0, -np.inf]])
    res = solve_assignment(values, kappa=KAPPA)
    assert res.pairs == ((1, 0),)
    assert res.score == KAPPA + -1.0


def test_kappa_preferred_over_worse_cell():
    # A cell below the floor penalty is not worth matching.
    values = np.array([[-80.0]])
    res = solve_assignment(values, kappa=KAPPA)
    assert res.pairs == ()
    assert res.score == KAPPA


def test_one_to_one_validation():
    with pytest.raises(ValueError):
        Assignment(pairs=((0, 1), (1, 1)), score=0.0)


def _random_instance(rng):
    n_rows = rng.integers(1, 8)
    n_cols = rng.integers(n_rows, 10)
    values = -10.0 * rng.random((n_rows, n_cols))
    assignable = rng.random((n_rows, n_cols)) > 0.25
    values = np.where(assignable, values, -np.inf)
    return values, assignable


def test_matches_enumeration_oracle_small():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n_rows = rng.integers(1, 5)
        n_cols = rng.integers(n_rows, 6)
        values = -10.0 * rng.random((n_rows, n_cols))
        assignable = rng.random((n_rows, n_cols)) > 0.3
        values = np.where(assignable, values, -np.inf)
        expect_pairs, expect_score = brute_force_best(values, assignable, KAPPA)
        res = solve_assignment(values, assignable, kappa=KAPPA)
        assert res.score == expect_score
        assert res.pairs == expect_pairs


def test_matches_dp_oracle_medium():
    rng = np.random.default_rng(12)
    for _ in range(200):
        values, assignable = _random_instance(rng)
        res = solve_assignment(values, assignable, kappa=KAPPA)
        assert res.score == dp_best_score(values, assignable, KAPPA)


def test_oracles_agree_with_each_other():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n_rows = rng.integers(1, 4)
        n_cols = rng.integers(n_rows, 5)
        values = np.where(rng.random((n_rows, n_cols)) > 0.3,
                          -5.0 * rng.random((n_rows, n_cols)), -np.inf)
        assignable = np.isfinite(values)
        _, expect = brute_force_best(values, assignable, KAPPA)
        assert dp_best_score(values, assignable, KAPPA) == expect


def test_tied_matrix_returns_an_optimum():
    # All-zero matrices make every complete matching optimal.
    for shape in ((2, 2), (2, 3)):
        values = np.zeros(shape)
        assignable = np.ones(shape, dtype=bool)
        res = solve_assignment(values, kappa=KAPPA)
        assert res.score == brute_force_best(values, assignable, KAPPA)[1] == 0.0
        assert_pairs_give_score(res, values, assignable, KAPPA)


def test_tied_optima_match_enumeration_score():
    # Duplicated columns and quantized values produce frequent exact ties.
    rng = np.random.default_rng(14)
    for _ in range(200):
        n_rows = rng.integers(1, 4)
        n_cols = rng.integers(n_rows, 5)
        values = -1.0 * rng.integers(0, 3, size=(n_rows, n_cols)).astype(float)
        assignable = rng.random((n_rows, n_cols)) > 0.25
        values = np.where(assignable, values, -np.inf)
        res = solve_assignment(values, assignable, kappa=KAPPA)
        assert res.score == brute_force_best(values, assignable, KAPPA)[1]
        assert res.score == dp_best_score(values, assignable, KAPPA)
        assert_pairs_give_score(res, values, assignable, KAPPA)


def test_cells_tied_with_kappa():
    # kappa equal to the only cell values: matching and skipping tie.
    values = np.array([[-50.0, -np.inf], [-np.inf, -50.0]])
    assignable = ~np.isneginf(values)
    res = solve_assignment(values, kappa=-50.0)
    assert res.score == brute_force_best(values, assignable, -50.0)[1] == -100.0
    assert_pairs_give_score(res, values, assignable, -50.0)


def test_tied_optima_whose_sums_round_apart():
    # (0, 0), (1, 1) and (0, 0), (2, 1) tie in exact arithmetic, but their
    # row-order sums differ by one ulp: either may be returned.
    values = np.array([[-1.9, -np.inf], [-np.inf, -0.8], [-np.inf, -0.8]])
    assignable = ~np.isneginf(values)
    res = solve_assignment(values, kappa=KAPPA)
    best = brute_force_best(values, assignable, KAPPA)[1]
    assert abs(res.score - best) <= np.spacing(abs(best))
    assert res.score in ((-1.9 + -0.8) + KAPPA, (-1.9 + KAPPA) + -0.8)
    assert_pairs_give_score(res, values, assignable, KAPPA)


def test_score_monotone_in_single_cell():
    rng = np.random.default_rng(15)
    for _ in range(50):
        values, assignable = _random_instance(rng)
        base = solve_assignment(values, assignable, kappa=KAPPA).score
        cells = np.argwhere(assignable)
        if cells.size == 0:
            continue
        r, c = cells[rng.integers(len(cells))]
        bumped = values.copy()
        bumped[r, c] += 5.0 * rng.random()
        assert solve_assignment(bumped, assignable, kappa=KAPPA).score >= base


def test_permutation_equivariance():
    rng = np.random.default_rng(16)
    for _ in range(50):
        values, assignable = _random_instance(rng)
        n_cols = values.shape[1]
        perm = rng.permutation(n_cols)
        res = solve_assignment(values, assignable, kappa=KAPPA)
        permuted = solve_assignment(values[:, perm], assignable[:, perm], kappa=KAPPA)
        assert permuted.score == pytest.approx(res.score, abs=1e-12)
        # Mapping the permuted pairs back must land on an optimal pair set.
        back = tuple(sorted((i, int(perm[j])) for i, j in permuted.pairs))
        total = sum(values[i, j] for i, j in back) + KAPPA * (values.shape[0] - len(back))
        assert total == pytest.approx(res.score, abs=1e-12)


def test_rejects_nan_values():
    with pytest.raises(ValueError):
        solve_assignment(np.array([[np.nan]]), kappa=KAPPA)


# ------------------------------------------------------ batched scoring

@st.composite
def gate_instances(draw):
    """A shared gate, per-pair cell values and kappa on a quarter-step grid.

    The grid keeps every sum exact and makes tied cells and cells equal to
    kappa common; sparse masks split into several components and leave
    some rows with no cell at all.
    """
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    n_pairs = draw(st.integers(1, 4))
    flags = draw(st.lists(st.booleans(), min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols))
    gate = np.array(flags, dtype=bool).reshape(n_rows, n_cols)
    n_cells = int(gate.sum())
    quarters = draw(st.lists(st.integers(-8, 0), min_size=n_cells * n_pairs,
                             max_size=n_cells * n_pairs))
    values = np.array(quarters, dtype=np.float64).reshape(n_cells, n_pairs) / 4.0
    kappa = draw(st.integers(-8, 0)) / 4.0
    return gate, values, kappa


# Two components, one with a clash the greedy picks cannot settle, tied
# cells, an all-excluded row, and cells equal to and below kappa.
@example((np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]], dtype=bool),
          np.array([[-1.0, -2.0], [-1.0, -0.5], [-0.5, -1.0], [-1.5, -0.75],
                    [-0.5, -0.5], [-1.0, -0.5]]), -1.0))
@settings(max_examples=300, deadline=None)
@given(gate_instances())
def test_score_gate_matches_per_pair_solvers(instance):
    gate, values, kappa = instance
    scored = score_gate(gate, values, kappa)
    for p in range(values.shape[1]):
        dense = np.full(gate.shape, -np.inf)
        dense[gate] = values[:, p]
        res = solve_assignment(dense, gate, kappa=kappa)
        assert scored.totals[p] == res.score
        assert scored.totals[p] == dp_best_score(dense, gate, kappa)
        assert_pairs_give_score(res, dense, gate, kappa)


def test_score_gate_counts_components_and_exact_solves():
    # Rows 0-1 share columns 0-1; row 2 alone owns column 3; row 3 has no cell.
    gate = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=bool)
    # Cells in row order: (0,0), (0,1), (1,0), (2,3); one column per pair.
    values = np.array([[-1.0, -2.0], [-2.0, -1.0], [-1.0, -1.0], [-3.0, -3.0]])
    scored = score_gate(gate, values, kappa=KAPPA)
    assert scored.components == 2
    assert scored.solves == 1  # pair 0: rows 0 and 1 both pick column 0
    assert scored.totals.tolist() == [-2.0 - 1.0 - 3.0 + KAPPA, -1.0 - 1.0 - 3.0 + KAPPA]


def test_score_gate_single_column_component_tie():
    # Row 0 owns column 0; rows 1-3 hold one cell each, all on column 1.
    gate = np.array([[1, 0], [0, 1], [0, 1], [0, 1]], dtype=bool)
    # Pair 0: rows 1 and 2 tie for column 1.  Pair 1: row 3 outbids both.
    values = np.array([[-1.5, -0.25], [-0.75, -1.0], [-0.75, -0.75], [-2.0, -0.5]])
    scored = score_gate(gate, values, kappa=KAPPA)
    assert scored.components == 2
    assert scored.solves == 0  # settled without an exact solve
    assert scored.totals.tolist() == [-1.5 - 0.75 + 2 * KAPPA, -0.25 + 2 * KAPPA - 0.5]
    for p in range(values.shape[1]):
        dense = np.full(gate.shape, -np.inf)
        dense[gate] = values[:, p]
        assert scored.totals[p] == solve_assignment(dense, gate, kappa=KAPPA).score
        assert scored.totals[p] == dp_best_score(dense, gate, KAPPA)


def test_score_gate_single_column_tie_goes_to_first_row():
    # -1.9 + -0.8 + kappa and -1.9 + kappa + -0.8 differ in the last bit, so
    # the row-order total shows which of the tied rows took the column: the
    # first one.  The per-pair solver may return either tied optimum, so it
    # lands within one ulp of this total.
    gate = np.array([[1, 0], [0, 1], [0, 1]], dtype=bool)
    values = np.array([[-1.9], [-0.8], [-0.8]])
    total = score_gate(gate, values, kappa=KAPPA).totals[0]
    assert (-1.9 + -0.8) + KAPPA != (-1.9 + KAPPA) + -0.8
    assert total == (-1.9 + -0.8) + KAPPA
    dense = np.array([[-1.9, -np.inf], [-np.inf, -0.8], [-np.inf, -0.8]])
    assert total == pytest.approx(solve_assignment(dense, gate, kappa=KAPPA).score,
                                  rel=1e-15)


def test_score_gate_rejects_bad_values():
    gate = np.array([[True, False]])
    with pytest.raises(ValueError):
        score_gate(gate, np.zeros((2, 1)), KAPPA)
    with pytest.raises(ValueError):
        score_gate(gate, np.array([[np.nan]]), KAPPA)


# ------------------------------------------------------ the exact pass

@st.composite
def clashing_gates(draw):
    """Gates whose rows each hold two or more of a few shared columns.

    Components then span several multi-cell rows, and quarter-step values
    make greedy picks collide often, so most pairs reach the exact pass.
    Values run from -2 to 0 and kappa from -2 to -0.5: many cells sit at or
    below kappa.
    """
    n_rows = draw(st.integers(2, 6))
    n_cols = draw(st.integers(2, 5))
    gate = np.zeros((n_rows, n_cols), dtype=bool)
    for i in range(n_rows):
        gate[i, draw(st.lists(st.integers(0, n_cols - 1), min_size=2, unique=True))] = True
    n_pairs = draw(st.integers(1, 6))
    n_cells = int(gate.sum())
    quarters = draw(st.lists(st.integers(-8, 0), min_size=n_cells * n_pairs,
                             max_size=n_cells * n_pairs))
    values = np.array(quarters, dtype=np.float64).reshape(n_cells, n_pairs) / 4.0
    return gate, values, draw(st.integers(-8, -2)) / 4.0


def assert_gate_totals_are_optimal(gate, values, kappa):
    scored = score_gate(gate, values, kappa)
    for p in range(values.shape[1]):
        dense = np.full(gate.shape, -np.inf)
        dense[gate] = values[:, p]
        assert scored.totals[p] == dp_best_score(dense, gate, kappa)
    return scored


@pytest.mark.parametrize("chunk_cells", [1 << 20, assignment._CHUNK_CELLS, 1])
@settings(max_examples=200, deadline=None)
@given(clashing_gates())
def test_exact_pass_matches_dp_oracle(chunk_cells, instance):
    # 2^20 cells hold every generated case in one chunk; a budget of one
    # cell puts every pair in its own chunk, so chunk boundaries fall inside
    # every (component, pairs) block.
    with mock.patch.object(assignment, "_CHUNK_CELLS", chunk_cells):
        assert_gate_totals_are_optimal(*instance)


def test_exact_pass_on_banded_gate():
    # 12 rows x 14 columns, row i holding columns i, i+1 and i+2: one
    # component whose greedy picks mostly collide.
    n_rows, n_pairs, kappa = 12, 16, -1.5
    gate = np.zeros((n_rows, n_rows + 2), dtype=bool)
    for i in range(n_rows):
        gate[i, i:i + 3] = True
    values = np.random.default_rng(0).integers(-8, 1, size=(3 * n_rows, n_pairs)) / 4.0
    best = values.reshape(n_rows, 3, n_pairs)
    picks = np.where(best.max(axis=1) > kappa,
                     np.arange(n_rows)[:, None] + best.argmax(axis=1),
                     -1 - np.arange(n_rows)[:, None])
    colliding = (picks[:, None] == picks[None]).sum(axis=1) > 1
    assert colliding.mean() > 0.3
    for chunk_cells in (assignment._CHUNK_CELLS, 100):
        with mock.patch.object(assignment, "_CHUNK_CELLS", chunk_cells):
            scored = assert_gate_totals_are_optimal(gate, values, kappa)
        assert scored.components == 1 and scored.solves == n_pairs
    for p in range(n_pairs):
        dense = np.full(gate.shape, -np.inf)
        dense[gate] = values[:, p]
        res = solve_assignment(dense, kappa=kappa)
        assert res.score == dp_best_score(dense, gate, kappa) == scored.totals[p]
        assert_pairs_give_score(res, dense, gate, kappa)


# ------------------------------------------------------ pair chunks

@st.composite
def shared_column_gates(draw):
    """Gates of one-cell rows on one or two columns: components whose rows
    all bid for one column, settled without the exact pass."""
    n_rows = draw(st.integers(2, 6))
    gate = np.zeros((n_rows, 2), dtype=bool)
    gate[np.arange(n_rows), draw(st.lists(st.integers(0, 1), min_size=n_rows,
                                          max_size=n_rows))] = True
    n_pairs = draw(st.integers(1, 9))
    quarters = draw(st.lists(st.integers(-8, 0), min_size=n_rows * n_pairs,
                             max_size=n_rows * n_pairs))
    values = np.array(quarters, dtype=np.float64).reshape(n_rows, n_pairs) / 4.0
    return gate, values, draw(st.integers(-8, 0)) / 4.0


# Rows 1-3 bid for column 1: a tie in pair 0, cells at and below kappa.
@example((np.array([[1, 0], [0, 1], [0, 1], [0, 1]], dtype=bool),
          np.array([[-1.5, -0.25, -1.0], [-0.75, -1.0, -0.5], [-0.75, -0.75, -2.0],
                    [-2.0, -0.5, -0.5]]), -0.75))
@settings(max_examples=200, deadline=None)
@given(st.one_of(gate_instances(), clashing_gates(), shared_column_gates()))
def test_chunk_budget_moves_no_bit(instance):
    # Budgets of 1 and 7 entries cut the pairs into chunks of one or a few;
    # the default holds every generated case in one chunk.
    gate, values, kappa = instance
    runs = []
    for chunk_cells in (assignment._CHUNK_CELLS, 7, 1):
        with mock.patch.object(assignment, "_CHUNK_CELLS", chunk_cells):
            runs.append((score_gate(gate, values, kappa), greedy_scores(gate, values, kappa)))
    (first, first_greedy), *rest = runs
    for scored, greedy in rest:
        assert np.array_equal(scored.totals, first.totals)
        assert np.array_equal(greedy, first_greedy)
        assert ((scored.components, scored.solves, scored.cells, scored.gated_rows)
                == (first.components, first.solves, first.cells, first.gated_rows))
    assert all(type(n) is int for n in (first.components, first.solves, first.cells,
                                        first.gated_rows))


def test_score_gate_memory_is_bounded_by_its_values():
    # The shape of a test ranking: 84 rows of about 7 cells in overlapping
    # column bands (one component), scored for 900 pairs.  Rows' best cells
    # collide in most pairs, so most pairs reach the exact pass.
    rng = np.random.default_rng(5)
    gate = np.zeros((84, 297), dtype=bool)
    for i in range(84):
        gate[i, 3 * i + rng.choice(11, size=7, replace=False)] = True
    values = rng.normal(-16.0, 8.0, size=(int(gate.sum()), 900))
    tracemalloc.start()
    try:
        scored = score_gate(gate, values, KAPPA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scored.components == 1 and scored.solves > 450
    assert peak < 3 * values.nbytes
