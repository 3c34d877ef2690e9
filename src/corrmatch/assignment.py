"""Globally constrained one-to-one patch assignment.

Maximizes the total correlation of a one-to-one pairing between probe rows
and gallery columns.  Excluded cells are non-assignable rather than merely
expensive; a probe row left unmatched (because its cells are all excluded,
or because better rows claim its columns) contributes the floor penalty
``kappa`` to the score.  The pairs returned are an optimal one-to-one set,
the score is their float sum taken in ascending row order, and which of
several tied optima is returned is unspecified.

The exact pass is one search of successive shortest augmenting paths
(Jonker & Volgenant, *Computing* 38, 1987) per (component, pair), in plain
Python (``_solve_pair``).  ``solve_assignment`` is that search on one
pair; ``score_gate`` splits a mask shared by many pairs into connected
components (a ``GatePlan``), settles each component whose greedy row picks
do not collide, settles every component of one-cell rows in one vectorized
pass, and passes the rest to the exact pass.  ``score_one_cell_gates``
scores many gates of one cell per row at once, to ``score_gate``'s totals.

Row maxima and greedy picks come from ``row_best_cells``, a scan over cell
slots whose maxima and first-index picks are exact.  Every path scores
pairs in chunks of one budget, ``_CHUNK_CELLS``, gathered straight from the
caller's values, so scoring holds those values plus one chunk however many
pairs share a gate.  A pair's total is its own row-order sum, so chunking
moves no bit.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from math import inf

import numpy as np

# Most entries one chunk holds: (cell, pair) entries, or (row, pair) where
# rows outnumber cells, in score_gate and greedy_scores; a component's
# (cell, pair) values in the exact pass.  2^18 keeps a test ranking's chunks
# under 2x its values; smaller budgets add numpy calls.
_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class Assignment:
    """One-to-one pairing (probe row, gallery column) plus its total score."""

    pairs: tuple[tuple[int, int], ...]
    score: float

    def __post_init__(self) -> None:
        rows = [i for i, _ in self.pairs]
        cols = [j for _, j in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("assignment must be one-to-one")


def solve_assignment(values: np.ndarray, *, kappa: float) -> Assignment:
    """Best one-to-one assignment for a correlation matrix.

    ``values`` is (n_rows, n_cols); cells valued -inf cannot be used.  The
    score sums chosen cell values plus ``kappa`` per unmatched row,
    accumulated in ascending row order; which of several tied optima is
    returned is unspecified.
    """
    check_kappa(kappa)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {values.shape}")
    assignable = ~np.isneginf(values)
    if values.size and not np.all(np.isfinite(values[assignable])):
        raise ValueError("assignable values must be finite")

    rows, cols = np.nonzero(assignable)
    bounds = np.concatenate(([0], np.cumsum(assignable.sum(axis=1))))
    match = _solve_exact(bounds, np.arange(len(values)), cols, values[rows, cols][:, None],
                         np.zeros(1, dtype=np.int64), kappa)[:, 0]
    pairs = tuple((i, int(cols[m])) for i, m in enumerate(match.tolist()) if m >= 0)
    score = 0.0
    for i, m in enumerate(match.tolist()):
        score += kappa if m < 0 else float(values[i, cols[m]])
    return Assignment(pairs=pairs, score=score)


@dataclass(frozen=True)
class GateCounts:
    """What scoring many pairs over one shared gate met."""

    components: int  # connected components of the gate that hold a cell
    solves: int      # clashing (component, pair) cases, solved or pruned
    cells: int       # cells of the gate
    gated_rows: int  # rows of the gate that hold a cell


@dataclass(frozen=True)
class GateScores(GateCounts):
    """Best assignment totals of many pairs scored over one shared gate."""

    totals: np.ndarray  # (n_pairs,) optimal score per pair


def score_gate(gate: np.ndarray, values: np.ndarray, kappa: float) -> GateScores:
    """Optimal assignment score of every pair that shares one assignable mask.

    ``gate`` is the (n_rows, n_cols) mask common to all pairs; ``values`` is
    (n_cells, n_pairs) with one row per gated cell in ``np.nonzero(gate)``
    order.  A row's contribution is the value of its cell in an optimal
    matching (``kappa`` when skipped), and contributions are summed in
    ascending row order, so each total equals ``solve_assignment(...).score``
    of that pair bit for bit, except where tied optima sum to totals an ulp
    apart: either side may then report either sum.  Only the score is
    computed (a column whose bidders hold no other cell goes to its first
    best bidder).  ``solves`` counts the clashing (component, pair) cases,
    each solved exactly.
    """
    plan = GatePlan(gate)
    totals, _, counts = plan.totals(plan.check(values), kappa)
    return GateScores(totals=totals, **vars(counts))


class GatePlan:
    """One gate's cells and components, worked out once for every pair
    that shares it.

    Scoring a pair starts from greedy picks: each row's best cell when it
    beats ``kappa``, else a skip.  They bound every row from above, so a
    component whose picks collide in no column is settled by them.  A
    component of one-cell rows all bids for one column, and its first best
    bidder above ``kappa`` takes it; those components are settled for every
    pair at once.  A pair whose picks collide in a component holding a
    multi-cell row is a clashing (component, pair) case, left to the exact
    pass.
    """

    def __init__(self, gate: np.ndarray):
        gate = np.asarray(gate, dtype=bool)
        if gate.ndim != 2:
            raise ValueError(f"expected a 2-d gate, got shape {gate.shape}")
        self.n_rows = gate.shape[0]
        rows, cols = np.nonzero(gate)
        self.cols = cols.astype(np.int32)
        self.bounds = np.concatenate(([0], np.cumsum(gate.sum(axis=1))))
        degree = np.diff(self.bounds)
        components = _gate_components(rows, self.cols, self.n_rows)
        self.n_components, single = len(components), np.zeros(self.n_rows, dtype=bool)
        for comp in components:
            single[comp] = (degree[comp] == 1).all()
        self.shared = [np.array(c) for c in components if len(c) > 1 and not single[c[0]]]
        # The shared components' rows, block after block, as positions among the
        # rows holding a cell, and a pick for each that no other row makes.
        shared_rows = np.concatenate([np.zeros(0, dtype=np.int64), *self.shared])
        self.shared_live = (np.cumsum(degree > 0) - 1)[shared_rows]
        self.skips = -1 - np.arange(len(self.shared_live), dtype=np.int32)[:, None]
        self.blocks = np.cumsum([0] + [len(c) for c in self.shared])
        # One-cell components' rows, grouped by column.
        cells = np.flatnonzero(single[rows])
        bidders, self.bidder_bounds = _column_groups(self.cols[cells])
        self.bidders = rows[cells[bidders]]
        self.n_cells, self.gated_rows = len(rows), int(np.count_nonzero(degree))

    def check(self, values: np.ndarray) -> np.ndarray:
        """``values`` as float64, checked against the gate's cells."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != self.n_cells:
            raise ValueError(f"expected ({self.n_cells}, n_pairs) values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("assignable values must be finite")
        return values

    def totals(self, values: np.ndarray, kappa: float,
               exact: bool = True) -> tuple[np.ndarray, np.ndarray, GateCounts]:
        """Row-order totals of every pair, the pairs with a clashing
        (component, pair) case, and the gate's counts.

        With ``exact`` each clashing case goes through the exact pass and
        the totals are optimal.  Without it a clashing component keeps its
        greedy picks, and the total bounds the optimal one from above, in
        floats too: each row adds at least as much, and rounded addition in
        one order is monotone.
        """
        check_kappa(kappa)
        totals = np.empty(values.shape[1])
        clashing = np.zeros(values.shape[1], dtype=bool)
        solves = 0
        for at, live, cell, best in row_best_cells(self.bounds, values):
            chosen = np.full((self.n_rows, len(at)), kappa)
            chosen[live] = _floored(best, kappa)
            chosen[self.bidders] = _first_best_bids(self.bidder_bounds, chosen[self.bidders], kappa)
            shared = self.shared_live
            picked = np.where(best[shared] > kappa, self.cols[cell[shared]], self.skips)
            for comp, lo, hi in zip(self.shared, self.blocks, self.blocks[1:]):
                picks = picked[lo:hi] if hi - lo == 2 else np.sort(picked[lo:hi], axis=0)
                clash = np.flatnonzero((picks[1:] == picks[:-1]).any(axis=0))
                solves += clash.size
                clashing[at[clash]] = True
                if exact and clash.size:
                    match = _solve_exact(self.bounds, comp, self.cols, values, at[clash], kappa)
                    chosen[np.ix_(comp, clash)] = np.where(
                        match < 0, kappa, values[match, at[clash]])
            totals[at] = sum(chosen, np.zeros(len(at)))  # ascending rows, as solve_assignment sums
        return totals, clashing, GateCounts(components=self.n_components, solves=solves,
                                            cells=self.n_cells, gated_rows=self.gated_rows)

    def feasible_totals(self, values: np.ndarray, kappa: float) -> np.ndarray:
        """Row-order totals of one feasible matching of every pair: each row
        takes its greedy pick, and a column that several rows pick goes to
        its first best bidder (``score_one_cell_gates``), the others
        skipping.  The matching is one-to-one, so a total is at most the
        optimal one, up to the rounding of the two sums."""
        n_pairs, n_cols = values.shape[1], int(self.cols.max(initial=-1)) + 1
        if not n_pairs:  # score_one_cell_gates takes at least one gate
            return np.zeros(0)
        picks = np.tile(n_cols + np.arange(self.n_rows), (n_pairs, 1))  # a cell-less row's own
        bids = np.full((n_pairs, self.n_rows), kappa)
        for at, live, cell, best in row_best_cells(self.bounds, values):
            picks[np.ix_(at, live)], bids[np.ix_(at, live)] = self.cols[cell].T, best.T
        return score_one_cell_gates(picks, bids.reshape(-1, 1), kappa)[:, 0]


def row_best_cells(bounds: np.ndarray,
                   values: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Each row's best cell, one chunk of pairs at a time.

    Row i holds cells ``bounds[i]:bounds[i + 1]`` of the (n_cells, n_pairs)
    ``values``.  Yields, per chunk of at most ``_CHUNK_CELLS`` (cell, pair)
    or (row, pair) entries: the indices of its pairs, the rows that hold a
    cell, the first cell holding each such row's largest value for every
    pair of the chunk (``argmax`` over the row's cells), and that value.
    A scan over cell slots: slot k of the rows holding more than k cells (a
    prefix, with rows by descending cell count) moves a row's pick only
    where it beats the running maximum, so the first of tied cells wins.
    """
    degree = np.diff(bounds)
    live = np.flatnonzero(degree)
    order = np.argsort(-degree[live], kind="stable")
    starts, sizes = bounds[live][order].astype(np.int32), degree[live][order]
    held = [np.count_nonzero(sizes > k) for k in range(1, sizes.max(initial=1))]
    restore = np.argsort(order)
    step = max(1, _CHUNK_CELLS // max(len(values), len(bounds) - 1, 1))
    for lo in range(0, values.shape[1], step):
        chunk = values[:, lo:lo + step]
        top, cell = chunk[starts], np.repeat(starts[:, None], chunk.shape[1], axis=1)
        for k, n in enumerate(held, 1):
            slot = chunk[starts[:n] + k]  # past every earlier pick: a maximum moves the pick
            np.maximum(cell[:n], (slot > top[:n]) * (starts[:n, None] + np.int32(k)), out=cell[:n])
            np.maximum(top[:n], slot, out=top[:n])
        cell, top = cell[restore], top[restore]
        zero = np.nonzero(top == 0.0)  # the maximum may hold the other zero's sign
        top[zero] = chunk[cell[zero], zero[1]]
        yield np.arange(lo, lo + chunk.shape[1]), live, cell, top


def _column_groups(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries sharing their column with another entry, grouped by column in
    entry order, and the bounds of the groups."""
    order = np.argsort(cols, kind="stable")
    count = np.bincount(cols)  # per column: np.unique would import numpy.ma
    return order[np.repeat(count > 1, count)], np.concatenate(([0], np.cumsum(count[count > 1])))


def _first_best_bids(bounds: np.ndarray, bids: np.ndarray, kappa: float) -> np.ndarray:
    """Bids grouped by column (``bounds`` as in ``row_best_cells``) with each
    group's first best bid kept and the others skipped at ``kappa``."""
    out = np.full(bids.shape, kappa)
    for pairs, _, cell, best in row_best_cells(bounds, bids):
        out[cell, pairs] = best
    return out


def _floored(values: np.ndarray, kappa: float) -> np.ndarray:
    """``np.where(values > kappa, values, kappa)``, from a maximum (about a
    sixth of np.where's time here) whose tie of two zeros may keep either
    sign, then kappa there."""
    out = np.maximum(values, kappa)
    if kappa == 0:
        out[out == 0] = kappa
    return out


def score_one_cell_gates(cols: np.ndarray, values: np.ndarray, kappa: float) -> np.ndarray:
    """``score_gate`` totals of many gates of one cell per row, bit for bit.

    Gate s's row i holds one cell, in column ``cols[s, i]``, valued at row
    s * n_rows + i of the (n_gates * n_rows, n_pairs) ``values``; returns
    (n_gates, n_pairs) totals.
    """
    check_kappa(kappa)
    n_gates, n_rows = cols.shape
    bidders, bounds = _column_groups((np.arange(n_gates)[:, None] * (cols.max(initial=0) + 1)
                                      + cols).ravel())
    totals = np.empty((n_gates, values.shape[1]))
    step = max(1, _CHUNK_CELLS // max(cols.size, 1))
    for lo in range(0, values.shape[1], step):
        chosen = _floored(values[:, lo:lo + step], kappa)
        chosen[bidders] = _first_best_bids(bounds, chosen[bidders], kappa)
        rows = chosen.reshape(n_gates, n_rows, -1).transpose(1, 0, 2)
        totals[:, lo:lo + step] = sum(rows, np.zeros(rows.shape[1:]))  # ascending rows
    return totals


def check_kappa(kappa: float) -> None:
    if not np.isfinite(kappa):  # a non-finite skip penalty makes every total non-finite
        raise ValueError(f"kappa must be finite, got {kappa}")


def _gate_components(rows: np.ndarray, cols: np.ndarray, n_rows: int) -> list[list[int]]:
    """Rows of each connected component of the gate's bipartite graph.

    Only components holding a cell are listed; rows come out ascending and
    components ordered by their first row.
    """
    parent = list(range(n_rows))

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    first_row: dict[int, int] = {}
    for r, c in zip(rows.tolist(), cols.tolist()):
        other = first_row.setdefault(c, r)
        a, b = find(r), find(other)
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for r in dict.fromkeys(rows.tolist()):
        groups.setdefault(find(r), []).append(r)
    return list(groups.values())


def _solve_exact(bounds: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray, pairs: np.ndarray, kappa: float) -> np.ndarray:
    """Cell each of ``rows`` takes in an optimal matching of each of
    ``pairs``, -1 for a skip.

    Row i holds cells ``bounds[i]:bounds[i + 1]``: their columns, ascending
    within the row, in ``cols`` and their (n_cells, n_pairs) values in
    ``values``.  The rows' cells are gathered for a chunk of pairs at a
    time, and each pair is one ``_solve_pair`` search.
    """
    bounds = bounds.tolist()
    spans = [range(bounds[r], bounds[r + 1]) for r in rows.tolist()]
    cells = np.array([c for span in spans for c in span], dtype=np.int64)
    labels = (np.cumsum(np.bincount(cols[cells]) > 0) - 1)[cols[cells]].tolist()  # column ranks
    n_cols = max(labels, default=-1) + 1
    starts = accumulate(map(len, spans), initial=0)
    edges = [[(k, labels[k], c) for k, c in enumerate(span, start)]
             for start, span in zip(starts, spans)]
    match = np.full((len(spans), len(pairs)), -1)
    step = max(1, _CHUNK_CELLS // max(len(cells), 1))
    for lo in range(0, len(pairs), step):
        chunk = values[np.ix_(cells, pairs[lo:lo + step])]
        for j in range(chunk.shape[1]):
            match[:, lo + j] = _solve_pair(edges, n_cols, chunk[:, j].tolist(), kappa)
    return match


def _solve_pair(edges: list[list[tuple[int, int, int]]], n_cols: int,
                values: list[float], kappa: float) -> list[int]:
    """Cell each row takes in an optimal matching of one pair, -1 for a skip.

    ``edges[i]`` lists row i's cells as (index into ``values``, column,
    cell), columns ascending.  Cells at or below ``kappa`` are dropped,
    since skipping the row scores at least as well.  A cell costs ``shift -
    value``, ``shift`` being the largest of ``values`` and ``kappa``, so no
    cost is negative; row i's skip is column ``n_cols + i``, private to it
    and priced at ``shift - kappa``, so a complete matching exists.  Warm
    start: u holds each row's cheapest cost, v is 0 and rows take their
    first cheapest column in row order.  Each row left out roots one
    Dijkstra search over reduced costs, which pops the nearest column (the
    lowest on ties); the duals move once per augmentation.
    """
    shift = max(kappa, max(values, default=kappa))
    costs = [[(shift - values[k], col, cell) for k, col, cell in row if values[k] > kappa]
             + [(shift - kappa, n_cols + i, -1)] for i, row in enumerate(edges)]
    n_all = n_cols + len(costs)
    owner = [-1] * n_all  # the row holding each column
    taken, chosen, u = [-1] * len(costs), [-1] * len(costs), []  # each row's column and cell
    for i, row in enumerate(costs):
        cost, col, cell = min(row)
        u.append(cost)
        if owner[col] < 0:
            owner[col], taken[i], chosen[i] = i, col, cell
    v, pred = [0.0] * n_all, [(-1, -1)] * n_all
    for root in [i for i, col in enumerate(taken) if col < 0]:
        reach, done = [inf] * n_all, [False] * n_all
        seen, popped, heap = [], [], []  # (row, distance it joined at), (column, distance)
        row, dist = root, 0.0
        while row >= 0:  # relax the row that joined, then pop the nearest open column
            seen.append((row, dist))
            for cost, col, cell in costs[row]:
                step = dist + (cost - u[row] - v[col])
                if step < reach[col] and not done[col]:
                    reach[col], pred[col] = step, (row, cell)
                    heappush(heap, (step, col))
            dist, col = heappop(heap)
            while done[col]:  # a column popped before at a shorter distance
                dist, col = heappop(heap)
            done[col], row = True, owner[col]
            popped.append((col, dist))
        for r, joined in seen:
            u[r] += dist - joined
        for c, at in popped[:-1]:  # not the free column the path ends at
            v[c] -= dist - at
        while col >= 0:  # flip the path back to the root, the one row without a column
            row, cell = pred[col]
            prev = taken[row]
            owner[col], taken[row], chosen[row] = row, col, cell
            col = prev
    return chosen
