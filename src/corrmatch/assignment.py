"""Globally constrained one-to-one patch assignment.

Maximizes the total correlation of a one-to-one pairing between probe rows
and gallery columns.  Excluded cells are non-assignable rather than merely
expensive; a probe row left unmatched (because its cells are all excluded,
or because better rows claim its columns) contributes the floor penalty
``kappa`` to the score.  The pairs returned are an optimal one-to-one set,
the score is their float sum taken in ascending row order, and which of
several tied optima is returned is unspecified.

One exact pass runs successive shortest augmenting paths (Jonker &
Volgenant, *Computing* 38, 1987) in numpy over many pairs at once.  A row
keeps a padded list of its edges (cells above ``kappa``) and a private
"skip" slot priced at ``kappa``, so a complete row assignment always exists.
A warm start gives each row its cheapest edge in row order; only rows whose
column is taken root a Dijkstra search, whose steps relax just the popped
row's edges.  ``solve_assignment`` is that pass on one pair;
``score_gate`` splits a mask shared by many pairs into connected components
(a ``GatePlan``), settles each component whose greedy row picks do not
collide, settles every component of one-cell rows in one vectorized pass,
and passes the rest to the exact pass.  ``score_one_cell_gates`` scores
many gates of one cell per row at once, to ``score_gate``'s totals.

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

import numpy as np

# Most entries one chunk holds: (cell, pair) entries, or (row, pair) where
# rows outnumber cells, in score_gate and greedy_scores; (pair, row, slot)
# cost cells plus (pair, column) search cells in the exact pass.  2^18 keeps
# a test ranking's chunks under 2x its values; smaller budgets add search steps.
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
    count = np.unique(cols[order], return_counts=True)[1]
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
    ``values``.  Cells at or below ``kappa`` are dropped, since skipping the
    row scores at least as well.  A cell costs ``shift - value``, ``shift``
    being the pair's largest value or ``kappa``, so no cost is negative.
    """
    n_rows, first = len(rows), bounds[rows]
    degree = bounds[rows + 1] - first
    match = np.full((n_rows, len(pairs)), -1)
    if not degree.any():
        return match
    slots = np.arange(int(degree.max()) + 1)  # the last slot is the row's skip
    real = slots < degree[:, None]
    slot_cell = np.where(real, first[:, None] + slots, -1)
    labels = np.unique(cols[slot_cell[real]], return_inverse=True)[1]
    n_cols = int(labels.max()) + 1
    pad = n_cols + n_rows  # the column of every unused slot; it is never reached
    slot_col = np.full(real.shape, pad)
    slot_col[real] = labels
    slot_col[:, -1] = n_cols + np.arange(n_rows)
    # A pair's chunk share: its cost cells and one search cell per column.
    step = max(1, _CHUNK_CELLS // (slot_col.size + pad + 1))
    for lo in range(0, len(pairs), step):
        cost = values[slot_cell, pairs[lo:lo + step, None, None]]  # (pairs, rows, slots)
        shift = np.max(cost, axis=(1, 2), initial=kappa, where=real)[:, None, None]
        no_edge = (cost <= kappa) | ~real
        np.subtract(shift, cost, out=cost)  # in place: the values are not needed again
        cost[no_edge] = np.inf
        cost[:, :, -1] = shift[:, :, 0] - kappa
        taken = _shortest_paths(cost, slot_col, pad + 1)[:, :, None]
        match[:, lo:lo + step] = slot_cell[np.arange(n_rows), (slot_col == taken).argmax(axis=2)].T
    return match


def _shortest_paths(cost: np.ndarray, slot_col: np.ndarray, n_cols: int) -> np.ndarray:
    """Min-cost complete matching of rows onto columns for every pair.

    ``cost`` is (n_pairs, n_rows, n_slots), inf where a slot holds no edge,
    and ``slot_col`` gives each slot's column; a column private to each row
    makes a complete matching exist.  Warm start: u holds each row's
    cheapest cost, v is 0 and rows take their cheapest column in row order.
    Each row left out roots one Dijkstra search over reduced costs; a step
    pops the nearest column (the lowest on ties) of every live search.
    Returns the (n_pairs, n_rows) column of each row.
    """
    n_pairs, n_rows, _ = cost.shape
    every = np.arange(n_pairs)
    u = cost.min(axis=2)
    cheapest = slot_col[np.arange(n_rows), cost.argmin(axis=2)]
    match_row = np.full((n_pairs, n_cols), -1, dtype=np.int32)
    match_col = np.full((n_pairs, n_rows), -1)
    for i in range(n_rows):
        free = every[match_row[every, cheapest[:, i]] < 0]
        match_row[free, cheapest[free, i]] = i
        match_col[free, i] = cheapest[free, i]
    pending = match_col < 0
    v = np.zeros((n_pairs, n_cols))
    dist = np.zeros((n_pairs, n_cols))  # where done: the distance a column was popped at
    reach = np.full((n_pairs, n_cols), np.inf)  # where not done: the best distance so far
    done = np.zeros((n_pairs, n_cols), dtype=bool)
    pred = np.zeros((n_pairs, n_cols), dtype=np.int32)
    reached = np.zeros((n_pairs, n_rows))  # distance at which a row joined
    seen = np.zeros((n_pairs, n_rows), dtype=bool)
    # Flat views: a (pair, column) cell is pair * n_cols + column in each.
    flat_v, flat_dist, flat_reach, flat_done, flat_pred, flat_match = (
        a.reshape(-1) for a in (v, dist, reach, done, pred, match_row))

    def relax(p, r, d):  # the searches of pairs p reach row r at distance d
        reached[p, r], seen[p, r] = d, True
        at = (p * n_cols)[:, None] + slot_col[r]
        step = d[:, None] + (cost[p, r] - u[p, r][:, None] - flat_v[at])
        hit = np.nonzero((step < flat_reach[at]) & ~flat_done[at])
        flat_reach[at[hit]], flat_pred[at[hit]] = step[hit], r[hit[0]]

    def start(p):  # the next search of pairs p, from their first pending row
        r = pending[p].argmax(axis=1)
        pending[p, r] = False
        reach[p], done[p], seen[p] = np.inf, False, False
        relax(p, r, np.zeros(len(p)))

    live = every[pending.any(axis=1)]
    start(live)
    while live.size:
        col = reach[live].argmin(axis=1)
        at = live * n_cols + col
        popped = flat_reach[at]
        flat_dist[at], flat_reach[at], flat_done[at] = popped, np.inf, True
        row = flat_match[at]
        grow = row >= 0
        relax(live[grow], row[grow], popped[grow])
        if grow.all():
            continue
        p, col = live[~grow], col[~grow]
        # Potentials move once per augmentation, then the path flips.
        delta = popped[~grow][:, None]
        u[p] = np.where(seen[p], u[p] + (delta - reached[p]), u[p])
        done[p, col] = False
        v[p] = np.where(done[p], v[p] - (delta - dist[p]), v[p])
        finished = p
        while p.size:
            row = pred[p, col]
            prev = match_col[p, row]
            match_row[p, col], match_col[p, row] = row, col
            on = prev >= 0  # only the root had no column
            p, col = p[on], prev[on]
        again = finished[pending[finished].any(axis=1)]
        start(again)
        live = np.concatenate((live[grow], again))
    return match_col
