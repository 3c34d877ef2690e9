"""Globally constrained one-to-one patch assignment.

Maximizes the total correlation of a one-to-one pairing between probe rows
and gallery columns.  Excluded cells are non-assignable rather than merely
expensive; a probe row left unmatched (because its cells are all excluded,
or because better rows claim its columns) contributes the floor penalty
``kappa`` to the score.  The pairs returned are an optimal one-to-one set,
the score is their float sum taken in ascending row order, and which of
several tied optima is returned is unspecified.

The solver runs successive shortest augmenting paths (Jonker & Volgenant,
*Computing* 38, 1987) over a sparse edge list, with a private "skip" slot
per row priced at ``kappa`` so a complete row assignment always exists.
``score_gate`` scores many pairs that share one assignable mask at once: it
splits the mask into connected components, settles every component whose
greedy row picks do not collide or whose rows all bid for one shared
column, and solves only the rest exactly.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

_INF = float("inf")


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


def solve_assignment(values: np.ndarray, assignable: np.ndarray | None = None, *,
                     kappa: float) -> Assignment:
    """Best one-to-one assignment for a correlation matrix.

    ``values`` is (n_rows, n_cols); cells where ``assignable`` is False (or
    where values are -inf when no mask is given) cannot be used.  The score
    sums chosen cell values plus ``kappa`` per unmatched row, accumulated in
    ascending row order; which of several tied optima is returned is
    unspecified.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {values.shape}")
    if assignable is None:
        assignable = ~np.isneginf(values)
    else:
        assignable = np.asarray(assignable, dtype=bool)
        if assignable.shape != values.shape:
            raise ValueError("assignable mask shape mismatch")
    if values.size and not np.all(np.isfinite(values[assignable])):
        raise ValueError("assignable values must be finite")

    rows = [list(zip(np.flatnonzero(mask).tolist(), vals[mask].tolist()))
            for mask, vals in zip(assignable, values)]
    match = _shortest_path_matching(rows, values.shape[1], kappa)
    pairs = tuple((i, j) for i, j in enumerate(match) if j >= 0)
    score = 0.0
    for i, j in enumerate(match):
        score += kappa if j < 0 else float(values[i, j])
    return Assignment(pairs=pairs, score=score)


@dataclass(frozen=True)
class GateScores:
    """Best assignment totals of many pairs scored over one shared gate."""

    totals: np.ndarray  # (n_pairs,) optimal score per pair
    components: int     # connected components of the gate that hold a cell
    solves: int         # (component, pair) cases solved exactly


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
    best bidder).
    """
    gate = np.asarray(gate, dtype=bool)
    values = np.asarray(values, dtype=np.float64)
    if gate.ndim != 2:
        raise ValueError(f"expected a 2-d gate, got shape {gate.shape}")
    rows, cols = np.nonzero(gate)
    if values.ndim != 2 or values.shape[0] != len(rows):
        raise ValueError(f"expected ({len(rows)}, n_pairs) values, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("assignable values must be finite")

    n_rows, n_pairs = gate.shape[0], values.shape[1]
    bounds = np.concatenate(([0], np.cumsum(gate.sum(axis=1))))
    every_pair = np.arange(n_pairs)
    # Greedy picks: each row's best cell when it beats kappa, else a skip.
    # They bound every row from above, so collision-free picks are optimal.
    chosen = np.full((n_rows, n_pairs), kappa)
    picked = np.full((n_rows, n_pairs), -1, dtype=np.int64)
    for i in range(n_rows):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        cell = lo + values[lo:hi].argmax(axis=0)
        best = values[cell, every_pair]
        take = best > kappa
        chosen[i] = np.where(take, best, kappa)
        picked[i] = np.where(take, cols[cell], -1)

    components = _gate_components(rows, cols, n_rows)
    single_cell = np.diff(bounds) == 1
    solves = 0
    for comp in components:
        if len(comp) < 2:
            continue
        skips = -1 - np.arange(len(comp))[:, None]  # distinct per row, never collide
        picks = np.sort(np.where(picked[comp] < 0, skips, picked[comp]), axis=0)
        clash = np.flatnonzero((picks[1:] == picks[:-1]).any(axis=0))
        if not clash.size:
            continue
        if single_cell[comp].all():
            # One shared column: its best bidder (the first row on a tie)
            # takes it; the rest skip.
            bids = values[bounds[comp]][:, clash]
            won = np.arange(len(comp))[:, None] == bids.argmax(axis=0)
            chosen[np.ix_(comp, clash)] = np.where(won, bids, kappa)
        else:
            solves += clash.size
            _solve_component(comp, bounds, cols, values, clash, kappa, chosen)

    totals = np.zeros(n_pairs)
    for contribution in chosen:  # ascending rows, as solve_assignment sums
        totals += contribution
    return GateScores(totals=totals, components=len(components), solves=solves)


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


def _solve_component(comp, bounds, cols, values, pairs, kappa, chosen) -> None:
    """Exact score-only solve of one gate component for the listed pairs.

    Writes each row's contribution into ``chosen``.  Cells at or below
    ``kappa`` are dropped: skipping the row scores at least as well.
    """
    spans = [(int(bounds[r]), int(bounds[r + 1])) for r in comp]
    cells = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
    local = {c: k for k, c in enumerate(sorted(set(cols[cells].tolist())))}
    local_cols = [local[c] for c in cols[cells].tolist()]
    offsets = np.cumsum([0] + [hi - lo for lo, hi in spans]).tolist()
    for p, vals in zip(pairs.tolist(), values[cells][:, pairs].T.tolist()):
        edges = [[(c, x) for c, x in zip(local_cols[a:b], vals[a:b]) if x > kappa]
                 for a, b in zip(offsets[:-1], offsets[1:])]
        match = _shortest_path_matching(edges, len(local), kappa)
        for r, row_edges, j in zip(comp, edges, match):
            chosen[r, p] = kappa if j < 0 else dict(row_edges)[j]


def _shortest_path_matching(rows, n_cols, kappa) -> list[int]:
    """Min-cost complete matching of rows onto real or skip columns.

    ``rows[i]`` lists row i's assignable (column, value) cells.  Values are
    negated and shifted so all edge costs are non-negative, which keeps
    plain Dijkstra valid.  Returns a real column or -1 (skip) per row.
    """
    n_rows = len(rows)
    hi = kappa
    for edges in rows:
        for _, val in edges:
            if val > hi:
                hi = val
    shift = hi  # cost = shift - value >= 0 for every slot
    skip_cost = shift - kappa

    total_cols = n_cols + n_rows  # skip slot of row i is column n_cols + i
    match_row = [-1] * total_cols
    match_col = [-1] * n_rows
    u = [0.0] * n_rows
    v = [0.0] * total_cols

    adj = [[(j, shift - val) for j, val in edges] + [(n_cols + r, skip_cost)]
           for r, edges in enumerate(rows)]

    for root in range(n_rows):
        dist = [_INF] * total_cols
        pred_row = [-1] * total_cols
        entry = {root: 0.0}
        done = []
        done_mask = [False] * total_cols
        heap = []
        u_root = u[root]
        for j, cost in adj[root]:
            d = cost - u_root - v[j]
            if d < dist[j]:
                dist[j] = d
                pred_row[j] = root
                heapq.heappush(heap, (d, j))
        sink = -1
        while heap:
            d, j = heapq.heappop(heap)
            if done_mask[j] or d > dist[j]:
                continue
            done_mask[j] = True
            done.append(j)
            r = match_row[j]
            if r == -1:
                sink = j
                break
            entry[r] = d
            u_r = u[r]
            for j2, cost in adj[r]:
                if done_mask[j2]:
                    continue
                nd = d + (cost - u_r - v[j2])
                if nd < dist[j2]:
                    dist[j2] = nd
                    pred_row[j2] = r
                    heapq.heappush(heap, (nd, j2))
        assert sink >= 0, "skip slots guarantee an augmenting path"
        delta = dist[sink]
        for r, d in entry.items():
            u[r] += delta - d
        for j in done:
            if j != sink:
                v[j] -= delta - dist[j]
        # Augment: walk predecessors back to the root.
        j = sink
        while True:
            r = pred_row[j]
            prev = match_col[r]
            match_row[j] = r
            match_col[r] = j
            if r == root:
                break
            j = prev

    return [j if j < n_cols else -1 for j in match_col]
