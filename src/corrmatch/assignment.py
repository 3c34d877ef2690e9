"""Globally constrained one-to-one patch assignment.

Maximizes the total correlation of a one-to-one pairing between probe rows
and gallery columns.  Excluded cells are non-assignable rather than merely
expensive; a probe row left unmatched (because its cells are all excluded,
or because better rows claim its columns) contributes the floor penalty
``kappa`` to the score, and scores are float sums taken in ascending row
order.  Among optimal pair sets the solver prefers the lexicographically
smallest, but it moves to a smaller one only when that one's float sum is
not below the current one's.  Optima whose sums are exactly equal therefore
resolve to the lexicographically smallest pair set; where tied optima's
float sums round an ulp apart, the pair set returned may be neither the
smallest nor the one with the largest sum.

The solver runs successive shortest augmenting paths over a sparse edge
list, with a private "skip" slot per row priced at ``kappa`` so a complete
row assignment always exists.  ``score_gate`` scores many pairs that share
one assignable mask at once: it splits the mask into connected components,
settles every component whose greedy row picks do not collide or whose rows
all bid for one shared column, and solves only the rest exactly.
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
    ascending row order.  Among optima with exactly equal sums the
    lexicographically smallest pair set is returned; the module docstring
    says what happens when tied optima's sums round apart.
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

    n_rows, n_cols = values.shape
    row_cols = [np.flatnonzero(assignable[i]) for i in range(n_rows)]
    row_vals = [values[i, cols] for i, cols in enumerate(row_cols)]
    match = solve_sparse(row_cols, row_vals, n_cols, kappa)
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
    of that pair bit for bit.  Only the score is computed and no tie-break is
    made (a column whose bidders hold no other cell goes to its first best
    bidder); where tied optima sum to totals an ulp apart, the per-pair
    solver keeps the larger and the two may differ in that last bit.
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
            # One shared column: its best bidder (the first row on a tie,
            # as the lexicographic order has it) takes it; the rest skip.
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
        match = _shortest_path_matching(edges, len(local), kappa)[0]
        for r, row_edges, j in zip(comp, edges, match):
            chosen[r, p] = kappa if j < 0 else dict(row_edges)[j]


def solve_sparse(row_cols, row_vals, n_cols: int, kappa: float) -> list[int]:
    """Optimal assignment over sparse rows; returns a column per row (-1 = skip).

    ``row_cols[i]`` / ``row_vals[i]`` list the assignable columns of row i in
    ascending column order with their values.  Optima whose row-order float
    sums are exactly equal resolve to the lexicographically smallest pair
    set (see the module docstring for sums that round apart); a skipped row
    sorts before any pair of that row only when the whole remaining suffix
    is skipped too.
    """
    rows = [[(int(c), float(x)) for c, x in zip(cols, vals)]
            for cols, vals in zip(row_cols, row_vals)]
    if not rows:
        return []
    match, u, v, shift = _shortest_path_matching(rows, n_cols, kappa)
    return _refine_lexicographic(rows, n_cols, kappa, match, u, v, shift)


def _shortest_path_matching(rows, n_cols, kappa, forced=None):
    """Min-cost complete matching of rows onto real or skip columns.

    Values are negated and shifted so all edge costs are non-negative, which
    keeps plain Dijkstra valid.  ``forced`` optionally pins a row to one
    column (or to its skip slot with -1); pinned columns must be distinct.
    Returns (match, u, v, shift): match[i] is a real column or -1 for skip,
    and u, v are dual potentials on rows and (real + skip) columns for the
    shifted costs.
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

    adj = []
    for r in range(n_rows):
        pin = None if forced is None else forced[r]
        if pin is None:
            edges = [(j, shift - val) for j, val in rows[r]]
            edges.append((n_cols + r, skip_cost))
        elif pin == -1:
            edges = [(n_cols + r, skip_cost)]
        else:
            edges = [(j, shift - val) for j, val in rows[r] if j == pin]
            if not edges:
                raise ValueError(f"row {r} cannot be pinned to column {pin}")
        adj.append(edges)

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

    return [j if j < n_cols else -1 for j in match_col], u, v, shift


def _refine_lexicographic(rows, n_cols, kappa, match, u, v, shift):
    """Rework an optimal matching into the lexicographically smallest one.

    Processes rows in order; a row prefers its smallest usable column, and
    prefers being skipped only when the entire remaining suffix can also be
    skipped at no cost to the score.  Candidate moves are prescreened with
    the dual potentials (a cell can join an optimum only if its reduced cost
    is zero), so re-solves only trigger on genuine ties.
    """
    n_rows = len(rows)
    tol = 1e-9 * max(1.0, abs(shift), abs(kappa))
    value_of = [dict(edges) for edges in rows]

    def score_of(m):
        total = 0.0
        for i, j in enumerate(m):
            total += kappa if j < 0 else value_of[i][j]
        return total

    # suffix_skippable[r]: every skip slot from row r on has zero reduced cost.
    skip_tight = [(shift - kappa) - u[t] - v[n_cols + t] <= tol for t in range(n_rows)]
    suffix_skippable = [False] * (n_rows + 1)
    suffix_skippable[n_rows] = True
    for t in range(n_rows - 1, -1, -1):
        suffix_skippable[t] = skip_tight[t] and suffix_skippable[t + 1]

    best = score_of(match)
    work = list(match)
    owner = [-1] * n_cols
    for t, j in enumerate(work):
        if j >= 0:
            owner[j] = t
    matched_after = sum(1 for j in work if j >= 0)
    for r in range(n_rows):
        if work[r] >= 0:
            matched_after -= 1
        suffix_has_match = matched_after > 0 or work[r] >= 0
        if not suffix_has_match:
            continue  # suffix already all-skip, nothing smaller exists
        if suffix_skippable[r]:
            candidate = work[:r] + [-1] * (n_rows - r)
            cand_score = score_of(candidate)
            if cand_score >= best:
                work = candidate
                break
        cur = work[r]
        cur_val = value_of[r][cur] if cur >= 0 else kappa
        cur_v = v[cur] if cur >= 0 else v[n_cols + r]
        limit = cur if cur >= 0 else n_cols
        for j, val in rows[r]:
            if j >= limit:
                break
            if owner[j] >= 0 and owner[j] < r:
                continue  # claimed by the fixed prefix
            if (shift - val) - u[r] - v[j] > tol:
                continue
            # Exact tied swap onto a free column: adopt without re-solving.
            if owner[j] == -1 and val == cur_val and abs(v[j]) <= tol and abs(cur_v) <= tol:
                if cur >= 0:
                    owner[cur] = -1
                owner[j] = r
                work[r] = j
                break
            forced = [None] * n_rows
            for t in range(r):
                forced[t] = work[t] if work[t] >= 0 else -1
            forced[r] = j
            candidate, _, _, _ = _shortest_path_matching(rows, n_cols, kappa, forced=forced)
            cand_score = score_of(candidate)
            if cand_score >= best:
                matched_after = sum(1 for t in range(r + 1, n_rows) if candidate[t] >= 0)
                work = candidate
                best = cand_score
                owner = [-1] * n_cols
                for t, jj in enumerate(work):
                    if jj >= 0:
                        owner[jj] = t
                break
    return work
