"""Image-to-image patch matching and gallery ranking.

The correlation between probe patch i and gallery patch j combines the
learned appearance similarity with the correspondence structure:
log similarity + log probability, gated so low-probability cells are
excluded outright.  A global one-to-one assignment over the correlation
matrix yields the image matching score used for ranking; a binary mapping
structure (one gallery patch per probe patch) is a gate of one cell per
row, and many of them are scored in one call.  Every path reads its log
similarities from one kernel, in the metric's factor space: a
``CellTable`` computes each cell once, and the correct-pair table is its
diagonal, bit for bit.
"""
from __future__ import annotations

import copy
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .assignment import (Assignment, GateCounts, GatePlan, check_kappa, row_best_cells,
                         score_gate, score_one_cell_gates, solve_assignment)
from .geometry import GridSpec, colocated_distance, patch_cells
from .metric import MAX_EXPONENT, MetricModel
from .structure import CorrespondenceStructure

# Budget of one cell_log_similarity chunk: cells times the largest per-cell
# temporary, (probe images, gallery images), (gallery images, width) or (dim,
# width) values; width is dim padded to a multiple of 8 (MetricModel.factors).
_CHUNK_VALUES = 1 << 16
# Gallery images and locations of one correct_pair_log_similarity block: the
# block's projections, locations x (images * N_B, width), stay in L2 cache.
_PAIR_BLOCK = 2, 4


@dataclass(frozen=True)
class BinaryMappingStructure:
    """Hard 0/1 mapping: probe patch i links to gallery patch targets[i] only."""

    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if min(self.targets, default=0) < 0:
            raise ValueError(f"negative gallery patch {min(self.targets)} in targets")

    def target_array(self, n_a: int, n_b: int) -> np.ndarray:
        """targets as an array, checked against N_A probe and N_B gallery patches."""
        if len(self.targets) != n_a:
            raise ValueError(f"{len(self.targets)} targets for {n_a} probe patches")
        if max(self.targets, default=0) >= n_b:
            raise ValueError(f"gallery patch {max(self.targets)} outside [0, {n_b})")
        return np.array(self.targets, dtype=np.int64)


def _padded_rows(stack: np.ndarray, multiple: int = 2) -> np.ndarray:
    """``stack`` (..., n, dim) with zero rows appended up to a multiple of
    ``multiple`` rows: a gemm's rows take the same values for every even
    count (one row takes ``gemv``).  A product large enough for OpenBLAS to
    split its rows between threads needs a multiple of 8: under the Haswell
    kernels a split into odd parts moves the last row of each part."""
    pad = -stack.shape[-2] % multiple
    if not pad:
        return stack
    return np.concatenate((stack, np.zeros_like(stack[..., :pad, :])), axis=-2)


def _gallery_side(b: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b, sum(s b**2)) of blocks of G gallery projections ``b`` (..., G,
    width) under the signs ``signs`` (broadcast to b), the sums shaped (...,
    1, G): each a BLAS-free einsum over a contiguous last axis, so a
    projection's sum has the same bits in every block."""
    return b, np.einsum("...gd,...gd->...g", b * signs, b, optimize=False)[..., None, :]


def _log_similarity(probe_side, gallery_side, sigmas, out: np.ndarray) -> np.ndarray:
    """log similarity into ``out`` (..., P, G) of blocks of P probe against
    G gallery descriptors, from ``probe_side`` (s * a, sum(s a**2)) and
    ``gallery_side`` (b, sum(s b**2)) (``_gallery_side``): d . M . d =
    sum(s a**2) + sum(s b**2) - 2 sum(s a b), the cross term a BLAS-free
    einsum over a contiguous last axis, clamped at 0 (an indefinite metric
    dips below it).  A descriptor's padded projection has the same bits in
    every product, so equal ones give (n + n) - 2n = 0."""
    (signed, norms), (b, g_norms) = probe_side, gallery_side
    cross = np.einsum("...pd,...gd->...pg", signed, b, optimize=False)
    cross *= 2.0
    dist = np.add(norms[..., None], g_norms, out=out)
    dist -= cross
    np.maximum(dist, 0.0, out=dist)
    dist /= sigmas
    return np.negative(np.minimum(dist, MAX_EXPONENT, out=dist), out=dist)


def cell_log_similarity(table: CellTable, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """log similarity of the table's probe patch rows[c] against its gallery
    patch cols[c] for every probe image against every gallery image, shape
    (n_cells, n_probe_images, n_gallery_images), in the metric's factor
    space: the table's probe side against one even-row (G, dim) @ (dim,
    width) gallery projection per cell, width being dim padded to a
    multiple of 8 (``MetricModel.factors``).  A cell's values do not depend
    on the images, cells or chunk (``_CHUNK_VALUES``) it is computed with.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    model, (factors, signs) = table.model, table.model.factors
    out = np.empty((len(rows), table.n_probe, table.n_gallery))
    per_cell = max(out.shape[1] * out.shape[2], signs.shape[1] * max(out.shape[2], model.dim))
    step = max(1, _CHUNK_VALUES // per_cell)
    for lo in range(0, len(rows), step):
        r, c = rows[lo:lo + step], cols[lo:lo + step]
        gallery = table.gallery_stack[:, c].swapaxes(0, 1)  # (C, G, dim)
        b = np.matmul(_padded_rows(gallery), factors[r])[:, :out.shape[2]]
        _log_similarity([x[:, r].swapaxes(0, 1) for x in table.probe_side],
                        _gallery_side(b, signs[r][:, None]), model.sigmas[r][:, None, None],
                        out[lo:lo + step])
    return out


def correct_pair_log_similarity(table: CellTable) -> np.ndarray:
    """log similarity of probe image k against gallery image k for every
    cell, shape (n_pairs, N_A, N_B): entry (k, i, j) is the table's (k, k)
    entry of cell (i, j), bit for bit.  A block of ``_PAIR_BLOCK`` gallery
    images and locations takes one gemm per location of the images' patches,
    padded to a multiple of 8 rows (``_padded_rows``), and is read while its
    projections are in cache."""
    if table.n_probe != table.n_gallery or not table.n_probe:
        raise ValueError(f"{table.n_probe} probe images for {table.n_gallery} gallery images")
    (factors, signs), sigmas = table.model.factors, table.model.sigmas
    (n_pairs, n_b, dim), width = table.gallery_stack.shape, signs.shape[1]
    signed, norms = table.probe_side
    out = np.empty((n_pairs, table.n_a, n_b))
    images, locations = _PAIR_BLOCK
    for k in range(0, n_pairs, images):
        pairs, n = slice(k, k + images), min(images, n_pairs - k)
        patches = _padded_rows(table.gallery_stack[pairs].reshape(-1, dim), 8)
        for i in range(0, table.n_a, locations):
            at = slice(i, i + locations)
            # (location, image, patch, width): blocks of one image at one location.
            b = np.matmul(patches, factors[at])[:, :n * n_b].reshape(-1, n, n_b, width)
            _log_similarity((signed[pairs, at].swapaxes(0, 1)[:, :, None],
                             norms[pairs, at].T[:, :, None]),
                            _gallery_side(b, signs[at][:, None, None]),
                            sigmas[at][:, None, None, None],
                            out[pairs, at].swapaxes(0, 1)[:, :, None])
    return out


class CellTable:
    """Memoized log similarities of (probe patch, gallery patch) cells.

    Holds a probe stack (n_probe_images, N_A, dim), a gallery stack
    (n_gallery_images, N_B, dim), their metric, a dict from each computed
    cell to its values, and ``probe_side``: (s * a, sum(s a**2)) per (probe
    image, location), with a = p L from one even-row product per location.
    Reads equal fresh computations bit for bit.
    """

    def __init__(self, probe_stack: np.ndarray, gallery_stack: np.ndarray,
                 model: MetricModel):
        if probe_stack.shape[1] != model.n_locations:
            raise ValueError(f"{probe_stack.shape[1]} probe patches for a "
                             f"{model.n_locations}-location metric")
        if {probe_stack.shape[2], gallery_stack.shape[2]} != {model.dim}:
            raise ValueError(f"descriptors of dimension {probe_stack.shape[2]} and "
                             f"{gallery_stack.shape[2]} for a metric of dimension {model.dim}")
        self.probe_stack, self.gallery_stack, self.model = probe_stack, gallery_stack, model
        self.n_probe, self.n_a = probe_stack.shape[:2]
        self.n_gallery, self.n_b = gallery_stack.shape[:2]
        factors, signs = model.factors
        by_location = np.matmul(_padded_rows(probe_stack.swapaxes(0, 1)), factors)
        a = by_location[:, :self.n_probe].swapaxes(0, 1)
        signed = a * signs
        self.probe_side = signed, np.einsum("pid,pid->pi", signed, a, optimize=False)
        self.probe_images = np.arange(self.n_probe)
        self.gallery_images = np.arange(self.n_gallery)
        self._rows: dict[int, np.ndarray] = {}

    computed = property(lambda self: len(self._rows))  # cells computed so far

    def scratch(self) -> CellTable:
        """A table of the same images and metric that shares this one's
        stacks, probe side and computed cells.  The cells it computes go to
        its own memo alone, so they are dropped with it."""
        other = copy.copy(self)
        other._rows = dict(self._rows)
        return other

    def values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """log similarity of probe patch rows[c] against gallery patch
        cols[c], shape (n_cells, n_probe_images * n_gallery_images); pair
        p * n_gallery_images + g is probe p against gallery g.  The array is
        fresh, never a view of the memo, so callers may add to it in place."""
        keys = np.ravel_multi_index((rows, cols), (self.n_a, self.n_b)).tolist()
        new = sorted(set(keys).difference(self._rows))
        if new:
            fresh = cell_log_similarity(self, *np.unravel_index(new, (self.n_a, self.n_b)))
            self._rows.update(zip(new, fresh.reshape(len(new), -1)))
        return np.array([self._rows[k] for k in keys]).reshape(-1, self.n_probe * self.n_gallery)


def candidate_tables(table: CellTable, candidates) -> Iterator[CellTable]:
    """One single-probe ``CellTable`` per probe image p of ``table``, in
    probe order, its memo holding every link cell of the binary structures
    ``candidates[p]``, bit for bit what the table computes for that cell.

    Before the first table, location by location, each distinct gallery
    patch the links name is projected once, with its sum(s b**2), for every
    probe, and only the cross terms are per probe.  The values land in one
    buffer, whose rows the memos hold; the tables are made one at a time,
    and ``table``'s own memo is left as it is.
    """
    n, n_b, shape = table.n_probe, table.n_b, (table.n_a, table.n_b)
    links = [(np.arange(table.n_a) * n_b + b.target_array(*shape)) * n + p
             for p, structures in enumerate(candidates) for b in structures]
    entries = sorted(set(np.concatenate([np.zeros(0, dtype=np.int64), *links]).tolist()))
    keys, probes = np.divmod(np.array(entries, dtype=np.int64), n)  # by cell, then probe
    opens = np.diff(keys, prepend=-1) != 0  # an entry of a cell not seen before
    # Distinct cell c holds entries first[c]:first[c + 1]; distinct[e] is entry e's cell.
    first, distinct = np.append(np.flatnonzero(opens), len(keys)), np.cumsum(opens) - 1
    rows, cols = np.divmod(keys[first[:-1]], n_b)
    by_row = np.searchsorted(rows, np.arange(table.n_a + 1)).tolist()  # distinct cells per row
    (factors, signs), sigmas = table.model.factors, table.model.sigmas
    signed, norms = table.probe_side
    values = np.empty((len(keys), table.n_gallery))
    for i, (lo, hi) in enumerate(zip(by_row, by_row[1:])):
        gallery = table.gallery_stack[:, cols[lo:hi]].swapaxes(0, 1)  # (cells, G, dim)
        b = np.matmul(_padded_rows(gallery), factors[i])[:, :table.n_gallery]
        b, g_norms = _gallery_side(b, signs[i])
        at = slice(first[lo], first[hi])
        cell, p = distinct[at] - lo, probes[at]
        _log_similarity((signed[p, i][:, None], norms[p, i][:, None]), (b[cell], g_norms[cell]),
                        sigmas[i], values[at, None])
    for p in range(n):
        single = CellTable(table.probe_stack[p:p + 1], table.gallery_stack, table.model)
        mine = np.flatnonzero(probes == p).tolist()
        single._rows.update(zip(keys[mine].tolist(), (values[r] for r in mine)))
        yield single


def gated_correlations(table: CellTable, structure: CorrespondenceStructure,
                       t_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Gated correlations of every probe image of the table against every
    gallery image.

    Returns the gate ``probs > t_c`` and the cell values log similarity +
    log probability, shape (n_cells, n_probe_images * n_gallery_images): one
    row per cell in ``np.nonzero(gate)`` order, and pair p * n_gallery_images
    + g is probe p against gallery g.
    """
    if structure.probs.shape != (table.n_a, table.n_b):
        raise ValueError("descriptor counts do not match the structure grids")
    gate = structure.probs > t_c
    log_p = np.log(structure.probs, out=np.zeros_like(structure.probs), where=gate)
    rows, cols = np.nonzero(gate)
    values = table.values(rows, cols)  # a fresh array: the prior goes in in place
    values += log_p[rows, cols][:, None]
    return gate, values


def greedy_scores(gate: np.ndarray, values: np.ndarray,
                  kappa: float) -> np.ndarray:
    """Row-wise best correlations summed without the one-to-one constraint.

    Scores every pair sharing one gate; ``values`` is (n_cells, n_pairs) in
    ``np.nonzero(gate)`` order, as ``gated_correlations`` returns it.  A row
    without cells adds ``kappa``; a row with cells adds its best one, even
    below ``kappa``.  Rows are summed in ascending order.
    """
    check_kappa(kappa)
    bounds = np.concatenate(([0], np.cumsum(gate.sum(axis=1))))
    totals = np.empty(values.shape[1])
    for pairs, live, _, best in row_best_cells(bounds, values):
        contributions = np.full((gate.shape[0], best.shape[1]), kappa)
        contributions[live] = best
        totals[pairs] = sum(contributions, np.zeros(best.shape[1]))  # in ascending row order
    return totals


def match_score(probe_desc: np.ndarray, gallery_desc: np.ndarray,
                structure: CorrespondenceStructure, model: MetricModel,
                t_c: float, kappa: float) -> tuple[np.ndarray, Assignment]:
    """Image matching score: the structure-gated correlation matrix (log
    similarity + log probability, else -inf) and its global assignment."""
    table = CellTable(probe_desc[None], gallery_desc[None], model)
    gate, cells = gated_correlations(table, structure, t_c)
    corr = np.full(gate.shape, -np.inf)
    corr[gate] = cells[:, 0]
    return corr, solve_assignment(corr, kappa=kappa)


def rank_gallery(probe_desc: np.ndarray, gallery_descs, structure: CorrespondenceStructure,
                 model: MetricModel, t_c: float, kappa: float,
                 correct_index: int | None = None):
    """Galleries ordered by descending score; ties keep input order.

    Returns (ordered list of (gallery index, score), rank of correct_index
    or None).  Ranks are 1-based.
    """
    if not len(gallery_descs):
        raise ValueError("gallery set must be non-empty")
    table = CellTable(probe_desc[None], np.stack(gallery_descs), model)
    gate, values = gated_correlations(table, structure, t_c)
    scores = score_gate(gate, values, kappa).totals
    order = np.argsort(-scores, kind="stable")
    ranked = list(zip(order.tolist(), scores[order].tolist()))
    rank = None if correct_index is None else int(rank_of_scores(scores[None], [correct_index])[0])
    return ranked, rank


def rank_of_scores(scores, correct, owners=None) -> np.ndarray:
    """1-based rank of each row's correct gallery when the row's scores sort
    descending; ties keep gallery order.

    ``scores`` is (n_rows, n_galleries) and ``correct[r]`` is row r's correct
    gallery index.  With ``owners`` (one owner per gallery) ``correct[r]``
    names an owner instead, and the owner's best-placed gallery counts.
    That is the first owned gallery holding the owned maximum m, so no sort
    is needed: galleries scoring above m, or m before it, sort ahead of it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    correct = np.asarray(correct)
    index = np.arange(scores.shape[1])
    if owners is None:
        if not np.all((correct >= 0) & (correct < scores.shape[1])):
            raise ValueError("a row's correct gallery is missing")
        first = correct[:, None]
        best = np.take_along_axis(scores, first, axis=1)
    else:
        owned = np.asarray(owners) == correct[:, None]
        if not owned.any(axis=1).all():
            raise ValueError("a row's correct gallery is missing")
        best = np.max(scores, axis=1, initial=-np.inf, where=owned)[:, None]
        first = (owned & (scores == best)).argmax(axis=1)[:, None]
    ahead = (scores > best) | ((scores == best) & (index < first))
    return np.count_nonzero(ahead, axis=1) + 1


def correct_ranks(gate: np.ndarray, values: np.ndarray, kappa: float, n_probe: int,
                  n_gallery: int, owners=None) -> tuple[np.ndarray, GateCounts]:
    """1-based rank of each probe's correct gallery among its n_gallery
    pairs, with the gate's counts.

    ``values`` is (n_cells, n_probe * n_gallery) in ``np.nonzero(gate)``
    order, pair p * n_gallery + g being probe p against gallery g.  Probe
    p's correct gallery is gallery p, or with ``owners`` any gallery p
    owns.  The ranks are ``rank_of_scores`` of ``score_gate``'s totals, but
    few pairs are solved exactly.  Every total is bounded from above
    (``GatePlan.totals`` without the exact pass), and a correct pair's from
    below (``GatePlan.feasible_totals``).  A probe whose correct lower bound
    beats every other pair's upper bound by more than ``_margin`` ranks
    first, and none of its pairs is solved.  For the other probes the
    correct pairs, then the clashing pairs whose bound is at least their
    probe's correct total, are solved exactly: a pair bounded below that
    total scores below it, so it ranks behind it whatever its exact score.
    ``solves`` counts every clashing case, solved or not.
    """
    plan = GatePlan(gate)
    values = plan.check(values)
    flat, clashing, counts = plan.totals(values, kappa, exact=False)
    scores = flat.reshape(n_probe, n_gallery)  # a view, holding bounds until solved
    owned = ((np.arange(n_gallery) if owners is None else np.asarray(owners))
             == np.arange(n_probe)[:, None])

    def solve(pairs):
        flat[pairs] = plan.totals(values[:, pairs], kappa)[0]

    correct = np.flatnonzero(owned.ravel() & clashing)
    lower = flat.copy()
    lower[correct] = plan.feasible_totals(values[:, correct], kappa)
    lead = np.max(lower.reshape(scores.shape), axis=1, initial=-np.inf, where=owned)
    rival = np.max(scores, axis=1, initial=-np.inf, where=~owned)
    first = lead - _margin(values[:, correct], kappa, plan.n_rows) > rival
    solve(np.flatnonzero((owned & ~first[:, None]).ravel() & clashing))
    best = np.max(scores, axis=1, initial=-np.inf, where=owned)
    solve(np.flatnonzero((~owned & (scores >= best[:, None])).ravel() & clashing))
    return rank_of_scores(scores, np.arange(n_probe), owners), counts


def _margin(values: np.ndarray, kappa: float, n_rows: int) -> float:
    """How far an optimal total may fall below a feasible one through
    rounding: each of the two row-order sums of n terms of magnitude at
    most T errs by under n**2 eps T, and so do the exact pass's float
    costs; 8 n**2 eps T covers the three."""
    scale = max(abs(kappa), float(np.abs(values).max(initial=0.0)))
    return 8.0 * n_rows ** 2 * np.finfo(np.float64).eps * scale


def adjacency_candidates(log_sims: np.ndarray, probe_grid: GridSpec,
                         gallery_grid: GridSpec, ranges) -> list[BinaryMappingStructure]:
    """Candidate binary structures from appearance search in widening row bands.

    ``log_sims`` (N_A, N_B) holds the log similarity of every probe patch
    against every gallery patch of one correct image pair.  For each search
    range l, every probe patch links to the gallery patch with the highest
    appearance similarity among gallery patches at most l grid rows from the
    co-located row (all columns).  Similarity ties break toward the smaller
    zig-zag distance from the co-located patch, then the smaller ordinal.
    """
    if not ranges:
        raise ValueError("ranges must be non-empty")
    if min(ranges) < 1:
        raise ValueError(f"search range must be >= 1, got {min(ranges)}")
    n_b = gallery_grid.n_patches
    if log_sims.shape != (probe_grid.n_patches, n_b):
        raise ValueError(f"expected ({probe_grid.n_patches}, {n_b}) log similarities, "
                         f"got {log_sims.shape}")
    dist, windows = _search_windows(probe_grid, gallery_grid, tuple(ranges))
    sims = np.exp(log_sims)
    candidates = []
    for window in windows:
        best = np.where(window, sims, -np.inf).max(axis=1, keepdims=True)
        # argmin keeps the first of the nearest tied patches: the smaller ordinal.
        pick = np.where(window & (sims == best), dist, n_b).argmin(axis=1)
        candidates.append(BinaryMappingStructure(targets=tuple(pick.tolist())))
    return candidates


@lru_cache(maxsize=4)
def _search_windows(probe_grid: GridSpec, gallery_grid: GridSpec,
                    ranges: tuple[int, ...]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """``colocated_distance`` and each range's (N_A, N_B) band of gallery
    rows, read-only: they depend on the grids alone, so every probe shares
    them."""
    dist = colocated_distance(probe_grid, gallery_grid)
    gallery_rows = patch_cells(gallery_grid)[0]  # the co-located patch is at distance 0
    row_gap = np.abs(gallery_rows - gallery_rows[dist.argmin(axis=1)][:, None])
    arrays = dist, *(row_gap <= span for span in ranges)
    for array in arrays:
        array.flags.writeable = False
    return arrays[0], arrays[1:]


def binary_structure_score_matrix(probes: np.ndarray, galleries: np.ndarray, binaries,
                                  table: CellTable, kappa: float) -> np.ndarray:
    """Matching scores of each binary structure of ``binaries`` for the
    table's probe images ``probes`` against its gallery images
    ``galleries`` (index arrays), shape (len(binaries), len(probes),
    len(galleries)).

    Each structure is a gate of one cell per probe patch, valued at its log
    similarity alone.  All of them are scored in one call, each bit for bit
    as ``score_gate`` scores its gate.
    """
    targets = np.array([b.target_array(table.n_a, table.n_b) for b in binaries],
                       dtype=np.int64).reshape(-1, table.n_a)
    pairs = (np.asarray(probes)[:, None] * table.n_gallery + np.asarray(galleries)).ravel()
    values = table.values(np.tile(np.arange(table.n_a), len(targets)), targets.ravel())
    if not np.array_equal(pairs, np.arange(values.shape[1])):  # all pairs in order: no copy
        values = values[:, pairs]
    totals = score_one_cell_gates(targets, values, kappa)
    return totals.reshape(len(targets), len(probes), len(galleries))


def best_binary_structure(table: CellTable, correct_index: int, candidates,
                          kappa: float) -> BinaryMappingStructure:
    """Candidate whose ranking of the table's one probe image places the
    correct gallery best; ties keep order, and no candidate is a
    ValueError.  The candidates are scored in one call, so a cell they
    have in common is computed once."""
    if table.n_probe != 1:
        raise ValueError(f"expected a table of one probe image, got {table.n_probe}")
    if not candidates:
        raise ValueError("no candidate binary structures")
    scores = binary_structure_score_matrix(table.probe_images, table.gallery_images,
                                           candidates, table, kappa)[:, 0]
    ranks = rank_of_scores(scores, np.full(len(candidates), correct_index))
    return candidates[int(np.argmin(ranks))]
