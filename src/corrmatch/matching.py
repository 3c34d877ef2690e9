"""Image-to-image patch matching and gallery ranking.

The correlation between probe patch i and gallery patch j combines the
learned appearance similarity with the correspondence structure:
log similarity + log probability, gated so low-probability cells are
excluded outright.  A global one-to-one assignment over the correlation
matrix yields the image matching score used for ranking; a binary mapping
structure (one gallery patch per probe patch) reuses the same machinery as
a gate of one cell per row.  Every path reads its log similarities from a
``CellTable``, which computes each cell once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import Assignment, row_best_cells, score_gate, solve_assignment
from .geometry import GridSpec, colocated_table, patch_cells
from .metric import MetricModel, log_similarity
from .structure import CorrespondenceStructure

# Most (cell, image pair) values one log_similarity call computes: it bounds
# the kernel's (cells, probes, galleries, dim) temporaries.
_CHUNK_VALUES = 1 << 13


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


def cell_log_similarity(probe_stack: np.ndarray, gallery_stack: np.ndarray,
                        model: MetricModel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """log similarity of probe patch rows[c] against gallery patch cols[c]
    for every probe image against every gallery image, shape
    (n_cells, n_probe_images, n_gallery_images).

    Cells go to the kernel in chunks of at most ``_CHUNK_VALUES`` values.
    """
    out = np.empty((len(rows), len(probe_stack), len(gallery_stack)))
    step = max(1, _CHUNK_VALUES // (len(probe_stack) * len(gallery_stack)))
    for lo in range(0, len(rows), step):
        r, c = rows[lo:lo + step], cols[lo:lo + step]
        d = (probe_stack[:, r, :].transpose(1, 0, 2)[:, :, None, :]    # (C, P, 1, dim)
             - gallery_stack[:, c, :].transpose(1, 0, 2)[:, None])     # (C, 1, G, dim)
        out[lo:lo + step] = log_similarity(model, r, d)
    return out


class CellTable:
    """Memoized log similarities of (probe patch, gallery patch) cells.

    Holds a probe stack (n_probe_images, N_A, dim), a gallery stack
    (n_gallery_images, N_B, dim) and their metric.  ``values`` computes a
    cell through ``cell_log_similarity`` the first time it is asked for and
    reads it back after.  A cell's values do not depend on the cells it is
    computed with, so a read equals a fresh computation bit for bit.  The
    table holds at most N_A * N_B cells of n_probe_images * n_gallery_images
    doubles each.
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
        self.probe_images = np.arange(self.n_probe)
        self.gallery_images = np.arange(self.n_gallery)
        self.computed = 0  # cells computed so far; rows 0:computed of _values hold them
        self._slot = np.full(self.n_a * self.n_b, -1, dtype=np.int64)
        self._values = np.empty((0, self.n_probe * self.n_gallery))

    def values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """log similarity of probe patch rows[c] against gallery patch
        cols[c], shape (n_cells, n_probe_images * n_gallery_images); pair
        p * n_gallery_images + g is probe p against gallery g."""
        keys = np.ravel_multi_index((rows, cols), (self.n_a, self.n_b))
        new = np.unique(keys[self._slot[keys] < 0])
        if new.size:
            end = self.computed + new.size
            if end > len(self._values):
                grown = np.empty((max(end, 2 * len(self._values)), self._values.shape[1]))
                grown[:self.computed] = self._values[:self.computed]
                self._values = grown
            fresh = cell_log_similarity(self.probe_stack, self.gallery_stack, self.model,
                                        *np.unravel_index(new, (self.n_a, self.n_b)))
            self._values[self.computed:end] = fresh.reshape(new.size, -1)
            self._slot[new] = np.arange(self.computed, end)
            self.computed = end
        return self._values[self._slot[keys]]


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


def correlation_matrix(probe_desc: np.ndarray, gallery_desc: np.ndarray,
                       structure: CorrespondenceStructure, model: MetricModel,
                       t_c: float) -> np.ndarray:
    """Structure-gated correlations: log similarity + log probability, else -inf."""
    table = CellTable(probe_desc[None], gallery_desc[None], model)
    gate, cells = gated_correlations(table, structure, t_c)
    values = np.full(gate.shape, -np.inf)
    values[gate] = cells[:, 0]
    return values


def greedy_scores(gate: np.ndarray, values: np.ndarray,
                  kappa: float) -> np.ndarray:
    """Row-wise best correlations summed without the one-to-one constraint.

    Scores every pair sharing one gate; ``values`` is (n_cells, n_pairs) in
    ``np.nonzero(gate)`` order, as ``gated_correlations`` returns it.  A row
    without cells adds ``kappa``; a row with cells adds its best one, even
    below ``kappa``.  Rows are summed in ascending order.
    """
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
    """Image matching score: the correlation matrix and its global assignment."""
    corr = correlation_matrix(probe_desc, gallery_desc, structure, model, t_c)
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
    scores = score_gate(gate, values, kappa).totals.tolist()
    order = sorted(range(len(scores)), key=lambda idx: (-scores[idx], idx))
    ranked = [(idx, scores[idx]) for idx in order]
    rank = None if correct_index is None else order.index(correct_index) + 1
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
    index = np.arange(scores.shape[1])
    owned = (index if owners is None else np.asarray(owners)) == np.asarray(correct)[:, None]
    if not owned.any(axis=1).all():
        raise ValueError("a row's correct gallery is missing")
    best = np.max(scores, axis=1, initial=-np.inf, where=owned)[:, None]
    first = (owned & (scores == best)).argmax(axis=1)[:, None]
    ahead = (scores > best) | ((scores == best) & (index < first))
    return np.count_nonzero(ahead, axis=1) + 1


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
    n_b = gallery_grid.n_patches
    if log_sims.shape != (probe_grid.n_patches, n_b):
        raise ValueError(f"expected ({probe_grid.n_patches}, {n_b}) log similarities, "
                         f"got {log_sims.shape}")
    colocated, colocated_row = colocated_table(probe_grid, gallery_grid)
    row_gap = np.abs(patch_cells(gallery_grid)[0] - colocated_row[:, None])
    dist = np.abs(np.arange(n_b) - colocated[:, None])
    sims = np.exp(log_sims)

    candidates = []
    for span in ranges:
        if span < 1:
            raise ValueError(f"search range must be >= 1, got {span}")
        window = row_gap <= span
        best = np.where(window, sims, -np.inf).max(axis=1, keepdims=True)
        # argmin keeps the first of the nearest tied patches: the smaller ordinal.
        pick = np.where(window & (sims == best), dist, n_b).argmin(axis=1)
        candidates.append(BinaryMappingStructure(targets=tuple(pick.tolist())))
    return candidates


def binary_structure_score_matrix(probes: np.ndarray, galleries: np.ndarray,
                                  binary: BinaryMappingStructure, table: CellTable,
                                  kappa: float) -> np.ndarray:
    """Matching scores of the table's probe images ``probes`` against its
    gallery images ``galleries`` (index arrays), shape (len(probes),
    len(galleries)).

    The structure is a gate of one cell per probe patch, valued at its log
    similarity alone, and goes through the same batched assignment as a
    learned structure.
    """
    targets = binary.target_array(table.n_a, table.n_b)
    gate = np.arange(table.n_b) == targets[:, None]
    pairs = (np.asarray(probes)[:, None] * table.n_gallery + np.asarray(galleries)).ravel()
    values = table.values(np.arange(table.n_a), targets)[:, pairs]
    return score_gate(gate, values, kappa).totals.reshape(len(probes), len(galleries))


def best_binary_structure(table: CellTable, correct_index: int, candidates,
                          kappa: float) -> BinaryMappingStructure:
    """Candidate whose ranking of the table's one probe image places the
    correct gallery best; ties keep order, and no candidate is a
    ValueError.  The candidates share the table, so a cell they have in
    common is computed once."""
    if table.n_probe != 1:
        raise ValueError(f"expected a table of one probe image, got {table.n_probe}")

    def rank(cand: BinaryMappingStructure) -> int:
        scores = binary_structure_score_matrix(table.probe_images, table.gallery_images,
                                               cand, table, kappa)
        return rank_of_scores(scores, [correct_index])[0]

    return min(candidates, key=rank)
