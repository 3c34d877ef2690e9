"""Image-to-image patch matching and gallery ranking.

The correlation between probe patch i and gallery patch j combines the
learned appearance similarity with the correspondence structure:
log(similarity * probability), gated so low-probability cells are excluded
outright.  A global one-to-one assignment over the correlation matrix
yields the image matching score used for ranking; binary mapping structures
(hard 0/1 link sets) reuse the same machinery with uniform per-row
probabilities and no gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import DEFAULT_KAPPA, Assignment, solve_assignment
from .geometry import GridSpec, colocated_patch, patch_at
from .metric import MAX_EXPONENT, MetricModel, batched_similarity
from .structure import CorrespondenceStructure

DEFAULT_T_C = 0.05
DEFAULT_ADJACENCY_RANGES = (1, 2, 3, 4)


@dataclass(frozen=True)
class BinaryMappingStructure:
    """Hard 0/1 link set between probe and gallery patches."""

    links: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(set(self.links)) != len(self.links):
            raise ValueError("duplicate links")
        object.__setattr__(self, "links", tuple(sorted(self.links)))

    def links_per_row(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, j in self.links:
            out.setdefault(i, []).append(j)
        return out


@dataclass(frozen=True)
class CorrelationMatrix:
    """Correlation values with an explicit assignable mask (-inf: excluded)."""

    values: np.ndarray
    assignable: np.ndarray

    def sparse_rows(self):
        cols = [np.flatnonzero(self.assignable[i]) for i in range(self.values.shape[0])]
        vals = [self.values[i, c] for i, c in enumerate(cols)]
        return cols, vals


def gated_correlations(probe_stack: np.ndarray, gallery_stack: np.ndarray,
                       structure: CorrespondenceStructure, model: MetricModel,
                       t_c: float = DEFAULT_T_C) -> tuple[np.ndarray, np.ndarray]:
    """Gated correlations of every probe image against every gallery image.

    ``probe_stack`` is (n_probe_images, N_A, dim) and ``gallery_stack``
    (n_gallery_images, N_B, dim).  Returns the gate ``probs > t_c`` and an
    (n_cells, n_probe_images * n_gallery_images) array of
    log(similarity * probability), one row per gated cell in
    ``np.nonzero(gate)`` order; pair p * n_gallery_images + g is probe p
    against gallery g.
    """
    n_a, n_b = structure.probs.shape
    if probe_stack.shape[1] != n_a or gallery_stack.shape[1] != n_b:
        raise ValueError("descriptor counts do not match the structure grids")
    gate = structure.probs > t_c
    n_p, n_g, dim = probe_stack.shape[0], gallery_stack.shape[0], probe_stack.shape[2]
    values = np.empty((int(gate.sum()), n_p * n_g))
    lo = 0
    for i in range(n_a):  # one probe location, hence one metric, per batch
        cols = np.flatnonzero(gate[i])
        if not len(cols):
            continue
        shape = (len(cols), n_p, n_g, dim)
        f_a = np.broadcast_to(probe_stack[None, :, None, i, :], shape).reshape(-1, dim)
        f_b = np.broadcast_to(gallery_stack[:, cols, :].transpose(1, 0, 2)[:, None],
                              shape).reshape(-1, dim)
        sims = batched_similarity(model, f_a, f_b, np.full(len(f_a), i))
        values[lo:lo + len(cols)] = np.log(sims.reshape(len(cols), -1)
                                           * structure.probs[i, cols][:, None])
        lo += len(cols)
    return gate, values


def correlation_matrix(probe_desc: np.ndarray, gallery_desc: np.ndarray,
                       structure: CorrespondenceStructure, model: MetricModel,
                       t_c: float = DEFAULT_T_C) -> CorrelationMatrix:
    """Structure-gated correlations: log(similarity * probability), else excluded."""
    gate, cells = gated_correlations(probe_desc[None], gallery_desc[None],
                                     structure, model, t_c)
    values = np.full(gate.shape, -np.inf)
    values[gate] = cells[:, 0]
    return CorrelationMatrix(values=values, assignable=gate)


def binary_correlation(probe_desc: np.ndarray, gallery_desc: np.ndarray,
                       binary: BinaryMappingStructure, model: MetricModel,
                       n_probe: int, n_gallery: int) -> CorrelationMatrix:
    """Correlations under a 0/1 structure: uniform 1/degree rows, no gate."""
    values = np.full((n_probe, n_gallery), -np.inf)
    mask = np.zeros((n_probe, n_gallery), dtype=bool)
    per_row = binary.links_per_row()
    if per_row:
        rows = np.array([i for i, js in sorted(per_row.items()) for _ in js])
        cols = np.array([j for _, js in sorted(per_row.items()) for j in js])
        degrees = np.array([len(per_row[i]) for i in rows], dtype=np.float64)
        sims = batched_similarity(model, probe_desc[rows], gallery_desc[cols], rows)
        values[rows, cols] = np.log(sims / degrees)
        mask[rows, cols] = True
    return CorrelationMatrix(values=values, assignable=mask)


def score_correlation(corr: CorrelationMatrix, kappa: float = DEFAULT_KAPPA) -> Assignment:
    """Optimal one-to-one assignment over a correlation matrix."""
    return solve_assignment(corr.values, corr.assignable, kappa=kappa)


def greedy_scores(gate: np.ndarray, values: np.ndarray,
                  kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Row-wise best correlations summed without the one-to-one constraint.

    Scores every pair sharing one gate; ``values`` is (n_cells, n_pairs) in
    ``np.nonzero(gate)`` order, as ``gated_correlations`` returns it.  A row
    without cells adds ``kappa``; rows are summed in ascending order.
    """
    bounds = np.concatenate(([0], np.cumsum(gate.sum(axis=1))))
    totals = np.zeros(values.shape[1])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        totals += values[lo:hi].max(axis=0) if hi > lo else kappa
    return totals


def greedy_score(corr: CorrelationMatrix, kappa: float = DEFAULT_KAPPA) -> float:
    """Row-wise best correlations summed without the one-to-one constraint."""
    cells = corr.values[corr.assignable][:, None]
    return float(greedy_scores(corr.assignable, cells, kappa)[0])


def match_score(probe_desc: np.ndarray, gallery_desc: np.ndarray,
                structure: CorrespondenceStructure, model: MetricModel,
                t_c: float = DEFAULT_T_C, kappa: float = DEFAULT_KAPPA) -> Assignment:
    """Image matching score: correlation matrix plus global assignment."""
    return score_correlation(correlation_matrix(probe_desc, gallery_desc,
                                                structure, model, t_c), kappa)


def rank_gallery(probe_desc: np.ndarray, gallery_descs, structure: CorrespondenceStructure,
                 model: MetricModel, t_c: float = DEFAULT_T_C,
                 kappa: float = DEFAULT_KAPPA, correct_index: int | None = None):
    """Galleries ordered by descending score; ties keep input order.

    Returns (ordered list of (gallery index, score), rank of correct_index
    or None).  Ranks are 1-based.
    """
    if not len(gallery_descs):
        raise ValueError("gallery set must be non-empty")
    scores = [match_score(probe_desc, g, structure, model, t_c, kappa).score
              for g in gallery_descs]
    order = sorted(range(len(scores)), key=lambda idx: (-scores[idx], idx))
    ranked = [(idx, scores[idx]) for idx in order]
    rank = None if correct_index is None else order.index(correct_index) + 1
    return ranked, rank


def rank_of_scores(scores, correct_index: int) -> int:
    """1-based rank of correct_index when scores sort descending, stable."""
    order = sorted(range(len(scores)), key=lambda idx: (-scores[idx], idx))
    return order.index(correct_index) + 1


def adjacency_candidates(probe_desc: np.ndarray, gallery_desc: np.ndarray,
                         model: MetricModel, probe_grid: GridSpec,
                         gallery_grid: GridSpec,
                         ranges=DEFAULT_ADJACENCY_RANGES) -> list[BinaryMappingStructure]:
    """Candidate link sets from appearance search in widening row bands.

    For each search range l, every probe patch links to the gallery patch
    with the highest appearance similarity among gallery patches at most l
    grid rows from the co-located row (all columns).  Similarity ties break
    toward the smaller zig-zag distance from the co-located patch, then the
    smaller ordinal.
    """
    if not ranges:
        raise ValueError("ranges must be non-empty")
    n_a = probe_grid.n_patches
    gallery_rows = np.array([patch_at(gallery_grid, j).row
                             for j in range(gallery_grid.n_patches)])
    ordinals = np.arange(gallery_grid.n_patches)

    candidates = []
    for span in ranges:
        if span < 1:
            raise ValueError(f"search range must be >= 1, got {span}")
        links = []
        for i in range(n_a):
            co = colocated_patch(probe_grid, gallery_grid, patch_at(probe_grid, i))
            window = np.flatnonzero(np.abs(gallery_rows - co.row) <= span)
            sims = batched_similarity(model, np.repeat(probe_desc[i][None, :], len(window), axis=0),
                                      gallery_desc[window], np.full(len(window), i))
            dist = np.abs(ordinals[window] - co.ordinal)
            best = min(range(len(window)), key=lambda k: (-sims[k], dist[k], window[k]))
            links.append((i, int(window[best])))
        candidates.append(BinaryMappingStructure(links=tuple(links)))
    return candidates


def binary_structure_score_matrix(probe_stack: np.ndarray, gallery_stack: np.ndarray,
                                  binary: BinaryMappingStructure, model: MetricModel,
                                  n_gallery_patches: int,
                                  kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Matching scores of every probe image against every gallery image.

    ``probe_stack`` is (n_probe_images, N_A, dim), ``gallery_stack``
    (n_gallery_images, N_B, dim); the result is (n_probe_images,
    n_gallery_images).  When every probe patch carries at most one link the
    one-to-one conflict resolution has a closed form (each contested gallery
    patch goes to its best bidder, losers take the skip penalty), evaluated
    per row in ascending order so scores match the generic solver path
    bit for bit.
    """
    n_probe_imgs = probe_stack.shape[0]
    n_imgs = gallery_stack.shape[0]
    n_a = probe_stack.shape[1]
    per_row = binary.links_per_row()

    if all(len(js) <= 1 for js in per_row.values()):
        values = {}  # probe patch -> (n_probe_imgs, n_imgs) log correlation
        by_col: dict[int, list[int]] = {}
        for i, js in per_row.items():
            (j,) = js
            m = model.matrix_at(i)
            sigma = model.sigma_at(i)
            d = probe_stack[:, i, None, :] - gallery_stack[None, :, j, :]
            dist = np.einsum("pgk,kl,pgl->pg", d, m, d)
            exponent = np.minimum(np.maximum(dist, 0.0) / sigma, MAX_EXPONENT)
            values[i] = np.log(np.exp(-exponent))  # matches the generic log(phi) path
            by_col.setdefault(j, []).append(i)
        winner: dict[int, np.ndarray] = {}
        for j, bidders in by_col.items():
            stacked = np.stack([values[i] for i in bidders])
            top = stacked.argmax(axis=0)
            for k, i in enumerate(bidders):
                winner[i] = top == k
        scores = np.zeros((n_probe_imgs, n_imgs))
        for i in range(n_a):  # ascending rows keep the canonical sum order
            if i in values:
                contribution = np.where(winner[i], np.maximum(values[i], kappa), kappa)
            else:
                contribution = kappa
            scores = scores + contribution
        return scores

    scores = np.empty((n_probe_imgs, n_imgs))
    for p in range(n_probe_imgs):
        for g in range(n_imgs):
            corr = binary_correlation(probe_stack[p], gallery_stack[g], binary,
                                      model, n_a, n_gallery_patches)
            scores[p, g] = score_correlation(corr, kappa).score
    return scores


def binary_structure_scores(probe_desc: np.ndarray, gallery_stack: np.ndarray,
                            binary: BinaryMappingStructure, model: MetricModel,
                            kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Matching score of one probe image against every gallery in a stack."""
    return binary_structure_score_matrix(probe_desc[None, :, :], gallery_stack,
                                         binary, model, gallery_stack.shape[1],
                                         kappa)[0]


def best_binary_structure(probe_desc: np.ndarray, gallery_stack: np.ndarray,
                          correct_index: int, candidates, model: MetricModel,
                          kappa: float = DEFAULT_KAPPA) -> BinaryMappingStructure:
    """Candidate whose ranking places the correct gallery best; ties keep order."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    best_rank, best = None, None
    for cand in candidates:
        scores = binary_structure_scores(probe_desc, gallery_stack, cand, model, kappa)
        rank = rank_of_scores(list(scores), correct_index)
        if best_rank is None or rank < best_rank:
            best_rank, best = rank, cand
    return best
