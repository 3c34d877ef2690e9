"""Boosting-style learning of the correspondence structure.

Each iteration ranks every training probe's correct match under the current
structure, samples binary mapping structures from the well-ranked and the
poorly-ranked halves, converts them into a probability update through a
chain of rank-weighted priors, appearance-ratio conditionals, and spatial
impact kernels, and blends the update into the structure.  Each binary
structure links every probe patch to one gallery patch.  The binary
structures never change, so each one is scored once, in the iteration that
first draws it, and keeps only what the update reads: its training CMC, its
patch importance and the rows of its links in one store of conditional
rows, one per distinct link cell.  Its joint matrix is rebuilt from them
when the update reads it, and the link cells' log similarities are dropped
after the scoring pass, so the split's cell table holds only the ranking
gates' cells.

Before the loop, each correct image pair's similarity map streams past its
probe's adjacency search and the average similarity table's running sum,
so no table of every pair's map is held.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import GateCounts
from .config import RunConfig
from .errors import ConfigurationError
from .matching import (BinaryMappingStructure, CellTable, adjacency_candidates,
                       best_binary_structure, binary_structure_score_matrix, candidate_tables,
                       correct_pair_blocks, correct_ranks, gated_correlations, rank_of_scores)
from .metric import MetricModel, build_avg_similarity
from .structure import CorrespondenceStructure, blend_update, init_structure, proximity_weight

# Binary structures per binary_structure_score_matrix call of a scoring
# pass: each adds two (N_A, n_train**2) arrays to the call's temporaries.
_SCORE_CHUNK = 2


@dataclass(frozen=True)
class CmcCurve:
    """values[n-1] = fraction of probes whose correct match ranks <= n."""

    values: np.ndarray
    gallery_size: int

    def __post_init__(self) -> None:
        if self.values.shape != (self.gallery_size,):
            raise ValueError("curve length must equal the gallery size")
        if np.any(np.diff(self.values) < 0) or self.values[-1] != 1.0:
            raise ValueError("curve must be non-decreasing and end at 1")

    def at_rank(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"rank must be >= 1, got {n}")
        return float(self.values[n - 1]) if n <= self.gallery_size else 1.0


def cmc_curve(ranks, gallery_size: int) -> CmcCurve:
    """Cumulative match curve from 1-based correct-match ranks."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size == 0:
        raise ValueError("ranks must be non-empty")
    if np.any(ranks < 1) or np.any(ranks > gallery_size):
        raise ValueError("ranks must lie in [1, gallery_size]")
    counts = np.bincount(ranks, minlength=gallery_size + 1)[1:]
    return CmcCurve(values=np.cumsum(counts) / ranks.size, gallery_size=gallery_size)


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    mean_rank: float
    cmc1: float
    cmc5: float
    delta: float
    sum_ranks: int
    max_row_sum_error: float
    min_entry: float
    gate_components: int   # connected components of the ranking gate
    component_solves: int  # clashing (component, pair) cases, solved or pruned
    gate_cells: int        # cells of the ranking gate
    gated_rows: int        # probe patches holding a gate cell
    clamped: int           # 1 when a half had fewer candidates than its draws
    new_cells: int         # cells computed this iteration: the ranking's and the scoring pass's
    update_drift: float    # max|U_k - U_1| of the normalized update U over iterations


@dataclass
class LearnResult:
    structure: CorrespondenceStructure
    diagnostics: list[IterationStats]
    binary_structures: list[BinaryMappingStructure] = field(default_factory=list)
    converged: bool = False


def impact_table(n_probe: int, t_d: int) -> np.ndarray:
    """impact[i, s]: spatial influence of a link anchored at probe patch s
    onto patch i, the proximity weight of the stride distance |i - s|."""
    idx = np.arange(n_probe)
    return proximity_weight(np.abs(idx[:, None] - idx[None, :]), t_d)


def conditional_matrix(binary: BinaryMappingStructure, avg_table: np.ndarray) -> np.ndarray:
    """Distribution over gallery patches for every probe patch given its link.

    Every gallery patch gets its average appearance similarity relative to
    the linked patch's, so the linked patch gets raw weight 1 (exactly: x / x
    is 1 for any finite positive x).  Each raw row is normalized to sum 1.
    """
    return conditional_rows(avg_table, np.arange(len(avg_table)),
                            binary.target_array(*avg_table.shape))


def conditional_rows(avg_table: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row rows[k] of ``conditional_matrix`` for a structure linking probe
    patch rows[k] to gallery patch targets[k]: a row depends on its own link
    alone, so it has the same bits in every structure holding that link."""
    raw = avg_table[rows] / avg_table[rows, targets][:, None]
    return raw / raw.sum(axis=1, keepdims=True)


def structure_prior(cmc_scores) -> np.ndarray:
    """Normalized rank-n CMC scores; uniform when all are zero."""
    scores = np.asarray(cmc_scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("need at least one structure")
    total = scores.sum()
    if total == 0.0:
        return np.full(scores.size, 1.0 / scores.size)
    return scores / total


def patch_importance(importances: np.ndarray, t_d: int) -> np.ndarray:
    """Importance of each probe patch: impact-weighted sum of per-patch link importances."""
    out = impact_table(len(importances), t_d) @ importances
    total = out.sum()
    if total == 0.0:
        raise ValueError("no probe patch is reachable from the structure's links")
    return out / total


def compute_update(joint_matrices, priors) -> np.ndarray:
    """Prior-weighted mixture of per-structure joint probability matrices,
    summed in order.  ``joint_matrices`` may be any iterable: each matrix
    is read when its term is added and held no longer, so a generator that
    builds them keeps one alive at a time."""
    priors = np.asarray(priors, dtype=np.float64)
    joints = iter(joint_matrices)

    def term(prior):
        joint = next(joints, None)
        if joint is None:
            raise ValueError("need one prior per structure")
        return prior * joint

    update = sum(map(term, priors))
    if priors.size == 0 or next(joints, None) is not None:
        raise ValueError("need one prior per structure")
    return update


def find_binary_structures(table: CellTable, candidates,
                           config: RunConfig) -> list[BinaryMappingStructure]:
    """Best link set per probe of a split's ``table`` (loop step 1) among
    ``candidates[p]``, probe p's ``adjacency_candidates``.  Each probe's
    candidates share one single-probe cell table, which ``candidate_tables``
    fills with every candidate link, so scoring them computes no cell."""
    return [best_binary_structure(single, alpha, links, config.kappa)
            for alpha, (single, links) in enumerate(zip(candidate_tables(table, candidates),
                                                        candidates))]


class _TrainingContext:
    """Per-split state shared across boosting iterations.

    Building it streams the correct pairs' similarity maps, a block of
    ``matching._PAIR_BLOCK`` pairs at a time, past the adjacency search and
    ``build_avg_similarity``.  The split's ``table`` memo holds the cells
    the rankings read.  A drawn structure is scored once, by the ``score``
    pass of the iteration that first draws it, and keeps its rank-n
    training CMC, its patch importance and the indices of its links' rows
    in one store of ``conditional_rows``, which holds one row per distinct
    link cell beside that cell's CMC; ``joint`` rebuilds its joint matrix
    from them.
    """

    def __init__(self, probe_stack, gallery_stack, model, config: RunConfig):
        self.table = CellTable(probe_stack, gallery_stack, model)
        self.config = config
        self.n_train = probe_stack.shape[0]
        search, candidates = (config.probe_grid(), config.gallery_grid(),
                              config.adjacency_ranges), []

        def similarities():  # each block exponentiated in place, each map searched
            for block in correct_pair_blocks(self.table):
                for sims in np.exp(block, out=block):
                    candidates.append(adjacency_candidates(sims, *search))
                    yield sims

        self.avg_table = build_avg_similarity(similarities())
        self.binary_structures = find_binary_structures(self.table, candidates, config)
        # Structure alpha -> (CMC, importance, store index of each link).
        self._scored: dict[int, tuple[float, np.ndarray, np.ndarray]] = {}
        # The store: link cell i * N_B + j -> its index; per index, the
        # cell's CMC and its conditional row.
        self._links: dict[int, int] = {}
        self._link_cmcs = np.zeros(0)
        self._conditional: list[np.ndarray] = []

    def _cmcs(self, scores: np.ndarray) -> np.ndarray:
        """Rank-n training CMC of each block of n_train rows of ``scores``,
        row p of a block holding probe p's scores against every gallery."""
        n = self.n_train
        ranks = rank_of_scores(scores, np.tile(np.arange(n), len(scores) // n)).reshape(-1, n)
        return np.count_nonzero(ranks <= self.config.n_cmc, axis=1) / n

    def score(self, draws) -> int:
        """Score the structures of ``draws`` not scored yet, in first-draw
        order, and return the cells the pass computed.

        The pass reads its cells from a scratch table (``CellTable.scratch``),
        dropped when the pass ends, and sends its structures through
        ``binary_structure_score_matrix`` ``_SCORE_CHUNK`` at a time.  A link
        cell new to the store is ranked on its own cell, once.
        """
        fresh = [a for a in dict.fromkeys(draws) if a not in self._scored]
        table, n = self.table.scratch(), self.n_train
        for lo in range(0, len(fresh), _SCORE_CHUNK):
            alphas = fresh[lo:lo + _SCORE_CHUNK]
            binaries = [self.binary_structures[a] for a in alphas]
            totals = binary_structure_score_matrix(table.probe_images, table.gallery_images,
                                                   binaries, table, self.config.kappa)
            cells = [np.arange(table.n_a) * table.n_b + b.target_array(table.n_a, table.n_b)
                     for b in binaries]
            new = [k for k in dict.fromkeys(np.concatenate(cells).tolist()) if k not in self._links]
            rows, cols = np.divmod(np.array(new, dtype=np.int64), table.n_b)
            self._links.update({k: len(self._links) + m for m, k in enumerate(new)})
            link_cmcs = self._cmcs(table.values(rows, cols).reshape(-1, n))
            self._link_cmcs = np.concatenate((self._link_cmcs, link_cmcs))
            self._conditional.extend(conditional_rows(self.avg_table, rows, cols))
            for alpha, cmc, keys in zip(alphas, self._cmcs(totals.reshape(-1, n)), cells):
                links = np.array([self._links[k] for k in keys.tolist()])
                importance = patch_importance(structure_prior(self._link_cmcs[links]),
                                              self.config.t_d)
                self._scored[alpha] = cmc, importance, links
        return table.computed - self.table.computed

    def cmc(self, alpha: int) -> float:
        """Rank-n training CMC of scored structure alpha."""
        return self._scored[alpha][0]

    def joint(self, alpha: int) -> np.ndarray:
        """Importance-weighted conditional matrix of scored structure alpha,
        importance times its links' stored rows, in a fresh array."""
        _, importance, links = self._scored[alpha]
        joint = np.array([self._conditional[k] for k in links.tolist()])
        joint *= importance[:, None]
        return joint

    def rank_correct_matches(self, structure: CorrespondenceStructure
                             ) -> tuple[np.ndarray, GateCounts]:
        """1-based rank of each probe's correct match under the structure
        among all n_train galleries, with the ranking gate's counts."""
        gate, values = gated_correlations(self.table, structure, self.config.t_c)
        return correct_ranks(gate, values, self.config.kappa, self.n_train, self.n_train)


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit, for q in [0, 1], without the
    ``np.unique`` call through which it imports ``numpy.ma``."""
    x, at = np.sort(values), (len(values) - 1) * q
    a, b, t = x[int(at)], x[min(int(at) + 1, len(x) - 1)], at - int(at)
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def learn_structure(probe_stack: np.ndarray, gallery_stack: np.ndarray,
                    model: MetricModel, config: RunConfig) -> LearnResult:
    """Run the full boosting loop and return the learned structure.

    ``probe_stack[k]`` and ``gallery_stack[k]`` hold the descriptor arrays of
    the k-th training identity's probe and correct-match gallery images.
    """
    probe_stack = np.asarray(probe_stack, dtype=np.float64)
    gallery_stack = np.asarray(gallery_stack, dtype=np.float64)
    if probe_stack.shape[0] != gallery_stack.shape[0]:
        raise ValueError("probe and gallery training stacks must align")
    if probe_stack.shape[0] < 2:
        raise ConfigurationError("training requires at least two identities")

    ctx = _TrainingContext(probe_stack, gallery_stack, model, config)
    structure = init_structure(config.probe_grid(), config.gallery_grid(), config.t_d)
    rng = np.random.default_rng(config.seed)
    half = config.selection_count // 2
    diagnostics: list[IterationStats] = []
    converged = False

    for iteration in range(1, config.max_iterations + 1):
        computed = ctx.table.computed
        ranks, counts = ctx.rank_correct_matches(structure)
        cutoff = _quantile(ranks, config.top_fraction)
        top = np.flatnonzero(ranks <= cutoff)  # cutoff ties count as well-ranked
        bottom = np.flatnonzero(ranks > cutoff)
        chosen = []
        for pool in (top, bottom):
            take = min(half, len(pool))
            if take:
                chosen.extend(int(a) for a in rng.choice(pool, size=take, replace=False))

        scored = ctx.score(chosen)
        update = compute_update((ctx.joint(a) for a in chosen),
                                structure_prior([ctx.cmc(a) for a in chosen]))
        row_sums = update.sum(axis=1)
        live = row_sums > 0.0
        normalized = np.zeros_like(update)
        normalized[live] = update[live] / row_sums[live, None]

        if not diagnostics:
            first_update = normalized
        new_structure = blend_update(structure, normalized, config.epsilon)
        delta = float(np.abs(new_structure.probs - structure.probs).mean())
        curve = cmc_curve(ranks, ctx.n_train)
        diagnostics.append(IterationStats(
            iteration=iteration,
            mean_rank=float(ranks.mean()),
            cmc1=curve.at_rank(1),
            cmc5=curve.at_rank(5),
            delta=delta,
            sum_ranks=int(ranks.sum()),
            max_row_sum_error=float(np.abs(new_structure.probs.sum(axis=1) - 1.0).max()),
            min_entry=float(new_structure.probs.min()),
            gate_components=counts.components,
            component_solves=counts.solves,
            gate_cells=counts.cells,
            gated_rows=counts.gated_rows,
            clamped=int(len(top) < half or len(bottom) < half),
            new_cells=ctx.table.computed - computed + scored,
            update_drift=float(np.abs(normalized - first_update).max()),
        ))
        structure = new_structure
        if delta < config.tolerance:
            converged = True
            break

    return LearnResult(structure=structure, diagnostics=diagnostics,
                       binary_structures=ctx.binary_structures, converged=converged)
