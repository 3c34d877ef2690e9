"""Boosting-style learning of the correspondence structure.

Each iteration ranks every training probe's correct match under the current
structure, samples binary mapping structures from the well-ranked and the
poorly-ranked halves, converts them into a probability update through a
chain of rank-weighted priors, appearance-ratio conditionals, and spatial
impact kernels, and blends the update into the structure.  Each binary
structure links every probe patch to one gallery patch.  Rank-based
quantities (structure priors, per-link importances) are memoized across
iterations since the underlying binary structures never change.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import GateScores, score_gate
from .config import RunConfig
from .errors import ConfigurationError
from .matching import (BinaryMappingStructure, CellTable, adjacency_candidates,
                       best_binary_structure, binary_structure_score_matrix,
                       gated_correlations, rank_of_scores)
from .metric import MetricModel, build_avg_similarity, correct_pair_log_similarity
from .structure import CorrespondenceStructure, blend_update, init_structure


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
    component_solves: int  # (component, pair) cases solved exactly
    gate_cells: int        # cells of the ranking gate
    gated_rows: int        # probe patches holding a gate cell
    clamped: int           # 1 when a half had fewer candidates than its draws
    new_cells: int         # cells the split's cell table computed this iteration
    update_drift: float    # max|U_k - U_1| of the normalized update U over iterations


@dataclass
class LearnResult:
    structure: CorrespondenceStructure
    diagnostics: list[IterationStats]
    binary_structures: list[BinaryMappingStructure] = field(default_factory=list)
    converged: bool = False


def impact_table(n_probe: int, t_d: int) -> np.ndarray:
    """impact[i, s]: spatial influence of a link anchored at probe patch s
    onto patch i, 1 / (|i - s| + 1) within t_d and 0 beyond."""
    idx = np.arange(n_probe)
    d = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    return np.where(d >= t_d, 0.0, 1.0 / (d + 1.0))


def conditional_matrix(binary: BinaryMappingStructure, avg_table: np.ndarray) -> np.ndarray:
    """Distribution over gallery patches for every probe patch given its link.

    Every gallery patch gets its average appearance similarity relative to
    the linked patch's, so the linked patch gets raw weight 1 (exactly: x / x
    is 1 for any finite positive x).  Each raw row is normalized to sum 1.
    """
    t = binary.target_array(*avg_table.shape)
    raw = avg_table / avg_table[np.arange(len(avg_table)), t][:, None]
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
    """Prior-weighted mixture of per-structure joint probability matrices."""
    priors = np.asarray(priors, dtype=np.float64)
    if len(joint_matrices) != priors.size or priors.size == 0:
        raise ValueError("need one prior per structure")
    return sum(prior * joint for joint, prior in zip(joint_matrices, priors))  # in order


def find_binary_structures(probe_stack: np.ndarray, gallery_stack: np.ndarray,
                           pair_log_similarity: np.ndarray, model: MetricModel,
                           config: RunConfig) -> list[BinaryMappingStructure]:
    """Best adjacency-search link set per training probe (loop step 1).

    ``pair_log_similarity`` is the ``correct_pair_log_similarity`` table of
    the two stacks.  Each probe's candidates share one single-probe cell
    table.
    """
    probe_grid, gallery_grid = config.probe_grid(), config.gallery_grid()
    out = []
    for alpha in range(probe_stack.shape[0]):
        candidates = adjacency_candidates(pair_log_similarity[alpha], probe_grid,
                                          gallery_grid, config.adjacency_ranges)
        table = CellTable(probe_stack[alpha:alpha + 1], gallery_stack, model)
        out.append(best_binary_structure(table, alpha, candidates, config.kappa))
    return out


class _TrainingContext:
    """Per-split caches shared across boosting iterations."""

    def __init__(self, probe_stack, gallery_stack, model, config: RunConfig):
        self.table = CellTable(probe_stack, gallery_stack, model)
        self.config = config
        self.n_train = probe_stack.shape[0]
        # The correct-pair table (~6 MB) is not kept: only these two read it.
        pair_log_similarity = correct_pair_log_similarity(probe_stack, gallery_stack, model)
        self.avg_table = build_avg_similarity(pair_log_similarity)
        self.binary_structures = find_binary_structures(probe_stack, gallery_stack,
                                                        pair_log_similarity, model, config)
        self._structure_cmc: dict[int, float] = {}
        self._link_cmc = np.full((self.table.n_a, self.table.n_b), np.nan)  # by cell
        self._joint: dict[int, np.ndarray] = {}

    def structure_cmc(self, alpha: int) -> float:
        """Rank-n CMC over the training set with structure alpha as the model."""
        if alpha not in self._structure_cmc:
            scores = binary_structure_score_matrix(self.table.probe_images,
                                                   self.table.gallery_images,
                                                   self.binary_structures[alpha],
                                                   self.table, self.config.kappa)
            curve = cmc_curve(rank_of_scores(scores, np.arange(self.n_train)), self.n_train)
            self._structure_cmc[alpha] = curve.at_rank(self.config.n_cmc)
        return self._structure_cmc[alpha]

    def link_cmcs(self, binary: BinaryMappingStructure) -> np.ndarray:
        """Rank-n CMC of each probe patch's link alone; ranks depend on that
        cell only, so each cell's is computed once per split."""
        rows = np.arange(self.table.n_a)
        targets = binary.target_array(self.table.n_a, self.table.n_b)
        new = np.isnan(self._link_cmc[rows, targets])
        s, t = rows[new], targets[new]
        scores = self.table.values(s, t).reshape(-1, self.n_train)
        ranks = rank_of_scores(scores, np.tile(np.arange(self.n_train), len(s)))
        hits = np.count_nonzero(ranks.reshape(len(s), self.n_train) <= self.config.n_cmc, axis=1)
        self._link_cmc[s, t] = hits / self.n_train
        return self._link_cmc[rows, targets]

    def joint_matrix(self, alpha: int) -> np.ndarray:
        """Importance-weighted conditional matrix for structure alpha."""
        if alpha not in self._joint:
            binary = self.binary_structures[alpha]
            imp = patch_importance(structure_prior(self.link_cmcs(binary)), self.config.t_d)
            self._joint[alpha] = imp[:, None] * conditional_matrix(binary, self.avg_table)
        return self._joint[alpha]

    def rank_correct_matches(self, structure: CorrespondenceStructure
                             ) -> tuple[np.ndarray, GateScores]:
        """1-based rank of each probe's correct match under the structure,
        with the scores of all n_train^2 pairs (pair index p * n_train + g)."""
        gate, values = gated_correlations(self.table, structure, self.config.t_c)
        scored = score_gate(gate, values, self.config.kappa)
        scores = scored.totals.reshape(self.n_train, self.n_train)
        return rank_of_scores(scores, np.arange(self.n_train)), scored


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
        ranks, scored = ctx.rank_correct_matches(structure)
        cutoff = float(np.quantile(ranks, config.top_fraction))
        top = np.flatnonzero(ranks <= cutoff)  # cutoff ties count as well-ranked
        bottom = np.flatnonzero(ranks > cutoff)
        chosen = []
        for pool in (top, bottom):
            take = min(half, len(pool))
            if take:
                chosen.extend(int(a) for a in rng.choice(pool, size=take, replace=False))

        priors = structure_prior([ctx.structure_cmc(a) for a in chosen])
        update = compute_update([ctx.joint_matrix(a) for a in chosen], priors)
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
            gate_components=scored.components,
            component_solves=scored.solves,
            gate_cells=scored.cells,
            gated_rows=scored.gated_rows,
            clamped=int(len(top) < half or len(bottom) < half),
            new_cells=ctx.table.computed - computed,
            update_drift=float(np.abs(normalized - first_update).max()),
        ))
        structure = new_structure
        if delta < config.tolerance:
            converged = True
            break

    return LearnResult(structure=structure, diagnostics=diagnostics,
                       binary_structures=ctx.binary_structures, converged=converged)
