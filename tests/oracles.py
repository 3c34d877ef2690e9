"""Independent reference implementations used to check the real code paths.

Everything in here favors obviousness over speed and deliberately avoids
importing the algorithms under test.  The one exception is the per-pair
``solve_assignment``, which serves as the reference for batched ranking.
"""
from __future__ import annotations

import numpy as np


def enumerate_assignments(values: np.ndarray, assignable: np.ndarray, kappa: float):
    """Every one-to-one partial assignment as (sorted pair tuple, score).

    Scores accumulate in ascending row order, skip contributing kappa.
    Exponential; only usable for tiny matrices.
    """
    n_rows, n_cols = values.shape
    results = []

    def recurse(row, used, pairs, acc):
        if row == n_rows:
            results.append((tuple(pairs), acc))
            return
        recurse(row + 1, used, pairs, acc + kappa)
        for j in range(n_cols):
            if assignable[row, j] and j not in used:
                recurse(row + 1, used | {j}, pairs + [(row, j)], acc + values[row, j])

    recurse(0, frozenset(), [], 0.0)
    return results


def brute_force_best(values: np.ndarray, assignable: np.ndarray, kappa: float):
    """Optimal (pairs, score) by explicit enumeration, lex-smallest among ties."""
    best_pairs, best_score = None, -np.inf
    for pairs, score in enumerate_assignments(values, assignable, kappa):
        if score > best_score or (score == best_score and pairs < best_pairs):
            best_pairs, best_score = pairs, score
    return best_pairs, best_score


def dp_best_score(values: np.ndarray, assignable: np.ndarray, kappa: float) -> float:
    """Optimal score via exhaustive subset dynamic programming.

    dp[mask] is the best score over the rows processed so far that uses
    exactly the columns in mask; additions happen row by row, matching the
    canonical row-order accumulation of assignment scores.
    """
    n_rows, n_cols = values.shape
    size = 1 << n_cols
    masks = np.arange(size, dtype=np.int64)
    dp = np.full(size, -np.inf)
    dp[0] = 0.0
    for r in range(n_rows):
        new = dp + kappa  # row r skipped
        for j in range(n_cols):
            if not assignable[r, j]:
                continue
            bit = 1 << j
            src = masks[(masks & bit) == 0]
            dst = src | bit
            new[dst] = np.maximum(new[dst], dp[src] + values[r, j])
        dp = new
    return float(dp.max())


def rank_of_owner(scores, owners, target) -> int:
    """1-based position of the first gallery owned by ``target`` once the
    scores are sorted descending, ties keeping gallery order."""
    order = sorted(range(len(scores)), key=lambda idx: (-scores[idx], idx))
    return 1 + [owners[idx] for idx in order].index(target)


def log_similarity(matrix: np.ndarray, sigma: float, d: np.ndarray,
                   max_exponent: float = 700.0) -> np.ndarray:
    """-min(max(d . M . d, 0) / sigma, max_exponent) with a three-operand einsum."""
    dist = np.einsum("...k,kl,...l->...", d, matrix, d)
    return -np.minimum(np.maximum(dist, 0.0) / sigma, max_exponent)


def rank_correct_matches(pair_log_similarity, probs: np.ndarray, t_c: float,
                         kappa: float, n_train: int) -> list[int]:
    """Training ranks with one whole-matrix ``solve_assignment`` per pair.

    ``pair_log_similarity(i, j)`` is the (n_train, n_train) log similarity of
    probe patch i against gallery patch j; a pair's cell value adds the log
    probability of a gated cell.  Ranks are 1-based, ties keep gallery order.
    """
    from corrmatch.assignment import solve_assignment

    mask = probs > t_c
    log_p = np.log(probs, out=np.full_like(probs, -np.inf), where=mask)
    cells = list(zip(*np.nonzero(mask)))
    ranks = []
    for p in range(n_train):
        scores = []
        for g in range(n_train):
            values = np.full(probs.shape, -np.inf)
            for i, j in cells:
                values[i, j] = pair_log_similarity(i, j)[p, g] + log_p[i, j]
            scores.append(solve_assignment(values, mask, kappa=kappa).score)
        ranks.append(1 + sum(1 for g, s in enumerate(scores)
                             if s > scores[p] or (s == scores[p] and g < p)))
    return ranks
