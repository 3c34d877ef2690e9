"""Independent reference implementations used to check the real code paths.

Everything in here favors obviousness over speed and deliberately avoids
importing the algorithms under test.  Three exceptions: the per-pair
``solve_assignment`` serves as the reference for batched ranking, the
imaging helpers that compute per-pixel weights, and the learner's formulas
that ``scored_structure`` chains.  The per-location
references below score through ``location_log_similarity``, d . M . d on
descriptor differences; ``factor_cell_values`` is the library's one kernel,
in the metric's factor space, one cell and one image pair at a time.
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


def single_column_totals(gate: np.ndarray, values: np.ndarray, kappa: float) -> np.ndarray:
    """Totals of a gate whose rows hold at most one cell, settled one
    column at a time.

    Each row first takes its cell if the cell beats ``kappa``.  Where two
    or more rows take one column, its best bidder takes it, the first row
    on a tie, and the others skip.  Rows add in ascending order, ``kappa``
    per skip.  ``values`` is (n_cells, n_pairs) in ``np.nonzero`` order.
    """
    rows, cols = np.nonzero(gate)
    assert len(set(rows.tolist())) == len(rows), "a row holds two cells"
    totals = []
    for p in range(values.shape[1]):
        chosen = [kappa] * gate.shape[0]
        for column in sorted(set(cols.tolist())):
            bidders = [k for k in range(len(rows)) if cols[k] == column]
            takers = [k for k in bidders if values[k, p] > kappa]
            if len(takers) > 1:
                takers = [bidders[int(np.argmax([values[k, p] for k in bidders]))]]
            for k in takers:
                chosen[rows[k]] = values[k, p]
        total = 0.0
        for contribution in chosen:
            total += contribution
        totals.append(total)
    return np.array(totals)


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


def location_log_similarity(model, loc: int, d: np.ndarray) -> np.ndarray:
    """d . M . d on descriptor differences ``d`` (..., dim) with location
    ``loc``'s metric, the global one picked here for a fallback location:
    the factor-space kernel's values to rounding, not bit for bit."""
    if model.fallback[loc]:
        matrix, sigma = model.global_matrix, model.global_sigma
    else:
        matrix, sigma = model.matrices[loc], float(model.sigmas[loc])
    dist = np.einsum("...k,...k->...", d @ matrix, d)
    return -np.minimum(np.maximum(dist, 0.0) / sigma, 700.0)


def training_pairs(probe_descriptors, gallery_descriptors, wrong_gallery_descriptors,
                   probe_grid, gallery_grid, t_d: int):
    """Per-location (A, B) pair reference for ``metric.build_training_pairs``:
    the probe side repeated once per window patch, the gallery side gathered
    from each image's window, image-major."""
    from corrmatch.geometry import patch_at

    ordinals = np.arange(gallery_grid.n_patches)
    similar, dissimilar = [], []
    for i in range(probe_grid.n_patches):
        co, _ = colocated_patch(probe_grid, gallery_grid, patch_at(probe_grid, i))
        window = np.flatnonzero(np.abs(ordinals - co) < t_d)
        probe_side = np.stack([p[i] for p in probe_descriptors for _ in window])
        similar.append((probe_side, np.concatenate([g[window] for g in gallery_descriptors])))
        dissimilar.append((probe_side,
                           np.concatenate([g[window] for g in wrong_gallery_descriptors])))
    return similar, dissimilar


def train_metric(similar_diffs, dissimilar_diffs, sigma_scale: float):
    """One-pass reference for ``metric.train_metric``: every location's
    differences held at once, each Gram matrix a sum of d.T @ d over locations
    in order, each location learned on its own.  A scale is sigma_scale times
    <M, G> / n, the mean of d . M . d over the n similar pairs of Gram matrix
    G (``difference_form_scale`` takes that mean pair by pair)."""
    from corrmatch.metric import SIGMA_FLOOR, MetricModel, _learn_matrix

    def gram(diffs):
        return sum(d.T @ d for d in diffs), sum(len(d) for d in diffs)

    def scale(matrix, gram_sum, count):
        total = np.einsum("ij,ij->", matrix, gram_sum, optimize=False)
        return max(sigma_scale * float(total / count), SIGMA_FLOOR)

    dim = next(d.shape[1] for d in similar_diffs if len(d))
    (sim_gram, n_sim), (dis_gram, n_dis) = gram(similar_diffs), gram(dissimilar_diffs)
    global_matrix = _learn_matrix(sim_gram / n_sim, dis_gram / n_dis)
    global_sigma = scale(global_matrix, sim_gram, n_sim)
    matrices, sigmas, fallback = [], [], []
    for sim, dis in zip(similar_diffs, dissimilar_diffs):
        starved = len(sim) < dim + 1 or len(dis) < dim + 1
        if starved:
            matrix, sigma = global_matrix, global_sigma
        else:
            (sim_gram, n_sim), (dis_gram, n_dis) = gram([sim]), gram([dis])
            matrix = _learn_matrix(sim_gram / n_sim, dis_gram / n_dis)
            sigma = scale(matrix, sim_gram, n_sim)
        matrices.append(matrix)
        sigmas.append(sigma)
        fallback.append(starved)
    return MetricModel(matrices=np.stack(matrices), sigmas=np.array(sigmas),
                       global_matrix=global_matrix, global_sigma=global_sigma,
                       fallback=np.array(fallback))


def difference_form_scale(matrix: np.ndarray, diffs, sigma_scale: float) -> float:
    """sigma_scale times the mean of max(d . M . d, 0) over every row of the
    difference arrays ``diffs``, each distance taken on its own difference,
    floored at ``SIGMA_FLOOR``: the bandwidth rule as a sum over pairs."""
    from corrmatch.metric import SIGMA_FLOOR

    dist = np.concatenate([np.maximum(np.einsum("nk,nk->n", d @ matrix, d), 0.0)
                           for d in diffs])
    return max(sigma_scale * float(dist.mean()), SIGMA_FLOOR)


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
            scores.append(solve_assignment(values, kappa=kappa).score)
        ranks.append(1 + sum(1 for g, s in enumerate(scores)
                             if s > scores[p] or (s == scores[p] and g < p)))
    return ranks


def cell_values(probe_stack, gallery_stack, model, gate) -> np.ndarray:
    """Per-row reference for ``matching.CellTable.values`` over the cells of
    ``gate`` in ``np.nonzero`` order: one kernel call per probe row, over
    that row's gated cells."""
    values = np.empty((int(gate.sum()), len(probe_stack) * len(gallery_stack)))
    lo = 0
    for i in range(gate.shape[0]):
        cols = np.flatnonzero(gate[i])
        if not len(cols):
            continue
        d = (probe_stack[None, :, None, i, :]
             - gallery_stack[:, cols, :].transpose(1, 0, 2)[:, None])
        values[lo:lo + len(cols)] = location_log_similarity(model, i, d).reshape(len(cols), -1)
        lo += len(cols)
    return values


def factor_cell_values(probe_stack, gallery_stack, model, rows, cols) -> np.ndarray:
    """Per-(cell, probe image, gallery image) reference for
    ``matching.cell_log_similarity``, shape (n_cells, n_probe_images,
    n_gallery_images).

    Cell (i, j) factors location i's metric (the global one for a fallback
    location, picked here) as M = L diag(s) L.T from its own ``eigh``, with L
    and s padded with zero columns to dim rounded up to a multiple of 8.  One
    formula: each descriptor is projected alone, as the first row of a
    (2, dim) @ (dim, width) product whose second row is zero, since a gemm's
    rows take values independent of an even row count; every sum over width
    is one ``np.einsum`` of two contiguous rows, which never calls BLAS.  The
    distance sum(s a**2) + sum(s b**2) - 2 sum(s a b) is clamped at 0, scaled
    by sigma and capped at 700.
    """
    def project(descriptor, factor):
        return (np.stack((descriptor, np.zeros_like(descriptor))) @ factor)[0]

    def dot(x, y):
        return np.einsum("d,d->", x, y, optimize=False)

    out = np.empty((len(rows), len(probe_stack), len(gallery_stack)))
    for c, (i, j) in enumerate(zip(rows, cols)):
        if model.fallback[i]:
            matrix, sigma = model.global_matrix, model.global_sigma
        else:
            matrix, sigma = model.matrices[i], float(model.sigmas[i])
        eigvals, eigvecs = np.linalg.eigh(matrix)
        pad = -len(eigvals) % 8
        factor = np.pad(eigvecs * np.sqrt(np.abs(eigvals)), ((0, 0), (0, pad)))
        sign = np.pad(np.sign(eigvals), (0, pad))
        for p, probe in enumerate(probe_stack):
            a = project(probe[i], factor)
            for g, gallery in enumerate(gallery_stack):
                b = project(gallery[j], factor)
                dist = (dot(sign * a, a) + dot(sign * b, b)) - 2.0 * dot(sign * a, b)
                out[c, p, g] = -min(max(dist, 0.0) / sigma, 700.0)
    return out


def adjacency_targets(probe_desc, gallery_desc, model, probe_grid, gallery_grid, ranges):
    """Per-window reference for ``matching.adjacency_candidates``: the
    target tuple of each range, from one kernel call per (range, probe
    patch) over the patch's window only."""
    from corrmatch.geometry import colocated_patch, patch_at

    gallery_rows = np.array([patch_at(gallery_grid, j).row
                             for j in range(gallery_grid.n_patches)])
    ordinals = np.arange(gallery_grid.n_patches)
    out = []
    for span in ranges:
        targets = []
        for i in range(probe_grid.n_patches):
            co = colocated_patch(probe_grid, gallery_grid, patch_at(probe_grid, i))
            window = np.flatnonzero(np.abs(gallery_rows - co.row) <= span)
            sims = np.exp(location_log_similarity(model, i,
                                                  probe_desc[i] - gallery_desc[window]))
            dist = np.abs(ordinals[window] - co.ordinal)
            best = min(range(len(window)), key=lambda k: (-sims[k], dist[k], window[k]))
            targets.append(int(window[best]))
        out.append(tuple(targets))
    return out


def conditional_prob(targets, i: int, avg_table: np.ndarray) -> np.ndarray:
    """Per-row reference for ``learning.conditional_matrix``: probe patch i's
    distribution over gallery patches given its link to targets[i]."""
    row = avg_table[i]
    raw = row / row[targets[i]]
    raw[targets[i]] = 1.0
    return raw / raw.sum()


def scored_structure(probe_stack, gallery_stack, model, binary, avg_table, config):
    """Reference for a structure scored by ``learning._TrainingContext``
    (its ``cmc`` and rebuilt ``joint``): the structure's rank-n CMC over the
    training set through ``cmc_curve(...).at_rank``, each link's rank-n CMC
    from its own cell computed alone, and the joint matrix as
    ``patch_importance`` times ``conditional_matrix``."""
    from corrmatch.learning import (cmc_curve, conditional_matrix, patch_importance,
                                    structure_prior)

    n = len(probe_stack)
    gate = np.zeros(avg_table.shape, dtype=bool)
    gate[np.arange(len(binary.targets)), binary.targets] = True

    def ranks(scores):  # scores[p * n + g]: probe p against gallery g
        return [rank_of_owner(scores[p * n:(p + 1) * n], range(n), p) for p in range(n)]

    totals = single_column_totals(gate, cell_values(probe_stack, gallery_stack, model, gate),
                                  config.kappa)
    cmc = cmc_curve(ranks(totals), n).at_rank(config.n_cmc)
    link_cmcs = []
    for i, j in enumerate(binary.targets):
        cell = np.zeros_like(gate)
        cell[i, j] = True
        link = ranks(cell_values(probe_stack, gallery_stack, model, cell)[0])
        link_cmcs.append(sum(r <= config.n_cmc for r in link) / n)
    importance = patch_importance(structure_prior(link_cmcs), config.t_d)
    return cmc, importance[:, None] * conditional_matrix(binary, avg_table)


def binary_correlation(probe_desc, gallery_desc, binary, model, n_gallery: int) -> np.ndarray:
    """One-pair reference for ``matching.binary_structure_score_matrix``:
    probe patch i's log similarity to gallery patch targets[i] at that
    cell, -inf everywhere else."""
    values = np.full((len(binary.targets), n_gallery), -np.inf)
    for i, j in enumerate(binary.targets):
        values[i, j] = location_log_similarity(model, i, probe_desc[i] - gallery_desc[[j]])[0]
    return values


def row_argmax(bounds, values):
    """Per-row reference for ``assignment.row_best_cells``: the rows holding
    a cell and, per pair, the first of each row's cells with its largest
    value."""
    live, cells = [], []
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        if hi > lo:
            live.append(i)
            cells.append(lo + values[lo:hi].argmax(axis=0))
    return np.array(live, dtype=np.int64), np.array(cells, dtype=np.int64).reshape(
        len(live), values.shape[1])


def _soft_channel_weights(values, lo, hi, bins):
    """Linear soft assignment onto bin centers, clamped at the range ends:
    (low bin, high bin, low weight, high weight) per pixel."""
    width = (hi - lo) / bins
    pos = np.clip((values - lo) / width - 0.5, 0.0, bins - 1.0)
    low = np.floor(pos).astype(np.int64)
    low = np.minimum(low, bins - 2) if bins > 1 else np.zeros_like(low)
    frac = pos - low if bins > 1 else np.zeros_like(pos)
    return low, low + 1 if bins > 1 else low, 1.0 - frac, frac


def _gradient_orientation(y_plane, gradient_bins):
    """Soft circular orientation assignment and gradient magnitude per pixel."""
    gy, gx = np.gradient(y_plane)
    magnitude = np.hypot(gx, gy)
    pos = (np.arctan2(gy, gx) + np.pi) / (2.0 * np.pi / gradient_bins)
    low = np.floor(pos).astype(np.int64)
    frac = pos - low
    return low % gradient_bins, (low + 1) % gradient_bins, 1.0 - frac, frac, magnitude


def lab(pixels):
    """sRGB bytes to CIELAB (D65) by the formula, fresh arrays throughout."""
    rgb = pixels.astype(np.float64) / 255.0
    linear = np.where(rgb <= 0.04045, rgb / 12.92, ((rgb + 0.055) / 1.055) ** 2.4)
    m = np.array([[0.4124564, 0.3575761, 0.1804375],
                  [0.2126729, 0.7151522, 0.0721750],
                  [0.0193339, 0.1191920, 0.9503041]])
    t = (linear @ m.T) / np.array([0.95047, 1.0, 1.08883])
    f = np.where(t > (6 / 29) ** 3, np.cbrt(t), t / (3 * (6 / 29) ** 2) + 4 / 29)
    return np.stack([116.0 * f[..., 1] - 16.0, 500.0 * (f[..., 0] - f[..., 1]),
                     200.0 * (f[..., 1] - f[..., 2])], axis=-1)


def luminance(pixels):
    """Y = 0.299 R + 0.587 G + 0.114 B on byte values."""
    p = pixels.astype(np.float64)
    return 0.299 * p[..., 0] + 0.587 * p[..., 1] + 0.114 * p[..., 2]


def descriptors(img, grid, color_bins: int, gradient_bins: int) -> np.ndarray:
    """Per-patch reference for ``imaging.extract_descriptors``: every
    per-pixel array fresh, planes filled with ``np.add.at`` and one
    summed-area lookup per patch."""
    from corrmatch.geometry import patch_at

    lab_planes = lab(img.pixels)
    g_lo, g_hi, g_wlo, g_whi, grad_mag = _gradient_orientation(luminance(img.pixels),
                                                               gradient_bins)
    h, w = img.height, img.width
    n_color = 3 * color_bins
    planes = np.zeros((n_color + gradient_bins, h, w))
    rows_idx, cols_idx = np.indices((h, w))
    for ch, (lo, hi) in enumerate(((0.0, 100.0), (-128.0, 128.0), (-128.0, 128.0))):
        b_lo, b_hi, w_lo, w_hi = _soft_channel_weights(lab_planes[..., ch], lo, hi, color_bins)
        np.add.at(planes, (ch * color_bins + b_lo, rows_idx, cols_idx), w_lo)
        np.add.at(planes, (ch * color_bins + b_hi, rows_idx, cols_idx), w_hi)
    np.add.at(planes, (n_color + g_lo, rows_idx, cols_idx), g_wlo * grad_mag)
    np.add.at(planes, (n_color + g_hi, rows_idx, cols_idx), g_whi * grad_mag)
    sat = np.zeros((planes.shape[0], h + 1, w + 1))
    sat[:, 1:, 1:] = np.cumsum(np.cumsum(planes, axis=1), axis=2)

    out = np.empty((grid.n_patches, n_color + gradient_bins))
    pw, ph = grid.patch_width, grid.patch_height
    for k in range(grid.n_patches):
        ref = patch_at(grid, k)
        x0, y0 = ref.col * grid.stride_x, ref.row * grid.stride_y
        counts = (sat[:, y0 + ph, x0 + pw] - sat[:, y0, x0 + pw]
                  - sat[:, y0 + ph, x0] + sat[:, y0, x0])
        color, grad = counts[:n_color], counts[n_color:]
        out[k, :n_color] = color / color.sum()
        grad_total = grad.sum()
        out[k, n_color:] = grad / grad_total if grad_total > 0.0 else 0.0
    return out


def ppm_header(data: bytes) -> tuple[int, int, int]:
    """Reference for the binary PPM header grammar of ``imaging``: width,
    height and payload offset of the P6 file starting ``data``, read by a
    hand-written tokenizer, with the ``PpmError`` type and message the
    library raises for a bad header.  A token is read no further than one
    byte past 64, the longest a header may hold, and a message quotes at
    most a token's first 16 bytes."""
    from corrmatch.imaging import MalformedHeaderError, UnsupportedFormatError

    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c == b"#":
                while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and pos - start <= 64 and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedHeaderError("unexpected end of PPM header")
        if pos - start > 64:
            raise MalformedHeaderError(f"PPM token {data[start:start + 16]!r} is over 64 bytes")
        return data[start:pos]

    magic = next_token()
    if magic != b"P6":
        raise MalformedHeaderError(f"not a binary PPM (magic {magic[:16]!r})")
    fields = [next_token() for _ in range(3)]
    if not all(field.isdigit() for field in fields):
        quoted = b" ".join(field[:16] for field in fields)
        raise MalformedHeaderError(f"non-decimal PPM header field in {quoted!r}")
    width, height, maxval = map(int, fields)
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedFormatError(f"only maxval 255 supported, got {maxval}")
    return width, height, pos + 1  # exactly one whitespace byte separates header and payload


def zigzag_ordinal(grid, row: int, col: int) -> int:
    """Scalar reference for the zig-zag order of ``geometry.patch_at`` and
    ``colocated_table``: even rows run left to right, odd rows right to left."""
    if not (0 <= row < grid.n_rows and 0 <= col < grid.n_cols):
        raise ValueError(f"cell ({row}, {col}) outside {grid.n_rows}x{grid.n_cols} grid")
    return row * grid.n_cols + (col if row % 2 == 0 else grid.n_cols - 1 - col)


def patch_origin(grid, patch) -> tuple[int, int]:
    """Top-left pixel (x, y) of a patch."""
    return patch.col * grid.stride_x, patch.row * grid.stride_y


def colocated_patch(probe_grid, gallery_grid, p):
    """Scalar reference for ``geometry.colocated_table``: (ordinal, row) of
    the gallery patch whose origin is nearest to probe patch p's origin,
    ties to the smaller ordinal, by trying the lattice points around it."""
    px, py = p.col * probe_grid.stride_x, p.row * probe_grid.stride_y

    def axis_candidates(target, stride, count):
        lo = min(max(target // stride, 0), count - 1)
        return sorted({lo, min(lo + 1, count - 1)})

    best = None  # (squared distance, ordinal, row)
    for row in axis_candidates(py, gallery_grid.stride_y, gallery_grid.n_rows):
        for col in axis_candidates(px, gallery_grid.stride_x, gallery_grid.n_cols):
            d2 = (col * gallery_grid.stride_x - px) ** 2 + (row * gallery_grid.stride_y - py) ** 2
            key = (d2, zigzag_ordinal(gallery_grid, row, col), row)
            if best is None or key < best:
                best = key
    return best[1], best[2]
