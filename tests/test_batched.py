"""Batched paths against their per-location references, bit for bit.

Each batched path replaced a loop over probe rows, windows, patches or
links; ``oracles`` keeps those loops, and every comparison here is
``np.array_equal``, not a tolerance.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch import assignment, matching
from corrmatch.assignment import row_best_cells
from corrmatch.geometry import GridSpec, colocated_table, patch_at
from corrmatch.imaging import RgbImage, extract_descriptors
from corrmatch.learning import conditional_matrix
from corrmatch.matching import BinaryMappingStructure, adjacency_candidates, greedy_scores
from corrmatch.metric import (MetricModel, appearance_similarity, batched_similarity,
                              build_training_pairs, correct_pair_log_similarity, log_similarity)

import oracles


def random_model(rng, n_loc: int, dim: int) -> MetricModel:
    """Random PSD metrics, with some locations on the global fallback."""
    a = rng.standard_normal((n_loc + 1, dim, dim))
    mats = a @ a.transpose(0, 2, 1) / dim
    return MetricModel(matrices=mats[1:], sigmas=rng.random(n_loc) + 0.2,
                       global_matrix=mats[0], global_sigma=0.7,
                       fallback=rng.random(n_loc) < 0.3)


@st.composite
def grid_pairs(draw, min_side=1):
    """Two valid lattices on one small canvas."""
    width, height = draw(st.integers(min_side, 16)), draw(st.integers(min_side, 16))

    def one():
        pw, ph = draw(st.integers(1, width)), draw(st.integers(1, height))
        sx = draw(st.sampled_from([s for s in range(1, width + 1) if (width - pw) % s == 0]))
        sy = draw(st.sampled_from([s for s in range(1, height + 1) if (height - ph) % s == 0]))
        return GridSpec(width, height, pw, ph, sx, sy)
    return one(), one()


@settings(max_examples=200, deadline=None)
@given(grid_pairs())
def test_colocated_table_matches_per_patch_oracle(pair):
    probe, gallery = pair
    ordinals, rows = colocated_table(probe, gallery)
    for i in range(probe.n_patches):
        expect = oracles.colocated_patch(probe, gallery, patch_at(probe, i))
        assert (ordinals[i], rows[i]) == expect


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_probe=st.integers(1, 3), n_gallery=st.integers(1, 4),
       n_a=st.integers(1, 6), n_b=st.integers(1, 7), dim=st.integers(1, 9),
       budget=st.sampled_from([1, 2, 7, 40, matching._CHUNK_VALUES]))
def test_cell_values_match_per_row_oracle(seed, n_probe, n_gallery, n_a, n_b, dim, budget):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_a, dim)
    probe = rng.standard_normal((n_probe, n_a, dim))
    gallery = rng.standard_normal((n_gallery, n_b, dim))
    gallery[:, 0] = probe[0, 0]  # identical descriptors: log similarity -0.0
    gate = rng.random((n_a, n_b)) < 0.4  # rows without cells included
    rows, cols = np.nonzero(gate)
    with mock.patch.object(matching, "_CHUNK_VALUES", budget):
        got = matching.CellTable(probe, gallery, model).values(rows, cols)
        links = matching.cell_log_similarity(probe, gallery, model, rows, cols)
    assert np.array_equal(got, oracles.cell_values(probe, gallery, model, gate))
    for c, (i, j) in enumerate(zip(rows, cols)):  # the per-link form training used
        alone = log_similarity(model, [i],
                               (probe[:, i, None, :] - gallery[None, :, j, :])[None])[0]
        assert np.array_equal(links[c], alone)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_probe=st.integers(1, 3), n_gallery=st.integers(1, 4),
       n_a=st.integers(1, 6), n_b=st.integers(1, 7), dim=st.integers(1, 9),
       budget=st.sampled_from([1, 7, matching._CHUNK_VALUES]),
       sizes=st.lists(st.integers(0, 12), min_size=1, max_size=5))
def test_cell_table_reads_equal_fresh_values(seed, n_probe, n_gallery, n_a, n_b, dim, budget,
                                             sizes):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_a, dim)
    probe = rng.standard_normal((n_probe, n_a, dim))
    gallery = rng.standard_normal((n_gallery, n_b, dim))
    gallery[:, 0] = probe[0, 0]  # identical descriptors: log similarity -0.0
    # Every cell, one kernel call per probe row.
    every = oracles.cell_values(probe, gallery, model, np.ones((n_a, n_b), dtype=bool))
    with mock.patch.object(matching, "_CHUNK_VALUES", budget):
        table = matching.CellTable(probe, gallery, model)
        singles = [matching.CellTable(probe[p:p + 1], gallery, model) for p in range(n_probe)]
        for size in sizes:  # small grids: requests repeat cells and overlap earlier ones
            rows, cols = rng.integers(0, n_a, size), rng.integers(0, n_b, size)
            got = table.values(rows, cols)
            assert np.array_equal(got, every[rows * n_b + cols])
            assert np.array_equal(got, matching.cell_log_similarity(
                probe, gallery, model, rows, cols).reshape(size, n_probe * n_gallery))
            by_probe = got.reshape(size, n_probe, n_gallery)
            for p, single in enumerate(singles):
                assert np.array_equal(single.values(rows, cols), by_probe[:, p])


def test_cell_table_computes_each_distinct_cell_once():
    rng = np.random.default_rng(11)
    n_a, n_b = 5, 6
    model = random_model(rng, n_a, 4)
    table = matching.CellTable(rng.standard_normal((3, n_a, 4)),
                               rng.standard_normal((2, n_b, 4)), model)
    computed = []

    def counting(probe, gallery, model, rows, cols):
        computed.extend(zip(rows.tolist(), cols.tolist()))
        return kernel(probe, gallery, model, rows, cols)

    kernel = matching.cell_log_similarity
    requested = set()
    with mock.patch.object(matching, "cell_log_similarity", counting):
        for size in (4, 9, 0, 30, 30, 12):
            rows, cols = rng.integers(0, n_a, size), rng.integers(0, n_b, size)
            table.values(rows, cols)
            requested.update(zip(rows.tolist(), cols.tolist()))
            assert len(computed) == len(set(computed)) == table.computed
            assert set(computed) == requested


@pytest.mark.parametrize("use_first_image", [True, False])
def test_ablations_stack_a_splits_test_descriptors_once(tmp_path, use_first_image):
    from corrmatch.config import RunConfig
    from corrmatch.harness import (ARMS, DescriptorBank, generate_synthetic, make_splits,
                                   run_ablations)
    config = RunConfig(seed=2, max_iterations=2, selection_count=4, repeats=1,
                       use_first_image=use_first_image)
    manifest, _ = generate_synthetic(str(tmp_path), 8, 2, 0.05, 7, config)
    splits = make_splits(manifest, seed=2, repeats=1)
    calls = []
    stacks, pool = DescriptorBank.stacks, DescriptorBank.gallery_pool

    def counted(method):
        def call(bank, identities):
            calls.append((method.__name__, tuple(identities)))
            return method(bank, identities)
        return call

    with mock.patch.object(DescriptorBank, "stacks", counted(stacks)), \
            mock.patch.object(DescriptorBank, "gallery_pool", counted(pool)):
        run_ablations(manifest, splits, list(ARMS), config)
    train_ids, test_ids = (tuple(ids) for ids in splits.splits[0])
    expect = [("stacks", train_ids), ("stacks", test_ids)]
    if not use_first_image:
        expect.append(("gallery_pool", test_ids))
    assert calls == expect


@settings(max_examples=100, deadline=None)
@given(pair=grid_pairs(), seed=st.integers(0, 2**32 - 1), n_imgs=st.integers(1, 3),
       dim=st.integers(1, 5), data=st.data())
def test_training_differences_match_pair_oracle(pair, seed, n_imgs, dim, data):
    probe_grid, gallery_grid = pair
    # Small t_d clips windows at both ends of the zig-zag order; t_d past
    # the gallery patch count takes every patch.
    t_d = data.draw(st.integers(1, gallery_grid.n_patches + 2))
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal((n_imgs, probe_grid.n_patches, dim))
    gallery = rng.standard_normal((n_imgs, gallery_grid.n_patches, dim))
    wrong = np.roll(gallery, -1, axis=0)
    similar, dissimilar = build_training_pairs(probe, gallery, wrong, probe_grid,
                                               gallery_grid, t_d)
    expect = oracles.training_pairs(list(probe), list(gallery), list(wrong), probe_grid,
                                    gallery_grid, t_d)
    for got, pairs in zip((similar, dissimilar), expect):
        assert len(got) == probe_grid.n_patches
        for d, (a, b) in zip(got, pairs):
            assert np.array_equal(d, a - b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_loc=st.integers(1, 6), n_calls=st.integers(1, 5),
       mid=st.integers(1, 3), rows=st.integers(1, 6), dim=st.integers(1, 9))
def test_log_similarity_matches_location_reference(seed, n_loc, n_calls, mid, rows, dim):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_loc, dim)
    locs = rng.integers(0, n_loc, n_calls)  # repeats and fallback locations included
    d = rng.standard_normal((n_calls, mid, rows, dim))
    d[0, 0, 0] = 0.0  # identical descriptors: log similarity -0.0
    got = log_similarity(model, locs, d)
    for k, loc in enumerate(locs):
        assert np.array_equal(got[k], oracles.location_log_similarity(model, loc, d[k]))

    n_b = rng.integers(1, 7)
    probe = rng.standard_normal((mid, n_loc, dim))
    gallery = rng.standard_normal((mid, n_b, dim))
    table = correct_pair_log_similarity(probe, gallery, model)
    for i in range(n_loc):  # the per-location form training used
        alone = oracles.location_log_similarity(model, i, probe[:, i, None, :] - gallery)
        assert np.array_equal(table[:, i], alone)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_loc=st.integers(1, 6), n=st.integers(1, 12),
       dim=st.integers(1, 9))
def test_batched_similarity_takes_the_one_row_path(seed, n_loc, n, dim):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_loc, dim)
    fa, fb = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
    locs = rng.integers(0, n_loc, n)
    sims = batched_similarity(model, fa, fb, locs)
    for k, loc in enumerate(locs):
        one = appearance_similarity(model, fa[k], fb[k], int(loc))
        assert sims[k] == one
        assert one == np.exp(oracles.location_log_similarity(model, loc, fa[k] - fb[k]))


@settings(max_examples=60, deadline=None)
@given(pair=grid_pairs(), seed=st.integers(0, 2**32 - 1), palette=st.integers(1, 4),
       ranges=st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_adjacency_candidates_match_per_window_oracle(pair, seed, palette, ranges):
    probe_grid, gallery_grid = pair
    rng = np.random.default_rng(seed)
    dim = 3
    model = random_model(rng, probe_grid.n_patches, dim)
    # Descriptors from a small palette tie many similarities exactly.
    colors = rng.standard_normal((palette, dim))
    probe = colors[rng.integers(0, palette, probe_grid.n_patches)]
    gallery = colors[rng.integers(0, palette, gallery_grid.n_patches)]
    table = correct_pair_log_similarity(probe[None], gallery[None], model)[0]
    got = adjacency_candidates(table, probe_grid, gallery_grid, ranges)
    expect = oracles.adjacency_targets(probe, gallery, model, probe_grid, gallery_grid, ranges)
    assert [cand.targets for cand in got] == expect


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 8), n_b=st.integers(1, 30))
def test_conditional_matrix_matches_per_row_oracle(seed, n_a, n_b):
    rng = np.random.default_rng(seed)
    avg = rng.random((n_a, n_b)) * 10.0 ** rng.integers(-3, 1, (n_a, n_b)) + 1e-3
    binary = BinaryMappingStructure(targets=tuple(rng.integers(0, n_b, n_a).tolist()))
    got = conditional_matrix(binary, avg)
    expect = np.stack([oracles.conditional_prob(binary.targets, i, avg) for i in range(n_a)])
    assert np.array_equal(got, expect)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 8), n_b=st.integers(1, 30),
       span=st.integers(0, 6))
def test_conditional_matrix_is_the_row_normalized_average_for_any_targets(seed, n_a, n_b,
                                                                          span):
    # Dividing a row by its linked entry scales the whole row by one factor,
    # which the row normalization cancels: the link moves no entry by more
    # than rounding.
    rng = np.random.default_rng(seed)
    avg = (rng.random((n_a, n_b)) + 1e-3) * 10.0 ** -rng.integers(0, span + 1, (n_a, n_b))
    binary = BinaryMappingStructure(targets=tuple(rng.integers(0, n_b, n_a).tolist()))
    got = conditional_matrix(binary, avg)
    assert np.abs(got - avg / avg.sum(axis=1, keepdims=True)).max() <= 1e-15


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 6), n_pairs=st.integers(1, 5),
       kappa=st.sampled_from([-50.0, -1.0, 0.0]))
def test_row_best_cells_and_greedy_scores_match_per_row_argmax(seed, n_a, n_pairs, kappa):
    rng = np.random.default_rng(seed)
    degree = rng.integers(0, 4, n_a)  # rows without cells included
    bounds = np.concatenate(([0], np.cumsum(degree)))
    # Few distinct values, signed zeros among them: ties everywhere.
    values = rng.choice([-2.0, -0.5, -0.0, 0.0, 1.5], size=(int(bounds[-1]), n_pairs))
    expect_live, expect_cells = oracles.row_argmax(bounds, values)
    for chunk_cells in (assignment._CHUNK_CELLS, 1):  # one chunk, one pair per chunk
        with mock.patch.object(assignment, "_CHUNK_CELLS", chunk_cells):
            chunks = list(row_best_cells(bounds, values))
        assert all(np.array_equal(live, expect_live) for _, live, _, _ in chunks)
        cells = np.concatenate([cell for _, _, cell, _ in chunks], axis=1)
        assert np.array_equal(cells, expect_cells)

    gate = np.arange(4)[None, :] < degree[:, None]
    totals = np.zeros(n_pairs)
    for i in range(n_a):  # the old per-row loop: row maxima, kappa for empty rows
        lo, hi = bounds[i], bounds[i + 1]
        totals += values[lo:hi].max(axis=0) if hi > lo else kappa
    assert np.array_equal(greedy_scores(gate, values, kappa), totals)


@settings(max_examples=40, deadline=None)
@given(pair=grid_pairs(min_side=2), seed=st.integers(0, 2**32 - 1), color_bins=st.integers(1, 8),
       gradient_bins=st.integers(1, 8), flat=st.booleans())
def test_descriptors_match_per_patch_oracle(pair, seed, color_bins, gradient_bins, flat):
    grid = pair[0]  # np.gradient needs two pixels a side
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(grid.image_height, grid.image_width, 3))
    if flat:  # constant blocks: patches inside one have no gradient at all
        pixels = np.repeat(np.repeat(pixels[::4, ::4], 4, axis=0), 4, axis=1)
        pixels = pixels[:grid.image_height, :grid.image_width]
    img = RgbImage(pixels=np.ascontiguousarray(pixels, dtype=np.uint8))
    got = extract_descriptors(img, grid, color_bins, gradient_bins)
    assert np.array_equal(got, oracles.descriptors(img, grid, color_bins, gradient_bins))
