"""Batched paths against their per-location references, bit for bit.

Each batched path replaced a loop over probe rows, windows, patches or
links; ``oracles`` keeps those loops, and every comparison with them is
``np.array_equal``, not a tolerance.  One tolerance is stated: the cell
kernel's factor form of d . M . d against the form on differences, which
metric training and ``oracles.location_log_similarity`` keep.
"""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrmatch import assignment, matching
from corrmatch.assignment import row_best_cells
from corrmatch.config import RunConfig
from corrmatch.geometry import GridSpec, colocated_distance, colocated_table, patch_at
from corrmatch.imaging import RgbImage, extract_descriptors
from corrmatch.learning import _TrainingContext, conditional_matrix
from corrmatch.matching import (BinaryMappingStructure, CellTable, adjacency_candidates,
                                cell_log_similarity, correct_pair_log_similarity, greedy_scores)
from corrmatch.metric import MetricModel, build_avg_similarity, build_training_pairs

import oracles


# The two forms of d . M . d agree to rounding: the largest gap seen on
# these draws is about 1e-13.
FORMS_RTOL = FORMS_ATOL = 1e-9


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
        links = matching.cell_log_similarity(matching.CellTable(probe, gallery, model),
                                             rows, cols)
    expect = oracles.factor_cell_values(probe, gallery, model, rows, cols)
    assert np.array_equal(got, expect.reshape(len(rows), n_probe * n_gallery))
    assert np.array_equal(links, expect)
    assert np.allclose(got, oracles.cell_values(probe, gallery, model, gate),
                       rtol=FORMS_RTOL, atol=FORMS_ATOL)
    for c, (i, j) in enumerate(zip(rows, cols)):  # each link alone, and in the metric's form
        assert np.array_equal(links[c], matching.cell_log_similarity(
            matching.CellTable(probe, gallery, model), [i], [j])[0])
        on_differences = oracles.location_log_similarity(
            model, i, probe[:, i, None, :] - gallery[None, :, j, :])
        assert np.allclose(links[c], on_differences, rtol=FORMS_RTOL, atol=FORMS_ATOL)


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
    # Every cell, one cell and one probe image at a time.
    all_rows, all_cols = np.nonzero(np.ones((n_a, n_b), dtype=bool))
    every = oracles.factor_cell_values(probe, gallery, model, all_rows, all_cols)
    every = every.reshape(n_a * n_b, -1)
    assert np.allclose(every, oracles.cell_values(probe, gallery, model,
                                                  np.ones((n_a, n_b), dtype=bool)),
                       rtol=FORMS_RTOL, atol=FORMS_ATOL)
    with mock.patch.object(matching, "_CHUNK_VALUES", budget):
        table = matching.CellTable(probe, gallery, model)
        singles = [matching.CellTable(probe[p:p + 1], gallery, model) for p in range(n_probe)]
        for size in sizes:  # small grids: requests repeat cells and overlap earlier ones
            rows, cols = rng.integers(0, n_a, size), rng.integers(0, n_b, size)
            got = table.values(rows, cols)
            assert np.array_equal(got, every[rows * n_b + cols])
            assert np.array_equal(got, matching.cell_log_similarity(
                matching.CellTable(probe, gallery, model), rows,
                cols).reshape(size, n_probe * n_gallery))
            by_probe = got.reshape(size, n_probe, n_gallery)
            for p, single in enumerate(singles):
                assert np.array_equal(single.values(rows, cols), by_probe[:, p])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 3), n_b=st.integers(1, 4),
       dim=st.sampled_from([1, 2, 3, 5, 9, 17, 27, 32, 33, 35]),
       budget=st.sampled_from([1, 7, 40, matching._CHUNK_VALUES]))
def test_cell_values_do_not_depend_on_the_table_shape(seed, n_a, n_b, dim, budget):
    # One formula whatever the table holds: every G in 1-30 gallery images,
    # one probe image or all 30, any chunk budget, and the correct-pair
    # table's (k, k) entries, all bit for bit.
    rng = np.random.default_rng(seed)
    n = 30
    model = random_model(rng, n_a, dim)
    probe = rng.standard_normal((n, n_a, dim))
    gallery = rng.standard_normal((n, n_b, dim))
    gallery[:, 0] = probe[:, 0]  # identical descriptors: log similarity -0.0
    rows, cols = np.nonzero(np.ones((n_a, n_b), dtype=bool))
    with mock.patch.object(matching, "_CHUNK_VALUES", budget):
        full = cell_log_similarity(CellTable(probe, gallery, model), rows, cols)
        pairs = correct_pair_log_similarity(CellTable(probe, gallery, model))
        for size in range(1, n + 1):
            galleries = np.sort(rng.choice(n, size, replace=False))
            p = int(rng.integers(n))
            for probes in ([p], np.arange(n)):
                got = cell_log_similarity(CellTable(probe[probes], gallery[galleries], model),
                                          rows, cols)
                assert np.array_equal(got, full[:, probes][:, :, galleries])
    diagonal = full[:, np.arange(n), np.arange(n)].reshape(n_a, n_b, n)
    assert np.array_equal(pairs, diagonal.transpose(2, 0, 1))
    assert np.all(pairs[:, 0, 0] == 0.0)


def independent_context(probe, gallery, model, config):
    """The correct-pair table as the (k, k) entries of every cell of the
    split's table, and each probe's binary structure scored on a fresh
    single-probe table of its own, which computes its own cells."""
    n, table = len(probe), CellTable(probe, gallery, model)
    rows, cols = np.nonzero(np.ones((table.n_a, table.n_b), dtype=bool))
    every = cell_log_similarity(table, rows, cols)[:, np.arange(n), np.arange(n)]
    pairs = every.reshape(table.n_a, table.n_b, n).transpose(2, 0, 1)
    binaries = []
    for alpha in range(n):
        candidates = adjacency_candidates(pairs[alpha], config.probe_grid(),
                                          config.gallery_grid(), config.adjacency_ranges)
        single = CellTable(probe[alpha:alpha + 1], gallery, model)
        binaries.append(matching.best_binary_structure(single, alpha, candidates, config.kappa))
    return pairs, binaries


@example(seed=0, n_probe=2, dim=32, ranges=(1, 2, 3, 4), levels=0, block=(2, 4))
@example(seed=1, n_probe=7, dim=13, ranges=(2,), levels=3, block=(3, 5))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_probe=st.integers(2, 7),
       dim=st.sampled_from([1, 3, 8, 13, 32]),
       ranges=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
       levels=st.sampled_from([0, 2, 3]), block=st.sampled_from([(1, 1), (2, 4), (3, 5)]))
def test_training_context_equals_independent_single_probe_tables(seed, n_probe, dim, ranges,
                                                                 levels, block):
    # The blocked correct-pair table, its average and the binary structures
    # found from candidate tables filled in one pass, against tables that
    # each compute their own cells; descriptors drawn from few levels make
    # appearance ties for the adjacency search to break.
    config = RunConfig(image_width=12, image_height=20, patch_width=4, patch_height=4,
                       probe_stride_x=4, probe_stride_y=4, gallery_stride_x=2,
                       gallery_stride_y=2, adjacency_ranges=ranges)
    n_a, n_b = config.probe_grid().n_patches, config.gallery_grid().n_patches
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_a, dim)
    draw = (lambda shape: rng.integers(0, levels, shape) / levels) if levels else rng.random
    probe, gallery = draw((n_probe, n_a, dim)), draw((n_probe, n_b, dim))
    pairs, binaries = independent_context(probe, gallery, model, config)
    kernel, calls = matching.cell_log_similarity, []

    def counted(table, rows, cols):
        calls.append(len(rows))
        return kernel(table, rows, cols)

    with mock.patch.object(matching, "_PAIR_BLOCK", block), \
            mock.patch.object(matching, "cell_log_similarity", counted):
        got = matching.correct_pair_log_similarity(CellTable(probe, gallery, model))
        ctx = _TrainingContext(probe, gallery, model, config)
    assert np.array_equal(got, pairs)
    assert np.array_equal(ctx.avg_table, build_avg_similarity(pairs))
    assert [b.targets for b in ctx.binary_structures] == [b.targets for b in binaries]
    assert calls == [] and ctx.table.computed == 0  # no cell scored, the split memo empty
    candidates = [adjacency_candidates(pairs[alpha], config.probe_grid(), config.gallery_grid(),
                                       ranges) for alpha in range(n_probe)]
    for alpha, single in enumerate(matching.candidate_tables(ctx.table, candidates)):
        fresh = CellTable(probe[alpha:alpha + 1], gallery, model)
        rows = np.tile(np.arange(n_a), len(ranges))
        cols = np.concatenate([b.target_array(n_a, n_b) for b in candidates[alpha]])
        held = single.computed
        assert np.array_equal(single.values(rows, cols), fresh.values(rows, cols))
        assert single.computed == held == fresh.computed


@pytest.mark.parametrize("n_probe", [1, 3])
def test_candidate_tables_with_no_candidates_hold_no_cell(n_probe):
    # Every location then has no cell and computes an empty block.
    rng = np.random.default_rng(4)
    model = random_model(rng, 6, 5)
    table = CellTable(rng.random((n_probe, 6, 5)), rng.random((4, 9, 5)), model)
    singles = list(matching.candidate_tables(table, [[] for _ in range(n_probe)]))
    assert [single.n_probe for single in singles] == [1] * n_probe
    assert [single.computed for single in singles] == [0] * n_probe and table.computed == 0


def indefinite_model(rng, n_loc: int, dim: int) -> MetricModel:
    """Random symmetric metrics with eigenvalues of both signs, as a matrix
    built by hand or loaded from a file may have."""
    model = random_model(rng, n_loc, dim)
    shift = 0.5 * np.trace(model.global_matrix) / dim * np.eye(dim)
    return MetricModel(matrices=model.matrices - shift, sigmas=model.sigmas,
                       global_matrix=model.global_matrix - shift, global_sigma=0.7,
                       fallback=model.fallback)


@pytest.mark.parametrize("make_model", [random_model, indefinite_model])
def test_equal_descriptors_score_exactly_minus_zero(make_model):
    # Equal descriptors are planted in products of other shapes: 12 probe
    # images against 30 gallery images in the cell kernel, and each probe
    # patch in 4 of 297 gallery patches of 30 images, an 8,910-row gemm,
    # in the correct-pair table.  Padded to a multiple of 8 columns, their
    # projections keep their bits, so the factor-space distance of an equal
    # pair is (n + n) - 2n, exactly 0, and its log similarity -0.0 with no
    # tolerance and no descriptor comparison.  Unpadded, dims 17, 33 and 35
    # moved gemm rows with the row count under OpenBLAS's SkylakeX kernels.
    n_patches, n_b = 6, 297
    for dim in (9, 17, 32, 33, 35):
        rng = np.random.default_rng(21)
        model = make_model(rng, n_patches, dim)
        assert np.any(np.linalg.eigvalsh(model.matrices) < 0) == (make_model is indefinite_model)
        probe = 100.0 * rng.random((30, n_patches, dim))
        gallery = np.concatenate((probe[rng.permutation(12)],
                                  100.0 * rng.random((18, n_patches, dim))))
        diagonal = np.arange(n_patches)
        got = matching.cell_log_similarity(matching.CellTable(probe[:12], gallery, model),
                                           diagonal, diagonal)
        by_cell = probe[:12].transpose(1, 0, 2)[:, :, None], gallery.transpose(1, 0, 2)[:, None]
        equal = (by_cell[0] == by_cell[1]).all(axis=3)  # (cell, probe image, gallery image)
        assert equal.sum() == n_patches * 12
        assert np.all(got[equal] == 0.0) and np.all(np.signbit(got[equal])), f"dim {dim}"
        targets = rng.permutation(n_b)[:4 * n_patches].reshape(n_patches, 4)
        gallery = 100.0 * rng.random((30, n_b, dim))
        gallery[:, targets] = probe[:, :, None]
        pairs = correct_pair_log_similarity(matching.CellTable(probe, gallery, model))
        equal = pairs[:, diagonal[:, None], targets]
        assert np.all(equal == 0.0) and np.all(np.signbit(equal)), f"dim {dim}"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_probe=st.integers(1, 3), n_gallery=st.integers(1, 4),
       n_a=st.integers(1, 6), n_b=st.integers(1, 7), dim=st.integers(1, 9))
def test_indefinite_cells_match_clamped_difference_form(seed, n_probe, n_gallery, n_a, n_b,
                                                         dim):
    rng = np.random.default_rng(seed)
    model = indefinite_model(rng, n_a, dim)
    probe = rng.standard_normal((n_probe, n_a, dim))
    gallery = rng.standard_normal((n_gallery, n_b, dim))
    gate = np.ones((n_a, n_b), dtype=bool)
    got = matching.CellTable(probe, gallery, model).values(*np.nonzero(gate))
    expect = oracles.cell_values(probe, gallery, model, gate)
    assert np.allclose(got, expect, rtol=FORMS_RTOL, atol=FORMS_ATOL)


def test_cell_table_computes_each_distinct_cell_once():
    rng = np.random.default_rng(11)
    n_a, n_b = 5, 6
    model = random_model(rng, n_a, 4)
    table = matching.CellTable(rng.standard_normal((3, n_a, 4)),
                               rng.standard_normal((2, n_b, 4)), model)
    computed = []

    def counting(table, rows, cols):
        computed.extend(zip(rows.tolist(), cols.tolist()))
        return kernel(table, rows, cols)

    kernel = matching.cell_log_similarity
    requested = set()
    with mock.patch.object(matching, "cell_log_similarity", counting):
        for size in (4, 9, 0, 30, 30, 12):
            rows, cols = rng.integers(0, n_a, size), rng.integers(0, n_b, size)
            table.values(rows, cols)
            requested.update(zip(rows.tolist(), cols.tolist()))
            assert len(computed) == len(set(computed)) == table.computed
            assert set(computed) == requested


def test_cell_table_growth_holds_no_second_copy_of_the_memo():
    # A read that adds cells allocates their fresh block and the array it
    # returns.  A memo that copied its cells into a larger buffer to grow
    # would hold the old and new buffers at once, twice the cells it holds.
    rng = np.random.default_rng(5)
    n_a, n_b, dim, n_images = 20, 30, 2, 30  # small dim: small kernel temporaries
    model = random_model(rng, n_a, dim)
    table = matching.CellTable(rng.standard_normal((n_images, n_a, dim)),
                               rng.standard_normal((n_images, n_b, dim)), model)
    held, added = np.split(rng.permutation(n_a * n_b)[:456], [256])
    table.values(*np.unravel_index(held, (n_a, n_b)))
    tracemalloc.start()
    try:
        got = table.values(*np.unravel_index(added, (n_a, n_b)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.computed == 456
    fresh_block = len(added) * n_images * n_images * 8
    assert peak < 1.3 * (fresh_block + got.nbytes)


def test_cell_table_reads_are_copies():
    # gated_correlations adds log p to what values() returns, in place: a
    # read handing out a view of the memo would corrupt every later read.
    rng = np.random.default_rng(8)
    n_a, n_b, dim = 4, 5, 3
    model = random_model(rng, n_a, dim)
    probe, gallery = rng.standard_normal((2, n_a, dim)), rng.standard_normal((3, n_b, dim))
    gate = rng.random((n_a, n_b)) < 0.5
    table = matching.CellTable(probe, gallery, model)
    expect = oracles.factor_cell_values(probe, gallery, model, *np.nonzero(gate))
    expect = expect.reshape(int(gate.sum()), len(probe) * len(gallery))
    assert np.allclose(expect, oracles.cell_values(probe, gallery, model, gate),
                       rtol=FORMS_RTOL, atol=FORMS_ATOL)
    for _ in range(3):  # the first read computes every cell, the later ones hold them
        got = table.values(*np.nonzero(gate))
        assert np.array_equal(got, expect)
        got += 1.0


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
    probe = rng.standard_normal((mid, n_loc, dim))
    gallery = rng.standard_normal((mid, rows, dim))
    gallery[0, 0] = probe[0, locs[0]]  # identical descriptors: log similarity -0.0
    cols = rng.integers(0, rows, n_calls)
    got = cell_log_similarity(CellTable(probe, gallery, model), locs, cols)
    expect = oracles.factor_cell_values(probe, gallery, model, locs, cols)
    for k, (loc, col) in enumerate(zip(locs, cols)):
        assert np.array_equal(got[k], expect[k])
        on_differences = oracles.location_log_similarity(
            model, loc, probe[:, loc, None, :] - gallery[None, :, col, :])
        assert np.allclose(got[k], on_differences, rtol=FORMS_RTOL, atol=FORMS_ATOL)

    table = correct_pair_log_similarity(CellTable(probe, gallery, model))
    every = oracles.factor_cell_values(probe, gallery, model, *np.nonzero(
        np.ones((n_loc, rows), dtype=bool))).reshape(n_loc, rows, mid, mid)
    for i in range(n_loc):  # the cell kernel's (k, k) entries, and the form training used
        assert np.array_equal(table[:, i], every[i, :, np.arange(mid), np.arange(mid)])
        alone = oracles.location_log_similarity(model, i, probe[:, i, None, :] - gallery)
        assert np.allclose(table[:, i], alone, rtol=FORMS_RTOL, atol=FORMS_ATOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_loc=st.integers(1, 6), n=st.integers(1, 12),
       dim=st.integers(1, 9))
def test_log_similarity_takes_the_one_row_path(seed, n_loc, n, dim):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_loc, dim)
    fa, fb = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
    locs = rng.integers(0, n_loc, n)
    # Pair k holds fa[k] at every probe location and fb[k] as its one
    # gallery patch; a stack of n pairs against each pair alone.
    probe, gallery = np.repeat(fa[:, None], n_loc, axis=1), fb[:, None]
    stacked = correct_pair_log_similarity(CellTable(probe, gallery, model))
    stacked = stacked[np.arange(n), locs, 0]
    for k, loc in enumerate(locs):
        alone = CellTable(probe[k:k + 1], gallery[k:k + 1], model)
        one = correct_pair_log_similarity(alone)[0, loc, 0]
        assert stacked[k] == one
        assert one == oracles.factor_cell_values(probe[k:k + 1], gallery[k:k + 1], model,
                                                 [loc], [0])[0, 0, 0]


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
    table = correct_pair_log_similarity(CellTable(probe[None], gallery[None], model))[0]
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


def assert_same_bits(got, expect):
    """``np.array_equal``, with the sign of every zero equal too."""
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 6), n_pairs=st.integers(1, 5),
       kappa=st.sampled_from([-50.0, -1.0, 0.0]))
def test_row_best_cells_and_greedy_scores_match_per_row_argmax(seed, n_a, n_pairs, kappa):
    rng = np.random.default_rng(seed)
    degree = rng.integers(0, 9, n_a)  # rows of up to 8 cells, rows without cells included
    bounds = np.concatenate(([0], np.cumsum(degree)))
    # Few distinct values, signed zeros among them: ties everywhere.
    values = rng.choice([-2.0, -0.5, -0.0, 0.0, 1.5], size=(int(bounds[-1]), n_pairs))
    expect_live, expect_cells = oracles.row_argmax(bounds, values)
    for chunk_cells in (assignment._CHUNK_CELLS, 7, 1):  # one chunk, a few pairs, one pair
        with mock.patch.object(assignment, "_CHUNK_CELLS", chunk_cells):
            chunks = list(row_best_cells(bounds, values))
        assert all(np.array_equal(live, expect_live) for _, live, _, _ in chunks)
        assert np.array_equal(np.concatenate([at for at, _, _, _ in chunks]), np.arange(n_pairs))
        cells = np.concatenate([cell for _, _, cell, _ in chunks], axis=1)
        assert np.array_equal(cells, expect_cells)
        # The value is the first best cell's, zero sign included.
        assert_same_bits(np.concatenate([best for _, _, _, best in chunks], axis=1),
                         np.take_along_axis(values, expect_cells, axis=0))

    gate = np.arange(8)[None, :] < degree[:, None]
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


# Inexact values whose sums show which tied bidder kept its column, and both
# zeros; kappa is drawn among them too.
@settings(max_examples=100, deadline=None)
@given(pair=grid_pairs(), data=st.data())
def test_training_windows_are_contiguous_slices(pair, data):
    # Each location's window, the gallery patches under zig-zag distance
    # t_d of its co-located patch, is one slice of the gallery stack.
    probe_grid, gallery_grid = pair
    t_d = data.draw(st.integers(1, gallery_grid.n_patches + 2))
    stack = np.zeros((1, probe_grid.n_patches, 1))
    similar, _ = build_training_pairs(stack, np.zeros((1, gallery_grid.n_patches, 1)),
                                      np.zeros((1, gallery_grid.n_patches, 1)), probe_grid,
                                      gallery_grid, t_d)
    everything = np.arange(gallery_grid.n_patches)
    for window, row in zip(similar.windows, colocated_distance(probe_grid, gallery_grid)):
        assert isinstance(window, slice)
        assert np.array_equal(everything[window], np.flatnonzero(row < t_d))


LINK_VALUES = (-1.9, -1.1, -0.8, -0.3, -0.0, 0.0)


# Two draws whose tied bidders sum apart, so a last-tie-wins kernel fails them.
@example(seed=0, n_a=3, n_b=2, n_probe=2, n_gallery=2, n_binaries=2, kappa=-50.0)
@example(seed=6, n_a=4, n_b=2, n_probe=2, n_gallery=2, n_binaries=2, kappa=-1.1)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 9), n_b=st.integers(1, 3),
       n_probe=st.integers(1, 3), n_gallery=st.integers(1, 3), n_binaries=st.integers(1, 4),
       kappa=st.sampled_from([-1.1, -0.8, -0.0, 0.0, -50.0]))
def test_binary_structures_scored_in_one_call_equal_score_gate_on_each(
        seed, n_a, n_b, n_probe, n_gallery, n_binaries, kappa):
    # Up to 9 probe patches on 1-3 gallery patches: many links bid for one.
    rng = np.random.default_rng(seed)
    lookup = rng.choice(LINK_VALUES, size=(n_a, n_b, n_probe, n_gallery))
    table = matching.CellTable(rng.random((n_probe, n_a, 2)), rng.random((n_gallery, n_b, 2)),
                               random_model(rng, n_a, 2))
    binaries = [BinaryMappingStructure(targets=tuple(rng.integers(0, n_b, n_a).tolist()))
                for _ in range(n_binaries)]
    # A subset of the pairs, in any order and with repeats.
    probes = rng.integers(0, n_probe, rng.integers(1, 4))
    galleries = rng.integers(0, n_gallery, rng.integers(1, 4))
    expect = []
    for binary in binaries:
        targets = np.array(binary.targets)
        gate = np.arange(n_b) == targets[:, None]
        values = lookup[np.arange(n_a), targets][:, probes][:, :, galleries].reshape(n_a, -1)
        totals = assignment.score_gate(gate, values, kappa).totals
        assert_same_bits(totals, oracles.single_column_totals(gate, values, kappa))
        expect.append(totals.reshape(len(probes), len(galleries)))
    def cells(table, rows, cols):  # the drawn values in place of the cell kernel
        return lookup[rows, cols]

    with mock.patch.object(matching, "cell_log_similarity", cells):
        for chunk_cells in (assignment._CHUNK_CELLS, 7, 1):
            with mock.patch.object(assignment, "_CHUNK_CELLS", chunk_cells):
                got = matching.binary_structure_score_matrix(probes, galleries, binaries, table,
                                                             kappa)
            assert_same_bits(got, np.array(expect))
