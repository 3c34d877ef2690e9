import struct
import tracemalloc
from collections import Counter
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch.config import RunConfig
from corrmatch.errors import ConfigurationError, FormatError
from corrmatch.geometry import GridSpec
from corrmatch.harness import train_split_metric
from corrmatch.matching import CellTable
from corrmatch.metric import (MAX_EXPONENT, MetricModel, build_avg_similarity,
                              build_training_pairs, load_metric, save_metric, train_metric)

import oracles
from blobs import mutated, non_finite, truncated


def scalar_model(m, sigma):
    mat = np.array([[[float(m)]]])
    return MetricModel(matrices=mat, sigmas=np.array([float(sigma)]),
                       global_matrix=np.array([[float(m)]]), global_sigma=float(sigma))


def pair_table(probe_stack, gallery_stack, model):
    """The correct-pair log similarity table of two aligned stacks."""
    return oracles.correct_pair_log_similarity(CellTable(probe_stack, gallery_stack, model))


def similarity(model, f_a, f_b, loc):
    """Similarity in (0, 1] of one descriptor pair at location ``loc``: f_a
    at every probe location against f_b, the one gallery patch."""
    f_a, f_b = np.asarray(f_a, dtype=np.float64), np.asarray(f_b, dtype=np.float64)
    probe = np.broadcast_to(f_a, (1, model.n_locations, len(f_a)))
    return float(np.exp(pair_table(probe, f_b[None, None], model)[0, loc, 0]))


def diff_column(diffs):
    """1-d descriptor differences as an (n, 1) training array."""
    return np.asarray(diffs, dtype=np.float64)[:, None]


def test_scalar_kissme_hand_arithmetic():
    # Similar differences +/-1 (second moment exactly 1), dissimilar +/-2
    # (second moment exactly 4); ridge gamma = 1e-3 * trace / dim.
    similar = [diff_column([1.0, -1.0])]
    dissimilar = [diff_column([2.0, -2.0])]
    model = train_metric(similar, dissimilar, sigma_scale=0.15)
    expected_m = 1.0 / (1.0 + 1e-3) - 1.0 / (4.0 + 4e-3)
    assert abs(float(model.matrices[0][0, 0]) - expected_m) <= 1e-12
    # sigma = bandwidth scale * mean of max(0, d^T M d) over similar diffs
    assert abs(float(model.sigmas[0]) - 0.15 * expected_m) <= 1e-12


def test_identical_distributions_give_zero_matrix():
    same = diff_column([0.5, -0.5, 1.5, -1.5])
    model = train_metric([same], [same], sigma_scale=0.15)
    assert abs(float(model.matrices[0][0, 0])) <= 1e-15


def test_learned_matrix_is_symmetric():
    rng = np.random.default_rng(0)
    dim = 6
    sim = rng.random((40, dim)) - rng.random((40, dim))
    dis = rng.random((40, dim)) - rng.random((40, dim)) * 3.0
    model = train_metric([sim], [dis], sigma_scale=0.15)
    assert np.abs(model.matrices[0] - model.matrices[0].T).max() <= 1e-9


def test_similarity_of_identical_descriptors_is_exactly_one():
    rng = np.random.default_rng(1)
    model = scalar_model(0.75, 1.0)
    for _ in range(100):
        f = rng.random(1)
        assert similarity(model, f, f, 0) == 1.0


def test_scalar_similarity_example():
    model = scalar_model(0.75, 1.0)
    s = similarity(model, np.array([2.0]), np.array([0.0]), 0)
    assert s == pytest.approx(np.exp(-3.0), abs=1e-12)


def test_negative_direction_clamps_to_one():
    model = scalar_model(-1.0, 1.0)
    s = similarity(model, np.array([2.0]), np.array([0.0]), 0)
    assert s == 1.0


def test_similarity_is_symmetric_in_arguments():
    rng = np.random.default_rng(2)
    dim = 5
    m = rng.random((dim, dim))
    m = (m + m.T) / 2
    model = MetricModel(matrices=m[None], sigmas=np.array([0.7]),
                        global_matrix=m, global_sigma=0.7)
    for _ in range(50):
        fa, fb = rng.random(dim), rng.random(dim)
        assert similarity(model, fa, fb, 0) == \
            similarity(model, fb, fa, 0)


def test_similarity_strictly_decreases_along_positive_ray():
    model = scalar_model(0.75, 0.5)
    scales = [0.5, 1.0, 2.0, 4.0]
    sims = [similarity(model, np.array([s]), np.array([0.0]), 0)
            for s in scales]
    assert all(a > b for a, b in zip(sims, sims[1:]))


def test_batched_matches_scalar():
    rng = np.random.default_rng(3)
    dim, n_loc = 4, 6
    mats = rng.random((n_loc, dim, dim))
    mats = (mats + mats.transpose(0, 2, 1)) / 2
    model = MetricModel(matrices=mats, sigmas=rng.random(n_loc) + 0.1,
                        global_matrix=mats[0], global_sigma=1.0)
    fa, fb = rng.random((40, dim)), rng.random((40, dim))
    locs = rng.integers(0, n_loc, size=40)
    probe = np.repeat(fa[:, None], n_loc, axis=1)  # pair k: fa[k] at every location
    batch = np.exp(pair_table(probe, fb[:, None], model))[np.arange(40), locs, 0]
    for k in range(40):
        assert batch[k] == pytest.approx(
            similarity(model, fa[k], fb[k], int(locs[k])), abs=1e-12)


def test_log_similarity_matches_three_operand_reference():
    rng = np.random.default_rng(7)
    dim, n_loc = 32, 3
    a = rng.standard_normal((n_loc, dim, dim))
    mats = a @ a.transpose(0, 2, 1) / dim                    # PSD per location
    model = MetricModel(matrices=mats, sigmas=rng.random(n_loc) + 0.5,
                        global_matrix=mats[0], global_sigma=1.0)
    d = rng.standard_normal((5, 7, dim)) * 0.3
    zero = np.zeros((5, n_loc, dim))  # probe 0 against gallery d: difference -d
    for loc in range(n_loc):
        got = pair_table(zero, d, model)[:, loc]
        expect = oracles.log_similarity(mats[loc], model.sigmas[loc], d, MAX_EXPONENT)
        assert got.shape == (5, 7)
        assert np.all(expect < 0.0)
        assert np.allclose(got, expect, rtol=1e-12, atol=0.0)
    huge = pair_table(zero, d * 1e4, model)[:, 0]           # clamped exponents
    assert np.all(huge == -MAX_EXPONENT)


def test_fallback_when_location_underpopulated():
    rng = np.random.default_rng(4)
    dim = 3
    rich_sim = rng.random((20, dim)) - rng.random((20, dim))
    rich_dis = rng.random((20, dim)) - rng.random((20, dim)) * 2
    poor = rng.random((2, dim)) - rng.random((2, dim))  # < dim + 1
    model = train_metric([rich_sim, poor], [rich_dis, poor], sigma_scale=0.15)
    assert not model.fallback[0]
    assert model.fallback[1]
    assert np.array_equal(model.matrices[1], model.global_matrix)


def test_empty_training_set_rejected():
    with pytest.raises(ConfigurationError):
        train_metric([], [], sigma_scale=0.15)
    empty = np.empty((0, 3))
    with pytest.raises(ConfigurationError):
        train_metric([empty], [empty], sigma_scale=0.15)


def test_dim_mismatch_rejected():
    model = scalar_model(1.0, 1.0)
    with pytest.raises(ValueError):
        similarity(model, np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0)


def test_avg_similarity_single_pair_and_duplicate():
    model = scalar_model(1.0, 1.0)
    p = np.array([[0.5]])          # 1 probe patch
    g = np.array([[0.5], [0.9]])   # 2 gallery patches
    one = build_avg_similarity(np.exp(pair_table(p[None], g[None], model)))
    dup = build_avg_similarity(np.exp(pair_table(np.stack([p, p]), np.stack([g, g]), model)))
    assert np.array_equal(one, dup)
    assert one[0, 0] == 1.0
    assert one[0, 1] == pytest.approx(np.exp(-0.16), abs=1e-12)
    assert one.shape == (1, 2)


def test_avg_similarity_two_pair_mean():
    model = scalar_model(1.0, 1.0)
    p1, g1 = np.array([[0.0]]), np.array([[1.0]])
    p2, g2 = np.array([[0.0]]), np.array([[2.0]])
    table = build_avg_similarity(np.exp(pair_table(np.stack([p1, p2]), np.stack([g1, g2]),
                                                   model)))
    s1, s2 = np.exp(-1.0), np.exp(-4.0)
    assert table[0, 0] == pytest.approx((s1 + s2) / 2, abs=1e-14)
    assert 0.0 < table[0, 0] <= 1.0


def test_avg_similarity_adds_the_maps_in_pair_order():
    # The running sum adds each pair's map in pair order, which is np.mean's
    # order over the stacked maps whenever a map has more than one cell.  A
    # map of one cell (N_A * N_B = 1) is the one case that differs: numpy
    # sums 8 or more of those pairwise, so the last bits may differ (up to
    # 4 ulps over 500 draws of 30 pairs).  No output moves there, because a
    # one-cell conditional row is exactly 1.0.
    from functools import reduce

    from corrmatch.learning import conditional_rows
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 8, 9, 30):
        for cells in ((1, 1), (1, 2), (3, 5)):
            sims = rng.random((n, *cells))
            got = build_avg_similarity(iter(list(sims)))
            assert np.array_equal(got, reduce(np.add, sims) / n)
            if n < 8 or cells != (1, 1):
                assert np.array_equal(got, sims.mean(axis=0))
            else:
                assert np.allclose(got, sims.mean(axis=0), rtol=n * np.finfo(float).eps, atol=0)
    one_cell = build_avg_similarity(rng.random((30, 1, 1)))
    assert conditional_rows(one_cell, np.array([0]), np.array([0])) == 1.0


def test_training_pair_builder_counts():
    probe_grid = GridSpec(48, 128, 18, 24, 6, 8)
    gallery_grid = GridSpec(48, 128, 18, 24, 3, 4)
    rng = np.random.default_rng(5)
    n_imgs, dim = 3, 4
    probes = np.stack([rng.random((84, dim)) for _ in range(n_imgs)])
    galleries = np.stack([rng.random((297, dim)) for _ in range(n_imgs)])
    wrong = np.roll(galleries, -1, axis=0)
    similar, dissimilar = build_training_pairs(probes, galleries, wrong,
                                               probe_grid, gallery_grid, t_d=32)
    assert len(similar) == 84
    for loc in range(84):
        d = similar[loc]
        assert d.shape[1] == dim
        assert len(d) <= n_imgs * 63    # at most 2 * t_d - 1 window patches
        assert len(d) >= n_imgs * 32    # border rows keep at least t_d
        assert dissimilar[loc].shape == d.shape  # matched counts


def canonical_stacks(n_imgs, dim, seed=5):
    """Random probe, gallery and wrong-gallery descriptor stacks on the
    canonical lattices (84 probe and 297 gallery patches)."""
    config = RunConfig()
    probe_grid, gallery_grid = config.probe_grid(), config.gallery_grid()
    rng = np.random.default_rng(seed)
    probes = rng.random((n_imgs, probe_grid.n_patches, dim))
    galleries = rng.random((n_imgs, gallery_grid.n_patches, dim))
    return probes, galleries, np.roll(galleries, -1, axis=0), probe_grid, gallery_grid


def assert_models_equal(got, expect):
    assert np.array_equal(got.matrices, expect.matrices)
    assert np.array_equal(got.sigmas, expect.sigmas)
    assert np.array_equal(got.global_matrix, expect.global_matrix)
    assert got.global_sigma == expect.global_sigma
    assert np.array_equal(got.fallback, expect.fallback)


def test_training_pairs_are_computed_on_access():
    probes, galleries, wrong, probe_grid, gallery_grid = canonical_stacks(2, 3)
    similar, dissimilar = build_training_pairs(probes, galleries, wrong,
                                               probe_grid, gallery_grid, t_d=4)
    assert len(similar) == len(dissimilar) == probe_grid.n_patches
    items = list(similar)
    assert len(items) == probe_grid.n_patches
    for i in (0, 41, probe_grid.n_patches - 1):
        assert np.array_equal(similar[i], items[i])
        assert similar[i] is not similar[i]  # a fresh array per read, nothing cached
    assert np.array_equal(similar[-1], items[-1])
    with pytest.raises(IndexError):
        similar[probe_grid.n_patches]
    with pytest.raises(TypeError):
        similar[0] = items[0]


@pytest.mark.parametrize("n_imgs, dim, t_d", [(4, 5, 32), (1, 2, 2)])
def test_streamed_training_equals_list_and_one_pass_training(n_imgs, dim, t_d):
    # (1, 2, 2): an interior window holds 3 pairs, enough for dim 2, while a
    # window clipped at either end of the zig-zag order holds 2, so some
    # locations are data-starved and fall back to the global metric.
    probes, galleries, wrong, probe_grid, gallery_grid = canonical_stacks(n_imgs, dim)
    similar, dissimilar = build_training_pairs(probes, galleries, wrong,
                                               probe_grid, gallery_grid, t_d)
    streamed = train_metric(similar, dissimilar, sigma_scale=0.15)
    lists = ([similar[i] for i in range(len(similar))],
             [dissimilar[i] for i in range(len(dissimilar))])
    assert_models_equal(streamed, train_metric(*lists, sigma_scale=0.15))
    assert_models_equal(streamed, oracles.train_metric(*lists, sigma_scale=0.15))
    if t_d == 2:
        assert streamed.fallback.any() and not streamed.fallback.all()
    else:
        assert not streamed.fallback.any()


class CountedReads(Sequence):
    """A sequence that counts the reads of each index it returns an item for."""

    def __init__(self, items):
        self.items, self.reads = items, Counter()

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        item = self.items[i]
        self.reads[i] += 1
        return item


def test_training_reads_each_location_once():
    # Every location's differences are computed on each read, so a second
    # read is a second pass over the descriptors.
    probes, galleries, wrong, probe_grid, gallery_grid = canonical_stacks(3, 5)
    similar, dissimilar = (CountedReads(side) for side in build_training_pairs(
        probes, galleries, wrong, probe_grid, gallery_grid, t_d=4))
    train_metric(similar, dissimilar, sigma_scale=0.15)
    once = Counter(range(probe_grid.n_patches))
    assert similar.reads == once and dissimilar.reads == once


@pytest.mark.parametrize("dim", [2, 5, 32])
def test_scales_equal_the_mean_difference_form_distance(dim):
    # Each scale is sigma_scale * <M, G> / n; summed pair by pair it is the
    # mean of max(d . M . d, 0) over the similar differences (the global
    # metric's over all of them).  The two orders round apart by about
    # 1e-16 times sum |M * G| / <M, G>, which stays under 1e3 on these
    # differences of uniform draws; a cancelling inner product (near 3e4
    # on strongly anisotropic differences in 3 pairs) can pass 1e-12.
    rng = np.random.default_rng(dim)
    counts = [1, dim, dim + 1, 2 * dim + 3, 5 * dim] * 3  # 1 and dim pairs are starved
    similar = [rng.random((n, dim)) - rng.random((n, dim)) for n in counts]
    dissimilar = [(rng.random((n, dim)) - rng.random((n, dim))) * 2.0 for n in counts]
    model = train_metric(similar, dissimilar, sigma_scale=0.15)
    assert model.fallback.sum() == 6 and not model.fallback.all()
    pooled = oracles.difference_form_scale(model.global_matrix, similar, 0.15)
    assert model.global_sigma == pytest.approx(pooled, rel=1e-12, abs=0.0)
    for i, sim in enumerate(similar):
        expect = (pooled if model.fallback[i] else
                  oracles.difference_form_scale(model.matrices[i], [sim], 0.15))
        assert model.sigmas[i] == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_split_metric_holds_one_location_of_differences_at_a_time():
    # 30 training identities with 32-dim descriptors: all 84 locations'
    # difference arrays at once take about 45 MB a side, one location about
    # 0.5 MB.
    probes, galleries, _, _, _ = canonical_stacks(30, 32)
    tracemalloc.start()
    try:
        train_split_metric(probes, galleries, RunConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"metric training peaked at {peak / 2**20:.1f} MB"


def test_training_pair_error_paths():
    probes, galleries, wrong, probe_grid, gallery_grid = canonical_stacks(2, 3)
    with pytest.raises(ConfigurationError, match="empty training set"):
        build_training_pairs(probes[:0], galleries[:0], wrong[:0], probe_grid,
                             gallery_grid, t_d=4)
    with pytest.raises(ValueError, match="align"):
        build_training_pairs(probes, galleries[:1], wrong, probe_grid, gallery_grid, t_d=4)
    # t_d = 0 leaves every window empty: no location holds a pair.
    similar, dissimilar = build_training_pairs(probes, galleries, wrong, probe_grid,
                                               gallery_grid, t_d=0)
    assert all(len(d) == 0 for d in similar)
    with pytest.raises(ConfigurationError, match="no similar or no dissimilar"):
        train_metric(similar, dissimilar, sigma_scale=0.15)
    similar, _ = build_training_pairs(probes, galleries, wrong, probe_grid,
                                      gallery_grid, t_d=4)
    with pytest.raises(ValueError, match="align per location"):
        train_metric(similar, [], sigma_scale=0.15)


def test_metric_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    dim, n_loc = 4, 5
    mats = rng.random((n_loc, dim, dim))
    mats = (mats + mats.transpose(0, 2, 1)) / 2
    fallback = np.array([False, True, False, False, True])
    model = MetricModel(matrices=mats, sigmas=rng.random(n_loc) + 0.5,
                        global_matrix=mats[2], global_sigma=0.9, fallback=fallback)
    path = tmp_path / "m.bin"
    save_metric(path, model)
    again = load_metric(path)
    assert np.array_equal(again.matrices, model.matrices)
    assert np.array_equal(again.sigmas, model.sigmas)
    assert np.array_equal(again.global_matrix, model.global_matrix)
    assert again.global_sigma == model.global_sigma
    assert np.array_equal(again.fallback, model.fallback)


def test_factors_rebuild_each_matrix_and_survive_a_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    dim, n_loc = 5, 3
    a = rng.standard_normal((n_loc, dim, dim))
    mats = a @ a.transpose(0, 2, 1) - np.eye(dim)  # eigenvalues of both signs
    model = MetricModel(matrices=mats, sigmas=np.ones(n_loc), global_matrix=mats[0],
                        global_sigma=1.0)
    factors, signs = model.factors
    assert factors.shape == (n_loc, dim, 8) and signs.shape == (n_loc, 8)
    rebuilt = (factors * signs[:, None, :]) @ factors.transpose(0, 2, 1)
    assert np.allclose(rebuilt, model.matrices, rtol=0.0, atol=1e-12)
    assert set(signs[:, :dim].ravel().tolist()) == {-1.0, 1.0}
    # zero columns pad dim to a multiple of 8 and add nothing to the form
    assert np.all(factors[:, :, dim:] == 0.0) and np.all(signs[:, dim:] == 0.0)
    with pytest.raises(ValueError):  # read-only, so the cached factors cannot go stale
        model.matrices[0, 0, 0] = 1.0
    save_metric(tmp_path / "m.bin", model)
    loaded = load_metric(tmp_path / "m.bin").factors  # factored from the same bits
    assert np.array_equal(loaded[0], factors) and np.array_equal(loaded[1], signs)


def test_metric_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WRONGMAGIC123456" + bytes(64))
    with pytest.raises(FormatError):
        load_metric(path)


def _metric_blob(tmp_path):
    rng = np.random.default_rng(8)
    dim, n_loc = 3, 2
    mats = np.repeat(np.eye(dim)[None], n_loc, axis=0)
    model = MetricModel(matrices=mats, sigmas=rng.random(n_loc) + 0.5,
                        global_matrix=np.eye(dim), global_sigma=0.9)
    path = tmp_path / "m.bin"
    save_metric(path, model)
    return path, dim, n_loc


@pytest.mark.parametrize("field", ["matrix", "sigma", "global_matrix", "global_sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_metric_load_rejects_non_finite_values(tmp_path, field, bad):
    path, dim, n_loc = _metric_blob(tmp_path)
    offset = 24 + {"matrix": 0, "sigma": n_loc * dim * dim,
                   "global_matrix": n_loc * dim * dim + n_loc,
                   "global_sigma": (n_loc + 1) * dim * dim + n_loc}[field] * 8
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 8] = np.array([bad], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="finite"):
        load_metric(path)


def test_metric_load_rejects_asymmetry_at_the_float_limit(tmp_path):
    path, dim, _ = _metric_blob(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[32:40] = np.array([1e308], dtype="<f8").tobytes()             # matrix 0, (0, 1)
    blob[24 + 8 * dim:32 + 8 * dim] = np.array([-1e308], dtype="<f8").tobytes()  # (1, 0)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="symmetric"):
        load_metric(path)


@pytest.mark.parametrize("flag", [0x02, 0x7F])
def test_metric_load_rejects_fallback_byte_other_than_0_or_1(tmp_path, flag):
    # Read as a bool, such a byte would swap the location's metric for the
    # global one without a word.
    path, _, _ = _metric_blob(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-1] = flag  # the last location's fallback flag
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="fallback flag"):
        load_metric(path)


@pytest.mark.parametrize("n_loc", [0, 3])
def test_metric_load_rejects_an_empty_metric(tmp_path, n_loc):
    # Sized to its header and every sigma positive, but dim 0 (and, with
    # n_loc 0, no location either): there is no metric to score with.
    path = tmp_path / "empty.bin"
    path.write_bytes(b"PKMETR01" + bytes(8) + struct.pack("<II", n_loc, 0)
                     + struct.pack(f"<{n_loc + 1}d", *[1.0] * (n_loc + 1)) + bytes(n_loc))
    with pytest.raises(FormatError, match="a location and a dimension"):
        load_metric(path)


def test_metric_load_rejects_short_header(tmp_path):
    path, _, _ = _metric_blob(tmp_path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(FormatError):
        load_metric(path)


@pytest.mark.parametrize("dim", [1, 3, 13, 32])
def test_metric_file_round_trips_byte_for_byte(tmp_path, dim):
    rng = np.random.default_rng(dim)
    n_loc = 5
    a = rng.standard_normal((n_loc, dim, dim))
    model = MetricModel(matrices=a + a.transpose(0, 2, 1), sigmas=rng.random(n_loc) + 0.5,
                        global_matrix=2.0 * np.eye(dim), global_sigma=0.3,
                        fallback=np.arange(n_loc) % 3 == 1)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_metric(first, model)
    save_metric(second, load_metric(first))
    blob = first.read_bytes()
    assert second.read_bytes() == blob
    # 24-byte header, the f64 matrices, sigmas, global matrix and sigma, one flag byte each
    assert len(blob) == 24 + 8 * ((n_loc + 1) * dim * dim + n_loc + 1) + n_loc
    assert blob[-n_loc:] == bytes([0, 1, 0, 0, 1])


@pytest.mark.parametrize("n_loc, dim", [(2**32 - 1, 2**32 - 1), (2**28, 1), (1, 2**14 + 1),
                                        (2**32 - 1, 0)])
def test_metric_header_declaring_a_huge_payload_fails_without_allocating_it(tmp_path, n_loc, dim):
    # Each declares over 2 GiB of fields in a 32-byte file.
    path = tmp_path / "huge.bin"
    path.write_bytes(b"PKMETR01" + bytes(8) + struct.pack("<II", n_loc, dim) + bytes(8))

    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="metric payload has 8 bytes"):
            load_metric(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.fixture(scope="module")
def metric_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("metric")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_metric_load_rejects_truncated_and_non_finite_blobs(metric_dir, data):
    path, dim, n_loc = _metric_blob(metric_dir)
    blob = path.read_bytes()
    n_doubles = (n_loc + 1) * dim * dim + n_loc + 1  # matrices, sigmas, global pair
    path.write_bytes(data.draw(st.one_of(truncated(blob), non_finite(blob, 24, n_doubles))))
    with pytest.raises(FormatError):
        load_metric(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_metric_load_mutated_blob_raises_only_format_error(metric_dir, data):
    path, _, _ = _metric_blob(metric_dir)
    path.write_bytes(data.draw(mutated(path.read_bytes())))
    try:
        load_metric(path)
    except FormatError:
        pass
