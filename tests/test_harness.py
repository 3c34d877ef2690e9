import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrmatch.config import RunConfig
from corrmatch.errors import ConfigurationError
from corrmatch.harness import (DescriptorBank, colocated_links, generate_synthetic,
                               load_manifest, make_splits, simple_average_structure,
                               train_split_metric)
from corrmatch.imaging import extract_descriptors, load_image, scale_to_canonical
from corrmatch.matching import BinaryMappingStructure

SMALL = RunConfig(seed=1)


def write_manifest(tmp_path, rows, name="manifest.csv"):
    path = tmp_path / name
    lines = ["identity,camera,path"] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def touch_ppm(tmp_path, rel):
    full = tmp_path / rel
    full.parent.mkdir(parents=True, exist_ok=True)
    full.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    return rel


# ---------------------------------------------------------------- manifest

def test_load_well_formed_manifest(tmp_path):
    rows = []
    for ident in ("p1", "p2"):
        for cam in ("A", "B"):
            rel = touch_ppm(tmp_path, f"imgs/{ident}_{cam}.ppm")
            rows.append((ident, cam, rel))
    manifest = load_manifest(write_manifest(tmp_path, rows))
    assert len(manifest.entries) == 4
    assert manifest.identities() == ["p1", "p2"]


def test_manifest_missing_camera_rejected(tmp_path):
    rel = touch_ppm(tmp_path, "a.ppm")
    path = write_manifest(tmp_path, [("p1", "A", rel)])
    with pytest.raises(ConfigurationError, match="missing camera B"):
        load_manifest(path)


def test_manifest_unknown_camera_rejected(tmp_path):
    rel = touch_ppm(tmp_path, "a.ppm")
    path = write_manifest(tmp_path, [("p1", "C", rel)])
    with pytest.raises(ConfigurationError, match="unknown camera"):
        load_manifest(path)


def test_manifest_missing_file_rejected(tmp_path):
    path = write_manifest(tmp_path, [("p1", "A", "nope.ppm"), ("p1", "B", "nope2.ppm")])
    with pytest.raises(ConfigurationError, match="missing file"):
        load_manifest(path)


def test_manifest_empty_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(ConfigurationError):
        load_manifest(path)


def test_manifest_keeps_duplicate_entries(tmp_path):
    rows = []
    for cam in ("A", "B"):
        rows.append(("p1", cam, touch_ppm(tmp_path, f"p1_{cam}.ppm")))
    rows.append(("p1", "A", touch_ppm(tmp_path, "p1_A2.ppm")))
    path = write_manifest(tmp_path, rows)
    manifest = load_manifest(path)  # multi-image identities are fine
    assert len(manifest.entries) == 3
    assert manifest.image_path("p1", "A").endswith("p1_A.ppm")  # the first one is used


def two_identity_rows(tmp_path):
    return [(ident, cam, touch_ppm(tmp_path, f"imgs/{ident}_{cam}.ppm"))
            for ident in ("p1", "p2") for cam in ("A", "B")]


def test_manifest_with_a_utf8_bom_loads_as_without(tmp_path):
    path = write_manifest(tmp_path, two_identity_rows(tmp_path))
    plain = load_manifest(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_manifest(path) == plain


def test_manifest_with_a_non_utf8_byte_names_the_file_and_line(tmp_path):
    path = write_manifest(tmp_path, two_identity_rows(tmp_path))
    lines = path.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b"p2", b"p\xff")  # the fourth line
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ConfigurationError, match=rf"manifest {re.escape(str(path))} line 4 "):
        load_manifest(path)


def test_manifest_with_crlf_and_blank_lines_loads_as_without(tmp_path):
    path = write_manifest(tmp_path, two_identity_rows(tmp_path))
    plain = load_manifest(path)
    lines = path.read_text().splitlines()
    path.write_bytes("\r\n".join(lines[:2] + [""] + lines[2:] + ["", ""]).encode())
    assert load_manifest(path) == plain
    # a problem after the blank line names its line in the file
    path.write_bytes("\r\n".join(lines[:2] + ["", "p3,C,x.ppm"] + lines[2:]).encode())
    with pytest.raises(ConfigurationError, match="line 4: unknown camera"):
        load_manifest(path)


def test_manifest_rows_of_two_and_four_columns_name_their_lines(tmp_path):
    path = write_manifest(tmp_path, two_identity_rows(tmp_path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "p1,A", *lines[1:3], "p2,A,x.ppm,4", lines[4]]) + "\n")
    with pytest.raises(ConfigurationError) as caught:
        load_manifest(path)
    assert caught.value.args == (f"invalid manifest {path}: line 2: expected 3 columns | "
                                 f"line 5: expected 3 columns | identity 'p2' missing camera A",)


# ------------------------------------------------------------------ splits

def make_synthetic_manifest(tmp_path, n=8, **kw):
    config = kw.pop("config", SMALL)
    manifest, gt = generate_synthetic(str(tmp_path / "data"), n, kw.pop("shift_rows", 2),
                                      kw.pop("noise_level", 0.05), kw.pop("seed", 7),
                                      config, **kw)
    return manifest, gt


def test_make_splits_even_and_odd(tmp_path):
    manifest, _ = make_synthetic_manifest(tmp_path, n=8)
    plan = make_splits(manifest, seed=5, repeats=3)
    assert plan.repeats == 3
    for train, test in plan.splits:
        assert len(train) == 4 and len(test) == 4
        assert not set(train) & set(test)

    manifest5, _ = make_synthetic_manifest(tmp_path / "odd", n=5)
    plan5 = make_splits(manifest5, seed=5, repeats=2)
    for train, test in plan5.splits:
        assert len(train) == 3 and len(test) == 2


def test_make_splits_deterministic(tmp_path):
    manifest, _ = make_synthetic_manifest(tmp_path, n=8)
    assert make_splits(manifest, seed=5, repeats=4) == make_splits(manifest, seed=5, repeats=4)
    assert make_splits(manifest, seed=5, repeats=2) != make_splits(manifest, seed=6, repeats=2)


def test_make_splits_rejects_tiny_sets(tmp_path):
    manifest, _ = make_synthetic_manifest(tmp_path, n=3)
    with pytest.raises(ConfigurationError):
        make_splits(manifest, seed=1, repeats=1)


# --------------------------------------------------------------- synthetic

def test_synthetic_shift_zero_noise_zero_identical(tmp_path):
    manifest, _ = make_synthetic_manifest(tmp_path, n=2, shift_rows=0, noise_level=0.0)
    for ident in manifest.identities():
        a = load_image(manifest.image_path(ident, "A"))
        b = load_image(manifest.image_path(ident, "B"))
        assert np.array_equal(a.pixels, b.pixels)


def test_synthetic_shift_relation_inside_band(tmp_path):
    manifest, gt = make_synthetic_manifest(tmp_path, n=2, shift_rows=2, noise_level=0.0)
    assert gt["shift_pixels"] == 8
    for ident in manifest.identities():
        a = load_image(manifest.image_path(ident, "A")).pixels
        b = load_image(manifest.image_path(ident, "B")).pixels
        assert np.array_equal(b[8:], a[:-8])
        assert np.array_equal(b[:8], a[-8:])  # wrap fill


def test_synthetic_same_seed_bitwise_identical(tmp_path):
    m1, _ = make_synthetic_manifest(tmp_path / "a", n=3, seed=11)
    m2, _ = make_synthetic_manifest(tmp_path / "b", n=3, seed=11)
    for ident in m1.identities():
        for cam in ("A", "B"):
            b1 = Path(m1.image_path(ident, cam)).read_bytes()
            b2 = Path(m2.image_path(ident, cam)).read_bytes()
            assert b1 == b2


def test_synthetic_different_seed_differs(tmp_path):
    m1, _ = make_synthetic_manifest(tmp_path / "a", n=2, seed=11)
    m2, _ = make_synthetic_manifest(tmp_path / "b", n=2, seed=12)
    ident = m1.identities()[0]
    assert (Path(m1.image_path(ident, "A")).read_bytes()
            != Path(m2.image_path(ident, "A")).read_bytes())


def test_synthetic_shift_out_of_bounds_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        generate_synthetic(str(tmp_path), 2, shift_rows=40, noise_level=0.0,
                           seed=1, config=SMALL)


@pytest.mark.parametrize("bad", [dict(noise_level=-1.0), dict(noise_level=float("nan")),
                                 dict(noise_level=float("inf")), dict(weak_fraction=float("nan")),
                                 dict(weak_fraction=2.0), dict(weak_fraction=-0.1),
                                 dict(palette_size=1), dict(palette_size=9),
                                 dict(seed=-1)])
def test_synthetic_rejects_bad_noise_and_weak_fraction(tmp_path, bad):
    # A negative noise level would otherwise write noise-free images silently,
    # a palette size outside [2, 8] was clamped silently, and numpy rejected
    # a negative seed only after the image directory was made.
    with pytest.raises(ConfigurationError, match=next(iter(bad))):
        make_synthetic_manifest(tmp_path, n=2, **bad)
    assert not (tmp_path / "data").exists()  # rejected before anything is written


def test_synthetic_accepts_the_weak_fraction_bounds(tmp_path):
    for fraction in (0.0, 1.0):
        _, gt = make_synthetic_manifest(tmp_path / str(fraction), n=2, weak_fraction=fraction)
        assert gt["weak_fraction"] == fraction


def test_ground_truth_record_contents(tmp_path):
    _, gt = make_synthetic_manifest(tmp_path, n=4, shift_rows=3, noise_level=0.02, seed=9)
    assert gt["shift_rows"] == 3
    assert gt["shift_pixels"] == 3 * SMALL.gallery_stride_y
    assert gt["noise_level"] == 0.02
    assert gt["seed"] == 9
    assert gt["n_identities"] == 4
    assert os.path.isfile(tmp_path / "data" / "ground_truth.json")


# -------------------------------------------------------------- structures

def test_colocated_links_structure():
    links = colocated_links(SMALL)
    assert len(links.targets) == 84
    from corrmatch.geometry import colocated_patch, patch_at
    pg, gg = SMALL.probe_grid(), SMALL.gallery_grid()
    for i, j in enumerate(links.targets):
        assert j == colocated_patch(pg, gg, patch_at(pg, i)).ordinal


def test_simple_average_structure_rows():
    b1 = BinaryMappingStructure(targets=tuple(range(84)))
    b2 = BinaryMappingStructure(targets=tuple(range(1, 85)))
    b3 = BinaryMappingStructure(targets=tuple(range(84)))
    s = simple_average_structure([b1, b2, b3], SMALL)
    assert np.abs(s.probs.sum(axis=1) - 1.0).max() <= 1e-9
    assert s.probs[0, 0] == 2 / 3 and s.probs[0, 1] == 1 / 3
    assert np.count_nonzero(s.probs) == 2 * 84


def fresh_descriptors(path, camera, config=SMALL):
    grid = config.probe_grid() if camera == "A" else config.gallery_grid()
    img = scale_to_canonical(load_image(path), grid)
    return extract_descriptors(img, grid, config.color_bins, config.gradient_bins)


def test_descriptor_bank_caches_and_reuses(tmp_path):
    manifest, _ = make_synthetic_manifest(tmp_path, n=4)
    bank = DescriptorBank(manifest, SMALL)
    d1 = bank.descriptors_for(manifest.image_path("id0000", "A"), "A")
    d2 = bank.descriptors_for(manifest.image_path("id0000", "A"), "A")
    assert d1 is d2
    assert d1.shape == (84, 32)
    assert bank.descriptors_for(manifest.image_path("id0000", "B"), "B").shape == (297, 32)
    # A stack's rows are the only copy of the descriptors it extracted: the
    # cache holds read-only views of them.
    ids = manifest.identities()
    stacks = bank.stacks(ids[1:])
    for stack, camera in zip(stacks, "AB"):
        for row, identity in zip(stack, ids[1:]):
            cached = bank.descriptors_for(manifest.image_path(identity, camera), camera)
            assert np.shares_memory(row, cached) and np.array_equal(row, cached)
            assert not cached.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
    # A second batch over overlapping identities copies the cached rows.
    for stack, camera in zip(bank.stacks(ids), "AB"):
        assert not any(np.shares_memory(stack, earlier) for earlier in stacks)
        for row, identity in zip(stack, ids):
            assert np.array_equal(row, fresh_descriptors(manifest.image_path(identity, camera),
                                                         camera))
        with pytest.raises(ValueError):
            stack[-1] += 1.0


def test_descriptor_bank_copies_each_cached_image_into_a_batch(tmp_path):
    # p1 and p2 share one camera-A file; p1 has a second camera-B image, so
    # the gallery pool after the stacks meets two cached images and one new.
    make_synthetic_manifest(tmp_path, n=3)
    rows = [("p1", "A", "imgs/id0000_A.ppm"), ("p1", "B", "imgs/id0000_B.ppm"),
            ("p1", "B", "imgs/id0001_B.ppm"), ("p2", "A", "imgs/id0000_A.ppm"),
            ("p2", "B", "imgs/id0002_B.ppm")]
    manifest = load_manifest(write_manifest(tmp_path / "data", rows, "shared.csv"))
    bank = DescriptorBank(manifest, SMALL)
    probes, galleries = bank.stacks(["p1", "p2"])
    pool, owners = bank.gallery_pool(["p1", "p2"])
    first_a = fresh_descriptors(manifest.image_path("p1", "A"), "A")
    assert np.array_equal(probes[0], first_a) and np.array_equal(probes[1], first_a)
    assert not np.shares_memory(probes[0], probes[1])
    assert owners.tolist() == [0, 0, 1]
    paths = manifest.image_paths("p1", "B") + manifest.image_paths("p2", "B")
    assert np.array_equal(galleries, pool[[0, 2]])
    for row, path in zip(pool, paths):
        assert np.array_equal(row, fresh_descriptors(path, "B"))
    assert not (probes.flags.writeable or galleries.flags.writeable or pool.flags.writeable)


# Run in a fresh interpreter, with no image before it: a 40-image batch
# through one bank.  Prints minor page faults per image of the batch.
_FAULTS_SCRIPT = """
import resource, sys
from corrmatch.config import RunConfig
from corrmatch.harness import DescriptorBank, load_manifest
manifest = load_manifest(sys.argv[1])
bank = DescriptorBank(manifest, RunConfig())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
bank.stacks(manifest.identities())
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
def test_descriptor_batch_reuses_its_memory(tmp_path):
    # Fresh arrays per image (planes, summed-area table, about 3.6 MB) went
    # back to the operating system between images and faulted in again:
    # about 1,370 minor faults per image.  One workspace per batch paid that
    # once, but each image still allocated about twenty per-pixel arrays and
    # a second copy of its descriptors: about 125 faults per image in a
    # fresh process's first batch.  With the per-pixel scratch in the
    # workspace and each image extracted into its stack row, about 30,
    # the workspace and the stacks included.
    generate_synthetic(tmp_path, 20, 0, 0.05, seed=3)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, str(tmp_path / "manifest.csv")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert float(out) <= 80


_MA_SCRIPT = """
import sys
from corrmatch.config import RunConfig
from corrmatch.harness import DescriptorBank, load_manifest, make_splits, train_on_split
config = RunConfig(max_iterations=2, selection_count=2)
manifest = load_manifest(sys.argv[1])
train_ids, _ = make_splits(manifest, seed=3, repeats=1).splits[0]
train_on_split(DescriptorBank(manifest, config), train_ids, config)
print("numpy.ma" in sys.modules)
"""


def test_training_does_not_import_numpy_ma(tmp_path):
    # np.unique and np.quantile import numpy.ma on their first call, about
    # 20 ms of a process's first training op; the library calls neither.
    generate_synthetic(tmp_path, 4, 1, 0.05, seed=3)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([
        str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _MA_SCRIPT, str(tmp_path / "manifest.csv")],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


def test_train_split_metric_runs(tmp_path):
    manifest, _ = make_synthetic_manifest(tmp_path, n=4)
    bank = DescriptorBank(manifest, SMALL)
    P, G = bank.stacks(manifest.identities())
    model = train_split_metric(P, G, SMALL)
    assert model.n_locations == 84
    assert model.dim == 32


def test_binaries_without_structure_match_the_learners(tmp_path):
    # The simple-average arm alone trains no structure: the split still
    # builds its correct-pair table and finds the learner's binary structures.
    from corrmatch.harness import train_on_split
    config = RunConfig(seed=1, max_iterations=1)
    manifest, _ = make_synthetic_manifest(tmp_path, n=4, config=config)
    bank = DescriptorBank(manifest, config)
    ids = manifest.identities()
    alone = train_on_split(bank, ids, config, need_structure=False)
    learned = train_on_split(bank, ids, config)
    assert alone.learned is None and len(alone.binaries) == 4
    assert alone.binaries == learned.binaries


def test_unshifted_training_keeps_colocated_argmax(tmp_path):
    # With no displacement the proximity init is already right and learning
    # must not move the row maxima away from the co-located patches.
    from corrmatch.geometry import colocated_patch, patch_at
    from corrmatch.harness import train_on_split, make_splits
    config = RunConfig(seed=2, max_iterations=10, selection_count=4)
    manifest, _ = generate_synthetic(str(tmp_path), 8, 0, 0.05, 7, config)
    splits = make_splits(manifest, seed=2, repeats=1)
    bank = DescriptorBank(manifest, config)
    artifacts = train_on_split(bank, splits.splits[0][0], config)
    pg, gg = config.probe_grid(), config.gallery_grid()
    probs = artifacts.learned.structure.probs
    agree = 0
    for i in range(pg.n_patches):
        co = colocated_patch(pg, gg, patch_at(pg, i))
        got = patch_at(gg, int(np.argmax(probs[i])))
        agree += (abs(got.row - co.row) <= 1 and abs(got.col - co.col) <= 1)
    assert agree >= 0.9 * pg.n_patches


def test_all_pairs_evaluation_with_multi_image_identities(tmp_path):
    # Duplicate each camera-B image under a second path: the all-pairs pool
    # doubles, first-image mode keeps one per identity, and both rank the
    # correct identity first on this easy set.
    import shutil
    from corrmatch.harness import make_splits, run_ablations, load_manifest
    config = RunConfig(seed=2, max_iterations=3, selection_count=4, repeats=1)
    manifest, _ = generate_synthetic(str(tmp_path / "data"), 8, 2, 0.05, 7, config)
    rows = ["identity,camera,path"]
    for e in manifest.entries:
        rows.append(f"{e.identity},{e.camera},{e.path}")
        if e.camera == "B":
            twin = e.path.replace(".ppm", "_twin.ppm")
            shutil.copyfile(e.path, twin)
            rows.append(f"{e.identity},B,{twin}")
    multi_path = tmp_path / "multi.csv"
    multi_path.write_text("\n".join(rows) + "\n")
    multi = load_manifest(multi_path)
    splits = make_splits(multi, seed=2, repeats=1)

    first = run_ablations(multi, splits, ["no-structure"], config)["no-structure"]
    config_all = RunConfig(seed=2, max_iterations=3, selection_count=4, repeats=1,
                           use_first_image=False)
    pooled = run_ablations(multi, splits, ["no-structure"], config_all)["no-structure"]
    assert first[0].gallery_size == 4
    assert pooled[0].gallery_size == 8  # every B image competes
    assert pooled[0].values[-1] == 1.0


def test_ablations_average_splits_whose_galleries_differ_in_size(tmp_path):
    # id0000 gets a second camera-B image: a split that tests it ranks
    # against 5 galleries, any other split against 4, and the average runs
    # to rank 5, where a 4-gallery curve reads 1.  Noise 0.3 and two colours
    # keep some probe from ranking first.
    import shutil
    from corrmatch.harness import run_ablations
    out = tmp_path / "data"
    generate_synthetic(str(out), 8, 2, 0.3, 7, palette_size=2)
    shutil.copyfile(out / "imgs" / "id0000_B.ppm", out / "imgs" / "id0000_B2.ppm")
    with open(out / "manifest.csv", "a", encoding="utf-8") as fh:
        fh.write("id0000,B,imgs/id0000_B2.ppm\n")
    manifest = load_manifest(out / "manifest.csv")
    config = RunConfig(use_first_image=False, repeats=4)
    splits = make_splits(manifest, config.seed, config.repeats)
    averaged, per_split = run_ablations(manifest, splits, ["no-structure"],
                                        config)["no-structure"]
    assert sorted({c.gallery_size for c in per_split}) == [4, 5]
    assert averaged.gallery_size == 5 and averaged.at_rank(1) < 1.0
    for n in range(1, 7):
        assert averaged.at_rank(n) == np.mean([c.at_rank(n) for c in per_split])
