import numpy as np
import pytest

from corrmatch.errors import ConfigurationError
from corrmatch.geometry import GridSpec, PatchRef, colocated_patch, patch_at, patch_cells

from oracles import patch_origin, zigzag_ordinal

PROBE = GridSpec(48, 128, 18, 24, 6, 8)
GALLERY = GridSpec(48, 128, 18, 24, 3, 4)


def patch_positions(grid):
    """All patches of the grid in zig-zag order."""
    return [patch_at(grid, k) for k in range(grid.n_patches)]


def test_canonical_probe_grid_has_84_patches():
    assert PROBE.n_cols == 6
    assert PROBE.n_rows == 14
    assert len(patch_positions(PROBE)) == 84


def test_canonical_gallery_grid_has_297_patches():
    assert GALLERY.n_cols == 11
    assert GALLERY.n_rows == 27
    assert len(patch_positions(GALLERY)) == 297


def test_degenerate_single_patch_grid():
    grid = GridSpec(10, 10, 10, 10, 1, 1)
    patches = patch_positions(grid)
    assert len(patches) == 1
    assert patch_origin(grid, patches[0]) == (0, 0)


def test_patch_larger_than_image_rejected():
    with pytest.raises(ConfigurationError):
        GridSpec(10, 10, 12, 10, 1, 1)


def test_extent_not_divisible_by_stride_rejected():
    with pytest.raises(ConfigurationError):
        GridSpec(48, 128, 18, 24, 7, 8)


def test_pixel_origins_follow_strides():
    for ref in patch_positions(PROBE):
        assert patch_origin(PROBE, ref) == (ref.col * 6, ref.row * 8)


def test_boustrophedon_ordering():
    grid = GridSpec(12, 12, 4, 4, 4, 4)  # 3x3
    order = [(p.row, p.col) for p in patch_positions(grid)]
    assert order == [(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0), (2, 0), (2, 1), (2, 2)]
    assert [zigzag_ordinal(grid, *cell) for cell in order] == list(range(9))
    rows, cols = patch_cells(grid)
    assert list(zip(rows.tolist(), cols.tolist())) == order


def test_zigzag_distance_examples():
    # The zig-zag distance of two patches is the difference of their
    # ordinals: one step of the scan moves to a grid neighbour.
    for k in range(PROBE.n_patches - 1):
        a, b = patch_at(PROBE, k), patch_at(PROBE, k + 1)
        assert abs(a.row - b.row) + abs(a.col - b.col) == 1
    first, last = patch_at(PROBE, 0), patch_at(PROBE, PROBE.n_patches - 1)
    assert (first.row, first.col) == (0, 0)
    assert (last.row, last.col) == (PROBE.n_rows - 1, 0)  # 14 rows: the last runs leftward


def test_zigzag_distance_is_a_metric():
    # Ordinals are one-to-one on cells, and so the scan walks at least the
    # grid (Manhattan) distance between any two patches.
    rng = np.random.default_rng(3)
    ords = rng.integers(0, PROBE.n_patches, size=(200, 2))
    for x, y in ords:
        a, b = patch_at(PROBE, int(x)), patch_at(PROBE, int(y))
        assert (a.ordinal == b.ordinal) == ((a.row, a.col) == (b.row, b.col))
        assert abs(a.ordinal - b.ordinal) >= abs(a.row - b.row) + abs(a.col - b.col)
        assert zigzag_ordinal(PROBE, a.row, a.col) == a.ordinal


def test_patch_count_property_random_grids():
    rng = np.random.default_rng(4)
    for _ in range(100):
        pw, ph = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        sx, sy = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        cols, rows = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        grid = GridSpec(pw + (cols - 1) * sx, ph + (rows - 1) * sy, pw, ph, sx, sy)
        patches = patch_positions(grid)
        assert len(patches) == rows * cols
        assert sorted(p.ordinal for p in patches) == list(range(rows * cols))


def test_colocated_same_grid_is_identity():
    for ref in patch_positions(GALLERY):
        assert colocated_patch(GALLERY, GALLERY, ref) == ref


def test_colocated_canonical_examples():
    origin_probe = patch_at(PROBE, zigzag_ordinal(PROBE, 0, 0))
    co = colocated_patch(PROBE, GALLERY, origin_probe)
    assert (co.row, co.col) == (0, 0)

    p11 = patch_at(PROBE, zigzag_ordinal(PROBE, 1, 1))
    assert patch_origin(PROBE, p11) == (6, 8)
    co = colocated_patch(PROBE, GALLERY, p11)
    assert (co.row, co.col) == (2, 2)
    assert patch_origin(GALLERY, co) == (6, 8)


def test_colocated_every_probe_patch_exact_origin():
    # Canonical strides make every probe origin land exactly on the lattice.
    for ref in patch_positions(PROBE):
        co = colocated_patch(PROBE, GALLERY, ref)
        assert patch_origin(GALLERY, co) == patch_origin(PROBE, ref)


def test_colocated_tie_breaks_to_smaller_ordinal():
    probe = GridSpec(10, 10, 2, 2, 4, 4)   # origins at x,y in {0, 4, 8}
    gallery = GridSpec(10, 10, 2, 2, 8, 8)  # origins at x,y in {0, 8}
    mid = patch_at(probe, zigzag_ordinal(probe, 1, 1))  # origin (4, 4), 4-way tie
    co = colocated_patch(probe, gallery, mid)
    assert co.ordinal == 0


def test_foreign_patch_rejected():
    alien = PatchRef(row=0, col=0, ordinal=5)
    with pytest.raises(ValueError):
        colocated_patch(PROBE, GALLERY, alien)
    with pytest.raises(ValueError):
        colocated_patch(PROBE, GALLERY, PatchRef(row=99, col=0, ordinal=0))
    with pytest.raises(ValueError):
        colocated_patch(PROBE, GALLERY, PatchRef(row=0, col=0, ordinal=PROBE.n_patches))


def test_mismatched_canvas_rejected():
    other = GridSpec(50, 128, 18, 24, 4, 8)
    with pytest.raises(ValueError):
        colocated_patch(PROBE, other, patch_at(PROBE, 0))
