"""Patch lattice over a fixed-size image: indexing, zig-zag order, distances.

A grid decomposes a canonical image into overlapping patches laid out on a
regular stride lattice.  Patches are enumerated in boustrophedon ("zig-zag")
order: even rows scan left to right, odd rows right to left, so consecutive
ordinals are always spatially adjacent.  The stride distance between two
patches of the same grid is the absolute difference of their ordinals.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class GridSpec:
    """Lattice of patch_width x patch_height patches over a fixed image size."""

    image_width: int
    image_height: int
    patch_width: int
    patch_height: int
    stride_x: int
    stride_y: int

    def __post_init__(self) -> None:
        if min(self.image_width, self.image_height, self.patch_width,
               self.patch_height, self.stride_x, self.stride_y) < 1:
            raise ConfigurationError(f"grid dimensions must be positive: {self}")
        if self.patch_width > self.image_width or self.patch_height > self.image_height:
            raise ConfigurationError(
                f"patch {self.patch_width}x{self.patch_height} exceeds image "
                f"{self.image_width}x{self.image_height}")
        if (self.image_width - self.patch_width) % self.stride_x != 0:
            raise ConfigurationError(f"horizontal extent not divisible by stride_x: {self}")
        if (self.image_height - self.patch_height) % self.stride_y != 0:
            raise ConfigurationError(f"vertical extent not divisible by stride_y: {self}")

    @property
    def n_cols(self) -> int:
        return (self.image_width - self.patch_width) // self.stride_x + 1

    @property
    def n_rows(self) -> int:
        return (self.image_height - self.patch_height) // self.stride_y + 1

    @property
    def n_patches(self) -> int:
        return self.n_rows * self.n_cols


@dataclass(frozen=True)
class PatchRef:
    """One lattice cell: grid row/col plus its zig-zag ordinal."""

    row: int
    col: int
    ordinal: int


def patch_at(grid: GridSpec, ordinal: int) -> PatchRef:
    """The patch with this zig-zag ordinal."""
    if not 0 <= ordinal < grid.n_patches:
        raise ValueError(f"ordinal {ordinal} outside [0, {grid.n_patches})")
    row, offset = divmod(ordinal, grid.n_cols)
    col = offset if row % 2 == 0 else grid.n_cols - 1 - offset
    return PatchRef(row=row, col=col, ordinal=ordinal)


def colocated_patch(probe_grid: GridSpec, gallery_grid: GridSpec, p: PatchRef) -> PatchRef:
    """Gallery patch whose pixel origin is nearest to p's origin.

    Ties in Euclidean distance between origins are broken by the smaller
    gallery ordinal.  One row of ``colocated_table``.
    """
    if p != patch_at(probe_grid, p.ordinal):
        raise ValueError(f"patch {p} is not a patch of the probe grid")
    return patch_at(gallery_grid, int(colocated_table(probe_grid, gallery_grid)[0][p.ordinal]))


def patch_cells(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every patch, in zig-zag order (patch_at for all)."""
    row, offset = np.divmod(np.arange(grid.n_patches), grid.n_cols)
    return row, np.where(row % 2 == 0, offset, grid.n_cols - 1 - offset)


def colocated_table(probe_grid: GridSpec, gallery_grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Ordinal and row of every probe patch's co-located gallery patch.

    The candidates are the gallery lattice points around each probe patch's
    pixel origin; the nearest one wins, the smaller ordinal on a tie.
    """
    if (probe_grid.image_width, probe_grid.image_height) != \
            (gallery_grid.image_width, gallery_grid.image_height):
        raise ValueError("probe and gallery grids cover different image sizes")
    probe_rows, probe_cols = patch_cells(probe_grid)
    px, py = probe_cols * probe_grid.stride_x, probe_rows * probe_grid.stride_y

    def axis_candidates(target, stride: int, count: int) -> np.ndarray:
        lo = np.minimum(target // stride, count - 1)
        return np.stack([lo, np.minimum(lo + 1, count - 1)])  # (2, n_probe)

    rows = axis_candidates(py, gallery_grid.stride_y, gallery_grid.n_rows)[:, None]
    cols = axis_candidates(px, gallery_grid.stride_x, gallery_grid.n_cols)[None, :]
    d2 = (cols * gallery_grid.stride_x - px) ** 2 + (rows * gallery_grid.stride_y - py) ** 2
    ordinals = rows * gallery_grid.n_cols + np.where(rows % 2 == 0, cols,
                                                     gallery_grid.n_cols - 1 - cols)
    key = (d2 * gallery_grid.n_patches + ordinals).reshape(4, -1)
    best = ordinals.reshape(4, -1)[key.argmin(axis=0), np.arange(probe_grid.n_patches)]
    return best, best // gallery_grid.n_cols


def colocated_distance(probe_grid: GridSpec, gallery_grid: GridSpec) -> np.ndarray:
    """(N_A, N_B) zig-zag distances |j - c(i)|, c(i) co-located with probe patch i."""
    colocated, _ = colocated_table(probe_grid, gallery_grid)
    return np.abs(np.arange(gallery_grid.n_patches) - colocated[:, None])
