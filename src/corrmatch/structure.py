"""The correspondence structure: a row-stochastic patch matching-probability matrix.

Row i holds the matching distribution of probe patch i over all gallery
patches.  The structure is initialized from spatial proximity to the
co-located patch, updated by blending in new probability estimates, and
serialized to a small binary format (plus a CSV heat-map export).
"""
from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import (ConfigurationError, FormatError, as_format_error, read_fields, read_header,
                     write_fields, write_rows)
from .geometry import GridSpec, colocated_distance

ROW_SUM_TOL = 1e-9

_MAGIC = b"CSTR1"
# Each grid is its six ``GridSpec`` fields in order; the probabilities, the
# one field after the header, are N_A x N_B row-major f64.
_HEADER = np.dtype([("magic", "S5"), ("version", "u1"), ("reserved", "V6"),
                    ("n_probe", "<u4"), ("n_gallery", "<u4"),
                    ("probe_grid", "<u4", 6), ("gallery_grid", "<u4", 6)])


@dataclass(frozen=True)
class CorrespondenceStructure:
    """Matching probabilities between every probe patch and every gallery patch."""

    probs: np.ndarray
    probe_grid: GridSpec
    gallery_grid: GridSpec

    def __post_init__(self) -> None:
        n_a, n_b = self.probe_grid.n_patches, self.gallery_grid.n_patches
        if self.probs.shape != (n_a, n_b):
            raise ValueError(
                f"probability matrix {self.probs.shape} does not match grids "
                f"({n_a}, {n_b})")
        if not np.all((self.probs >= 0) & (self.probs <= 1)):  # NaN fails too
            raise ValueError("probabilities must be finite and within [0, 1]")
        row_err = np.abs(self.probs.sum(axis=1) - 1.0)
        if row_err.max() > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1, worst error {row_err.max():g}")

    @property
    def n_probe(self) -> int:
        return self.probs.shape[0]

    @property
    def n_gallery(self) -> int:
        return self.probs.shape[1]


def proximity_weight(dist: np.ndarray, t_d: int) -> np.ndarray:
    """1 / (d + 1) for each stride distance d below t_d, else 0."""
    return np.where(dist >= t_d, 0.0, 1.0 / (dist + 1.0))


def init_structure(probe_grid: GridSpec, gallery_grid: GridSpec, t_d: int) -> CorrespondenceStructure:
    """Proximity-based starting structure.

    Raw weight of gallery patch j for probe patch i is the proximity weight
    (1/(d+1) below t_d, else 0) of j's zig-zag stride distance d from probe
    patch i's co-located gallery patch; rows are then L1-normalized.
    """
    if t_d < 1:
        raise ConfigurationError(f"t_d must be >= 1, got {t_d}")
    raw = proximity_weight(colocated_distance(probe_grid, gallery_grid), t_d)
    # The co-located patch (distance 0) gives every row positive mass.
    probs = raw / raw.sum(axis=1, keepdims=True)
    return CorrespondenceStructure(probs=probs, probe_grid=probe_grid, gallery_grid=gallery_grid)


def blend_update(structure: CorrespondenceStructure, update: np.ndarray,
                 epsilon: float) -> CorrespondenceStructure:
    """New structure (1 - epsilon) * P + epsilon * update, rows renormalized."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    update = np.asarray(update, dtype=np.float64)
    if update.shape != structure.probs.shape:
        raise ValueError(f"update shape {update.shape} != {structure.probs.shape}")
    if not np.all(np.isfinite(update)) or np.any(update < 0):
        raise ValueError("update must be finite and non-negative")
    blended = (1.0 - epsilon) * structure.probs + epsilon * update
    totals = blended.sum(axis=1)
    if np.any(totals <= 0.0):
        raise FloatingPointError("blend produced an all-zero row; cannot normalize")
    return CorrespondenceStructure(probs=blended / totals[:, None],
                                   probe_grid=structure.probe_grid,
                                   gallery_grid=structure.gallery_grid)


def save_structure(path, structure: CorrespondenceStructure) -> None:
    header = (_MAGIC, 1, bytes(6), structure.n_probe, structure.n_gallery,
              astuple(structure.probe_grid), astuple(structure.gallery_grid))
    write_fields(path, np.array(header, _HEADER), [("<f8", structure.probs.shape)],
                 [structure.probs])


def load_structure(path) -> CorrespondenceStructure:
    blob, header = read_header(path, _MAGIC, _HEADER, "structure")
    if header["version"] != 1:
        raise FormatError(f"unsupported structure version {header['version']}")
    with as_format_error():
        probe_grid = GridSpec(*header["probe_grid"])
        gallery_grid = GridSpec(*header["gallery_grid"])
    n_a, n_b = header["n_probe"], header["n_gallery"]
    if (probe_grid.n_patches, gallery_grid.n_patches) != (n_a, n_b):
        raise FormatError(
            f"header counts ({n_a}, {n_b}) disagree with grids "
            f"({probe_grid.n_patches}, {gallery_grid.n_patches})")
    (probs,) = read_fields(blob, _HEADER, [("<f8", (n_a, n_b))], "payload")
    with as_format_error():
        return CorrespondenceStructure(probs=probs, probe_grid=probe_grid,
                                       gallery_grid=gallery_grid)


def export_structure_csv(path, structure: CorrespondenceStructure) -> None:
    """Heat-map export: N_A rows by N_B comma-separated probability columns."""
    write_rows(path, structure.probs)
