"""The correspondence structure: a row-stochastic patch matching-probability matrix.

Row i holds the matching distribution of probe patch i over all gallery
patches.  The structure is initialized from spatial proximity to the
co-located patch, updated by blending in new probability estimates, and
serialized to a small binary format (plus a CSV heat-map export).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError, as_format_error
from .geometry import GridSpec, colocated_distance

ROW_SUM_TOL = 1e-9

_MAGIC = b"CSTR1"
_HEADER_BYTES = len(_MAGIC) + 7 + 8 + 2 * 24  # magic, version, counts, grids
_GRID_FIELDS = ("image_width", "image_height", "patch_width", "patch_height",
                "stride_x", "stride_y")


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


def _pack_grid(grid: GridSpec) -> bytes:
    return struct.pack("<6I", *(getattr(grid, f) for f in _GRID_FIELDS))


def _unpack_grid(blob: bytes) -> GridSpec:
    values = struct.unpack("<6I", blob)
    return GridSpec(**dict(zip(_GRID_FIELDS, values)))


def save_structure(path, structure: CorrespondenceStructure) -> None:
    """Binary format: magic, version, N_A, N_B, both grid specs, row-major f64."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BHI", 1, 0, 0))  # version + reserved padding
        fh.write(struct.pack("<II", structure.n_probe, structure.n_gallery))
        fh.write(_pack_grid(structure.probe_grid))
        fh.write(_pack_grid(structure.gallery_grid))
        fh.write(structure.probs.astype("<f8").tobytes(order="C"))


def load_structure(path) -> CorrespondenceStructure:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != _MAGIC:
        raise FormatError(f"bad structure magic {blob[:5]!r}")
    if len(blob) < _HEADER_BYTES:
        raise FormatError(f"structure header has {len(blob)} bytes, expected {_HEADER_BYTES}")
    version = blob[5]
    if version != 1:
        raise FormatError(f"unsupported structure version {version}")
    offset = 5 + 7
    n_a, n_b = struct.unpack_from("<II", blob, offset)
    offset += 8
    with as_format_error():
        probe_grid = _unpack_grid(blob[offset:offset + 24])
        gallery_grid = _unpack_grid(blob[offset + 24:offset + 48])
    offset += 48
    if (probe_grid.n_patches, gallery_grid.n_patches) != (n_a, n_b):
        raise FormatError(
            f"header counts ({n_a}, {n_b}) disagree with grids "
            f"({probe_grid.n_patches}, {gallery_grid.n_patches})")
    expected = n_a * n_b * 8
    payload = blob[offset:]
    if len(payload) != expected:
        raise FormatError(f"payload has {len(payload)} bytes, expected {expected}")
    probs = np.frombuffer(payload, dtype="<f8").reshape(n_a, n_b).copy()
    with as_format_error():
        return CorrespondenceStructure(probs=probs, probe_grid=probe_grid,
                                       gallery_grid=gallery_grid)


def export_structure_csv(path, structure: CorrespondenceStructure) -> None:
    """Heat-map export: N_A rows by N_B comma-separated probability columns."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in structure.probs:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
