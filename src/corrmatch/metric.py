"""Per-location similarity metrics between patch descriptors.

For every probe patch location a Mahalanobis-style matrix is learned as the
difference of inverse covariance matrices of descriptor differences taken
from similar and dissimilar training pairs, projected onto the PSD cone.
Squared distances d . M . d are clamped at zero (a matrix built by hand or
loaded from a file may be indefinite, and floating point can dip below zero)
and mapped through exp(-distance / sigma), so similarity lives in (0, 1] and
equals exactly 1 for identical descriptors.  Locations with too few pairs
fall back to one global metric pooled over all locations.

Scoring computes d . M . d by one kernel in ``matching``, in the factor
space M = L diag(s) L.T (``MetricModel.factors``), so a patch pair has one
value wherever it is scored.  ``train_metric``'s scales take the mean of
d . M . d over a location's similar pairs as <M, G> / n from the Gram matrix
G it learns M from, and never form d . M . d itself.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, FormatError, as_format_error, read_fields, read_header,
                     write_fields)
from .geometry import GridSpec, colocated_table

RIDGE_FACTOR = 1e-3
SIGMA_FLOOR = 1e-6
# Cap on distance / sigma before exponentiation: keeps similarities strictly
# positive (exp(-700) is the order of the smallest normal double).
MAX_EXPONENT = 700.0

_MAGIC = b"PKMETR01" + bytes(8)  # 16-byte magic/version
_HEADER = np.dtype([("magic", "S16"), ("n_locations", "<u4"), ("dim", "<u4")])


def _layout(n_loc: int, dim: int):
    """metric.bin's fields after the header: matrices, sigmas, the global
    matrix and sigma, and one fallback flag byte per location."""
    return [("<f8", (n_loc, dim, dim)), ("<f8", (n_loc,)), ("<f8", (dim, dim)), ("<f8", ()),
            ("u1", (n_loc,))]


@dataclass(frozen=True)
class MetricModel:
    """Learned similarity model: one matrix and scale per probe location.

    ``fallback`` flags locations that were data-starved and use the pooled
    global matrix/scale instead of their own.  Construction writes the global
    pair into those locations' rows of ``matrices`` and ``sigmas``, so every
    reader takes a location's metric from its own row.
    """

    matrices: np.ndarray          # (n_locations, dim, dim)
    sigmas: np.ndarray            # (n_locations,)
    global_matrix: np.ndarray     # (dim, dim)
    global_sigma: float
    fallback: np.ndarray = field(default=None)  # (n_locations,) bool

    def __post_init__(self) -> None:
        n_loc, dim, dim2 = self.matrices.shape
        if dim != dim2:
            raise ValueError("per-location matrices must be square")
        if n_loc == 0 or dim == 0:
            raise ValueError(f"a metric needs a location and a dimension, got {n_loc} and {dim}")
        if self.sigmas.shape != (n_loc,):
            raise ValueError("sigma count does not match location count")
        if self.global_matrix.shape != (dim, dim):
            raise ValueError("global matrix dimension mismatch")
        if not (np.all(np.isfinite(self.matrices)) and np.all(np.isfinite(self.global_matrix))):
            raise ValueError("matrices must be finite")
        if not (np.all(np.isfinite(self.sigmas)) and np.isfinite(self.global_sigma)):
            raise ValueError("sigmas must be finite")
        if np.any(self.sigmas <= 0) or self.global_sigma <= 0:
            raise ValueError("sigmas must be positive")
        with np.errstate(over="ignore"):  # entries near the float limit: asym is inf
            asym = np.abs(self.matrices - self.matrices.transpose(0, 2, 1)).max(initial=0.0)
        if asym > 1e-9:
            raise ValueError(f"matrices must be symmetric, worst asymmetry {asym:g}")
        fallback = (np.zeros(n_loc, dtype=bool) if self.fallback is None
                    else np.asarray(self.fallback, dtype=bool))
        if fallback.shape != (n_loc,):
            raise ValueError("fallback flag count does not match location count")
        object.__setattr__(self, "fallback", fallback)
        object.__setattr__(self, "matrices", np.where(fallback[:, None, None],
                                                      self.global_matrix, self.matrices))
        object.__setattr__(self, "sigmas", np.where(fallback, self.global_sigma, self.sigmas))
        self.matrices.setflags(write=False)  # ``factors`` caches what they hold

    @property
    def n_locations(self) -> int:
        return self.matrices.shape[0]

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, s) of shapes (n_locations, dim, width) and (n_locations, width)
        with matrices[i] = L[i] diag(s[i]) L[i].T from each eigendecomposition
        V diag(lam) V.T: L = V sqrt(|lam|) and s = sign(lam), padded with zero
        columns to width = dim rounded up to a multiple of 8, so a gemm's rows
        keep their bits at every even row count.  Computed once per model from
        the matrices' bits (a loaded model factors as the trained one); unsaved."""
        eigvals, eigvecs = np.linalg.eigh(self.matrices)
        pad = (0, 0), (0, -self.dim % 8)
        return (np.pad(eigvecs * np.sqrt(np.abs(eigvals))[:, None, :], ((0, 0), *pad)),
                np.pad(np.sign(eigvals), pad))


def _ridge(matrix: np.ndarray) -> np.ndarray:
    dim = matrix.shape[-1]
    gamma = RIDGE_FACTOR * np.trace(matrix, axis1=-2, axis2=-1) / dim
    return matrix + gamma[..., None, None] * np.eye(dim)


def _learn_matrix(similar_moment: np.ndarray, dissimilar_moment: np.ndarray) -> np.ndarray:
    """The metric of one moment pair (dim, dim), or of each of a stack
    (n, dim, dim), with one batched LAPACK call per step."""
    m = np.linalg.inv(_ridge(similar_moment)) - np.linalg.inv(_ridge(dissimilar_moment))
    m = (m + m.swapaxes(-1, -2)) / 2.0
    # Project onto the PSD cone.  Normalized histogram blocks give the
    # difference vectors near-null directions whose inverse-covariance gap is
    # sampling noise blown up by 1/gamma; left in place, those directions make
    # the zero-clamped distance saturate unrelated patches at similarity 1.
    eigvals, eigvecs = np.linalg.eigh(m)
    clipped = (eigvecs * np.maximum(eigvals, 0.0)[..., None, :]) @ eigvecs.swapaxes(-1, -2)
    return (clipped + clipped.swapaxes(-1, -2)) / 2.0


def _scale(matrix: np.ndarray, gram: np.ndarray, count: int, sigma_scale: float) -> float:
    """Bandwidth from the mean similar-pair distance: the sum of d . M . d over
    n pairs is <M, G> for their Gram matrix G = sum of d.T d, taken by a
    BLAS-free einsum so its summation order is fixed.  M is PSD (``_learn_matrix``
    projects it), so the sum is not negative beyond rounding; the floor bounds it."""
    total = np.einsum("ij,ij->", matrix, gram, optimize=False)
    return max(sigma_scale * float(total / count), SIGMA_FLOOR)


def train_metric(similar_diffs, dissimilar_diffs, sigma_scale: float) -> MetricModel:
    """Learn per-location metrics from descriptor differences.

    ``similar_diffs[i]`` and ``dissimilar_diffs[i]`` are (n_i, dim) arrays of
    the descriptor differences of the training pairs at probe location i.  A
    location needs at least dim + 1 similar and dissimilar pairs, otherwise
    it falls back to the global metric pooled over all locations.
    ``sigma_scale`` scales the mean similar-pair distance into the
    exp(-d / sigma) bandwidth (``RunConfig.sigma_scale`` says why).  Each
    location is read once, for its Gram matrices d.T @ d: the matrices and the
    scales both come from them.
    """
    if len(similar_diffs) != len(dissimilar_diffs):
        raise ValueError("similar and dissimilar lists must align per location")
    n_loc = len(similar_diffs)
    if n_loc == 0:
        raise ConfigurationError("no locations to train")
    grams, counts, dims = [], [], set()
    for pair in zip(similar_diffs, dissimilar_diffs):
        grams.append([d.T @ d for d in pair])
        counts.append([len(d) for d in pair])
        dims.update(d.shape[1] for d in pair if len(d))
    counts = np.array(counts)
    if not counts.sum(axis=0).all():
        raise ConfigurationError("training set has no similar or no dissimilar pairs")
    if len(dims) != 1:
        raise ValueError(f"inconsistent descriptor dims {dims}")
    dim = dims.pop()

    # Second moments (about zero); the pooled sums run over locations in order.
    pooled, totals = [sum(g[s] for g in grams) for s in (0, 1)], counts.sum(axis=0)
    global_matrix = _learn_matrix(pooled[0] / totals[0], pooled[1] / totals[1])
    global_sigma = _scale(global_matrix, pooled[0], totals[0], sigma_scale)
    fallback = (counts < dim + 1).any(axis=1)
    own = np.flatnonzero(~fallback)
    matrices, sigmas = np.empty((n_loc, dim, dim)), np.empty(n_loc)
    matrices[own] = _learn_matrix(*(np.array([grams[i][s] / counts[i, s] for i in own])
                                    .reshape(-1, dim, dim) for s in (0, 1)))
    sigmas[own] = [_scale(matrices[i], grams[i][0], counts[i, 0], sigma_scale) for i in own]
    matrices[fallback], sigmas[fallback] = global_matrix, global_sigma
    return MetricModel(matrices=matrices, sigmas=sigmas, global_matrix=global_matrix,
                       global_sigma=global_sigma, fallback=fallback)


class LocationDifferences(Sequence):
    """One side's per-location difference arrays, each computed when read: item
    i is ``probe_stack[:, i] - gallery_stack[:, windows[i]]`` as (-1, dim) rows,
    each window a slice, so the gallery patches are read in place."""

    def __init__(self, probe_stack: np.ndarray, gallery_stack: np.ndarray, windows):
        self.probe_stack, self.gallery_stack, self.windows = probe_stack, gallery_stack, windows

    def __len__(self) -> int:
        return len(self.windows)

    def __getitem__(self, i: int) -> np.ndarray:
        diff = self.probe_stack[:, i, None] - self.gallery_stack[:, self.windows[i]]
        return diff.reshape(-1, self.probe_stack.shape[2])


def build_training_pairs(probe_stack: np.ndarray, gallery_stack: np.ndarray,
                         wrong_stack: np.ndarray, probe_grid: GridSpec,
                         gallery_grid: GridSpec, t_d: int):
    """Similar/dissimilar descriptor differences per probe location.

    ``probe_stack[k]`` (N_A, dim), ``gallery_stack[k]`` (N_B, dim) and
    ``wrong_stack[k]`` (N_B, dim) are the k-th training identity's probe
    image, its correct-match gallery image and a wrong-identity gallery
    image.  Probe patch i pairs with every gallery patch within zig-zag
    distance < t_d of its co-located patch; the same gallery positions of the
    wrong image form the dissimilar pairs.  Location i's entry is the
    (n_images * window, dim) array of probe minus gallery descriptors,
    image-major.  Each side is a ``LocationDifferences`` sequence, which
    computes an entry when it is read.
    """
    if not (len(probe_stack) == len(gallery_stack) == len(wrong_stack)):
        raise ValueError("descriptor stacks must align")
    if not len(probe_stack):
        raise ConfigurationError("empty training set")
    # Zig-zag distance |j - c| < t_d from the co-located patch c: one slice.
    windows = [slice(max(c - t_d + 1, 0), c + t_d)
               for c in colocated_table(probe_grid, gallery_grid)[0].tolist()]
    return (LocationDifferences(probe_stack, gallery_stack, windows),
            LocationDifferences(probe_stack, wrong_stack, windows))


def build_avg_similarity(pair_log_similarity: np.ndarray) -> np.ndarray:
    """Mean patch-pair similarity over correct match pairs, shape (N_A, N_B),
    from the ``matching.correct_pair_log_similarity`` table."""
    return np.exp(pair_log_similarity).mean(axis=0)


def save_metric(path, model: MetricModel) -> None:
    write_fields(path, np.array((_MAGIC, model.n_locations, model.dim), _HEADER),
                 _layout(model.n_locations, model.dim),
                 (model.matrices, model.sigmas, model.global_matrix, model.global_sigma,
                  model.fallback))


def load_metric(path) -> MetricModel:
    blob, header = read_header(path, _MAGIC, _HEADER, "metric")
    matrices, sigmas, global_matrix, global_sigma, flags = read_fields(
        blob, _HEADER, _layout(header["n_locations"], header["dim"]), "metric payload")
    if np.any(flags > 1):
        raise FormatError(f"fallback flag bytes must be 0 or 1, got {int(flags.max())}")
    with as_format_error():
        return MetricModel(matrices=matrices, sigmas=sigmas, global_matrix=global_matrix,
                           global_sigma=float(global_sigma), fallback=flags.astype(bool))
