"""Dataset ingestion, split protocol, synthetic data, and ablation runs.

The manifest is a CSV (identity, camera, path) pointing at PPM images; the
evaluation protocol draws repeated seeded 50/50 identity splits, trains the
metric and the correspondence structure on the training half, and reports
CMC curves on the test half for four pipeline variants: no-structure,
simple-average, no-global, and proposed.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import ConfigurationError, read_text, write_rows
from .geometry import colocated_table
from .imaging import (DescriptorWorkspace, PpmError, RgbImage, extract_descriptors, load_image,
                      save_image, scale_to_canonical)
from .learning import CmcCurve, LearnResult, _TrainingContext, cmc_curve, learn_structure
from .matching import (BinaryMappingStructure, CellTable, binary_structure_score_matrix,
                       correct_ranks, gated_correlations, greedy_scores, rank_of_scores)
from .metric import MetricModel, build_training_pairs, train_metric
from .structure import CorrespondenceStructure

CAMERAS = ("A", "B")
ARMS = ("no-structure", "simple-average", "no-global", "proposed")

# How much of the shared scene texture weak-texture identities keep inside
# their blocks; low values make their patches locally ambiguous.
WEAK_SCENE_STRENGTH = 0.12


@dataclass(frozen=True)
class ManifestEntry:
    identity: str
    camera: str
    path: str
    line: int = field(compare=False)  # the manifest file's 1-based line listing it


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    entries: tuple[ManifestEntry, ...]

    def identities(self) -> list[str]:
        seen: dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.identity, None)
        return list(seen)

    def image_paths(self, identity: str, camera: str) -> list[str]:
        paths = [e.path for e in self.entries
                 if e.identity == identity and e.camera == camera]
        if not paths:
            raise KeyError(f"no image for ({identity}, {camera})")
        return paths

    def image_path(self, identity: str, camera: str) -> str:
        return self.image_paths(identity, camera)[0]


def load_manifest(path) -> DatasetManifest:
    """Read and validate a dataset manifest CSV.

    The file is UTF-8, with or without a BOM, and a problem names its 1-based
    line.  Paths are resolved relative to the manifest file.  Every identity
    must appear in both cameras; extra images per (identity, camera) are kept
    (``image_path`` gives the first, ``image_paths`` all of them).
    """
    base = os.path.dirname(os.path.abspath(path))
    reader = csv.reader(io.StringIO(read_text(path, "manifest"), newline=""))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ConfigurationError(f"manifest {path} is empty")
    header = [c.strip() for c in rows[0][1]]
    if header != ["identity", "camera", "path"]:
        raise ConfigurationError(f"manifest header must be identity,camera,path, got {header}")

    entries = []
    problems = []
    seen_pairs: set[tuple[str, str]] = set()
    for lineno, row in rows[1:]:
        if len(row) != 3:
            problems.append(f"line {lineno}: expected 3 columns")
            continue
        identity, camera, rel = (c.strip() for c in row)
        if camera not in CAMERAS:
            problems.append(f"line {lineno}: unknown camera {camera!r}")
            continue
        full = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.isfile(full):
            problems.append(f"line {lineno}: missing file {rel}")
            continue
        seen_pairs.add((identity, camera))
        entries.append(ManifestEntry(identity=identity, camera=camera, path=full, line=lineno))

    identities = {e.identity for e in entries}
    for identity in sorted(identities):
        for camera in CAMERAS:
            if (identity, camera) not in seen_pairs:
                problems.append(f"identity {identity!r} missing camera {camera}")
    if problems:
        raise ConfigurationError(f"invalid manifest {path}: " + " | ".join(problems))
    if not entries:
        raise ConfigurationError(f"manifest {path} has no entries")
    return DatasetManifest(name=os.path.basename(path), entries=tuple(entries))


def check_images(manifest: DatasetManifest) -> None:
    """Decode every image the manifest lists (``imaging.load_image``) before
    any descriptor is computed.  A bad image raises its ``PpmError``, which
    names the file and the manifest line listing it."""
    for entry in manifest.entries:
        try:
            load_image(entry.path)
        except PpmError as exc:
            raise type(exc)(f"{exc} (manifest {manifest.name} line {entry.line})") from exc


@dataclass(frozen=True)
class SplitPlan:
    seed: int
    repeats: int
    splits: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]  # (train, test) per repeat


def make_splits(manifest: DatasetManifest, seed: int, repeats: int) -> SplitPlan:
    """Seeded repeated 50/50 identity splits; odd counts favor training."""
    identities = manifest.identities()
    if len(identities) < 4:
        raise ConfigurationError(f"need at least 4 identities, have {len(identities)}")
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(repeats):
        order = list(rng.permutation(identities))
        cut = (len(order) + 1) // 2
        splits.append((tuple(order[:cut]), tuple(order[cut:])))
    return SplitPlan(seed=seed, repeats=repeats, splits=tuple(splits))


_PALETTE = np.array([
    [200, 60, 50], [60, 140, 200], [70, 180, 90], [210, 180, 60],
    [160, 80, 190], [220, 120, 40], [90, 200, 200], [190, 90, 120],
], dtype=np.float64)


def shared_scene_texture(seed: int, width: int, height: int) -> np.ndarray:
    """Population-wide texture factors, identical for every identity.

    Re-identification data is hard because viewpoint distortion dwarfs the
    appearance differences between people; a strong shared texture (which
    translates together with the figure) reproduces that: it localizes
    patches precisely when alignment is right and produces large residuals
    when it is wrong, without telling identities apart.
    """
    rng = np.random.default_rng([seed, 0x5CE77E])
    cell = 8
    fine = rng.uniform(0.72, 1.28, size=(height // cell + 1, width // cell + 1, 1))
    fine = np.kron(fine, np.ones((cell, cell, 1)))[:height, :width]
    coarse_cell = 16
    coarse = rng.choice([0.82, 1.0, 1.18],
                        size=(height // coarse_cell + 1, width // coarse_cell + 1, 1))
    coarse = np.kron(coarse, np.ones((coarse_cell, coarse_cell, 1)))[:height, :width]
    ramp = (0.75 + 0.25 * (1.0 - np.arange(height) / (height - 1.0)))[:, None, None]
    return fine * coarse * ramp


def render_identity(rng: np.random.Generator, scene: np.ndarray,
                    weak_texture: bool = False, palette_size: int = 8) -> np.ndarray:
    """A figure of stacked colored blocks under the shared scene texture.

    Identity-specific content is deliberately sparse and coarse: block
    colors drawn with replacement from the first ``palette_size`` (2 to 8)
    palette colors, a lightly jittered shared body template, and a faint
    two-level cell pattern.  Histograms of misaligned patches therefore
    collide between identities, while exactly aligned patches still
    separate them.  Weak-texture identities flatten the shared texture
    inside their blocks, which makes their patches locally ambiguous and
    their adjacency-search links scatter.
    """
    height, width = scene.shape[:2]
    # Boundaries are a per-identity subset of one shared anchor template, so
    # identities with different block counts still share cut positions.
    n_blocks = int(rng.integers(3, 6))
    template = np.array([0.2, 0.4, 0.6, 0.8]) * height
    picks = np.sort(rng.choice(4, size=n_blocks - 1, replace=False))
    cuts = template[picks] + rng.integers(-4, 5, size=n_blocks - 1)
    cuts = np.clip(cuts, 12, height - 12)
    cuts = np.maximum.accumulate(cuts + np.arange(n_blocks - 1) * 1e-3)  # keep order
    bounds = [0, *[int(c) for c in cuts], height]
    colors = _PALETTE[rng.integers(0, palette_size, size=n_blocks)]

    img = np.array([58.0, 62.0, 68.0])[None, None, :] * scene

    scene_strength = WEAK_SCENE_STRENGTH if weak_texture else 1.0
    block_scene = 1.0 + scene_strength * (scene - 1.0)
    for b in range(n_blocks):
        y0, y1 = bounds[b], bounds[b + 1]
        block_w = int(rng.choice([18, 28, 38]))
        x0 = (width - block_w) // 2
        img[y0:y1, x0:x0 + block_w, :] = (colors[b][None, None, :]
                                          * block_scene[y0:y1, x0:x0 + block_w, :])

    id_depth = 0.05
    cell = 8
    id_cells = rng.choice([1.0 - id_depth, 1.0 + id_depth],
                          size=(height // cell + 1, width // cell + 1, 3))
    img *= np.kron(id_cells, np.ones((cell, cell, 1)))[:height, :width]
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)


def generate_synthetic(out_dir, n_identities: int, shift_rows: int, noise_level: float,
                       seed: int, config: RunConfig | None = None,
                       weak_fraction: float = 0.35, palette_size: int = 8):
    """Write a synthetic camera-pair dataset with a known vertical shift.

    Camera A holds the rendered figure; camera B holds the same figure
    translated down by shift_rows gallery-stride rows (wrapping at the
    border) with per-pixel uniform noise.  Returns (manifest, ground_truth).
    """
    config = config or RunConfig()
    gallery_grid = config.gallery_grid()
    shift_pixels = shift_rows * config.gallery_stride_y
    if not 0 <= shift_pixels < config.image_height:
        raise ConfigurationError(f"shift of {shift_rows} rows leaves the canvas")
    if not 0.0 <= noise_level < np.inf:  # NaN fails both comparisons
        raise ConfigurationError(f"noise_level must be finite and >= 0, got {noise_level!r}")
    if not np.isfinite(noise_level * 510.0):  # the width of the uniform noise draw
        raise ConfigurationError(f"noise_level {noise_level!r} overflows the noise range")
    if not 0.0 <= weak_fraction <= 1.0:
        raise ConfigurationError(f"weak_fraction must lie in [0, 1], got {weak_fraction!r}")
    if not 2 <= palette_size <= len(_PALETTE):
        raise ConfigurationError(f"palette_size must lie in [2, {len(_PALETTE)}], "
                                 f"got {palette_size!r}")
    if n_identities < 1:
        raise ConfigurationError(f"n_identities must be >= 1, got {n_identities!r}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed!r}")

    img_dir = os.path.join(out_dir, "imgs")
    os.makedirs(img_dir, exist_ok=True)
    scene = shared_scene_texture(seed, config.image_width, config.image_height)
    rows = [("identity", "camera", "path")]
    for idx in range(n_identities):
        rng = np.random.default_rng([seed, idx])
        weak = rng.random() < weak_fraction
        base = render_identity(rng, scene, weak, palette_size=palette_size)
        shifted = np.roll(base, shift_pixels, axis=0)
        if noise_level > 0.0:
            noise = rng.uniform(-noise_level * 255.0, noise_level * 255.0, shifted.shape)
            shifted = np.clip(np.floor(shifted + noise + 0.5), 0, 255).astype(np.uint8)
        identity = f"id{idx:04d}"
        for camera, pixels in (("A", base), ("B", shifted)):
            rel = os.path.join("imgs", f"{identity}_{camera}.ppm")
            save_image(os.path.join(out_dir, rel), RgbImage(pixels=pixels))
            rows.append((identity, camera, rel))

    manifest_path = os.path.join(out_dir, "manifest.csv")
    write_rows(manifest_path, rows)
    ground_truth = {"n_identities": n_identities, "shift_rows": shift_rows,
                    "shift_pixels": shift_pixels, "noise_level": noise_level,
                    "seed": seed, "weak_fraction": weak_fraction,
                    "palette_size": palette_size}
    text = json.dumps(ground_truth, indent=2, sort_keys=True)
    write_rows(os.path.join(out_dir, "ground_truth.json"), [(line,) for line in text.splitlines()])
    return load_manifest(manifest_path), ground_truth


class DescriptorBank:
    """Descriptors per (path, camera) computed once and shared by arms.

    Each batch (``stacks`` or ``gallery_pool``) allocates one stack per
    camera and extracts each new image straight into its row through one
    ``DescriptorWorkspace``, dropped when the batch ends.  The cache holds a
    read-only view of that row, the descriptors' only copy; a batch that
    meets a cached image copies its row.
    """

    def __init__(self, manifest: DatasetManifest, config: RunConfig):
        self.config = config
        self.grids = {"A": config.probe_grid(), "B": config.gallery_grid()}
        self._cache: dict[tuple[str, str], np.ndarray] = {}
        self.manifest = manifest

    def _workspace(self) -> DescriptorWorkspace:
        c = self.config
        return DescriptorWorkspace(c.image_height, c.image_width, c.color_bins, c.gradient_bins)

    def descriptors_for(self, path: str, camera: str,
                        workspace: DescriptorWorkspace | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
        """The image's read-only descriptors, extracted into ``out`` when
        given; ``out`` gets a copy of an image already cached."""
        key = (path, camera)
        if key not in self._cache:
            grid = self.grids[camera]
            img = scale_to_canonical(load_image(path), grid)
            self._cache[key] = extract_descriptors(img, grid, self.config.color_bins,
                                                   self.config.gradient_bins,
                                                   workspace=workspace, out=out).view()
            self._cache[key].flags.writeable = False
        elif out is not None:
            out[...] = self._cache[key]
        return self._cache[key]

    def _stack(self, paths, camera: str, workspace: DescriptorWorkspace) -> np.ndarray:
        stack = np.empty((len(paths), self.grids[camera].n_patches, workspace.shape[2]))
        for path, row in zip(paths, stack):
            self.descriptors_for(path, camera, workspace, out=row)
        stack.flags.writeable = False
        return stack

    def stacks(self, identities) -> tuple[np.ndarray, np.ndarray]:
        """Read-only camera-A and camera-B stacks of each identity's first image."""
        workspace, path = self._workspace(), self.manifest.image_path
        probes, galleries = (self._stack([path(i, camera) for i in identities], camera,
                                         workspace) for camera in CAMERAS)
        return probes, galleries

    def gallery_pool(self, identities) -> tuple[np.ndarray, np.ndarray]:
        """Every camera-B image of the identities, read-only, with owner indices.

        Supports all-pairs evaluation of multi-image identities; with one
        image per identity it degenerates to the aligned stack.
        """
        paths = [(idx, path) for idx, identity in enumerate(identities)
                 for path in self.manifest.image_paths(identity, "B")]
        return (self._stack([path for _, path in paths], "B", self._workspace()),
                np.array([idx for idx, _ in paths], dtype=np.int64))


def train_split_metric(probe_stack: np.ndarray, gallery_stack: np.ndarray,
                       config: RunConfig) -> MetricModel:
    """Metric from a training split; wrong-identity pairs come from the next
    identity in the split order (a fixed derangement keeps this seedless)."""
    similar, dissimilar = build_training_pairs(probe_stack, gallery_stack,
                                               np.roll(gallery_stack, -1, axis=0),
                                               config.probe_grid(), config.gallery_grid(),
                                               config.t_d)
    return train_metric(similar, dissimilar, sigma_scale=config.sigma_scale)


def colocated_links(config: RunConfig) -> BinaryMappingStructure:
    colocated, _ = colocated_table(config.probe_grid(), config.gallery_grid())
    return BinaryMappingStructure(targets=tuple(colocated.tolist()))


def simple_average_structure(binaries, config: RunConfig) -> CorrespondenceStructure:
    """Mean of the training probes' 0/1 link matrices, one link per row."""
    probe_grid, gallery_grid = config.probe_grid(), config.gallery_grid()
    n_a, n_b = probe_grid.n_patches, gallery_grid.n_patches
    cells = [np.arange(n_a) * n_b + b.target_array(n_a, n_b) for b in binaries]
    counts = np.bincount(np.concatenate(cells), minlength=n_a * n_b).reshape(n_a, n_b)
    return CorrespondenceStructure(probs=counts / len(binaries),
                                   probe_grid=probe_grid, gallery_grid=gallery_grid)


@dataclass
class SplitArtifacts:
    """Everything trained on one split that the arms share."""

    metric: MetricModel
    learned: LearnResult | None = None
    binaries: list[BinaryMappingStructure] | None = None


def train_on_split(bank: DescriptorBank, train_ids, config: RunConfig,
                   need_structure: bool = True,
                   need_binaries: bool = True) -> SplitArtifacts:
    """Train the shared per-split artifacts; skip stages no arm requires."""
    probe_stack, gallery_stack = bank.stacks(train_ids)
    metric = train_split_metric(probe_stack, gallery_stack, config)
    learned = None
    binaries = None
    if need_structure:
        learned = learn_structure(probe_stack, gallery_stack, metric, config)
        binaries = learned.binary_structures
    elif need_binaries:  # the learner's own context, its loop never run
        binaries = _TrainingContext(probe_stack, gallery_stack, metric, config).binary_structures
    return SplitArtifacts(metric=metric, learned=learned, binaries=binaries)


def _test_table(bank: DescriptorBank, test_ids, metric: MetricModel,
               config: RunConfig) -> tuple[CellTable, np.ndarray]:
    """The split's test cell table and the owner of each of its galleries.

    With use_first_image the gallery holds one image per identity;
    otherwise every camera-B image of the test identities competes.
    """
    probe_stack, gallery_stack = bank.stacks(test_ids)
    owners = np.arange(len(test_ids))
    if not config.use_first_image:
        gallery_stack, owners = bank.gallery_pool(test_ids)
    return CellTable(probe_stack, gallery_stack, metric), owners


def _test_ranks(table: CellTable, owners: np.ndarray, artifacts: SplitArtifacts,
                arm: str, config: RunConfig) -> np.ndarray:
    """Correct-match rank of each test probe under one of ``ARMS``; when an
    identity owns several galleries its best-ranked one counts."""
    correct = np.arange(table.n_probe)
    if arm == "no-structure":
        scores = binary_structure_score_matrix(table.probe_images, table.gallery_images,
                                               [colocated_links(config)], table,
                                               config.kappa)[0]
        return rank_of_scores(scores, correct, owners)

    if arm == "simple-average":
        if artifacts.binaries is None:
            raise ValueError("split was trained without binary structures")
        structure = simple_average_structure(artifacts.binaries, config)
    else:
        if artifacts.learned is None:
            raise ValueError(f"arm {arm!r} needs a trained structure")
        structure = artifacts.learned.structure

    gate, values = gated_correlations(table, structure, config.t_c)
    if arm == "no-global":
        totals = greedy_scores(gate, values, config.kappa)
        return rank_of_scores(totals.reshape(table.n_probe, table.n_gallery), correct, owners)
    return correct_ranks(gate, values, config.kappa, table.n_probe, table.n_gallery, owners)[0]


def run_ablations(manifest: DatasetManifest, splits: SplitPlan, arms, config: RunConfig):
    """Per-arm averaged and per-split CMC curves over the split plan.

    Returns {arm: (averaged CmcCurve, [per-split CmcCurve])}.  All arms of a
    split share the same descriptors, metric, trained structure and test
    cell table.  Curves average ``CmcCurve.at_rank`` over ranks 1 to the
    largest test gallery; a curve reads 1.0 past its own gallery.
    """
    for arm in arms:
        if arm not in ARMS:
            raise ValueError(f"unknown ablation arm {arm!r}")
    bank = DescriptorBank(manifest, config)
    need_structure = any(arm in ("no-global", "proposed") for arm in arms)
    need_binaries = "simple-average" in arms
    per_arm: dict[str, list[CmcCurve]] = {arm: [] for arm in arms}
    for train_ids, test_ids in splits.splits:
        artifacts = train_on_split(bank, train_ids, config, need_structure, need_binaries)
        table, owners = _test_table(bank, test_ids, artifacts.metric, config)
        for arm in arms:
            ranks = _test_ranks(table, owners, artifacts, arm, config)
            per_arm[arm].append(cmc_curve(ranks, table.n_gallery))
    out = {}
    for arm, curves in per_arm.items():
        width = max(c.gallery_size for c in curves)
        values = np.mean([[c.at_rank(n) for n in range(1, width + 1)] for c in curves], axis=0)
        out[arm] = (CmcCurve(values=values, gallery_size=width), curves)
    return out
