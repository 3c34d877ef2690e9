"""The input checks that no other test reaches, one case each: every case
names the call, the exception type and its exact message, raised by the
check itself and not re-raised from another error."""
import numpy as np
import pytest

from corrmatch.assignment import GatePlan, solve_assignment
from corrmatch.config import RunConfig
from corrmatch.errors import ConfigurationError, FormatError, as_format_error
from corrmatch.geometry import GridSpec
from corrmatch.harness import DatasetManifest, SplitArtifacts, _test_ranks, run_ablations
from corrmatch.imaging import (DescriptorWorkspace, MalformedHeaderError, RgbImage, decode_ppm,
                               extract_descriptors)
from corrmatch.learning import (CmcCurve, compute_update, learn_structure, patch_importance,
                                structure_prior)
from corrmatch.matching import (CellTable, adjacency_candidates, best_binary_structure,
                                gated_correlations, rank_gallery)
from corrmatch.metric import MetricModel, build_avg_similarity, train_metric
from corrmatch.structure import CorrespondenceStructure, blend_update, init_structure

PROBE_1 = GridSpec(4, 4, 4, 4, 1, 1)       # one probe patch
GALLERY_2 = GridSpec(4, 4, 4, 2, 2, 2)     # two gallery patches


def pixels(height, width, dtype=np.uint8):
    return np.zeros((height, width, 3), dtype=dtype)


def model(**fields) -> MetricModel:
    """The identity metric at one location and dim 2, with ``fields`` replaced."""
    return MetricModel(**{"matrices": np.eye(2)[None], "sigmas": np.ones(1),
                          "global_matrix": np.eye(2), "global_sigma": 1.0, **fields})


MODEL = model()
STRUCTURE = CorrespondenceStructure(probs=np.array([[0.5, 0.5]]), probe_grid=PROBE_1,
                                    gallery_grid=GALLERY_2)
TABLE = CellTable(np.zeros((2, 1, 2)), np.zeros((3, 2, 2)), MODEL)  # two probe images
CONFIG = RunConfig()


def passes_a_format_error_through():
    with as_format_error():
        raise FormatError("bad metric magic b'XXXX'")


CASES = [
    # imaging
    pytest.param(lambda: RgbImage(pixels=np.zeros((2, 2), dtype=np.uint8)), ValueError,
                 "expected (h, w, 3) pixel array, got (2, 2)", id="imaging-rgb-shape"),
    pytest.param(lambda: RgbImage(pixels=pixels(2, 2, np.float64)), ValueError,
                 "expected uint8 pixels, got float64", id="imaging-rgb-dtype"),
    pytest.param(lambda: RgbImage(pixels=pixels(0, 2)), ValueError,
                 "image must be at least 1x1", id="imaging-rgb-empty"),
    pytest.param(lambda: decode_ppm(b"P6\n0 1\n255\n"), MalformedHeaderError,
                 "bad PPM dimensions 0x1", id="imaging-zero-width"),
    pytest.param(lambda: extract_descriptors(RgbImage(pixels=pixels(1, 1)),
                                             GridSpec(1, 1, 1, 1, 1, 1), 2, 2), ValueError,
                 "a 1x1 image has no gradient", id="imaging-one-pixel-canvas"),
    pytest.param(lambda: extract_descriptors(RgbImage(pixels=pixels(4, 4)),
                                             GridSpec(4, 4, 2, 2, 2, 2), 2, 2,
                                             workspace=DescriptorWorkspace(3, 4, 2, 2)),
                 ValueError, "workspace of shape (3, 4, 8) for images of shape (4, 4, 8)",
                 id="imaging-workspace-shape"),
    # assignment
    pytest.param(lambda: solve_assignment(np.zeros(3), kappa=0.0), ValueError,
                 "expected a 2-d matrix, got shape (3,)", id="assignment-solve-1d"),
    pytest.param(lambda: GatePlan(np.zeros((1, 2, 2), dtype=bool)), ValueError,
                 "expected a 2-d gate, got shape (1, 2, 2)", id="assignment-gate-3d"),
    # metric
    pytest.param(lambda: model(matrices=np.zeros((1, 2, 3))), ValueError,
                 "per-location matrices must be square", id="metric-not-square"),
    pytest.param(lambda: model(sigmas=np.ones(2)), ValueError,
                 "sigma count does not match location count", id="metric-sigma-count"),
    pytest.param(lambda: model(global_matrix=np.eye(3)), ValueError,
                 "global matrix dimension mismatch", id="metric-global-dim"),
    pytest.param(lambda: model(sigmas=np.zeros(1)), ValueError, "sigmas must be positive",
                 id="metric-sigma-zero"),
    pytest.param(lambda: model(fallback=np.zeros(2)), ValueError,
                 "fallback flag count does not match location count", id="metric-fallback-count"),
    pytest.param(lambda: train_metric([np.ones((3, 2)), np.ones((3, 3))],
                                      [np.ones((3, 2)), np.ones((3, 3))], 1.0), ValueError,
                 "inconsistent descriptor dims {2, 3}", id="metric-mixed-dims"),
    pytest.param(lambda: build_avg_similarity(np.zeros((0, 1, 2))), ValueError,
                 "no correct pairs to average", id="metric-avg-no-pair"),
    # structure
    pytest.param(lambda: CorrespondenceStructure(probs=np.ones((1, 1)), probe_grid=PROBE_1,
                                                 gallery_grid=GALLERY_2), ValueError,
                 "probability matrix (1, 1) does not match grids (1, 2)", id="structure-shape"),
    pytest.param(lambda: init_structure(PROBE_1, GALLERY_2, 0), ConfigurationError,
                 "t_d must be >= 1, got 0", id="structure-init-t_d"),
    pytest.param(lambda: blend_update(STRUCTURE, np.zeros((2, 2)), 0.5), ValueError,
                 "update shape (2, 2) != (1, 2)", id="structure-update-shape"),
    pytest.param(lambda: blend_update(STRUCTURE, np.zeros((1, 2)), 1.0), FloatingPointError,
                 "blend produced an all-zero row; cannot normalize", id="structure-zero-row"),
    # learning
    pytest.param(lambda: CmcCurve(values=np.ones(1), gallery_size=2), ValueError,
                 "curve length must equal the gallery size", id="learning-cmc-length"),
    pytest.param(lambda: structure_prior([]), ValueError, "need at least one structure",
                 id="learning-prior-empty"),
    pytest.param(lambda: compute_update([np.eye(2)], [0.5, 0.5]), ValueError,
                 "need one prior per structure", id="learning-update-priors"),
    pytest.param(lambda: compute_update(iter([np.eye(2)] * 3), [0.5, 0.5]), ValueError,
                 "need one prior per structure", id="learning-update-joints"),
    pytest.param(lambda: compute_update([], []), ValueError,
                 "need one prior per structure", id="learning-update-empty"),
    pytest.param(lambda: patch_importance(np.zeros(3), 1), ValueError,
                 "no probe patch is reachable from the structure's links",
                 id="learning-importance-zero"),
    pytest.param(lambda: learn_structure(np.zeros((2, 1, 2)), np.zeros((3, 2, 2)), MODEL,
                                         CONFIG), ValueError,
                 "probe and gallery training stacks must align", id="learning-misaligned"),
    # matching
    pytest.param(lambda: gated_correlations(CellTable(np.zeros((1, 1, 2)), np.zeros((1, 3, 2)),
                                                      MODEL), STRUCTURE, 0.1), ValueError,
                 "descriptor counts do not match the structure grids",
                 id="matching-gate-grids"),
    pytest.param(lambda: rank_gallery(np.zeros((1, 2)), [], STRUCTURE, MODEL, 0.1, -1.0),
                 ValueError, "gallery set must be non-empty", id="matching-rank-empty"),
    pytest.param(lambda: adjacency_candidates(np.zeros((1, 2)), PROBE_1, GALLERY_2, ()),
                 ValueError, "ranges must be non-empty", id="matching-adjacency-no-range"),
    pytest.param(lambda: adjacency_candidates(np.zeros((1, 2)), PROBE_1, GALLERY_2, (2, 0)),
                 ValueError, "search range must be >= 1, got 0",
                 id="matching-adjacency-range"),
    pytest.param(lambda: adjacency_candidates(np.zeros((2, 2)), PROBE_1, GALLERY_2, (1,)),
                 ValueError, "expected (1, 2) similarities, got (2, 2)",
                 id="matching-adjacency-shape"),
    pytest.param(lambda: best_binary_structure(TABLE, 0, [], -1.0), ValueError,
                 "expected a table of one probe image, got 2", id="matching-best-multi-probe"),
    # harness
    pytest.param(lambda: DatasetManifest("m.csv", ()).image_paths("id0", "A"), KeyError,
                 "no image for (id0, A)", id="harness-no-image"),
    pytest.param(lambda: run_ablations(DatasetManifest("m.csv", ()), None, ["proposed", "x"],
                                       CONFIG), ValueError,
                 "unknown ablation arm 'x'", id="harness-unknown-arm"),
    pytest.param(lambda: _test_ranks(TABLE, np.arange(3), SplitArtifacts(MODEL),
                                     "simple-average", CONFIG), ValueError,
                 "split was trained without binary structures", id="harness-no-binaries"),
    pytest.param(lambda: _test_ranks(TABLE, np.arange(3), SplitArtifacts(MODEL), "no-global",
                                     CONFIG), ValueError,
                 "arm 'no-global' needs a trained structure", id="harness-no-structure"),
    # errors
    pytest.param(passes_a_format_error_through, FormatError, "bad metric magic b'XXXX'",
                 id="errors-format-error-passes"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_bad_input_raises_its_check(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and caught.value.args == (message,)
    assert caught.value.__cause__ is None
