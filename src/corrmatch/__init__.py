"""Cross-view patch correspondence learning and globally constrained matching."""

from .assignment import Assignment, solve_assignment
from .config import RunConfig
from .geometry import GridSpec, PatchRef, colocated_patch, patch_positions, zigzag_distance
from .learning import CmcCurve, cmc_curve, learn_structure
from .matching import BinaryMappingStructure, match_score, rank_gallery
from .metric import MetricModel, appearance_similarity, build_avg_similarity, train_metric
from .structure import CorrespondenceStructure, blend_update, init_structure

__version__ = "0.1.0"

__all__ = [
    "Assignment", "BinaryMappingStructure", "CmcCurve", "CorrespondenceStructure",
    "GridSpec", "MetricModel", "PatchRef", "RunConfig", "appearance_similarity",
    "blend_update", "build_avg_similarity", "cmc_curve", "colocated_patch",
    "init_structure", "learn_structure", "match_score", "patch_positions",
    "rank_gallery", "solve_assignment", "train_metric",
    "zigzag_distance", "__version__",
]
