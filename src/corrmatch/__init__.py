"""Cross-view patch correspondence learning and globally constrained matching."""

from .assignment import Assignment, solve_assignment
from .config import RunConfig
from .geometry import GridSpec
from .learning import CmcCurve, cmc_curve, learn_structure
from .matching import BinaryMappingStructure, match_score, rank_gallery
from .metric import MetricModel, build_avg_similarity, train_metric
from .structure import CorrespondenceStructure, blend_update, init_structure

__version__ = "0.1.0"

__all__ = [
    "Assignment", "BinaryMappingStructure", "CmcCurve", "CorrespondenceStructure",
    "GridSpec", "MetricModel", "RunConfig", "blend_update", "build_avg_similarity",
    "cmc_curve", "init_structure", "learn_structure", "match_score", "rank_gallery",
    "solve_assignment", "train_metric", "__version__",
]
