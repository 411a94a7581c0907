"""SAFE core: the paper's primary contribution."""

from .config import SAFEConfig
from .generation import (
    Combination,
    RankedCombination,
    combinations_from_paths,
    fit_mining_model,
    generate_features,
    mined_search_space_size,
    plan_features,
    rank_combinations,
    search_space_size,
)
from .interface import AutoFeatureEngineer
from .pipeline import SAFE, IterationTrace
from .redundancy import remove_redundant_features_blocked
from .scoring import IntervalCodeCache, score_combinations
from .stream import forest_chunks
from .selection import (
    SelectionReport,
    filter_by_information_value,
    rank_by_importance,
    remove_redundant_features,
    select_features,
)
from .transform import FeatureTransformer

__all__ = [
    "AutoFeatureEngineer",
    "Combination",
    "FeatureTransformer",
    "IntervalCodeCache",
    "IterationTrace",
    "RankedCombination",
    "SAFE",
    "SAFEConfig",
    "SelectionReport",
    "combinations_from_paths",
    "filter_by_information_value",
    "fit_mining_model",
    "forest_chunks",
    "generate_features",
    "mined_search_space_size",
    "plan_features",
    "rank_by_importance",
    "rank_combinations",
    "remove_redundant_features",
    "remove_redundant_features_blocked",
    "score_combinations",
    "search_space_size",
    "select_features",
]
