"""Multi-sensor multi-target tracking simulator and fleet planners."""

from .estimation import (
    FleetBelief,
    NcvModel,
    TrackAssociationError,
    fuse,
    ncv_model,
    predict,
    update,
)
from .metrics import OspaParams, ecdf, ospa
from .planning import (
    BudgetExceededError,
    PlanStats,
    action_set,
    dec_pomdp_plan,
    extend_intent,
    mcr_plan,
    sma_nbo_plan,
)
from .sensing import Observations, Sensor, in_fov, sense
from .sim import PLANNERS, TrialLog, run_trial
from .worldgen import (
    Aoi,
    ForestPlacementError,
    MapFormatError,
    OcclusionForest,
    ScenarioConfig,
    TargetTrajectory,
    generate_forest,
    generate_levy_trajectory,
    load_map,
    save_map,
)

__all__ = [
    "Aoi",
    "BudgetExceededError",
    "FleetBelief",
    "ForestPlacementError",
    "MapFormatError",
    "NcvModel",
    "Observations",
    "OcclusionForest",
    "OspaParams",
    "PLANNERS",
    "PlanStats",
    "ScenarioConfig",
    "Sensor",
    "TargetTrajectory",
    "TrackAssociationError",
    "TrialLog",
    "action_set",
    "dec_pomdp_plan",
    "ecdf",
    "extend_intent",
    "fuse",
    "generate_forest",
    "generate_levy_trajectory",
    "in_fov",
    "load_map",
    "mcr_plan",
    "ncv_model",
    "ospa",
    "predict",
    "run_trial",
    "save_map",
    "sense",
    "sma_nbo_plan",
    "update",
]
