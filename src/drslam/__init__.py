"""Adaptive dead-reckoning weighting for hierarchical visual SLAM.

Quality-scored DR priors injected into motion-only, local, and global bundle
adjustment, plus a synthetic sequence simulator and an evaluation harness.
"""

from .config import RunConfig, parse_config
from .evaluation import Trajectory, align, alpha_sweep, ape_rmse, frame_kf_ratio, repeat_run, verdict
from .geometry import (
    CameraIntrinsics,
    Pose,
    compose,
    exp_se3,
    inverse,
    log_se3,
    project,
    transform_point,
)
from .pipeline import Pipeline, PipelineParams, SlamMap, load_map, run_pipeline, save_map
from .simulator import (
    Dropout,
    Sequence,
    WorldConfig,
    read_sequence,
    simulate_sequence,
    write_sequence,
)
from .weighting import (
    NominalDrInformation,
    QualityParams,
    TrackingStats,
    WeightBounds,
    compute_quality,
    dr_weight,
    keyframe_quality,
    scale_information,
    smooth_window_weights,
    update_c_ref,
)

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "Dropout",
    "NominalDrInformation",
    "Pipeline",
    "PipelineParams",
    "Pose",
    "QualityParams",
    "RunConfig",
    "Sequence",
    "SlamMap",
    "TrackingStats",
    "Trajectory",
    "WeightBounds",
    "WorldConfig",
    "align",
    "alpha_sweep",
    "ape_rmse",
    "compose",
    "compute_quality",
    "dr_weight",
    "exp_se3",
    "frame_kf_ratio",
    "inverse",
    "keyframe_quality",
    "load_map",
    "log_se3",
    "parse_config",
    "project",
    "read_sequence",
    "repeat_run",
    "run_pipeline",
    "save_map",
    "scale_information",
    "simulate_sequence",
    "smooth_window_weights",
    "transform_point",
    "update_c_ref",
    "verdict",
    "write_sequence",
]
