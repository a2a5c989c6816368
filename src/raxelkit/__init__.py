"""Camera trajectories as per-pixel ray images.

A camera frame (pinhole intrinsics plus a camera-to-world pose) can be
written, losslessly, as a half-resolution grid of rays: each grid pixel
stores the world-space direction of its viewing ray plus the camera origin.
This package provides that encoding and its closed-form inverse (Procrustes
pose registration and median-of-ratios focal recovery), two alternative
6-channel ray parameterizations, a flow-matching objective and Euler sampler
for generative models over such grids, a two-stream attention block with
3-axis rotary positions, evaluation metrics, noise-robustness harnesses, and
bit-exact file formats with a CLI.
"""

from .attention import (
    BranchParams,
    DscaBlockParams,
    Modality,
    TokenSeq,
    cross_attention,
    dsca_block,
    init_dsca_params,
    rope_rotate,
    self_attention,
)
from .decode import (
    DecodedFrame,
    DecodeFailure,
    decode_trajectory,
    recover_focal,
)
from .errors import (
    DegenerateDirectionError,
    DegenerateGeometryError,
    InsufficientInliersError,
    InvalidFrameCountError,
    LengthMismatchError,
    NonFiniteInputError,
    RaxelFileError,
    RaxelkitError,
    ReferenceMismatchError,
    ShapeMismatchError,
    TooFewFramesError,
    TrajectoryParseError,
)
from .evaluation import (
    PerturbationKind,
    PerturbationSpec,
    PoseErrorReport,
    TrajectoryKind,
    cycle_consistency_run,
    generate_trajectory,
    mrra,
    perturb,
    pose_errors,
    reverse_trajectory,
)
from .flow import (
    FlowBatch,
    FreezeMask,
    LossReport,
    euler_sample,
    interpolate,
    latent_length,
    loss,
    loss_gradient,
    target_velocity,
)
from .geometry import (
    CameraFrame,
    Intrinsics,
    Pose,
    Trajectory,
    axis_angle_rotation,
    canonicalize,
    compose,
    geodesic_rotation_distance,
    inverse,
    nearest_rotation,
    random_pose,
    rotation_angle,
)
from .io import (
    format_trajectory,
    load_raxel,
    load_trajectory,
    parse_trajectory,
    save_raxel,
    save_trajectory,
)
from .rays import (
    GridKind,
    RayGrid,
    encode_plucker,
    encode_raxel,
    encode_raymap,
    encode_trajectory_raxels,
    grid_pixel_coordinates,
    ray_grid,
)
from .registration import RegistrationResult, register

__version__ = "0.1.0"

__all__ = [
    "BranchParams",
    "CameraFrame",
    "DecodeFailure",
    "DecodedFrame",
    "DegenerateDirectionError",
    "DegenerateGeometryError",
    "DscaBlockParams",
    "FlowBatch",
    "FreezeMask",
    "GridKind",
    "InsufficientInliersError",
    "Intrinsics",
    "InvalidFrameCountError",
    "LengthMismatchError",
    "LossReport",
    "Modality",
    "NonFiniteInputError",
    "PerturbationKind",
    "PerturbationSpec",
    "Pose",
    "PoseErrorReport",
    "RaxelFileError",
    "RaxelkitError",
    "RayGrid",
    "ReferenceMismatchError",
    "RegistrationResult",
    "ShapeMismatchError",
    "TokenSeq",
    "TooFewFramesError",
    "Trajectory",
    "TrajectoryKind",
    "TrajectoryParseError",
    "axis_angle_rotation",
    "canonicalize",
    "compose",
    "cross_attention",
    "cycle_consistency_run",
    "decode_trajectory",
    "dsca_block",
    "encode_plucker",
    "encode_raxel",
    "encode_raymap",
    "encode_trajectory_raxels",
    "euler_sample",
    "format_trajectory",
    "generate_trajectory",
    "geodesic_rotation_distance",
    "grid_pixel_coordinates",
    "init_dsca_params",
    "interpolate",
    "inverse",
    "latent_length",
    "load_raxel",
    "load_trajectory",
    "loss",
    "loss_gradient",
    "mrra",
    "nearest_rotation",
    "parse_trajectory",
    "perturb",
    "pose_errors",
    "random_pose",
    "ray_grid",
    "recover_focal",
    "register",
    "reverse_trajectory",
    "rope_rotate",
    "rotation_angle",
    "save_raxel",
    "save_trajectory",
    "self_attention",
    "target_velocity",
]
