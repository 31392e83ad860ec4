"""Damped inverse kinematics as one-step and predictive adaptive control."""

from .kinematics import (
    DhChain,
    DhRow,
    KinematicModel,
    Pose,
    ThreeLink,
    axis_angle_to_rotation,
    default_dh_chain,
    forward,
    forward_pose,
    jacobian,
    jacobian_fd,
    load_dh_chain,
    orientation_error,
    pose_error,
)
from .damping import (
    CondRule,
    Constant,
    DampingObservation,
    DampingSchedule,
    LookupTable,
    RatioRule,
    ThresholdRule,
    cond,
    schedule_from_config,
)
from .mfac import SolveReport, SolveStatus, SolverConfig, mfac_step, solve_ik
from .mfapc import (
    HorizonMode,
    TrackReport,
    build_psi,
    psi_right_inverse,
    receding_horizon_track,
    solve_ik_predictive,
)
from .analysis import (
    MfapcController,
    ConstantReference,
    RampReference,
    mfac_pole_matrix,
    mfapc_pole_matrix,
    simulate_linear_closed_loop,
    static_error_gain,
)
from .trajectory import Trajectory, helix, horizon_window, lspb

__all__ = [
    # kinematics
    "DhChain", "DhRow", "KinematicModel", "Pose", "ThreeLink", "axis_angle_to_rotation",
    "default_dh_chain", "forward", "forward_pose", "jacobian", "jacobian_fd", "load_dh_chain",
    "orientation_error", "pose_error",
    # damping
    "CondRule", "Constant", "DampingObservation", "DampingSchedule", "LookupTable", "RatioRule",
    "ThresholdRule", "cond", "schedule_from_config",
    # mfac
    "SolveReport", "SolveStatus", "SolverConfig", "mfac_step", "solve_ik",
    # mfapc
    "HorizonMode", "TrackReport", "build_psi", "psi_right_inverse", "receding_horizon_track",
    "solve_ik_predictive",
    # analysis
    "MfapcController", "ConstantReference", "RampReference", "mfac_pole_matrix",
    "mfapc_pole_matrix", "simulate_linear_closed_loop", "static_error_gain",
    # trajectory
    "Trajectory", "helix", "horizon_window", "lspb",
]
__version__ = "0.1.0"
