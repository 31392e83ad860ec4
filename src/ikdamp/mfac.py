"""The damped control law and the one IK iteration loop.

The control law solves (J^T J + lam*I) dq = J^T e, i.e. one damped
least-squares (Levenberg-Marquardt) step on the task-space error.
`solve_ik_predictive` iterates that step on n stacked waypoint errors
against the block-lower-triangular Jacobian `build_psi`, with an
adaptive damping schedule, until the error norm drops below a
tolerance. `solve_ik` is that loop with n = 1, so the one-step solver
is the predictive one by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .damping import DampingObservation, DampingSchedule, Constant, cond
from .kinematics import (
    DhChain,
    KinematicModel,
    Pose,
    forward,
    jacobian,
    pose_error,
    pose_from_task,
)


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"


@dataclass
class SolverConfig:
    delta: float = 1e-10        # final error tolerance
    n_up: int = 500             # iteration cap
    schedule: DampingSchedule = field(default_factory=Constant)
    horizon: int = 1

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n_up < 1:
            raise ValueError("n_up must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class SolveReport:
    q_final: np.ndarray
    status: SolveStatus
    iterations: int
    error_trace: List[float]
    lambda_trace: List[float]
    dq_total: np.ndarray
    q_trace: List[np.ndarray] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def mfac_step(J, e, lam: float) -> np.ndarray:
    """Solve (J^T J + lam*I) dq = J^T e.

    lam > 0 uses a Cholesky solve on the (positive definite) normal
    equations. lam = 0 falls back to the minimum-norm least-squares
    solution so singular Jacobians do not crash; so does a lam too small
    to register against J^T J of a rank-deficient J, whose damped step
    is that minimum-norm step to rounding.
    """
    J = np.asarray(J, dtype=float)
    e = np.asarray(e, dtype=float).ravel()
    if e.shape[0] != J.shape[0]:
        raise ValueError("error vector length must match Jacobian rows")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if lam > 0:
        A = J.T @ J + lam * np.eye(J.shape[1])
        try:
            return cho_solve(cho_factor(A, lower=True), J.T @ e)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(J, e, rcond=None)[0]


def _as_target(model: KinematicModel, target) -> Union[np.ndarray, Pose]:
    """Normalize a target: 6-vector targets on a DhChain become a Pose."""
    if isinstance(target, Pose):
        if not isinstance(model, DhChain):
            raise ValueError("Pose targets need a DhChain model")
        return target
    target = np.asarray(target, dtype=float).ravel()
    if target.shape[0] != model.m_y:
        raise ValueError(f"target length must be {model.m_y}")
    if isinstance(model, DhChain):
        return pose_from_task(target)
    return target


def task_error(model: KinematicModel, target, q) -> np.ndarray:
    """Task-space error of target relative to the configuration q."""
    if isinstance(target, Pose):
        return pose_error(target, model.forward_pose(q))
    return np.asarray(target, dtype=float) - forward(model, q)


class HorizonMode(Enum):
    # FROZEN replicates the current Jacobian across the horizon;
    # PROPAGATED evaluates future blocks at provisional future states.
    FROZEN = "frozen"
    PROPAGATED = "propagated"


def build_psi(jacobians: Sequence[np.ndarray]) -> np.ndarray:
    """Block-lower-triangular stack: row r holds blocks J_0 .. J_r."""
    blocks = [np.asarray(J, dtype=float) for J in jacobians]
    if not blocks:
        raise ValueError("need at least one Jacobian block")
    m_y, m_u = blocks[0].shape
    if any(b.shape != (m_y, m_u) for b in blocks):
        raise ValueError("all Jacobian blocks must share one shape")
    n = len(blocks)
    psi = np.zeros((n * m_y, n * m_u))
    for r in range(n):
        for c in range(r + 1):
            psi[r * m_y:(r + 1) * m_y, c * m_u:(c + 1) * m_u] = blocks[c]
    return psi


def solve_ik_predictive(
    model: KinematicModel,
    targets: Sequence,
    q0,
    config: SolverConfig,
    mode: HorizonMode = HorizonMode.FROZEN,
) -> SolveReport:
    """Iterative predictive IK over a fixed window of n targets.

    Per iteration: evaluate the stacked error, stop if its norm is
    <= config.delta, else update the damping factor from the schedule,
    solve the coupled damped system against the current (frozen) or
    provisional future (propagated) Jacobians and commit the first
    increment; provisional future states advance by the cumulative
    increment blocks. Stops after config.n_up iterations otherwise.
    """
    targets = [_as_target(model, t) for t in targets]
    n = len(targets)
    if n < 1:
        raise ValueError("need at least one target")
    q = np.asarray(q0, dtype=float).ravel().copy()
    if q.shape[0] != model.m_u:
        raise ValueError(f"q0 length must be {model.m_u}")
    schedule = config.schedule
    frozen = mode is HorizonMode.FROZEN

    provisional = [q] * n
    error_trace: List[float] = []
    lambda_trace: List[float] = []
    q_trace: List[np.ndarray] = []
    prev_norm: Optional[float] = None
    status = SolveStatus.MAX_ITERATIONS

    for _ in range(config.n_up):
        resid = np.concatenate([task_error(model, t, q) for t in targets])
        stacked_err = resid if frozen else np.concatenate(
            [task_error(model, t, p) for t, p in zip(targets, provisional)]
        )
        err = float(np.linalg.norm(stacked_err))
        error_trace.append(err)
        if err <= config.delta:
            lambda_trace.append(schedule.peek())
            q_trace.append(q.copy())
            status = SolveStatus.CONVERGED
            break

        if frozen:
            J = jacobian(model, q)
            jac_blocks = [J] * n
            kappa = cond(J)
        else:
            jac_blocks = [jacobian(model, p) for p in provisional]
            kappa = max(cond(J) for J in jac_blocks)
        lam = schedule.next_lambda(
            DampingObservation(err, prev_error_norm=prev_norm, cond=kappa)
        )
        lambda_trace.append(lam)
        dQ = mfac_step(build_psi(jac_blocks), resid, lam)
        if not frozen:
            provisional = q + np.cumsum(dQ.reshape(n, model.m_u), axis=0)
        q = q + dQ[: model.m_u]
        q_trace.append(q.copy())
        prev_norm = err

    return SolveReport(
        q_final=q,
        status=status,
        iterations=len(error_trace),
        error_trace=error_trace,
        lambda_trace=lambda_trace,
        dq_total=q - np.asarray(q0, dtype=float).ravel(),
        q_trace=q_trace,
    )


def solve_ik(model: KinematicModel, target, q0, config: SolverConfig) -> SolveReport:
    """Iterative damped IK toward a single waypoint: the predictive loop with n = 1."""
    return solve_ik_predictive(model, [target], q0, config)
