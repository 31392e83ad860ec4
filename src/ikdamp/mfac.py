"""The damped control law and the one IK iteration loop.

The control law is one damped least-squares (Levenberg-Marquardt) step,
computed by filtering singular values: `mfac_step` solves it for n
stacked waypoint errors against the frozen horizon stack T (x) J from
one thin SVD of J. `solve_ik_predictive` iterates that step, on the
frozen stack or on the dense stack `build_psi` of provisional Jacobians,
with an adaptive damping schedule, until the error norm drops below a
tolerance. `solve_ik` is that loop with n = 1, so the one-step solver
is the predictive one by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Sequence, Union

import numpy as np

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


@lru_cache(maxsize=64)
def _horizon_spectrum(n: int):
    """(mu, W, W^T T^T) for T = tril(ones(n, n)) and T^T T = W diag(mu) W^T."""
    T = np.tril(np.ones((n, n)))
    mu, W = np.linalg.eigh(T.T @ T)
    WtTt = W.T @ T.T
    for a in (mu, W, WtTt):
        a.setflags(write=False)
    return mu, W, WtTt


def mfac_step(J, e, lam: float) -> np.ndarray:
    """The damped step: solve (psi^T psi + lam*I) dQ = psi^T e, psi = T (x) J.

    e stacks n = len(e) / rows(J) waypoint errors and T is the n x n
    lower-triangular ones matrix, so psi is the frozen horizon stack and
    dQ stacks its n increments; a dense stack is the n = 1 case. psi has
    the singular values s = sqrt(mu_i) * sigma_j, for J = U diag(sigma) V^T
    and T^T T = W diag(mu) W^T. Each gets the filter factor s / (s^2 + lam),
    and zero at or below the least-squares rank cutoff eps * max(shape) *
    s_max. lam = 0 is thus the minimum-norm least-squares step, which a lam
    too small to register also gives, with no null-space motion.
    """
    J = np.asarray(J, dtype=float)
    e = np.asarray(e, dtype=float).ravel()
    m_y, m_u = J.shape
    n, rest = divmod(e.shape[0], m_y)
    if n < 1 or rest:
        raise ValueError("error vector length must be a multiple of the Jacobian rows")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    U, sigma, Vt = np.linalg.svd(J, full_matrices=False)
    mu, W, WtTt = _horizon_spectrum(n)
    s2 = mu[:, None] * sigma**2
    cutoff = np.finfo(float).eps * n * max(m_y, m_u) * np.sqrt(mu[-1]) * sigma[0]
    # s / (s^2 + lam), divided by the sqrt(mu_i) that T's left singular vectors carry
    gain = np.divide(sigma, s2 + lam, out=np.zeros_like(s2), where=s2 > cutoff**2)
    return (W @ (gain * (WtTt @ e.reshape(n, m_y) @ U)) @ Vt).ravel()


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


def task_error(model: KinematicModel, targets: Sequence, q) -> np.ndarray:
    """Stacked errors of a window of `_as_target`-normalized targets from one FK at q."""
    if isinstance(model, DhChain):
        current = model.forward_pose(q)
        return np.concatenate([pose_error(t, current) for t in targets])
    return np.subtract(targets, forward(model, q)).ravel()


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
    The window must hold config.horizon targets.
    """
    targets = [_as_target(model, t) for t in targets]
    n = len(targets)
    if n != config.horizon:
        raise ValueError(f"{n} targets given for config.horizon = {config.horizon}")
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
        resid = task_error(model, targets, q)
        # provisional[0] is q, whose error is the first block of resid
        stacked_err = resid if frozen else np.concatenate(
            [resid[: model.m_y]]
            + [task_error(model, [t], p) for t, p in zip(targets[1:], provisional[1:])]
        )
        err = float(np.linalg.norm(stacked_err))
        error_trace.append(err)
        if err <= config.delta:
            lambda_trace.append(schedule.peek())
            q_trace.append(q.copy())
            status = SolveStatus.CONVERGED
            break

        if frozen:
            stack = jacobian(model, q)
            kappa = cond(stack)
        else:
            jac_blocks = [jacobian(model, p) for p in provisional]
            kappa = max(cond(J) for J in jac_blocks)
            stack = build_psi(jac_blocks)
        lam = schedule.next_lambda(
            DampingObservation(err, prev_error_norm=prev_norm, cond=kappa)
        )
        lambda_trace.append(lam)
        dQ = mfac_step(stack, resid, lam)
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
