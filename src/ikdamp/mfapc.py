"""Receding-horizon tracking and the stacked right inverse.

The predictive law stacks n waypoint errors against a block-lower-
triangular Jacobian and solves one coupled damped system; only the
first joint increment is committed (receding horizon). Its iteration
loop, `solve_ik_predictive`, lives in `mfac` next to the one-step law it
reduces to at n = 1, and is re-exported here with `build_psi` and
`HorizonMode`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .damping import DampingObservation, cond
from .kinematics import DhChain, KinematicModel, forward, jacobian
from .mfac import (
    HorizonMode,
    SolverConfig,
    _as_target,
    build_psi,
    mfac_step,
    solve_ik_predictive,
    task_error,
)
from .trajectory import Trajectory, horizon_window


class SingularBlockError(ValueError):
    """A horizon block lost row rank where a right inverse was required."""

    def __init__(self, index: int):
        super().__init__(f"rank-deficient Jacobian block at horizon index {index}")
        self.index = index


def _right_inverse(J: np.ndarray, index: int) -> np.ndarray:
    """V diag(1/sigma) U^T, which is J^T (J J^T)^-1 for a J of full row rank."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    if s.size < J.shape[0] or s[-1] <= 0 or s[0] / s[-1] >= 1e12:
        raise SingularBlockError(index)
    return Vt.T @ (U / s).T


def psi_right_inverse(jacobians: Sequence[np.ndarray]) -> np.ndarray:
    """Block-bidiagonal right inverse of the stacked Jacobian.

    Diagonal blocks are the per-stage right inverses, first subdiagonal
    their negatives; the product psi @ result is the identity.
    """
    blocks = [np.asarray(J, dtype=float) for J in jacobians]
    if not blocks:
        raise ValueError("need at least one Jacobian block")
    invs = [_right_inverse(J, i) for i, J in enumerate(blocks)]
    n = len(blocks)
    m_y, m_u = blocks[0].shape
    out = np.zeros((n * m_u, n * m_y))
    for i in range(n):
        out[i * m_u:(i + 1) * m_u, i * m_y:(i + 1) * m_y] = invs[i]
        if i > 0:
            out[i * m_u:(i + 1) * m_u, (i - 1) * m_y:i * m_y] = -invs[i]
    return out


@dataclass
class TrackStep:
    k: int
    target: np.ndarray
    output: np.ndarray
    error_norm: float
    lam: float
    inner_iterations: int
    q: np.ndarray


SETTLE_THRESHOLD = 0.1  # the paper's tracking criterion on the error norm


@dataclass
class TrackReport:
    steps: List[TrackStep]
    settling_step: Optional[int]    # first k after which error stays < SETTLE_THRESHOLD
    max_post_settling_error: Optional[float]

    @property
    def error_norms(self) -> np.ndarray:
        return np.array([s.error_norm for s in self.steps])


def _settling(errors: np.ndarray):
    above = np.nonzero(errors >= SETTLE_THRESHOLD)[0]
    first = 0 if above.size == 0 else int(above[-1]) + 1
    if first >= errors.size:
        return None, None
    return first + 1, float(np.max(errors[first:]))


def receding_horizon_track(
    model: KinematicModel,
    trajectory: Trajectory,
    q0,
    config: SolverConfig,
    mode: HorizonMode = HorizonMode.FROZEN,
    y0=None,
) -> TrackReport:
    """Track a desired trajectory with the receding-horizon law.

    At each step the horizon window (padded at the trajectory tail by
    repeating the last waypoint) is stacked, one predictive increment is
    committed, and the plant advances by true forward kinematics. With
    config.n_up == 1 this is the pure one-increment-per-step controller
    and the damping schedule is fed the frozen-model predicted stacked
    error after each commit, with the previous step's as the previous
    error; with n_up > 1 a full inner predictive solve runs at every
    waypoint. The single-step law is frozen only, so PROPAGATED with
    n_up == 1 is rejected.

    y0 overrides the initial plant output (it may be inconsistent with
    q0; the plant re-synchronizes after the first commit). Only the
    single-step law on a position-only model reads it, so y0 is rejected
    for a DhChain or n_up > 1.
    """
    n = config.horizon
    single_step = config.n_up <= 1
    if single_step and mode is HorizonMode.PROPAGATED:
        raise ValueError("propagated mode needs n_up > 1; the single-step law is frozen")
    if y0 is not None and (not single_step or isinstance(model, DhChain)):
        raise ValueError("y0 is read only by the single-step law on a position-only model")
    if len(trajectory) < n:
        raise ValueError("trajectory must be at least as long as the horizon")
    q = np.asarray(q0, dtype=float).ravel().copy()
    schedule = config.schedule
    y = forward(model, q) if y0 is None else np.asarray(y0, dtype=float).ravel().copy()

    steps: List[TrackStep] = []
    prev_predicted: Optional[float] = None
    for t in range(len(trajectory)):
        window = horizon_window(trajectory, t, n)
        if single_step:
            lam = schedule.peek()
            J = jacobian(model, q)
            if isinstance(model, DhChain):
                resid = task_error(model, [_as_target(model, w) for w in window], q)
            else:
                # residual against the reported plant output, which may be
                # initialized inconsistently with q
                resid = np.concatenate(window) - np.tile(y, n)
            dQ = mfac_step(J, resid, lam)
            q = q + dQ[: model.m_u]
            # frozen-model prediction: block r of (T (x) J) dQ is J (dQ_0 + .. + dQ_r)
            moved = np.cumsum(dQ.reshape(n, model.m_u), axis=0) @ J.T
            predicted_err = float(np.linalg.norm(resid - moved.ravel()))
            y = forward(model, q)
            schedule.next_lambda(
                DampingObservation(predicted_err, prev_predicted, cond(J))
            )
            prev_predicted = predicted_err
            inner = 1
        else:
            report = solve_ik_predictive(model, window, q, config, mode)
            q = report.q_final
            y = forward(model, q)
            lam = report.lambda_trace[-1]
            inner = report.iterations
        target = trajectory.samples[t]
        err = float(np.linalg.norm(task_error(model, [_as_target(model, target)], q)))
        steps.append(
            TrackStep(
                k=t + 1,
                target=np.asarray(target, dtype=float),
                output=y.copy(),
                error_norm=err,
                lam=lam,
                inner_iterations=inner,
                q=q.copy(),
            )
        )

    errors = np.array([s.error_norm for s in steps])
    settle, max_after = _settling(errors)
    return TrackReport(steps=steps, settling_step=settle, max_post_settling_error=max_after)
