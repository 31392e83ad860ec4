"""Receding-horizon tracking and the stacked right inverse.

The predictive law stacks n waypoint errors against a block-lower-
triangular Jacobian and solves one coupled damped system; only the
first joint increment is committed (receding horizon). Its iteration
loop, `solve_ik_predictive`, lives in `mfac` next to the one-step law it
reduces to at n = 1, and is re-exported here with `build_psi` and
`HorizonMode`; the horizon mode is `SolverConfig.mode`. The single-step
tracker's schedule observes the singular values of its step's SVD of J,
through `DampingObservation._trusted`: that SVD returns them descending
and non-negative, so the observation does not check them again (the
`damping` module docstring). The tracker's targets are checked once per
run, in one pass over the trajectory's already finite samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .damping import DampingObservation
from .kinematics import DhChain, KinematicModel, _as_vector, forward, jacobian
from .mfac import (
    HorizonMode,
    SolverConfig,
    build_psi,
    mfac_step,
    solve_ik_predictive,
    task_error,
)
from .trajectory import Trajectory

# unused here; the benchmark's spans patch these two bindings until ROADMAP item 1 lands
from .damping import cond  # noqa: F401
from .trajectory import horizon_window  # noqa: F401


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
    y0=None,
) -> TrackReport:
    """Track a desired trajectory with the receding-horizon law.

    The samples, padded at the trajectory tail by repeating the last one,
    become targets once per run, so each step's horizon window is a slice
    of them. At each step the window is stacked, one predictive increment
    is committed, and the plant advances by one true FK, against which the
    first target is scored. With config.n_up == 1 this is the pure
    one-increment-per-step controller: the step applies the schedule's
    current lambda, and the schedule is then fed the frozen-model
    predicted stacked error, with the previous step's as the previous
    error, and the singular values of the step's own SVD of J. With
    n_up > 1 a full inner predictive solve runs at every waypoint, in
    config.mode. The single-step law is frozen only, which is why
    `SolverConfig` rejects PROPAGATED with n_up == 1.

    y0 overrides the initial plant output (it may be inconsistent with
    q0; the plant re-synchronizes after the first commit) and is checked
    like q0. Only the single-step law on a position-only model reads it:
    a DhChain measures its error at q. So y0 is rejected for a DhChain or
    n_up > 1.
    """
    n = config.horizon
    single_step = config.n_up <= 1
    if y0 is not None and (not single_step or isinstance(model, DhChain)):
        raise ValueError("y0 is read only by the single-step law on a position-only model")
    if len(trajectory) < n:
        raise ValueError("trajectory must be at least as long as the horizon")
    targets = model._targets(trajectory.samples, n)
    q = _as_vector(q0, model.m_u, "q0").copy()
    schedule = config.schedule
    y = forward(model, q) if y0 is None else _as_vector(y0, model.m_y, "y0")

    steps: List[TrackStep] = []
    prev_predicted: Optional[float] = None
    for t in range(len(trajectory)):
        window = targets[t:t + n]
        if single_step:
            lam = schedule.peek()
            J = jacobian(model, q)
            resid = task_error(model, window, q, y)
            sigma = []  # the step applies lam and keeps its singular values of J for the update
            dQ = mfac_step(J, resid, lambda s: sigma.append(s) or lam)
            q = q + dQ[: model.m_u]
            # frozen-model prediction: block r of (T (x) J) dQ is J (dQ_0 + .. + dQ_r); the
            # method forms skip np.cumsum's dispatcher and form the products @ does, but for
            # the sign of a zero at 1 x 1, which the squares of the norm below drop
            moved = dQ.reshape(n, model.m_u).cumsum(axis=0).dot(J.T)
            r = resid - moved.ravel()
            predicted_err = math.sqrt(r.dot(r))  # the bits of np.linalg.norm, at a third of its cost
            schedule.next_lambda(DampingObservation._trusted(
                predicted_err, prev_predicted, sigma[0], max(J.shape)))
            prev_predicted = predicted_err
            inner = 1
        else:
            report = solve_ik_predictive(model, window, q, config)
            q = report.q_final
            lam = report.lambda_trace[-1]
            inner = report.iterations
        y = forward(model, q)
        r = task_error(model, window[:1], q, y)
        steps.append(
            TrackStep(
                k=t + 1,
                target=trajectory[t],
                output=y,
                error_norm=math.sqrt(r.dot(r)),
                lam=lam,
                inner_iterations=inner,
                q=q.copy(),
            )
        )

    settle, max_after = _settling(np.array([s.error_norm for s in steps]))
    return TrackReport(steps=steps, settling_step=settle, max_post_settling_error=max_after)
