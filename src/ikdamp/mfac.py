"""The damped control law and the one IK iteration loop.

The control law is one damped least-squares (Levenberg-Marquardt) step,
computed by filtering singular values: `mfac_step` solves it for n
stacked waypoint errors against the frozen horizon stack T (x) J from
one thin SVD of J. Its damping factor may be a number or a function of
those singular values, so a damping schedule observes the step's own.
`solve_ik_predictive` iterates that step with an adaptive damping schedule
until the error norm drops below a tolerance (`converged`), the committed
step stops moving q (`stalled`), the error or the step is not finite
(`diverged`) or the iteration cap is reached (`max_iterations`), on the
frozen stack or, in `SolverConfig.mode` PROPAGATED, on the dense stack
`build_psi` of Jacobians at provisional states, where the schedule
observes each block's singular values.
`solve_ik` is that loop with n = 1, so the one-step solver is the
predictive one by construction. The loop never asks which kind of model
it drives: the model turns each sample into its target and measures the
stacked error (`task_error`), as the law needs only that error and the
Jacobian. As in `kinematics`, elementwise work on a few scalars (the
filter factors, the norms) runs on Python floats, which round as numpy's
ufuncs do, and products stay in numpy, where BLAS and LAPACK fix the bits:
`mfac_step` forms an error vector's products as 2-D `ndarray.dot`, which
forms the products `@` does at less call overhead, and its last one with
`@`, which sums a 1 x 1 product from +0.0 where `dot` keeps a -0.0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, List, Optional, Sequence

import numpy as np

from .damping import DampingObservation, DampingSchedule, Constant, _rank_cutoff
from .damping import cond  # noqa: F401  unused; the benchmark patches it until ROADMAP item 1
from .kinematics import KinematicModel, _as_vector, jacobian


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    STALLED = "stalled"      # the committed step met the step-size test below
    DIVERGED = "diverged"    # the stacked error or the committed step is not finite


# The step-size test of Levenberg-Marquardt codes, ||h|| <= eps2 * (||x|| + eps2)
# (Madsen, Nielsen & Tingleff 2004, Methods for Non-Linear Least Squares Problems,
# sec. 3.2), as ||dq_0|| <= STALL_TOL * (1 + ||q||): the receding-horizon loop
# commits only the first increment dq_0, so its fixed point is dq_0 = 0.
STALL_TOL = 1e-12


class HorizonMode(Enum):
    # FROZEN replicates the current Jacobian across the horizon;
    # PROPAGATED evaluates future blocks at provisional future states.
    FROZEN = "frozen"
    PROPAGATED = "propagated"


def _check_count(value, name: str) -> None:
    """Reject a count that is not an integer >= 1: a bool is an int, but no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)  # so the checks below hold for its lifetime
class SolverConfig:
    delta: float = 1e-10        # final error tolerance
    n_up: int = 500             # iteration cap
    schedule: DampingSchedule = field(default_factory=Constant)
    horizon: int = 1
    mode: HorizonMode = HorizonMode.FROZEN  # a HorizonMode or its value

    def __post_init__(self):
        # written so that a NaN, which compares False, fails each check
        if not 0 < self.delta < np.inf:
            raise ValueError("delta must be finite and positive")
        _check_count(self.n_up, "n_up")
        _check_count(self.horizon, "horizon")
        object.__setattr__(self, "mode", HorizonMode(self.mode))
        # one provisional state is q itself, and the single-step tracker law is frozen
        if self.mode is HorizonMode.PROPAGATED and min(self.horizon, self.n_up) < 2:
            raise ValueError("propagated mode needs horizon >= 2 and n_up >= 2")


@dataclass
class SolveReport:
    q_final: np.ndarray
    status: SolveStatus
    iterations: int
    error_trace: List[float]
    lambda_trace: List[float]
    q_trace: List[np.ndarray] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


@lru_cache(maxsize=64)
def _horizon_spectrum(n: int):
    """(mu as a tuple of floats, sqrt(max mu), W, W^T T^T) for T = tril(ones(n, n)),
    T^T T = W diag(mu) W^T."""
    T = np.tril(np.ones((n, n)))
    mu, W = np.linalg.eigh(T.T @ T)
    WtTt = W.T @ T.T
    for a in (W, WtTt):
        a.setflags(write=False)
    return tuple(mu.tolist()), float(np.sqrt(mu[-1])), W, WtTt


def mfac_step(J, e, lam: float | Callable[[np.ndarray], float]) -> np.ndarray:
    """The damped step: solve (psi^T psi + lam*I) dQ = psi^T e, psi = T (x) J.

    e stacks n = len(e) / rows(J) waypoint errors and T is the n x n
    lower-triangular ones matrix, so psi is the frozen horizon stack and
    dQ stacks its n increments; a dense stack is the n = 1 case. psi has
    the singular values s = sqrt(mu_i) * sigma_j, for J = U diag(sigma) V^T
    and T^T T = W diag(mu) W^T. Each gets the filter factor s / (s^2 + lam),
    and zero at or below the least-squares rank cutoff eps * max(shape) *
    s_max. lam = 0 is thus the minimum-norm least-squares step, which a lam
    too small to register also gives, with no null-space motion.
    The step is linear in e, so e may also be an (n * rows(J)) x k block of
    error columns: column c of the result is, bit for bit, the step for column c.
    A vector e runs as one contiguous n x m_y matrix through 2-D `ndarray.dot`
    (W^T T^T E U, the in-place filter, then W X), and the last product, by V^T,
    stays `@`: at 1 x 1, `dot` keeps a -0.0 product that `@`, summing from +0.0,
    makes +0.0. A column block runs the same chain as one batched `@` stack.
    lam is a number or a function of sigma, the singular values of J in
    descending order from this step's SVD, returning the number; either
    must be finite and non-negative.
    """
    J = np.asarray(J, dtype=float)
    e = np.asarray(e, dtype=float)
    if J.ndim != 2 or 0 in J.shape:
        raise ValueError(f"J must be a matrix with rows and columns, got shape {J.shape}")
    m_y, m_u = J.shape
    n, rest = divmod(e.shape[0] if e.ndim in (1, 2) else 0, m_y)
    if n < 1 or rest:
        raise ValueError("e must be a vector or column block with a multiple of rows(J) rows")
    U, sigma, Vt = np.linalg.svd(J, full_matrices=False)
    if callable(lam):
        lam = lam(sigma)
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and non-negative")
    lam = float(lam)  # a float32 lam would otherwise round the float sums below to float32
    mu, root_mu_max, W, WtTt = _horizon_spectrum(n)
    s = sigma.tolist()
    # squares as products, correctly rounded: libm pow, which ** calls, may miss by an ulp
    cutoff = _rank_cutoff(root_mu_max * s[0], n * max(m_y, m_u))
    cutoff2 = cutoff * cutoff
    # s / (s^2 + lam), divided by the sqrt(mu_i) that T's left singular vectors carry
    gain = np.array([x / (m * (x * x) + lam) if m * (x * x) > cutoff2 else 0.0
                     for m in mu for x in s]).reshape(n, len(s))
    if e.ndim == 1:  # one n x m_y error matrix, filtered in gain's own buffer
        gain *= WtTt.dot(np.ascontiguousarray(e).reshape(n, m_y)).dot(U)
        return (W.dot(gain) @ Vt).ravel()
    # one n x m_y error matrix per column: a stack of them runs the same matmuls per column
    dQ = W @ (gain * (WtTt @ e.T.reshape(e.shape[1:] + (n, m_y)) @ U)) @ Vt
    return dQ.reshape(e.shape[1:] + (n * m_u,)).T


def task_error(model: KinematicModel, targets: Sequence, q, y=None) -> np.ndarray:
    """Stacked errors of a window of the model's targets at q (or at its measured output y)."""
    return model._errors(targets, q, y)


def _blocks(jacobians: Sequence[np.ndarray]) -> np.ndarray:
    """A horizon's Jacobian blocks as one n x m_y x m_u float array: n >= 1 matrices, one shape."""
    blocks = [np.asarray(J, dtype=float) for J in jacobians]
    if not blocks:
        raise ValueError("need at least one Jacobian block")
    if blocks[0].ndim != 2 or any(b.shape != blocks[0].shape for b in blocks):
        raise ValueError("all Jacobian blocks must share one shape")
    return np.array(blocks)


def build_psi(jacobians: Sequence[np.ndarray]) -> np.ndarray:
    """Block-lower-triangular stack: row r holds blocks J_0 .. J_r."""
    blocks = _blocks(jacobians)
    n, m_y, m_u = blocks.shape
    psi = np.zeros((n * m_y, n * m_u))
    for r in range(n):
        for c in range(r + 1):
            psi[r * m_y:(r + 1) * m_y, c * m_u:(c + 1) * m_u] = blocks[c]
    return psi


def solve_ik_predictive(
    model: KinematicModel, targets: Sequence, q0, config: SolverConfig, lam: Optional[float] = None
) -> SolveReport:
    """Iterative predictive IK over a fixed window of n targets.

    Per iteration: evaluate the stacked error, stop `converged` if its norm
    is <= config.delta or `diverged` if it is not finite, else solve the
    coupled damped system against the current Jacobian (config.mode FROZEN)
    or the Jacobians at provisional future states (PROPAGATED, each taken
    with that state's error, so on the iterate that stops too), commit the
    first increment dq_0, and stop `stalled` if ||dq_0|| <= STALL_TOL *
    (1 + ||q||) at the q it moved, or `diverged`, with q unmoved, if ||dq_0||
    is not finite. The loop holds the damping factor, from lam (by default
    the schedule's lambda0), and the schedule updates it inside each step,
    observing the singular values of the step's own SVD of J (FROZEN) or
    those of each block (PROPAGATED). Provisional states advance by the
    cumulative increment blocks. Stops after config.n_up iterations
    otherwise (`max_iterations`). Every iteration, the one that stops
    included, records its error, lambda and q. The window must hold
    config.horizon targets.
    """
    targets = model._targets(targets)
    n = len(targets)
    if n != config.horizon:
        raise ValueError(f"{n} targets given for config.horizon = {config.horizon}")
    m_y, m_u = model.m_y, model.m_u
    size = max(m_y, m_u)
    q = _as_vector(q0, m_u, "q0").copy()
    schedule = config.schedule
    lam = schedule.lambda0 if lam is None else lam
    if not 0 <= lam < math.inf:  # a NaN fails it too
        raise ValueError("lam must be finite and non-negative")
    frozen = config.mode is HorizonMode.FROZEN

    provisional = [q] * n
    error_trace: List[float] = []
    lambda_trace: List[float] = []
    q_trace: List[np.ndarray] = []
    prev_norm: Optional[float] = None
    status = SolveStatus.MAX_ITERATIONS

    def damping(s):  # s is the step's own sigma of J; sigma has a row per block (PROPAGATED)
        nonlocal lam
        lam = schedule.next_lambda(lam, DampingObservation._trusted(
            err, prev_norm, s if frozen else sigma, size))
        return lam

    for _ in range(config.n_up):
        stacked_err = resid = task_error(model, targets, q)
        if not frozen:  # provisional[0] is q, whose error heads resid; each state's Jacobian
            # is taken right after its error, so a chain walks its rows once per state
            errs, jac_blocks = [resid[:m_y]], [jacobian(model, q)]
            for t, p in zip(targets[1:], provisional[1:]):
                errs.append(task_error(model, [t], p))
                jac_blocks.append(jacobian(model, p))
            stacked_err, blocks = np.concatenate(errs), _blocks(jac_blocks)
        err = math.sqrt(stacked_err.dot(stacked_err))  # the bits of np.linalg.norm
        error_trace.append(err)
        if not err < math.inf or err <= config.delta:  # a NaN fails both comparisons
            status = SolveStatus.CONVERGED if err <= config.delta else SolveStatus.DIVERGED
            lambda_trace.append(lam)
            q_trace.append(q.copy())
            break

        if frozen:
            stack = jacobian(model, q)
        else:
            stack, sigma = build_psi(blocks), np.linalg.svd(blocks, compute_uv=False)
        dQ = mfac_step(stack, resid, damping)
        lambda_trace.append(lam)
        if not frozen:
            provisional = q + np.cumsum(dQ.reshape(n, m_u), axis=0)
        dq0 = dQ[:m_u]
        # in Python floats: two np.linalg.norm calls cost several times more
        step = math.hypot(*dq0.tolist())
        if not step < math.inf:  # a NaN fails it too: the step is not taken, so q stays finite
            status = SolveStatus.DIVERGED
        else:
            if step <= STALL_TOL * (1.0 + math.hypot(*q.tolist())):
                status = SolveStatus.STALLED
            q = q + dq0
        q_trace.append(q.copy())
        if status is not SolveStatus.MAX_ITERATIONS:
            break
        prev_norm = err

    return SolveReport(q_final=q, status=status, iterations=len(error_trace),
                       error_trace=error_trace, lambda_trace=lambda_trace, q_trace=q_trace)


def solve_ik(model: KinematicModel, target, q0, config: SolverConfig) -> SolveReport:
    """Iterative damped IK toward a single waypoint: the predictive loop with n = 1."""
    return solve_ik_predictive(model, [target], q0, config)
