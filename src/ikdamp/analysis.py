"""Closed-loop stability and steady-state diagnostics.

The damped one-step law on a locally frozen Jacobian places the
closed-loop poles at lam / (lam + sigma_i^2), the SVD filter factors of
J, and at 1 in directions outside the range of J. `static_error_gain`
is that closed form; the n-step pole matrix and the frozen linear
closed-loop simulator each take the first-increment gain from one
`mfac_step` call on an identity error block (one SVD), so steady-state
claims can be verified numerically instead of symbolically.

The simulator is a linear recurrence y(k+1) = A y(k) + b(k) with a
constant A = I - sum_j J K_j. A reference maps an integer array of k to
one row r(k) per k, so the simulator samples it in one call, forms every
step's window term b(k) from one matmul, and runs the recurrence as
ceil(log2 steps) doubling passes: pass s = 1, 2, 4, ... adds A^s times
the partial sum s steps back, with A^s built by repeated squaring. Its
sums run in another order than a step-by-step loop, so it agrees with
one to rounding, not bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .damping import _rank_cutoff
from .mfac import build_psi, mfac_step


@dataclass
class PoleReport:
    pole_matrix: np.ndarray
    eigenvalues: np.ndarray
    max_modulus: float
    stable: bool


def _pole_report(M: np.ndarray) -> PoleReport:
    eig = np.linalg.eigvals(M)
    max_mod = float(np.max(np.abs(eig))) if eig.size else 0.0
    return PoleReport(
        pole_matrix=M,
        eigenvalues=eig,
        max_modulus=max_mod,
        stable=max_mod < 1.0 - 1e-12,
    )


def mfac_pole_matrix(J, lam: float) -> PoleReport:
    """Closed-loop pole matrix I - J (J^T J + lam I)^{-1} J^T, i.e. `static_error_gain`.

    Uncontrollable directions, singular values at or below `mfac_step`'s rank
    cutoff and the complement of the range of a tall J contribute a pole at 1.
    """
    return _pole_report(static_error_gain(J, lam))


def static_error_gain(J, lam: float) -> np.ndarray:
    """U diag(lam / (lam + sigma_i^2)) U^T; each gain lies in [0, 1].

    Directions outside the range of J or below the step's rank cutoff keep
    a gain of 1, as in `mfapc_pole_matrix` of one block. On a frozen
    Jacobian this is also the one-step closed-loop matrix:
    e(k+1) = G e(k) for a constant reference.
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and non-negative")
    J = np.asarray(J, dtype=float)
    U, s, _ = np.linalg.svd(J)
    gains = np.ones(J.shape[0])
    gains[: s.size] = np.divide(lam, lam + s**2, out=np.ones_like(s),
                                where=s > _rank_cutoff(s[0], max(J.shape)))
    return U @ np.diag(gains) @ U.T


def mfapc_pole_matrix(jacobians: Sequence[np.ndarray], lam: float) -> PoleReport:
    """Frozen-coefficient pole matrix of the n-step predictive loop.

    I - J_0 g^T (Psi^T Psi + lam I)^{-1} Psi^T E, where g^T selects the
    first increment block and E replicates the current output. Psi is
    the frozen stack T (x) J_0 when every block equals J_0, as in frozen
    mode, else the dense stack `build_psi` of the blocks.
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and non-negative")
    blocks = [np.asarray(J, dtype=float) for J in jacobians]
    J0 = blocks[0]
    m_y, m_u = J0.shape
    n = len(blocks)
    frozen = all(np.array_equal(b, J0) for b in blocks[1:])
    stack = J0 if frozen else build_psi(blocks)
    K = mfac_step(stack, np.eye(n * m_y), lam)[:m_u]  # the first-increment gain
    return _pole_report(np.eye(m_y) - J0 @ K.reshape(m_u, n, m_y).sum(axis=1))


@dataclass(frozen=True)
class MfapcController:
    """The n-step predictive law; n = 1 is the one-step damped law."""

    n: int
    lam: float


@dataclass(frozen=True)
class ConstantReference:
    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", np.array(self.value, dtype=float))

    def __call__(self, k) -> np.ndarray:
        # a copy, so a caller writing into it changes no later call
        return np.broadcast_to(self.value, np.shape(k) + self.value.shape).copy()


@dataclass(frozen=True)
class RampReference:
    slope: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "slope", np.array(self.slope, dtype=float))

    def __call__(self, k) -> np.ndarray:
        return np.multiply.outer(k, self.slope)


def simulate_linear_closed_loop(
    J,
    controller: MfapcController,
    reference,
    steps: int,
) -> np.ndarray:
    """Simulate y(k+1) = y(k) + J dq(k) under the damped control law.

    Makes one call, reference(np.arange(steps + n)), whose row k is r(k). Returns the
    error time series e(k) = r(k) - y(k) for k = 0 .. steps (row k is e(k)).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    J = np.asarray(J, dtype=float)
    (m_y, m_u), n = J.shape, controller.n
    JK = J @ mfac_step(J, np.eye(n * m_y), controller.lam)[:m_u]
    R = np.asarray(reference(np.arange(steps + n)), dtype=float)
    if R.shape != (steps + n, m_y):
        raise ValueError(f"reference protocol: an array of k gives one row per k, got {R.shape}")
    Y = sliding_window_view(R[1:], (n, m_y)).reshape(steps, n * m_y) @ JK.T  # row k is b(k)
    P, s = np.eye(m_y) - JK.reshape(m_y, n, m_y).sum(axis=1), 1  # A, then A^s at pass s
    while s < steps:  # pass s adds A^s Y[k-s] to each Y[k], until Y[k] = y(k+1)
        Y[s:] += Y[:-s] @ P.T
        P, s = P @ P, 2 * s
    return R[: steps + 1] - np.vstack([np.zeros(m_y), Y])
