"""Closed-loop stability and steady-state diagnostics.

The damped one-step law on a locally frozen Jacobian places the
closed-loop poles at lam / (lam + sigma_i^2), the SVD filter factors of
J, and at 1 in directions outside the range of J. `static_error_gain`
is that closed form; the n-step pole matrix and the frozen linear
closed-loop simulator each take the first-increment gain from one
`mfac_step` call on an identity error block (one SVD), so steady-state
claims can be verified numerically instead of symbolically.

The simulator is a linear recurrence y(k+1) = A y(k) + b(k) with a
constant symmetric A = I - sum_j J K_j (J K_j = U diag(sigma c_j) U^T).
It evaluates the reference once per sample, forms every step's window
term b(k) from one matmul, and runs the recurrence as m_y scalar ones in
the eigenbasis of A. Its sums run in another order than a step-by-step
loop, so it agrees with one to rounding, not bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    Uncontrollable directions, zero singular values at lam = 0 and the
    complement of the range of a tall J, contribute a pole at 1.
    """
    return _pole_report(static_error_gain(J, lam))


def static_error_gain(J, lam: float) -> np.ndarray:
    """U diag(lam / (lam + sigma_i^2)) U^T; each gain lies in [0, 1].

    Directions outside the range of J keep a gain of 1. On a frozen
    Jacobian this is also the one-step closed-loop matrix:
    e(k+1) = G e(k) for a constant reference.
    """
    if not lam >= 0:
        raise ValueError("lam must be non-negative")
    J = np.asarray(J, dtype=float)
    U, s, _ = np.linalg.svd(J)
    d = lam + s**2
    gains = np.ones(J.shape[0])
    gains[: s.size] = np.divide(lam, d, out=np.ones_like(s), where=d > 0)
    return U @ np.diag(gains) @ U.T


def mfapc_pole_matrix(jacobians: Sequence[np.ndarray], lam: float) -> PoleReport:
    """Frozen-coefficient pole matrix of the n-step predictive loop.

    I - J_0 g^T (Psi^T Psi + lam I)^{-1} Psi^T E, where g^T selects the
    first increment block and E replicates the current output. Psi is
    the frozen stack T (x) J_0 when every block equals J_0, as in frozen
    mode, else the dense stack `build_psi` of the blocks.
    """
    if not lam >= 0:
        raise ValueError("lam must be non-negative")
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

    def __call__(self, k: int) -> np.ndarray:
        return self.value.copy()  # a copy, so a caller writing into it changes no later call


@dataclass(frozen=True)
class RampReference:
    slope: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "slope", np.array(self.slope, dtype=float))

    def __call__(self, k: int) -> np.ndarray:
        return k * self.slope


def simulate_linear_closed_loop(
    J,
    controller: MfapcController,
    reference,
    steps: int,
) -> np.ndarray:
    """Simulate y(k+1) = y(k) + J dq(k) under the damped control law.

    Returns the error time series e(k) = reference(k) - y(k) for
    k = 0 .. steps (row k is e(k)).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    J = np.asarray(J, dtype=float)
    (m_y, m_u), n = J.shape, controller.n
    # the plant and the law are linear and J is constant, so one gain serves every step
    JK = J @ mfac_step(J, np.eye(n * m_y), controller.lam)[:m_u]
    R = np.array([reference(k) for k in range(steps + n)], dtype=float)  # row k is r(k)
    # y(k+1) = A y(k) + b(k), b(k) = sum_j JK_j r(k+1+j); A = I - sum_j JK_j is symmetric
    b = sliding_window_view(R[1:], (n, m_y)).reshape(steps, n * m_y) @ JK.T
    mu, Q = np.linalg.eigh(np.eye(m_y) - JK.reshape(m_y, n, m_y).sum(axis=1))
    # with y = Q z, m_y scalar recurrences z_i(k+1) = mu_i z_i(k) + (Q^T b(k))_i on Python floats
    z = [list(accumulate(c, lambda zk, ck, m=m: m * zk + ck, initial=0.0))
         for m, c in zip(mu.tolist(), (b @ Q).T.tolist())]
    return R[: steps + 1] - np.array(z).T @ Q.T
