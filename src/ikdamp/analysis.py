"""Closed-loop stability and steady-state diagnostics.

On a frozen J = U diag(sigma) V^T the damped n-step law decouples along U:
with T^T T = W diag(mu) W^T for the n x n lower-triangular ones matrix T,
direction j has the pole p_j = sum_i w_i lam / (lam + mu_i sigma_j^2), the
one-step poles at the singular values sqrt(mu_i) sigma_j of the stack T (x) J
weighted by w_i = W[0,i] (W^T T^T 1)_i / mu_i. The weights sum to
e_0^T T^{-1} 1 = 1 and are positive (checked up to n = 24), so each pole lies
in [0, 1]; at n = 1, w = [1]. A term at or below `mfac_step`'s rank cutoff,
and each direction outside the range of J, counts as 1. `_frozen_loop` gives
p and U diag(p) U^T from one SVD of J (`_poles` reads p off its sigma, so
`ikdamp analyze` takes one SVD for its whole lambda sweep); distinct blocks
take the dense stack's first-increment gain from `mfac_step` and its poles
from `eigvals`, and the simulator takes its gain from one `mfac_step` call
on an identity error block.

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
from .mfac import _horizon_spectrum, build_psi, mfac_step


@dataclass
class PoleReport:
    pole_matrix: np.ndarray
    eigenvalues: np.ndarray
    max_modulus: float
    stable: bool


def _pole_report(M: np.ndarray, eig: np.ndarray) -> PoleReport:
    max_mod = float(np.max(np.abs(eig))) if eig.size else 0.0
    return PoleReport(M, eig, max_mod, stable=max_mod < 1.0 - 1e-12)


def _poles(sigma: np.ndarray, shape: tuple, n: int, lam: float) -> np.ndarray:
    """The n-step poles p on a frozen J of this shape whose full SVD gave sigma, for a
    checked lam (module docstring); one SVD serves every lam."""
    mu, root_mu_max, W, WtTt = _horizon_spectrum(n)
    mu = np.array(mu)
    s2 = mu[:, None] * sigma**2
    cutoff = _rank_cutoff(root_mu_max * sigma[0], n * max(shape))  # mfac_step's rule
    p = np.ones(shape[0])
    p[: sigma.size] = (W[0] * WtTt.sum(axis=1) / mu) @ np.divide(
        lam, lam + s2, out=np.ones(s2.shape), where=s2 > cutoff**2)
    return p


def _frozen_loop(J, n: int, lam: float) -> PoleReport:
    """U diag(p) U^T with eigenvalues p, the n-step poles on a frozen J (module docstring)."""
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and non-negative")
    J = np.asarray(J, dtype=float)
    U, sigma, _ = np.linalg.svd(J)
    p = _poles(sigma, J.shape, n, lam)
    return _pole_report(U @ np.diag(p) @ U.T, p)


def mfac_pole_matrix(J, lam: float) -> PoleReport:
    """Closed-loop pole matrix I - J (J^T J + lam I)^{-1} J^T, i.e. `static_error_gain`.

    Uncontrollable directions, singular values at or below `mfac_step`'s rank
    cutoff and the complement of the range of a tall J contribute a pole at 1.
    """
    return _frozen_loop(J, 1, lam)


def static_error_gain(J, lam: float) -> np.ndarray:
    """U diag(lam / (lam + sigma_i^2)) U^T; each gain lies in [0, 1].

    Directions outside the range of J or below the step's rank cutoff keep
    a gain of 1, as in `mfapc_pole_matrix` of one block. On a frozen
    Jacobian this is also the one-step closed-loop matrix:
    e(k+1) = G e(k) for a constant reference.
    """
    return _frozen_loop(J, 1, lam).pole_matrix


def mfapc_pole_matrix(jacobians: Sequence[np.ndarray], lam: float) -> PoleReport:
    """Frozen-coefficient pole matrix of the n-step predictive loop.

    I - J_0 g^T (Psi^T Psi + lam I)^{-1} Psi^T E, where g^T selects the
    first increment block and E replicates the current output. When every
    block equals J_0, as in frozen mode, Psi is T (x) J_0 and the poles are
    the closed form of `_frozen_loop`; otherwise Psi is the dense stack
    `build_psi` of the blocks and the poles are its eigenvalues.
    """
    blocks = [np.asarray(J, dtype=float) for J in jacobians]
    J0, n = blocks[0], len(blocks)
    if all(np.array_equal(b, J0) for b in blocks[1:]):
        return _frozen_loop(J0, n, lam)
    m_y, m_u = J0.shape
    K = mfac_step(build_psi(blocks), np.eye(n * m_y), lam)[:m_u]  # the first-increment gain
    M = np.eye(m_y) - J0 @ K.reshape(m_u, n, m_y).sum(axis=1)
    return _pole_report(M, np.linalg.eigvals(M))


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
