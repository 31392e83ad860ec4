"""Closed-loop stability and steady-state diagnostics.

The damped one-step law on a locally frozen Jacobian places the
closed-loop poles at lam / (lam + sigma_i^2); these helpers assemble the
pole matrix directly and via the SVD closed form, compute the static
error gain, and simulate the frozen linear closed loop so steady-state
claims can be verified numerically instead of symbolically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mfac import HorizonMode, build_psi, mfac_step


@dataclass(frozen=True)
class SvdDecomposition:
    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def svd(J) -> SvdDecomposition:
    J = np.asarray(J, dtype=float)
    U, s, Vt = np.linalg.svd(J)
    return SvdDecomposition(U=U, singular_values=s, V=Vt.T)


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


def _damped_projection(J: np.ndarray, lam: float) -> np.ndarray:
    """J (J^T J + lam I)^{-1} J^T, with a pseudoinverse fallback at lam=0."""
    if lam > 0:
        return J @ np.linalg.solve(J.T @ J + lam * np.eye(J.shape[1]), J.T)
    return J @ np.linalg.pinv(J)


def mfac_pole_matrix(J, lam: float) -> PoleReport:
    """Closed-loop pole matrix I - J (J^T J + lam I)^{-1} J^T.

    Assembled both directly and through the SVD closed form
    `static_error_gain`; the two agree to 1e-10 and the direct form is
    returned. Zero singular values at lam = 0 contribute a pole at 1
    (the uncontrollable direction of a singular Jacobian).
    """
    J = np.asarray(J, dtype=float)
    closed_form = static_error_gain(J, lam)
    direct = np.eye(J.shape[0]) - _damped_projection(J, lam)
    if np.max(np.abs(direct - closed_form)) > 1e-8:
        raise ArithmeticError("direct and SVD pole matrices disagree")
    return _pole_report(direct)


def static_error_gain(J, lam: float) -> np.ndarray:
    """U diag(lam / (lam + sigma_i^2)) U^T; each gain lies in [0, 1].

    On a frozen Jacobian this is also the one-step closed-loop matrix:
    e(k+1) = G e(k) for a constant reference.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    dec = svd(np.asarray(J, dtype=float))
    gains = np.array(
        [
            lam / (lam + s**2) if lam + s**2 > 0 else 1.0
            for s in dec.singular_values
        ]
    )
    return dec.U @ np.diag(gains) @ dec.U.T


def mfapc_pole_matrix(
    jacobians: Sequence[np.ndarray],
    lam: float,
    mode: HorizonMode = HorizonMode.FROZEN,
) -> PoleReport:
    """Frozen-coefficient pole matrix of the n-step predictive loop.

    I - J g^T (Psi^T Psi + lam I)^{-1} Psi^T E, where g^T selects the
    first increment block and E replicates the current output.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    blocks = [np.asarray(J, dtype=float) for J in jacobians]
    if mode is HorizonMode.FROZEN:
        blocks = [blocks[0]] * len(blocks)
    J0 = blocks[0]
    m_y, m_u = J0.shape
    n = len(blocks)
    psi = build_psi(blocks)
    E = np.tile(np.eye(m_y), (n, 1))
    # columns of the first-increment gain, solved one unit output at a time
    gain = np.column_stack(
        [mfac_step(psi, E[:, i], lam)[:m_u] for i in range(m_y)]
    )
    return _pole_report(np.eye(m_y) - J0 @ gain)


@dataclass(frozen=True)
class MfapcController:
    """The n-step predictive law; n = 1 is the one-step damped law."""

    n: int
    lam: float


@dataclass(frozen=True)
class ConstantReference:
    value: np.ndarray

    def __call__(self, k: int) -> np.ndarray:
        return np.asarray(self.value, dtype=float)


@dataclass(frozen=True)
class RampReference:
    slope: np.ndarray

    def __call__(self, k: int) -> np.ndarray:
        return k * np.asarray(self.slope, dtype=float)


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
    m_y = J.shape[0]
    y = np.zeros(m_y)
    errors = [reference(0) - y]
    psi = build_psi([J] * controller.n)
    for k in range(steps):
        window = np.concatenate([reference(k + 1 + j) for j in range(controller.n)])
        dQ = mfac_step(psi, window - np.tile(y, controller.n), controller.lam)
        y = y + J @ dQ[: J.shape[1]]
        errors.append(reference(k + 1) - y)
    return np.asarray(errors)
