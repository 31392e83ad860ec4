"""Closed-loop stability and steady-state diagnostics.

On a frozen J = U diag(sigma) V^T the damped n-step law decouples along U:
with T^T T = W diag(mu) W^T for the n x n lower-triangular ones matrix T,
direction j has the pole p_j = sum_i w_i lam / (lam + mu_i sigma_j^2), the
one-step poles at the singular values sqrt(mu_i) sigma_j of the stack T (x) J
weighted by w_i = W[0,i] (W^T T^T 1)_i / mu_i. The weights sum to
e_0^T T^{-1} 1 = 1 and are positive (checked up to n = 24), so each pole lies
in [0, 1]; at n = 1, w = [1]. Block r of the first increment's gain is
J K_r = U diag(g_r) U^T, g_rj = sum_i w_ir mu_i sigma_j^2 / (lam + mu_i sigma_j^2),
by the shares w_ir = W[0,i] (W^T T^T)_ir / mu_i of w_i. A term at or below
`mfac_step`'s rank cutoff counts as a factor of 1 and a gain of 0; a direction
whose every term is dropped, or outside the range of J, has a pole of exactly
1 and a gain of 0. So one SVD of J gives p and U diag(p) U^T
(`_frozen_loop`; `ikdamp analyze` reads p off one sigma for its lambda sweep),
or the simulator's gains; distinct blocks take the dense stack's gain from
`mfac_step` and its poles from `eigvals`. As in `mfac_step`'s filter, the
elementwise work on the n min(m_y, m_u) terms runs on Python floats: the
squares mu_i sigma_j^2, the rank cutoff and the factors lam / (lam + s^2).
The products stay in numpy: w @ F on the factors F, and (U * p) @ U^T for
U diag(p) U^T.

What the horizon buys: since sum w_i / mu_i = 1 and sum w_i mu_i = n, each
n-step pole lies between the one-step poles at lam / n and at lam, so the
horizon damps like the one-step law, weakened by at most a factor n. When
tracking configs/example1.json the median error from step 100 on is 3.88e-3
at horizon 5 and 3.91e-3 at horizon 1, but 2.48e-6 at horizon 5 with n_up = 2:
the accuracy comes from a second linearisation per sample, not from the
look-ahead (README, "What the horizon buys", gives the commands).

The simulator is a linear recurrence y(k+1) = A y(k) + b(k) with a
constant A = I - sum_r J K_r. It samples the reference in one call, forms
every window term b(k) from one matmul and runs the recurrence as doubling
passes: pass s = 1, 2, 4, ... adds A^s times the partial sum s steps back,
as the row block times (A^s)^T, which it keeps C-ordered so that the product
goes to BLAS and squares for the next pass, until s reaches steps or
max|A^s| <= eps. What that leaves out is A^s y(k-s), at most m_y eps max|y|,
and a pole at 1 never ends the scan early. Its sums run in another order
than a step-by-step loop, so it agrees with one to rounding, not bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .damping import _EPS, _rank_cutoff
from .mfac import _blocks, _check_count, _horizon_spectrum, build_psi, mfac_step


@dataclass
class PoleReport:
    pole_matrix: np.ndarray
    eigenvalues: np.ndarray
    max_modulus: float
    stable: bool


def _pole_report(M: np.ndarray, eig: np.ndarray) -> PoleReport:
    max_mod = float(np.abs(eig).max())
    return PoleReport(M, eig, max_mod, stable=max_mod < 1.0 - 1e-12)


@lru_cache(maxsize=64)
def _weights(n: int):
    """(mu as a tuple of floats, sqrt(max mu), w, w_r) of the n-step law (module docstring);
    w and w_r are read-only."""
    mu, root_mu_max, W, WtTt = _horizon_spectrum(n)
    m = np.array(mu)
    w, w_r = W[0] * WtTt.sum(axis=1) / m, W[0][:, None] * WtTt / m[:, None]
    for a in (w, w_r):
        a.setflags(write=False)
    return mu, root_mu_max, w, w_r


def _terms(sigma: np.ndarray, shape: tuple, n: int, lam: float):
    """lam as a float, w, w_r, the rows s2[i][j] = mu_i sigma_j^2 as floats and the square
    of `mfac_step`'s rank cutoff, at or below which a term is dropped; checks lam."""
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and non-negative")
    mu, root_mu_max, w, w_r = _weights(n)
    s = sigma.tolist()
    cutoff = _rank_cutoff(root_mu_max * s[0], n * max(shape))  # mfac_step's rule
    return float(lam), w, w_r, [[m * (x * x) for x in s] for m in mu], cutoff * cutoff


def _poles(sigma: np.ndarray, shape: tuple, n: int, lam: float) -> np.ndarray:
    """The n-step poles p (module docstring) on a J of this shape whose full SVD gave sigma."""
    lam, w, _, s2, c2 = _terms(sigma, shape, n, lam)
    p = (w @ np.array([[lam / (lam + x) if x > c2 else 1.0 for x in row] for row in s2])).tolist()
    # mu ascends, so s2[-1][j] is dropped only where every term is: there the weights, which
    # sum to 1 only to rounding, are not summed, and the pole is 1, as off the range
    p = [v if x > c2 else 1.0 for v, x in zip(p, s2[-1])]
    return np.array(p + [1.0] * (shape[0] - len(p)))


def _block_gains(sigma: np.ndarray, shape: tuple, n: int, lam: float) -> np.ndarray:
    """g[r]: J K_r = U diag(g[r]) U^T on the thin U of the SVD giving sigma (module docstring)."""
    lam, _, w_r, s2, c2 = _terms(sigma, shape, n, lam)
    return w_r.T @ np.array([[x / (lam + x) if x > c2 else 0.0 for x in row] for row in s2])


def _frozen_loop(J, n: int, lam: float) -> PoleReport:
    """U diag(p) U^T with eigenvalues p, the n-step poles on a frozen J (module docstring)."""
    J = np.asarray(J, dtype=float)
    U, sigma, _ = np.linalg.svd(J)
    p = _poles(sigma, J.shape, n, lam)
    return _pole_report((U * p) @ U.T, p)


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
    jacobians = list(jacobians)
    same = all(J is jacobians[0] for J in jacobians)  # [J] * n: stack and check J once
    blocks = _blocks(jacobians[:1] if same else jacobians)
    J0, n, (_, m_y, m_u) = blocks[0], len(jacobians), blocks.shape
    if same or (blocks == J0).all():
        return _frozen_loop(J0, n, lam)
    K = mfac_step(build_psi(blocks), np.eye(n * m_y), lam)[:m_u]  # the first-increment gain
    M = np.eye(m_y) - J0 @ K.reshape(m_u, n, m_y).sum(axis=1)
    return _pole_report(M, np.linalg.eigvals(M))


@dataclass(frozen=True)
class MfapcController:
    """The n-step predictive law; n = 1 is the one-step damped law."""

    n: int
    lam: float

    def __post_init__(self):
        _check_count(self.n, "n")


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
    J, controller: MfapcController, reference, steps: int
) -> np.ndarray:
    """Simulate y(k+1) = y(k) + J dq(k) under the damped control law.

    Makes one call, reference(np.arange(steps + n)), whose row k is r(k). Returns the
    error time series e(k) = r(k) - y(k) for k = 0 .. steps (row k is e(k)).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    J, n = np.asarray(J, dtype=float), controller.n
    m_y, (U, sigma, _) = len(J), np.linalg.svd(J, full_matrices=False)
    JK = (U * _block_gains(sigma, J.shape, n, controller.lam)[:, None]) @ U.T  # J K_r, symmetric
    R = np.asarray(reference(np.arange(steps + n)), dtype=float)
    if R.shape != (steps + n, m_y):
        raise ValueError(f"reference protocol: an array of k gives one row per k, got {R.shape}")
    Y = sliding_window_view(R[1:].ravel(), n * m_y)[::m_y] @ JK.reshape(n * m_y, m_y)  # b(k)
    At, s = (np.eye(m_y) - JK.sum(axis=0)).T.copy(), 1  # A^T, then (A^s)^T at pass s, C-ordered
    # pass s adds A^s Y[k-s] to each Y[k], until Y[k] = y(k+1) or A^s is below rounding
    while s < steps and np.abs(At).max() > _EPS:
        Y[s:] += Y[:-s] @ At
        At, s = At @ At, 2 * s
    return R[: steps + 1] - np.vstack([np.zeros(m_y), Y])
