"""The four benchmark workloads: inputs from a seed, one op, and an output check.

Each workload drives ikdamp through its public API, as a controller or
an analysis script would, and checks what comes back with code of its
own rather than trusting the library's report:

- helix3: `ikdamp track` on configs/example1.json (three-link arm,
  800-step helix, n=5, one damped step per waypoint). Solve-heavy.
- lspb6: `ikdamp track` on configs/example2.json (6-DOF DH chain,
  200-step LSPB, n=2, up to 10 inner iterations, lambda=0).
  Kinematics-heavy; the only workload on the inner predictive loop.
- batch6: independent random 6-DOF `solve_ik` requests. The only
  workload on the one-step solver.
- sweep3: a damping sweep through `analysis` on the three-link arm,
  the same damped solve reused on a constant Jacobian.

The tracking workloads run a checked-in config, so their input does not
depend on the seed. The others draw op i's input from (seed, i), so an
input does not depend on how many ops ran before it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ikdamp import analysis, cli, kinematics, mfac
from ikdamp.damping import Constant

# The paper's tracking criterion: error below this from the settling step on.
SETTLE_THRESHOLD = 0.1


@dataclass(frozen=True)
class Outcome:
    iterations: int   # damped-solve iterations the op ran
    ok: bool          # the benchmark's own output check passed
    failed: bool      # counts in failed_frac: check mismatch or a solve that missed its goal
    err: float        # final task-error norm, NaN when the op failed
    settling_step: Optional[int] = None


def settling(errors, threshold: float = SETTLE_THRESHOLD):
    """(1-based first step after which every error is below threshold, max error from it)."""
    above = [k for k, e in enumerate(errors) if e >= threshold]
    first = above[-1] + 1 if above else 0
    if first >= len(errors):
        return None, None
    return first + 1, max(errors[first:])


def _task_error_norm(model, target, q) -> float:
    if isinstance(model, kinematics.DhChain):
        goal = kinematics.pose_from_task(target)
        return float(np.linalg.norm(kinematics.pose_error(goal, model.forward_pose(q))))
    return float(np.linalg.norm(np.asarray(target) - model.forward(q)))


class Tracking:
    """One op is one whole `ikdamp track` run: config parsing, tracking, CSV write."""

    def __init__(self, config: Path, csv_path: Path):
        self.config = config
        self.csv_path = csv_path
        self.model = cli.parse_model(cli.load_config(config)["model"])
        # Every op runs the same config; a CSV already checked byte for
        # byte needs no second check.
        self._checked = {}

    def input(self, i: int):
        return None

    def op(self, _):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["track", "--config", str(self.config), "--out", str(self.csv_path)])

    def check(self, _, rc: int) -> Outcome:
        data = self.csv_path.read_bytes()
        key = (rc, hashlib.sha256(data).digest())
        if key not in self._checked:
            self._checked[key] = self._check_csv(data.decode(), rc)
        return self._checked[key]

    def _check_csv(self, text: str, rc: int) -> Outcome:
        """Recompute each step's error from its q_* columns through forward kinematics."""
        lines = text.splitlines()
        footer = lines[-1]
        m_y, m_u = self.model.m_y, self.model.m_u
        ok = rc == 0 and footer.startswith("# settling_step=")
        errors, iterations = [], 0
        for row in csv.DictReader(lines[:-1]):
            target = [float(row[f"ystar_{i + 1}"]) for i in range(m_y)]
            q = np.array([float(row[f"q_{i + 1}"]) for i in range(m_u)])
            err = _task_error_norm(self.model, target, q)
            ok = ok and math.isclose(err, float(row["error_norm"]), rel_tol=1e-9, abs_tol=1e-12)
            errors.append(err)
            iterations += int(row["inner_iterations"])
        settle, worst = settling(errors)
        ok = ok and footer.split()[1] == f"settling_step={settle if settle else 'none'}"
        failed = not ok or settle is None
        return Outcome(iterations, ok, failed, math.nan if failed else worst, settle)


class Batch:
    """One op is one `solve_ik` call toward the pose of a random joint vector."""

    DELTA = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        self.model = kinematics.default_dh_chain()
        self.q0 = np.full(self.model.m_u, 0.1)
        self.config = mfac.SolverConfig(delta=self.DELTA, n_up=200, schedule=Constant(0.01))

    def input(self, i: int):
        rng = np.random.default_rng((self.seed, i))
        return self.model.forward_pose(rng.uniform(-math.pi, math.pi, self.model.m_u))

    def op(self, goal):
        return mfac.solve_ik(self.model, goal, self.q0, self.config)

    def check(self, goal, report) -> Outcome:
        # About a third of these requests do not converge within the budget;
        # that is the workload as drawn, counted in failed_frac, not a defect.
        if not report.converged:
            return Outcome(report.iterations, True, True, math.nan)
        err = float(np.linalg.norm(
            kinematics.pose_error(goal, self.model.forward_pose(report.q_final))
        ))
        ok = err <= self.DELTA
        return Outcome(report.iterations, ok, not ok, err if ok else math.nan)


@dataclass(frozen=True)
class SweepPoint:
    q: np.ndarray
    lam: float
    slope: np.ndarray


class Sweep:
    """One op is one (configuration, lambda) point of a damping sweep."""

    LAMBDAS = (0.0, 0.01, 0.1, 1.0, 10.0)
    HORIZON = 5
    RAMP_STEPS = 1000
    # With sigma_min >= 0.5 every pole of the n=5 loop stays below 0.91 up
    # to lambda=10, so the ramp is at steady state long before RAMP_STEPS.
    MIN_SIGMA = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        self.model = kinematics.ThreeLink()

    def input(self, i: int) -> SweepPoint:
        config, j = divmod(i, len(self.LAMBDAS))
        rng = np.random.default_rng((self.seed, config))
        while True:
            q = rng.uniform(-math.pi, math.pi, self.model.m_u)
            if np.linalg.svd(self.model.jacobian(q), compute_uv=False)[-1] >= self.MIN_SIGMA:
                break
        return SweepPoint(q, self.LAMBDAS[j], rng.uniform(-1.0, 1.0, self.model.m_y))

    def op(self, p: SweepPoint):
        J = self.model.jacobian(p.q)
        return (
            J,
            analysis.mfac_pole_matrix(J, p.lam),
            analysis.static_error_gain(J, p.lam),
            analysis.mfapc_pole_matrix([J] * self.HORIZON, p.lam),
            analysis.simulate_linear_closed_loop(
                J, analysis.MfapcController(self.HORIZON, p.lam),
                analysis.RampReference(p.slope), self.RAMP_STEPS,
            ),
        )

    def check(self, p: SweepPoint, out) -> Outcome:
        J, poles, gain, poles_n, errors = out
        m_y, m_u = J.shape
        U, s, _ = np.linalg.svd(J)
        g = p.lam / (p.lam + s**2)
        ok = np.allclose(np.sort(np.abs(poles.eigenvalues)), np.sort(g), rtol=0, atol=1e-9)
        ok &= np.allclose(gain, U @ np.diag(g) @ U.T, rtol=0, atol=1e-9)

        # First-increment gain K1 of the frozen n-step stack, from numpy alone.
        n = self.HORIZON
        psi = np.kron(np.tril(np.ones((n, n))), J)
        if p.lam > 0:
            K = np.linalg.solve(psi.T @ psi + p.lam * np.eye(n * m_u), psi.T)
        else:
            K = np.linalg.pinv(psi)
        JK = [J @ K[:m_u, j * m_y:(j + 1) * m_y] for j in range(n)]
        P = np.eye(m_y) - sum(JK)
        ok &= np.allclose(poles_n.pole_matrix, P, rtol=0, atol=1e-9)
        # Ramp r(k) = k*s: the window ahead of y(k) is (e(k)+s) repeated plus
        # j*s in block j, so e(k+1) = P (e(k)+s) - sum_j j JK_j s.
        drift = sum(j * JK[j] for j in range(n)) @ p.slope
        e_ss = np.linalg.solve(np.eye(m_y) - P, P @ p.slope - drift)
        ok &= np.allclose(errors[-1], e_ss, rtol=1e-7, atol=1e-7)
        ok = bool(ok)
        err = float(np.linalg.norm(errors[-1]))
        return Outcome(self.RAMP_STEPS, ok, not ok, err if ok else math.nan)



def make(name: str, seed: int, root: Path, out_dir: Path):
    """The workload `name`; `root` holds configs/, track CSVs go to out_dir."""
    if name == "helix3":
        return Tracking(root / "configs" / "example1.json", out_dir / "helix3.csv")
    if name == "lspb6":
        return Tracking(root / "configs" / "example2.json", out_dir / "lspb6.csv")
    if name == "batch6":
        return Batch(seed)
    if name == "sweep3":
        return Sweep(seed)
    raise ValueError(f"unknown workload {name!r}")
