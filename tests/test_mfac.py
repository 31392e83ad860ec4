import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ikdamp
from ikdamp import mfac
from ikdamp.damping import Constant, RatioRule, cond
from ikdamp.kinematics import DhRow, KinematicModel, ThreeLink, default_dh_chain, forward
from ikdamp.mfac import (
    HorizonMode,
    SolveStatus,
    SolverConfig,
    build_psi,
    mfac_step,
    solve_ik,
)
from ikdamp.mfapc import solve_ik_predictive

ARM = ThreeLink(5.0, 7.0, 7.0)


class CountingArm(KinematicModel):
    """The three-link arm, counting its forward and Jacobian evaluations."""

    m_y = m_u = 3

    def __init__(self):
        self.forwards = 0
        self.jacobians = 0

    def forward(self, q):
        self.forwards += 1
        return ARM.forward(q)

    def jacobian(self, q):
        self.jacobians += 1
        return ARM.jacobian(q)


class TestMfacStep:
    def test_undamped_inverse(self):
        np.testing.assert_allclose(
            mfac_step(2 * np.eye(2), [1.0, 0.0], 0.0), [0.5, 0.0], atol=1e-14
        )

    def test_scalar_damped(self):
        assert mfac_step(np.array([[1.0]]), [1.0], 1.0)[0] == pytest.approx(0.5)

    def test_large_lambda_shrinks_step(self):
        dq = mfac_step(np.eye(2), [1.0, 0.0], 1e8)
        assert np.linalg.norm(dq) < 1e-7

    def test_zero_lambda_solves_exactly(self, rng):
        for _ in range(10):
            J = rng.standard_normal((3, 3))
            e = rng.standard_normal(3)
            dq = mfac_step(J, e, 0.0)
            np.testing.assert_allclose(J @ dq, e, atol=1e-10)

    def test_singular_zero_lambda_min_norm(self):
        J = np.diag([1.0, 0.0])
        dq = mfac_step(J, [1.0, 1.0], 0.0)
        np.testing.assert_allclose(dq, [1.0, 0.0], atol=1e-12)

    def test_rounding_level_singular_value_is_cut(self):
        # a rank-2 product whose third singular value is rounding, not zero
        gen = np.random.default_rng(0)
        J = gen.standard_normal((3, 2)) @ gen.standard_normal((2, 3))
        e = gen.standard_normal(3)
        expected = np.linalg.lstsq(J, e, rcond=None)[0]
        for lam in [0.0, 1e-30]:
            np.testing.assert_allclose(mfac_step(J, e, lam), expected, rtol=0, atol=1e-12)

    def test_tiny_lambda_on_redundant_jacobian(self):
        # J^T J of a wide J is singular; a lam below its rounding, or barely
        # above it, must give the lam -> 0 limit, the minimum-norm step,
        # with no null-space motion
        gen = np.random.default_rng(0)
        J = gen.standard_normal((2, 3))
        e = gen.standard_normal(2)
        for lam in [1e-300, 1e-30, 1e-17, 1e-14]:
            np.testing.assert_allclose(
                mfac_step(J, e, lam), np.linalg.pinv(J) @ e, rtol=0, atol=1e-9
            )

    @given(
        shape=st.sampled_from(
            [(3, 3, 5), (6, 6, 2), (6, 7, 4), (2, 3, 3), (6, 3, 2)]
        ),
        seed=st.integers(0, 2**32 - 1),
        lam=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_stack_solve(self, shape, seed, lam):
        # oracle sharing no code with the filter: the normal equations of
        # the dense frozen stack, or lstsq on it at lam = 0
        m_y, m_u, n = shape
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((m_y, m_u))
        assume(cond(J) < 1e6)
        e = rng.standard_normal(n * m_y)
        psi = build_psi([J] * n)
        if lam > 0:
            expected = np.linalg.solve(psi.T @ psi + lam * np.eye(n * m_u), psi.T @ e)
            tol = 1e-6
        else:
            expected = np.linalg.lstsq(psi, e, rcond=None)[0]
            tol = 1e-8
        np.testing.assert_allclose(
            mfac_step(J, e, lam), expected, rtol=0,
            atol=tol * (1.0 + np.linalg.norm(expected)),
        )

    def test_step_norm_monotone_in_lambda(self, rng):
        J = rng.standard_normal((3, 3))
        e = rng.standard_normal(3)
        norms = [np.linalg.norm(mfac_step(J, e, lam)) for lam in [0.0, 0.1, 1.0, 10.0]]
        assert all(a >= b - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mfac_step(np.eye(2), [1.0, 0.0, 0.0], 0.0)


def test_import_loads_no_scipy():
    src = str(Path(ikdamp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, ikdamp; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestSolveIk:
    def test_round_trip(self):
        target = forward(ARM, [0.3, 0.7, -0.5])
        cfg = SolverConfig(schedule=Constant(0.01))
        report = solve_ik(ARM, target, [0.2, 0.6, -0.4], cfg)
        assert report.status is SolveStatus.CONVERGED
        assert report.error_trace[-1] <= 1e-10
        assert report.iterations <= 500

    def test_zero_initial_error(self):
        q0 = np.array([0.4, 0.9, -0.3])
        cfg = SolverConfig(schedule=Constant(0.01))
        report = solve_ik(ARM, forward(ARM, q0), q0, cfg)
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 1
        assert np.linalg.norm(report.dq_total) == pytest.approx(0.0)

    def test_unreachable_target(self):
        # beyond the radial workspace bound l2 + l3
        target = np.array([20.0, 0.0, 5.0])
        cfg = SolverConfig(n_up=100, schedule=Constant(0.1))
        report = solve_ik(ARM, target, [0.1, 0.5, 0.2], cfg)
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert not report.converged
        # error can never drop below the radial gap to the workspace boundary
        assert min(report.error_trace) >= 6.0 - 1e-9
        assert len(report.error_trace) == 100

    def test_report_invariants(self, rng):
        target = forward(ARM, rng.uniform(0.2, 1.0, 3))
        cfg = SolverConfig(schedule=RatioRule(0.1, 1.5, 1.5))
        report = solve_ik(ARM, target, [0.1, 0.8, -0.2], cfg)
        assert len(report.error_trace) == report.iterations
        assert len(report.lambda_trace) == report.iterations
        assert (report.status is SolveStatus.CONVERGED) == (
            report.error_trace[-1] <= cfg.delta
        )

    def test_deterministic(self):
        target = forward(ARM, [0.5, 1.1, -0.7])
        a = solve_ik(ARM, target, [0.4, 1.0, -0.6], SolverConfig(schedule=Constant(0.01)))
        b = solve_ik(ARM, target, [0.4, 1.0, -0.6], SolverConfig(schedule=Constant(0.01)))
        assert a.error_trace == b.error_trace
        assert np.array_equal(a.q_final, b.q_final)

    def test_local_contraction(self, rng):
        # away from singularities with small constant damping the error
        # trace decreases strictly after the first iteration
        cfg_template = dict(delta=1e-10, n_up=500)
        for _ in range(100):
            q_goal = np.array(
                [
                    rng.uniform(-math.pi, math.pi),
                    rng.uniform(0.2, math.pi - 0.2),
                    rng.uniform(-1.2, 1.2),
                ]
            )
            target = forward(ARM, q_goal)
            q0 = q_goal + rng.uniform(-0.05, 0.05, 3)
            report = solve_ik(
                ARM, target, q0, SolverConfig(schedule=Constant(0.001), **cfg_template)
            )
            trace = report.error_trace[1:]
            assert all(a > b for a, b in zip(trace, trace[1:]))


class TestEvaluationCounts:
    """One forward pass per iterate for the whole window; one Jacobian and one
    condition number per damped step, none after convergence. Propagated mode
    makes each of these once per provisional state."""

    @pytest.fixture
    def cond_calls(self, monkeypatch):
        calls = []

        def counting_cond(J):
            calls.append(1)
            return cond(J)

        monkeypatch.setattr(mfac, "cond", counting_cond)
        return calls

    SOLVERS = {  # name: (solver, horizon, evaluations per iterate)
        "solve_ik": (solve_ik, 1, 1),
        "frozen_n2": (
            lambda model, t, q0, cfg: solve_ik_predictive(model, [t, t], q0, cfg),
            2,
            1,
        ),
        # one FK and one Jacobian per provisional state; the first state is q
        "propagated_n2": (
            lambda model, t, q0, cfg: solve_ik_predictive(
                model, [t, t], q0, cfg, HorizonMode.PROPAGATED
            ),
            2,
            2,
        ),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize(
        "target, status",
        [
            (forward(ARM, [0.3, 0.7, -0.5]), SolveStatus.CONVERGED),
            (np.array([20.0, 0.0, 5.0]), SolveStatus.MAX_ITERATIONS),
        ],
        ids=["reachable", "unreachable"],
    )
    def test_one_evaluation_per_step(self, cond_calls, solver, target, status):
        model = CountingArm()
        solve, horizon, per_iterate = self.SOLVERS[solver]
        cfg = SolverConfig(n_up=30, schedule=Constant(0.01), horizon=horizon)
        report = solve(model, target, [0.2, 0.6, -0.4], cfg)
        assert report.status is status
        steps = report.iterations - report.converged
        assert steps > 0
        assert model.forwards == per_iterate * report.iterations
        assert model.jacobians == per_iterate * steps
        assert len(cond_calls) == per_iterate * steps

    @pytest.mark.parametrize("n_up", [200, 5], ids=["converges", "capped"])
    def test_one_dh_walk_per_iterate(self, monkeypatch, n_up):
        chain = default_dh_chain()
        goal = chain.forward_pose([0.3, -0.4, 0.5, 0.2, -0.6, 0.1])
        walks = []
        transform = DhRow.transform

        def counting_transform(row, q):
            walks.append(1)
            return transform(row, q)

        monkeypatch.setattr(DhRow, "transform", counting_transform)
        cfg = SolverConfig(delta=1e-9, n_up=n_up, schedule=Constant(0.01))
        report = solve_ik(chain, goal, np.full(chain.m_u, 0.1), cfg)
        assert report.converged == (n_up == 200)
        # the Jacobian of each damped step reuses the walk of that iterate's error
        assert len(walks) == chain.m_u * report.iterations


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(delta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(n_up=0)
        with pytest.raises(ValueError):
            SolverConfig(horizon=0)

    def test_horizon_must_match_the_window(self):
        target = forward(ARM, [0.3, 0.7, -0.5])
        q0 = [0.2, 0.6, -0.4]
        with pytest.raises(ValueError, match="horizon"):
            solve_ik(ARM, target, q0, SolverConfig(horizon=4))
        with pytest.raises(ValueError, match="horizon"):
            solve_ik_predictive(ARM, [target, target], q0, SolverConfig(horizon=3))
