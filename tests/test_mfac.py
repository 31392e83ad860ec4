import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CountingArm, angles, dh_rows
import ikdamp
from ikdamp import mfac
from ikdamp.damping import Constant, CondRule, RatioRule, _rank_cutoff, cond
from ikdamp.kinematics import (
    DhChain,
    DhRow,
    KinematicModel,
    Pose,
    ThreeLink,
    default_dh_chain,
    forward,
    jacobian,
    pose_error,
    rot_z,
)
from ikdamp.mfac import (
    HorizonMode,
    SolveStatus,
    SolverConfig,
    build_psi,
    mfac_step,
    solve_ik,
    task_error,
)
from ikdamp.mfapc import solve_ik_predictive

ARM = ThreeLink(5.0, 7.0, 7.0)


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

    @pytest.mark.parametrize("shape", [(3, 3), (3, 6), (6, 3)], ids=["square", "wide", "tall"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("lam", [0.0, 0.01, 1.0])
    def test_error_block_is_its_columns(self, rng, shape, n, lam):
        J = rng.standard_normal(shape)
        E = rng.standard_normal((n * shape[0], 4))
        columns = np.column_stack([mfac_step(J, e, lam) for e in E.T])
        assert np.array_equal(mfac_step(J, E, lam), columns)

    def test_error_vector_stays_a_vector(self, rng):
        J = rng.standard_normal((3, 3))
        assert mfac_step(J, rng.standard_normal(6), 0.1).shape == (6,)

    def test_three_axis_error_rejected(self):
        with pytest.raises(ValueError):
            mfac_step(np.eye(2), np.zeros((2, 1, 1)), 0.1)

    @given(
        shape=st.sampled_from([(3, 3), (3, 6), (6, 3)]),
        n=st.sampled_from([1, 2, 5]),
        seed=st.integers(0, 2**32 - 1),
        rank_deficient=st.booleans(),
        lam=st.one_of(st.just(0.0), st.floats(1e-12, 1e6)),
    )
    @settings(max_examples=100, deadline=None)
    def test_lambda_as_function_of_singular_values(self, shape, n, seed, rank_deficient, lam):
        rng = np.random.default_rng(seed)
        J = rng.standard_normal(shape)
        if rank_deficient:
            J[-1] = J[0]
        e = rng.standard_normal(n * shape[0])
        seen = []

        def lam_of(s):
            seen.append(s.copy())
            return lam

        assert np.array_equal(mfac_step(J, e, lam_of), mfac_step(J, e, lam))
        (s,) = seen  # called once, with the step's singular values
        expected = np.linalg.svd(J, compute_uv=False)
        np.testing.assert_allclose(s, expected, rtol=0, atol=1e-14 * expected[0])
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError) as by_number:
                mfac_step(J, e, bad)
            with pytest.raises(ValueError) as by_function:
                mfac_step(J, e, lambda s: bad)
            assert str(by_function.value) == str(by_number.value)


def mfac_step_numpy(J, e, lam):
    """`mfac_step` with its filter factors in numpy, as they were: the float filter's oracle."""
    J, e = np.asarray(J, dtype=float), np.asarray(e, dtype=float)
    m_y, m_u = J.shape
    n = e.shape[0] // m_y
    U, sigma, Vt = np.linalg.svd(J, full_matrices=False)
    mu, root_mu_max, W, WtTt = mfac._horizon_spectrum(n)
    s2 = np.array(mu)[:, None] * sigma**2
    cutoff = _rank_cutoff(root_mu_max * sigma[0], n * max(m_y, m_u))
    gain = np.divide(sigma, s2 + lam, out=np.zeros(s2.shape), where=s2 > cutoff**2)
    dQ = W @ (gain * (WtTt @ e.T.reshape(e.shape[1:] + (n, m_y)) @ U)) @ Vt
    return dQ.reshape(e.shape[1:] + (n * m_u,)).T


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    n=st.integers(1, 5),
    columns=st.sampled_from([None, 1, 3]),
    zero_columns=st.sets(st.integers(0, 5)),
    lam=st.sampled_from([0.0, 1e-300, 1e-3, 2.0, np.float32(1e-3)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_float_filter_matches_the_numpy_filter(shape, n, columns, zero_columns, lam, seed):
    rng = np.random.default_rng(seed)
    J = rng.standard_normal(shape)
    J[:, [c for c in zero_columns if c < shape[1]]] = 0.0  # exact zero singular values
    e = rng.standard_normal((n * shape[0],) if columns is None else (n * shape[0], columns))
    assert mfac_step(J, e, lam).tobytes() == mfac_step_numpy(J, e, lam).tobytes()


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
        assert report.q_final.tobytes() == q0.tobytes()

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

    def test_cond_rule_reads_the_step_svd(self, monkeypatch):
        # the condition number a schedule sees is cond(J) at each damped iterate
        observed = []
        next_lambda = CondRule.next_lambda

        def recording(self, obs):
            observed.append(obs.cond)
            return next_lambda(self, obs)

        monkeypatch.setattr(CondRule, "next_lambda", recording)
        chain = default_dh_chain()
        goal = chain.forward_pose([0.3, -0.4, 0.5, 0.2, -0.6, 0.1])
        q0 = np.array([0.1, -0.2, 0.3, 0.4, -0.3, 0.2])
        # kappa falls from 13.6 to 8.59 on the way, so each of the three bins is used
        cfg = SolverConfig(n_up=50, schedule=CondRule([8.6, 10.0], [1e-4, 1e-2]))
        report = solve_ik(chain, goal, q0, cfg)
        steps = report.iterations - report.converged
        assert steps > 1 and len(observed) == steps
        iterates = [q0] + report.q_trace[: steps - 1]
        expected = [cond(jacobian(chain, q)) for q in iterates]
        np.testing.assert_allclose(observed, expected, rtol=1e-13, atol=0)
        assert report.lambda_trace[:steps] == [
            0.0 if k < 8.6 else 1e-4 if k < 10.0 else 1e-2 for k in observed
        ]
        assert set(report.lambda_trace) == {0.0, 1e-4, 1e-2}

    @staticmethod
    def observed_cond(model, goal, q0, horizon, mode):
        """The cond a CondRule records at each damped iterate, and what each should be:
        cond(J) at the iterate (frozen) or the largest cond(J_i) over the blocks (propagated)."""
        rule, observed, stacked = CondRule([10.0, 1e3], [1e-4, 1e-2]), [], []
        next_lambda = rule.next_lambda
        rule.next_lambda = lambda obs: observed.append(obs.cond) or next_lambda(obs)
        cfg = SolverConfig(n_up=20, schedule=rule, horizon=horizon, mode=mode)
        with mock.patch.object(mfac, "build_psi", lambda Js: stacked.append(Js) or build_psi(Js)):
            report = solve_ik_predictive(model, [goal] * horizon, q0, cfg)
        steps = report.iterations - report.converged
        if mode == "frozen":
            expected = [cond(jacobian(model, q)) for q in ([q0] + report.q_trace)[:steps]]
        else:
            expected = [max(cond(J) for J in Js) for Js in stacked]
        assert len(observed) == len(expected) == steps
        return observed, expected

    MODES = [(1, "frozen"), (2, "frozen"), (2, "propagated")]

    @given(rows=dh_rows, data=st.data(), horizon_mode=st.sampled_from(MODES))
    @settings(max_examples=60, deadline=None)
    def test_observed_cond_on_random_chains(self, rows, data, horizon_mode):
        # 1 to 7 joints: J is 6 x m_u, so for m_u != 6 the rank rule reads max(6, m_u)
        chain = DhChain(tuple(rows))
        q_goal, q0 = (np.array(data.draw(st.lists(angles, min_size=len(rows), max_size=len(rows))))
                      for _ in range(2))
        observed, expected = self.observed_cond(chain, chain.forward_pose(q_goal), q0,
                                                *horizon_mode)
        np.testing.assert_allclose(observed, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("horizon, mode", MODES)
    def test_observed_cond_is_inf_at_the_singular_home_pose(self, horizon, mode):
        chain = default_dh_chain()
        goal = chain.forward_pose([0.3, -0.4, 0.5, 0.2, -0.6, 0.1])
        observed, expected = self.observed_cond(chain, goal, np.zeros(6), horizon, mode)
        assert observed[0] == math.inf
        np.testing.assert_allclose(observed, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("horizon, mode", MODES)
    def test_rank_rule_reads_the_larger_dimension(self, horizon, mode):
        # a 6 x 7 J whose sigma_min lies between eps * 6 * sigma_max and eps * 7 * sigma_max
        class Linear(KinematicModel):
            m_y, m_u = 6, 7
            J = np.hstack([np.diag([1.0] * 5 + [1.4e-15]), np.zeros((6, 1))])

            def forward(self, q):
                return self.J @ q

            def jacobian(self, q):
                return self.J

        q0 = np.zeros(7)
        observed, expected = self.observed_cond(Linear(), np.ones(6), q0, horizon, mode)
        assert observed == expected == [math.inf] * len(observed)


class TestStopStatus:
    """Each solve ends with a named status, and its traces hold one entry per iterate."""

    @staticmethod
    def committed_steps(report, q0):
        """(||q_k - q_(k-1)||, ||q_(k-1)||) for each iterate that committed a step."""
        qs = [np.asarray(q0, dtype=float)] + report.q_trace
        steps = report.iterations - (report.status in (SolveStatus.CONVERGED,
                                                       SolveStatus.DIVERGED))
        return [(np.linalg.norm(qs[k + 1] - qs[k]), np.linalg.norm(qs[k])) for k in range(steps)]

    @given(rows=dh_rows, data=st.data(), reachable=st.booleans(),
           delta=st.sampled_from([1e-9, 1e-16]), lam=st.sampled_from([0.0, 1e-3, 0.1]),
           horizon_mode=st.sampled_from(TestSolveIk.MODES))
    @settings(max_examples=80, deadline=None)
    def test_statuses_on_random_chains(self, rows, data, reachable, delta, lam, horizon_mode):
        chain = DhChain(tuple(rows))
        draw_q = lambda: np.array(data.draw(st.lists(angles, min_size=len(rows),
                                                     max_size=len(rows))))
        goal = chain.forward_pose(draw_q())
        if not reachable:  # ten times as far from the base as any pose of a chain of rows <= 1
            direction = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=3,
                                                    max_size=3)))
            assume(np.linalg.norm(direction) > 0.1)
            goal = Pose(100.0 * direction / np.linalg.norm(direction), goal.rotation)
        q0, (horizon, mode) = draw_q(), horizon_mode
        cfg = SolverConfig(delta=delta, n_up=60, schedule=Constant(lam), horizon=horizon,
                           mode=mode)
        report = solve_ik_predictive(chain, [goal] * horizon, q0, cfg)

        k = report.iterations
        assert 1 <= k <= cfg.n_up
        assert len(report.error_trace) == len(report.lambda_trace) == len(report.q_trace) == k
        assert report.q_final.tobytes() == report.q_trace[-1].tobytes()
        assert all(math.isfinite(e) for e in report.error_trace[:-1])
        last = report.error_trace[-1]
        assert (report.status is SolveStatus.CONVERGED) == (last <= delta)
        assert (report.status is SolveStatus.DIVERGED) == (not math.isfinite(last))
        if report.status is SolveStatus.MAX_ITERATIONS:
            assert k == cfg.n_up
        # the rule, read off the trace up to the rounding of q + dq_0 - q
        steps = self.committed_steps(report, q0)
        slack = 1e-15
        if report.status is SolveStatus.STALLED:
            step, q_norm = steps[-1]
            assert step <= (mfac.STALL_TOL + slack) * (1 + q_norm)
            steps = steps[:-1]
        assert all(step > (mfac.STALL_TOL - slack) * (1 + q_norm) for step, q_norm in steps)

    def test_stalled_short_of_a_far_goal(self):
        # a one-link arm of length 1 points at a goal 3 sqrt(2) away, which it cannot reach
        chain = DhChain(((0.0, 1.0, 0.0, 0.0),))
        goal = Pose([3.0, 3.0, 0.0], rot_z(math.pi / 4))
        report = solve_ik(chain, goal, [0.1], SolverConfig(n_up=200, schedule=Constant(1.0)))
        assert report.status is SolveStatus.STALLED
        assert report.iterations < 200
        assert report.error_trace[-1] == pytest.approx(3 * math.sqrt(2) - 1, abs=1e-9)
        assert report.q_final[0] == pytest.approx(math.pi / 4, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diverged_before_any_observation_or_svd(self, monkeypatch):
        # two links of 1e308 m: the pose, so the error, is not finite
        chain = DhChain(((0.0, 1e308, 0.0, 0.0), (0.0, 1e308, 0.0, 0.0)))
        goal = Pose([0.0, 0.0, 0.0], np.eye(3))

        def fail(*args, **kwargs):
            raise AssertionError("built after a non-finite error")

        monkeypatch.setattr(mfac, "DampingObservation", fail)
        monkeypatch.setattr(np.linalg, "svd", fail)
        q0 = np.zeros(2)
        report = solve_ik(chain, goal, q0, SolverConfig(schedule=Constant(0.5)))
        assert report.status is SolveStatus.DIVERGED
        assert not report.converged
        assert report.iterations == 1
        assert report.error_trace == [math.inf]
        assert report.lambda_trace == [0.5]
        assert report.q_final.tobytes() == report.q_trace[0].tobytes() == q0.tobytes()

    def test_diverged_on_a_nan_error_after_a_step(self):
        class HalfLine(KinematicModel):  # defined for q >= 0 only
            m_y = m_u = 1

            def forward(self, q):
                return np.array([q[0] if q[0] >= 0 else math.nan])

            def jacobian(self, q):
                return np.eye(1)

        report = solve_ik(HalfLine(), [-1.0], [1.0], SolverConfig(schedule=Constant(0.0)))
        assert report.status is SolveStatus.DIVERGED
        assert report.iterations == 2
        assert report.error_trace[0] == 2.0 and math.isnan(report.error_trace[1])
        assert [q.tolist() for q in report.q_trace] == [[-1.0], [-1.0]]


class TestTaskError:
    """The model turns samples into targets and measures the stacked error."""

    MODELS = {"three-link": ARM, "counting-arm": CountingArm(), "default-dh": default_dh_chain()}

    @staticmethod
    def per_kind_oracle(model, window, q):
        """The loop's and the tracker's formulas from when they branched on the model kind."""
        if isinstance(model, DhChain):
            current = model.forward_pose(q)
            return np.concatenate([pose_error(t, current) for t in window])
        return np.concatenate(window) - np.tile(forward(model, q), len(window))

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_measured_output_and_oracle_agree_bitwise(self, name, n, seed):
        model = self.MODELS[name]
        rng = np.random.default_rng(seed)
        q = rng.uniform(-math.pi, math.pi, model.m_u)
        window = [model._target(s) for s in rng.uniform(-3.0, 3.0, (n, model.m_y))]
        at_q = task_error(model, window, q)
        at_y = task_error(model, window, q, forward(model, q))
        oracle = self.per_kind_oracle(model, window, q)
        assert at_q.shape == at_y.shape == oracle.shape == (n * model.m_y,)
        assert at_q.tobytes() == at_y.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("model", [ARM, CountingArm()], ids=["three-link", "counting-arm"])
    def test_pose_target_needs_a_dh_chain(self, model):
        pose = default_dh_chain().forward_pose(np.full(6, 0.2))
        with pytest.raises(ValueError, match="Pose targets need a DhChain model"):
            solve_ik(model, pose, np.zeros(3), SolverConfig())


def solve_n2(model, target, q0, cfg):
    return solve_ik_predictive(model, [target, target], q0, cfg)


class TestEvaluationCounts:
    """One forward pass per iterate for the whole window; one Jacobian and one
    SVD per damped step, none after convergence. No mode calls `cond`: the
    frozen schedule observes the singular values of the step's own SVD of J.
    Propagated mode makes each evaluation once per provisional state, the
    Jacobian right after the error and so on the iterate that converges too,
    and two SVDs per damped step: one batched call over the n blocks, whose
    singular values the schedule observes, then the dense stack's."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"cond": 0, "svd": []}
        svd = np.linalg.svd

        def counting_cond(J):
            calls["cond"] += 1
            return cond(J)

        def counting_svd(a, *args, **kwargs):
            calls["svd"].append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(mfac, "cond", counting_cond)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    SOLVERS = {  # name: (solver, horizon, mode, evaluations per iterate)
        "solve_ik": (solve_ik, 1, "frozen", 1),
        "frozen_n2": (solve_n2, 2, "frozen", 1),
        # one FK and one Jacobian per provisional state; the first state is q
        "propagated_n2": (solve_n2, 2, "propagated", 2),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize(
        "target, delta, status",
        [
            (forward(ARM, [0.3, 0.7, -0.5]), 1e-10, SolveStatus.CONVERGED),
            (np.array([20.0, 0.0, 5.0]), 1e-10, SolveStatus.MAX_ITERATIONS),
            # below the rounding floor of the error, so the steps vanish first
            (forward(ARM, [0.3, 0.7, -0.5]), 1e-16, SolveStatus.STALLED),
        ],
        ids=["reachable", "unreachable", "stalled"],
    )
    def test_one_evaluation_per_step(self, calls, solver, target, delta, status):
        model = CountingArm()
        solve, horizon, mode, per_iterate = self.SOLVERS[solver]
        cfg = SolverConfig(delta=delta, n_up=30, schedule=Constant(0.01), horizon=horizon,
                           mode=mode)
        report = solve(model, target, [0.2, 0.6, -0.4], cfg)
        assert report.status is status
        steps = report.iterations - report.converged
        assert steps > 0
        assert model.forwards == per_iterate * report.iterations
        assert model.jacobians == per_iterate * (steps if mode == "frozen" else report.iterations)
        assert calls["cond"] == 0
        if mode == "frozen":
            assert calls["svd"] == [(3, 3)] * steps  # the step's SVD of J
        else:
            # each step: one SVD of the n stacked 3 x 3 blocks, then the dense 6 x 6 stack's
            assert calls["svd"] == [(horizon, 3, 3), (3 * horizon, 3 * horizon)] * steps

    @pytest.mark.parametrize("n_up, horizon, mode", [
        (200, 1, "frozen"), (5, 1, "frozen"), (200, 2, "propagated"), (5, 2, "propagated"),
    ], ids=["converges", "capped", "propagated-converges", "propagated-capped"])
    def test_one_dh_walk_per_iterate(self, monkeypatch, n_up, horizon, mode):
        chain = default_dh_chain()
        goal = chain.forward_pose([0.3, -0.4, 0.5, 0.2, -0.6, 0.1])
        walks = []
        entries = DhRow._entries

        def counting_entries(row, q):  # the walk builds each row's transform from these
            walks.append(1)
            return entries(row, q)

        monkeypatch.setattr(DhRow, "_entries", counting_entries)
        cfg = SolverConfig(delta=1e-9, n_up=n_up, schedule=Constant(0.01), horizon=horizon,
                           mode=mode)
        report = solve_ik_predictive(chain, [goal] * horizon, np.full(chain.m_u, 0.1), cfg)
        assert report.converged == (n_up == 200)
        # each Jacobian reuses the walk of its state's error: one walk per provisional state,
        # where the first iterate's states all equal q0 and share one
        assert len(walks) == chain.m_u * (horizon * report.iterations - horizon + 1)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(delta=0.0)
        with pytest.raises(ValueError):
            SolverConfig(n_up=0)
        with pytest.raises(ValueError):
            SolverConfig(horizon=0)
        with pytest.raises(ValueError, match="delta"):
            SolverConfig(delta=math.nan)

    def test_schedule_state_lasts_across_solves(self):
        # one config holds one schedule object: a second solve starts from
        # the lambda the first left, not from lambda0
        chain = default_dh_chain()
        goal = chain.forward_pose([0.3, -0.4, 0.5, 0.2, -0.6, 0.1])
        q0 = np.full(chain.m_u, 0.1)

        def config():
            return SolverConfig(delta=1e-9, n_up=200, schedule=RatioRule(0.1, 1.5, 1.5))

        cfg = config()
        first = solve_ik(chain, goal, q0, cfg)
        second = solve_ik(chain, goal, q0, cfg)
        fresh = solve_ik(chain, goal, q0, config())
        assert first.converged and second.converged
        assert first.lambda_trace[0] == 0.1 / 1.5
        assert second.lambda_trace[0] == first.lambda_trace[-1] / 1.5
        assert second.iterations < first.iterations
        assert fresh.lambda_trace == first.lambda_trace
        assert cfg.schedule.peek() == second.lambda_trace[-1]

    def test_mode_from_string(self):
        cfg = SolverConfig(horizon=2, n_up=2, mode="propagated")
        assert cfg.mode is HorizonMode.PROPAGATED
        assert SolverConfig().mode is HorizonMode.FROZEN
        with pytest.raises(ValueError, match="sideways"):
            SolverConfig(mode="sideways")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mode = "frozen"  # a string the loop would not read as FROZEN

    def test_propagated_needs_a_horizon(self):
        # at horizon 1 the one provisional state is q: it would be frozen mode
        with pytest.raises(ValueError, match="propagated"):
            SolverConfig(horizon=1, mode=HorizonMode.PROPAGATED)

    def test_horizon_must_match_the_window(self):
        target = forward(ARM, [0.3, 0.7, -0.5])
        q0 = [0.2, 0.6, -0.4]
        with pytest.raises(ValueError, match="horizon"):
            solve_ik(ARM, target, q0, SolverConfig(horizon=4))
        with pytest.raises(ValueError, match="horizon"):
            solve_ik_predictive(ARM, [target, target], q0, SolverConfig(horizon=3))
