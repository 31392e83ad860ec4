import math

import numpy as np
import pytest

from ikdamp.damping import CondRule, Constant, RatioRule, ThresholdRule
from ikdamp.kinematics import (
    ThreeLink,
    default_dh_chain,
    forward,
    forward_pose,
    jacobian,
    pose_error,
)
from ikdamp.mfac import SolveStatus, SolverConfig, mfac_step, solve_ik
from ikdamp.mfapc import (
    HorizonMode,
    SingularBlockError,
    build_psi,
    psi_right_inverse,
    receding_horizon_track,
    solve_ik_predictive,
)
from ikdamp.trajectory import Trajectory, helix

ARM = ThreeLink(5.0, 7.0, 7.0)


class TestBuildPsi:
    def test_single_block(self):
        J = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(build_psi([J]), J)

    def test_identity_blocks(self):
        I = np.eye(2)
        expected = np.block([[I, np.zeros((2, 2))], [I, I]])
        np.testing.assert_array_equal(build_psi([I, I]), expected)

    def test_frozen_block_count(self):
        J = np.full((2, 2), 3.0)
        psi = build_psi([J, J, J])
        # n(n+1)/2 = 6 nonzero blocks for square blocks
        nonzero_blocks = sum(
            np.any(psi[2 * r:2 * r + 2, 2 * c:2 * c + 2]) for r in range(3) for c in range(3)
        )
        assert nonzero_blocks == 6
        for r in range(3):
            for c in range(r + 1):
                np.testing.assert_array_equal(psi[2 * r:2 * r + 2, 2 * c:2 * c + 2], J)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_psi([])


class TestMfapcStep:
    """The predictive step is mfac_step on the stacked system."""

    def test_n1_equals_mfac_step(self, rng):
        for _ in range(20):
            J = rng.standard_normal((3, 3))
            e = rng.standard_normal(3)
            lam = rng.uniform(0.0, 10.0)
            dq = mfac_step(build_psi([J]), e, lam)
            np.testing.assert_allclose(dq, mfac_step(J, e, lam), atol=1e-12)

    def test_replicated_targets_undamped(self, rng):
        # with lam = 0 and a repeated target the first step is the exact
        # Newton step and every later increment is zero
        J = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        y = rng.standard_normal(3)
        ystar = rng.standard_normal(3)
        for n in [2, 3, 5]:
            dQ = mfac_step(build_psi([J] * n), np.tile(ystar - y, n), 0.0)
            np.testing.assert_allclose(dQ[:3], np.linalg.solve(J, ystar - y), atol=1e-9)
            np.testing.assert_allclose(dQ[3:], 0.0, atol=1e-9)

    def test_zero_lambda_block_structure(self, rng):
        J = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        y = rng.standard_normal(3)
        y1 = rng.standard_normal(3)
        y2 = rng.standard_normal(3)
        dQ = mfac_step(build_psi([J, J]), np.concatenate([y1 - y, y2 - y]), 0.0)
        Jinv = np.linalg.inv(J)
        np.testing.assert_allclose(dQ[:3], Jinv @ (y1 - y), atol=1e-9)
        np.testing.assert_allclose(dQ[3:], Jinv @ (y2 - y1), atol=1e-9)


class TestPsiRightInverse:
    def test_scalar_block(self):
        np.testing.assert_allclose(
            psi_right_inverse([2 * np.eye(2)]), 0.5 * np.eye(2)
        )

    def test_identity_pair(self):
        I = np.eye(2)
        expected = np.block([[I, np.zeros((2, 2))], [-I, I]])
        np.testing.assert_array_equal(psi_right_inverse([I, I]), expected)

    def test_right_inverse_identity(self, rng):
        for n in [1, 2, 3, 4]:
            blocks = [rng.standard_normal((3, 3)) + 3 * np.eye(3) for _ in range(n)]
            prod = build_psi(blocks) @ psi_right_inverse(blocks)
            np.testing.assert_allclose(prod, np.eye(3 * n), atol=1e-9)

    def test_wide_blocks(self, rng):
        blocks = [rng.standard_normal((2, 4)) for _ in range(3)]
        prod = build_psi(blocks) @ psi_right_inverse(blocks)
        np.testing.assert_allclose(prod, np.eye(6), atol=1e-9)

    def test_singular_block_named(self):
        good = np.eye(2)
        bad = np.diag([1.0, 0.0])
        with pytest.raises(SingularBlockError) as err:
            psi_right_inverse([good, bad])
        assert err.value.index == 1

    def test_tall_block_has_no_right_inverse(self):
        tall = np.vstack([np.eye(2), np.ones((1, 2))])
        with pytest.raises(SingularBlockError) as err:
            psi_right_inverse([tall])
        assert err.value.index == 0


class TestSolveIkPredictive:
    def test_n1_bitwise_matches_solve_ik(self):
        target = forward(ARM, [0.3, 0.7, -0.5])
        q0 = np.array([0.2, 0.6, -0.4])
        a = solve_ik(ARM, target, q0, SolverConfig(schedule=Constant(0.01)))
        b = solve_ik_predictive(
            ARM, [target], q0, SolverConfig(schedule=Constant(0.01))
        )
        assert a.error_trace == b.error_trace
        assert a.lambda_trace == b.lambda_trace
        assert np.array_equal(a.q_final, b.q_final)

    def test_constant_pose_targets_converge(self, rng):
        chain = default_dh_chain()
        q_goal = rng.uniform(-1.0, 1.0, 6)
        goal = forward_pose(chain, q_goal)
        q0 = q_goal + rng.uniform(-0.1, 0.1, 6)
        cfg = SolverConfig(delta=1e-10, n_up=10, schedule=Constant(0.0), horizon=2)
        report = solve_ik_predictive(chain, [goal, goal], q0, cfg)
        assert report.status is SolveStatus.CONVERGED
        final = np.linalg.norm(pose_error(goal, forward_pose(chain, report.q_final)))
        assert final <= 1e-9

    def test_cond_rule_schedule(self, rng):
        q_goal = np.array([0.4, 1.0, -0.6])
        target = forward(ARM, q_goal)
        schedule = CondRule(cond_bins=[50.0, 1e6], lambdas=[0.5, 5.0])
        cfg = SolverConfig(n_up=100, schedule=schedule, horizon=2)
        report = solve_ik_predictive(ARM, [target, target], q_goal + 0.05, cfg)
        assert report.status is SolveStatus.CONVERGED

    def test_propagated_mode_converges(self, rng):
        chain = default_dh_chain()
        q_goal = rng.uniform(-1.0, 1.0, 6)
        goal = forward_pose(chain, q_goal)
        cfg = SolverConfig(delta=1e-10, n_up=20, schedule=Constant(0.0), horizon=2)
        report = solve_ik_predictive(
            chain, [goal, goal], q_goal + 0.05, cfg, HorizonMode.PROPAGATED
        )
        assert report.status is SolveStatus.CONVERGED


class TestRecedingHorizonTrack:
    def make_config(self):
        return SolverConfig(
            delta=1e-10,
            n_up=1,
            schedule=ThresholdRule(2.0, 1.1, 1.02, 10.0),
            horizon=5,
        )

    def test_helix_tracking_settles(self):
        report = receding_horizon_track(
            ARM, helix(800), np.zeros(3), self.make_config(), y0=np.zeros(3)
        )
        assert report.settling_step is not None
        assert report.settling_step <= 100
        assert report.max_post_settling_error < 0.1

    def test_constant_trajectory_zero_error(self):
        q0 = np.array([0.3, 0.8, -0.4])
        y = forward(ARM, q0)
        traj = Trajectory(np.tile(y, (20, 1)))
        cfg = SolverConfig(n_up=1, schedule=Constant(0.5), horizon=2)
        report = receding_horizon_track(ARM, traj, q0, cfg)
        assert np.max(report.error_norms) <= 1e-12

    def test_n1_equals_manual_mfac_loop(self):
        traj = helix(40)
        cfg = SolverConfig(n_up=1, schedule=Constant(0.2), horizon=1)
        report = receding_horizon_track(ARM, traj, np.zeros(3), cfg)
        q = np.zeros(3)
        y = forward(ARM, q)
        for step, target in zip(report.steps, traj.samples):
            q = q + mfac_step(jacobian(ARM, q), target - y, 0.2)
            y = forward(ARM, q)
            assert np.array_equal(step.q, q)

    def test_deterministic(self):
        a = receding_horizon_track(
            ARM, helix(100), np.zeros(3), self.make_config(), y0=np.zeros(3)
        )
        b = receding_horizon_track(
            ARM, helix(100), np.zeros(3), self.make_config(), y0=np.zeros(3)
        )
        assert np.array_equal(a.error_norms, b.error_norms)
        assert all(
            np.array_equal(x.q, y.q) and x.lam == y.lam
            for x, y in zip(a.steps, b.steps)
        )

    def test_inner_iteration_budget(self, rng):
        chain = default_dh_chain()
        q_start = np.array([-math.pi / 4, 0, 0, 0, -math.pi / 2, 0])
        q_goal = np.array([math.pi / 4, 0, 0, 0, -math.pi / 2, 0])
        from ikdamp.trajectory import lspb

        traj = lspb(forward(chain, q_start), forward(chain, q_goal), 50, 0.2)
        cfg = SolverConfig(delta=1e-9, n_up=10, schedule=Constant(0.0), horizon=2)
        report = receding_horizon_track(chain, traj, q_start, cfg)
        assert all(s.inner_iterations <= 10 for s in report.steps)
        assert report.error_norms[-1] <= 1e-8

    def test_propagated_needs_inner_iterations(self):
        # the single-step law only has a frozen form; n_up == 1 must not
        # silently drop the requested mode
        cfg = SolverConfig(n_up=1, schedule=Constant(0.5), horizon=2)
        with pytest.raises(ValueError, match="propagated"):
            receding_horizon_track(
                ARM, helix(10), np.zeros(3), cfg, HorizonMode.PROPAGATED
            )

    def test_ratio_rule_raises_lambda_after_a_jump(self):
        # the single-step law passes the previous predicted error, so the
        # ratio rule sees the error grow when the target jumps at sample 6
        samples = np.array([[4.0, 0.0, 10.0]] * 5 + [[-6.0, 5.0, 3.0]] * 5)
        cfg = SolverConfig(n_up=1, schedule=RatioRule(1.0, 2.0, 1.5), horizon=1)
        report = receding_horizon_track(ARM, Trajectory(samples), [0.1, 0.5, 0.5], cfg)
        lams = [s.lam for s in report.steps]
        assert report.steps[5].error_norm > 9.0
        assert lams[6] == pytest.approx(2.0 * lams[5])

    @pytest.mark.parametrize(
        "model, n_up",
        [(ARM, 2), (default_dh_chain(), 1), (default_dh_chain(), 2)],
        ids=["three-link-inner", "dh-single", "dh-inner"],
    )
    def test_y0_rejected_where_it_is_not_read(self, model, n_up):
        q0 = np.full(model.m_u, 0.2)
        y = forward(model, q0)
        traj = Trajectory(np.tile(y, (4, 1)))
        cfg = SolverConfig(n_up=n_up, schedule=Constant(0.1), horizon=1)
        with pytest.raises(ValueError, match="y0"):
            receding_horizon_track(model, traj, q0, cfg, y0=y)

    def test_trajectory_shorter_than_horizon_rejected(self):
        traj = Trajectory(np.zeros((2, 3)))
        cfg = SolverConfig(n_up=1, schedule=Constant(0.0), horizon=5)
        with pytest.raises(ValueError):
            receding_horizon_track(ARM, traj, np.zeros(3), cfg)
