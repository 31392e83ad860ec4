import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingArm
from ikdamp import kinematics, mfac, mfapc
from ikdamp.damping import CondRule, Constant, RatioRule, ThresholdRule, cond
from ikdamp.kinematics import (
    KinematicsError,
    ThreeLink,
    default_dh_chain,
    forward,
    forward_pose,
    jacobian,
    pose_error,
    pose_from_task,
)
from ikdamp.mfac import SolveStatus, SolverConfig, mfac_step, solve_ik
from ikdamp.mfapc import (
    SingularBlockError,
    build_psi,
    psi_right_inverse,
    receding_horizon_track,
    solve_ik_predictive,
)
from ikdamp.trajectory import Trajectory, helix, lspb

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

    @staticmethod
    def per_block_oracle(blocks):
        """The assembly from one SVD per block: V diag(1/sigma) U^T, negated one block down."""
        n, (m_y, m_u) = len(blocks), blocks[0].shape
        out = np.zeros((n * m_u, n * m_y))
        for i, J in enumerate(blocks):
            U, s, Vt = np.linalg.svd(J, full_matrices=False)
            inv = Vt.T @ (U / s).T
            out[i * m_u:(i + 1) * m_u, i * m_y:(i + 1) * m_y] = inv
            if i > 0:
                out[i * m_u:(i + 1) * m_u, (i - 1) * m_y:i * m_y] = -inv
        return out

    def test_matches_per_block_svds_bit_for_bit(self, rng):
        for _ in range(200):
            n, m_y, extra = rng.integers(1, 6), rng.integers(1, 5), rng.integers(0, 3)
            blocks = [rng.standard_normal((m_y, m_y + extra)) for _ in range(n)]
            assert psi_right_inverse(blocks).tobytes() == self.per_block_oracle(blocks).tobytes()

    def test_one_svd_for_all_blocks(self, rng, monkeypatch):
        svd, shapes = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        psi_right_inverse([rng.standard_normal((2, 3)) for _ in range(4)])
        assert shapes == [(4, 2, 3)]


@pytest.mark.parametrize("call, message", [
    (lambda: psi_right_inverse([]), "need at least one Jacobian block"),
    (lambda: psi_right_inverse([np.eye(2), np.zeros((2, 2))]),
     "rank-deficient Jacobian block at horizon index 1"),
    (lambda: psi_right_inverse([[[1, 2, 3]], [[2]]]), "all Jacobian blocks must share one shape"),
    (lambda: psi_right_inverse([np.ones(2), np.ones(2)]),
     "all Jacobian blocks must share one shape"),
], ids=["no-blocks", "singular-block", "mismatched-blocks", "vector-blocks"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
        cfg = SolverConfig(
            delta=1e-10, n_up=20, schedule=Constant(0.0), horizon=2, mode="propagated"
        )
        report = solve_ik_predictive(chain, [goal, goal], q_goal + 0.05, cfg)
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
        traj = lspb(forward(chain, q_start), forward(chain, q_goal), 50, 0.2)
        cfg = SolverConfig(delta=1e-9, n_up=10, schedule=Constant(0.0), horizon=2)
        report = receding_horizon_track(chain, traj, q_start, cfg)
        assert all(s.inner_iterations <= 10 for s in report.steps)
        assert report.error_norms[-1] <= 1e-8

    def test_propagated_needs_inner_iterations(self):
        # the single-step law only has a frozen form; n_up == 1 must not
        # silently drop the requested mode, so the config is refused
        with pytest.raises(ValueError, match="propagated"):
            SolverConfig(n_up=1, schedule=Constant(0.5), horizon=2, mode="propagated")

    def test_propagated_track_reads_its_mode(self):
        chain = default_dh_chain()
        q_start = np.array([-math.pi / 4, 0, 0, 0, -math.pi / 2, 0])
        q_goal = np.array([math.pi / 4, 0, 0, 0, -math.pi / 2, 0])
        traj = lspb(forward(chain, q_start), forward(chain, q_goal), 12, 0.25)
        reports = {
            mode: receding_horizon_track(
                chain,
                traj,
                q_start,
                SolverConfig(n_up=3, schedule=Constant(0.1), horizon=2, mode=mode),
            )
            for mode in ("frozen", "propagated")
        }
        q = {mode: np.array([s.q for s in r.steps]) for mode, r in reports.items()}
        assert not np.array_equal(q["frozen"], q["propagated"])
        assert reports["propagated"].error_norms[-1] < 1e-2

    def test_ratio_rule_raises_lambda_after_a_jump(self):
        # the single-step law passes the previous predicted error, so the
        # ratio rule sees the error grow when the target jumps at sample 6
        samples = np.array([[4.0, 0.0, 10.0]] * 5 + [[-6.0, 5.0, 3.0]] * 5)
        cfg = SolverConfig(n_up=1, schedule=RatioRule(1.0, 2.0, 1.5), horizon=1)
        report = receding_horizon_track(ARM, Trajectory(samples), [0.1, 0.5, 0.5], cfg)
        lams = [s.lam for s in report.steps]
        assert report.steps[5].error_norm > 9.0
        assert lams[6] == pytest.approx(2.0 * lams[5])

    def test_inner_solves_carry_lambda_and_reset_only_within_a_solve(self, monkeypatch):
        # ThresholdRule(lambda0 1, a1 2, a2 4, t1 5) with reset_on_cross, n_up = 2: the second
        # solve starts from the first one's last lambda with no previous error, so its first
        # error, above t1, multiplies that lambda. A schedule that kept its own state across
        # solves saw the first solve's last error (0.30, below t1) as the previous one and
        # restarted from lambda0 there, at 2.0; this is the one behaviour pure rules moved
        solves = []
        solve = mfapc.solve_ik_predictive

        def recording_solve(*args):
            report = solve(*args)
            solves.append((args[4], report))
            return report

        monkeypatch.setattr(mfapc, "solve_ik_predictive", recording_solve)
        q0 = np.array([0.1, 0.5, 0.5])
        y0 = forward(ARM, q0)
        samples = np.array([y0 + [1.0, 0.0, 0.0], y0 + [7.0, 0.0, 0.0]])
        cfg = SolverConfig(n_up=2, horizon=1,
                           schedule=ThresholdRule(1.0, 2.0, 4.0, 5.0, reset_on_cross=True))
        report = receding_horizon_track(ARM, Trajectory(samples), q0, cfg)
        (lam1, first), (lam2, second) = solves
        assert [e > 5.0 for e in first.error_trace + second.error_trace] == [
            False, False, True, True]
        assert first.status is second.status is SolveStatus.MAX_ITERATIONS
        # below, below: 1 / 4, / 4; then above with no previous error, above after above
        assert (lam1, first.lambda_trace) == (1.0, [0.25, 0.0625])
        assert (lam2, second.lambda_trace) == (0.0625, [0.125, 0.25])
        assert [s.lam for s in report.steps] == [0.0625, 0.25]

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

    @pytest.mark.parametrize(
        "y0, message",
        [
            ([5.0], "y0 must have length 3"),
            ([0.0, 0.0], "y0 must have length 3"),
            ([0.0, 0.0, 0.0, 0.0], "y0 must have length 3"),
            ([math.nan, 0.0, 0.0], "y0 contains non-finite entries"),
        ],
        ids=["scalar", "short", "long", "nan"],
    )
    def test_y0_checked_like_q0(self, y0, message):
        with pytest.raises(KinematicsError, match=message):
            receding_horizon_track(ARM, helix(10), np.zeros(3), self.make_config(), y0=y0)

    def test_y0_sets_the_first_residual(self):
        # y0 sits apart from forward(q0) along directions the Jacobian at q0 sees
        q0 = np.array([0.3, 0.8, -0.5])
        y0 = np.array([4.0, 1.0, 12.0])
        J = jacobian(ARM, q0)
        assert np.linalg.norm(J.T @ (y0 - forward(ARM, q0))) > 1.0
        traj = helix(20)

        def config():
            return SolverConfig(n_up=1, schedule=Constant(0.5), horizon=3)

        with_y0 = receding_horizon_track(ARM, traj, q0, config(), y0=y0)
        without = receding_horizon_track(ARM, traj, q0, config())
        # the first residual is each window target minus y0
        resid = np.concatenate(traj.samples[:3]) - np.tile(y0, 3)
        first = with_y0.steps[0]
        assert np.array_equal(first.q, q0 + mfac_step(J, resid, 0.5)[:3])
        assert not np.array_equal(first.q, without.steps[0].q)
        # after the first commit the plant output is the FK of q again
        assert np.array_equal(first.output, forward(ARM, first.q))
        assert first.error_norm == np.linalg.norm(traj.samples[0] - first.output)

    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-200, 1e200, 1e308, -math.inf, math.nan])
                    | st.floats(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_tracked_norms_are_numpys(self, values):
        # the tracker's error and predicted-error norms are sqrt(r.dot(r)), numpy's own formula
        r = np.array(values)
        norm = math.sqrt(r.dot(r))
        assert np.float64(norm).tobytes() == np.linalg.norm(r).tobytes()

    def test_one_fk_and_jacobian_per_single_step(self):
        model = CountingArm()
        report = receding_horizon_track(
            model, helix(30), np.zeros(3), self.make_config(), y0=np.zeros(3)
        )
        assert len(report.steps) == 30
        assert (model.forwards, model.jacobians) == (30, 30)

    def test_one_pose_per_sample(self, monkeypatch):
        built = []

        def counted(task):
            built.append(task)
            return pose_from_task(task)

        monkeypatch.setattr(kinematics, "pose_from_task", counted)
        chain = default_dh_chain()
        q_start = np.array([-math.pi / 4, 0, 0, 0, -math.pi / 2, 0])
        q_goal = np.array([math.pi / 4, 0, 0, 0, -math.pi / 2, 0])
        traj = lspb(forward(chain, q_start), forward(chain, q_goal), 12, 0.25)
        for n_up in (1, 3):
            built.clear()
            cfg = SolverConfig(n_up=n_up, schedule=Constant(0.1), horizon=2)
            receding_horizon_track(chain, traj, q_start, cfg)
            assert len(built) == len(traj)

    def test_step_target_is_a_copy(self):
        traj = helix(10)
        cfg = SolverConfig(n_up=1, schedule=Constant(0.2), horizon=2)
        report = receding_horizon_track(ARM, traj, np.zeros(3), cfg)
        report.steps[0].target[:] = 0.0
        np.testing.assert_array_equal(traj.samples[0], helix(10).samples[0])

    def test_trajectory_shorter_than_horizon_rejected(self):
        traj = Trajectory(np.zeros((2, 3)))
        cfg = SolverConfig(n_up=1, schedule=Constant(0.0), horizon=5)
        with pytest.raises(ValueError):
            receding_horizon_track(ARM, traj, np.zeros(3), cfg)


class RecordingCondRule(CondRule):
    """A CondRule that records each condition number it is fed."""

    def __post_init__(self):
        super().__post_init__()
        self.seen = []

    def next_lambda(self, lam, obs):
        self.seen.append(obs.cond)
        return super().next_lambda(lam, obs)


class TestSingleStepFactorizations:
    """The single-step tracker factors J once per step: the step's own SVD,
    whose singular values give the condition number its schedule reads after
    the step. It calls no `cond`."""

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

        for module in (mfac, mfapc):
            monkeypatch.setattr(module, "cond", counting_cond)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    def arm_run(self):
        return ARM, helix(20), np.array([0.2, 0.6, -0.4]), 5

    def chain_run(self):
        chain = default_dh_chain()
        q_start = np.array([-math.pi / 4, 0, 0, 0, -math.pi / 2, 0])
        q_goal = np.array([math.pi / 4, 0, 0, 0, -math.pi / 2, 0])
        return chain, lspb(forward(chain, q_start), forward(chain, q_goal), 12, 0.25), q_start, 2

    @pytest.mark.parametrize("run", ["arm_run", "chain_run"])
    def test_one_svd_and_no_cond_per_step(self, calls, run):
        model, traj, q0, n = getattr(self, run)()
        schedule = RecordingCondRule([1.0, 5.0, 50.0], [0.01, 0.1, 1.0])
        cfg = SolverConfig(n_up=1, schedule=schedule, horizon=n)
        report = receding_horizon_track(model, traj, q0, cfg)
        steps = len(traj)
        assert calls["cond"] == 0
        assert calls["svd"] == [(model.m_y, model.m_u)] * steps
        # each condition number is that of the Jacobian the step was taken at
        qs = [q0] + [s.q for s in report.steps[:-1]]
        expected = [cond(jacobian(model, q)) for q in qs]
        np.testing.assert_allclose(schedule.seen, expected, rtol=1e-12)



def predicted_moves_oracle(dQ, n, J):
    """The tracker's frozen-model prediction as it was written before its method forms."""
    return np.cumsum(dQ.reshape(n, J.shape[1]), axis=0) @ J.T


class TestFrozenPrediction:
    """The tracker forms its prediction with ndarray.cumsum and .dot: the bits of the oracle."""

    @given(n=st.integers(1, 8), m_y=st.integers(1, 7), m_u=st.integers(1, 7),
           scales=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
           zeros=st.sampled_from([0.0, -0.0, None]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_method_forms_make_the_oracles_bits(self, n, m_y, m_u, scales, zeros, seed):
        rng = np.random.default_rng(seed)
        dQ = rng.standard_normal(n * m_u) * 10.0 ** scales[0]
        J = rng.standard_normal((m_y, m_u)) * 10.0 ** scales[1]
        if zeros is not None:  # signed zeros in a few entries of each
            dQ[rng.random(dQ.shape) < 0.3] = zeros
            J[rng.random(J.shape) < 0.3] = zeros
        new = dQ.reshape(n, m_u).cumsum(axis=0).dot(J.T)
        old = predicted_moves_oracle(dQ, n, J)
        # one exception, a 1 x 1 by 1 x 1 product: matmul adds it to +0.0, so a -0.0
        # product comes out +0.0 there, and dot keeps it -0.0
        if (n, m_y, m_u) != (1, 1, 1):
            assert new.tobytes() == old.tobytes()
        assert np.array_equal(new, old)
        # the tracker reads the prediction only through the norm of resid minus it, whose
        # squares drop the sign of a zero: that norm has the oracle's bits in every case
        resid = rng.standard_normal(n * m_y) * 10.0 ** scales[1]
        if zeros is not None:
            resid[rng.random(resid.shape) < 0.3] = zeros
        r_new, r_old = resid - new.ravel(), resid - old.ravel()
        assert math.sqrt(r_new.dot(r_new)).hex() == math.sqrt(r_old.dot(r_old)).hex()

    @pytest.mark.parametrize("n", [1, 5])
    def test_tracker_observes_the_oracles_prediction(self, n):
        seen = []

        class Recording(RatioRule):
            def next_lambda(self, lam, obs):
                seen.append(obs.error_norm)
                return super().next_lambda(lam, obs)

        traj, q0 = helix(30), np.array([0.2, 0.6, -0.4])
        cfg = SolverConfig(n_up=1, schedule=Recording(0.05, 1.5, 1.5), horizon=n)
        report = receding_horizon_track(ARM, traj, q0, cfg)
        targets = ARM._targets(traj.samples, n)
        q, y = q0, forward(ARM, q0)
        for t, step in enumerate(report.steps):  # each step again, predicted the old way
            J = jacobian(ARM, q)
            resid = mfac.task_error(ARM, targets[t:t + n], q, y)
            dQ = mfac_step(J, resid, step.lam)
            r = resid - predicted_moves_oracle(dQ, n, J).ravel()
            assert seen[t] == math.sqrt(r.dot(r))
            q, y = step.q, step.output
