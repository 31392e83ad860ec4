import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ikdamp import analysis, cli
from ikdamp.analysis import (
    ConstantReference,
    MfapcController,
    RampReference,
    mfac_pole_matrix,
    mfapc_pole_matrix,
    simulate_linear_closed_loop,
    static_error_gain,
)
from ikdamp.damping import _EPS, _rank_cutoff, cond
from ikdamp.kinematics import ThreeLink, default_dh_chain
from ikdamp.mfac import _horizon_spectrum, build_psi, mfac_step
from ikdamp.mfapc import receding_horizon_track

EXAMPLE1 = Path(__file__).resolve().parent.parent / "configs" / "example1.json"


def full_rank(rng, n=3):
    return rng.standard_normal((n, n)) + 3 * np.eye(n)


class TestMfacPoleMatrix:
    def test_zero_lambda_full_rank(self, rng):
        report = mfac_pole_matrix(full_rank(rng), 0.0)
        assert np.max(np.abs(report.eigenvalues)) < 1e-10
        assert report.stable

    def test_single_sigma_poles(self):
        J = np.array([[1.0]])
        assert mfac_pole_matrix(J, 1.0).eigenvalues[0] == pytest.approx(0.5)
        assert mfac_pole_matrix(J, 3.0).eigenvalues[0] == pytest.approx(0.75)

    def test_spectrum_matches_closed_form(self, rng):
        for _ in range(50):
            J = rng.standard_normal((3, 3))
            lam = rng.uniform(0.0, 100.0)
            report = mfac_pole_matrix(J, lam)
            s = np.linalg.svd(J, compute_uv=False)
            np.testing.assert_allclose(
                np.sort(np.abs(report.eigenvalues)),
                np.sort(lam / (lam + s**2)),
                atol=1e-10,
            )

    def test_large_lambda_approaches_unit_circle(self, rng):
        J = full_rank(rng)
        mods = [mfac_pole_matrix(J, lam).max_modulus for lam in [1e2, 1e4, 1e6]]
        assert all(a < b < 1.0 for a, b in zip(mods, mods[1:]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            mfac_pole_matrix(np.eye(2), -1.0)

    def test_matches_direct_form(self, rng):
        for shape in [(3, 3), (2, 3), (3, 2), (6, 3)]:
            J = rng.standard_normal(shape)
            for lam in [0.0, 1e-3, 1.0, 50.0]:
                inverse = (
                    np.linalg.solve(J.T @ J + lam * np.eye(shape[1]), J.T)
                    if lam > 0
                    else np.linalg.pinv(J)
                )
                np.testing.assert_allclose(
                    mfac_pole_matrix(J, lam).pole_matrix,
                    np.eye(shape[0]) - J @ inverse,
                    rtol=0,
                    atol=1e-8,
                )

    def test_tall_jacobian_keeps_unit_poles_off_its_range(self, rng):
        J = rng.standard_normal((3, 2))
        s = np.linalg.svd(J, compute_uv=False)
        for lam in [0.0, 0.5, 4.0]:
            report = mfac_pole_matrix(J, lam)
            np.testing.assert_allclose(
                np.sort(report.eigenvalues.real),
                np.sort(np.append(lam / (lam + s**2), 1.0)),
                atol=1e-12,
            )


class TestStaticErrorGain:
    def test_zero_lambda_is_zero(self, rng):
        np.testing.assert_allclose(
            static_error_gain(full_rank(rng), 0.0), np.zeros((3, 3)), atol=1e-12
        )

    def test_single_sigma(self):
        assert static_error_gain(np.array([[1.0]]), 1.0)[0, 0] == pytest.approx(0.5)

    def test_monotone_in_lambda(self, rng):
        J = full_rank(rng)
        gains = [
            np.sort(np.linalg.eigvalsh(static_error_gain(J, lam)))
            for lam in [0.1, 1.0, 10.0]
        ]
        assert np.all(gains[0] < gains[1])
        assert np.all(gains[1] < gains[2])

    def test_gains_bounded(self, rng):
        vals = np.linalg.eigvalsh(static_error_gain(rng.standard_normal((3, 3)), 2.0))
        assert np.all(vals >= -1e-12)
        assert np.all(vals < 1.0)


def assert_one_block_law(J, lam):
    """The one-step poles and the n = 1 predictive poles, sorted by modulus, agree to 1e-12."""
    np.testing.assert_allclose(
        np.sort(np.abs(mfac_pole_matrix(J, lam).eigenvalues)),
        np.sort(np.abs(mfapc_pole_matrix([J], lam).eigenvalues)),
        rtol=0, atol=1e-12,
    )


class TestRankCutoff:
    """The poles, the step and cond count the same singular values as zero."""

    @pytest.mark.parametrize("model, q", [(default_dh_chain(), np.zeros(6)),
                                          (ThreeLink(), np.array([0.2, 0.5, 0.0]))],
                             ids=["default-dh-home", "three-link-straight"])
    @pytest.mark.parametrize("lam", [0.0, 1e-20, 0.01])
    def test_singular_pose_poles_match_the_law(self, model, q, lam):
        J = model.jacobian(q)
        assert np.linalg.svd(J, compute_uv=False)[-1] < 1e-15
        assert cond(J) == np.inf
        assert_one_block_law(J, lam)
        # the weakest direction is never corrected: a pole at 1, so the loop is not stable
        assert not mfac_pole_matrix(J, lam).stable
        assert mfac_pole_matrix(J, lam).max_modulus == pytest.approx(1.0, abs=1e-12)

    @given(
        shape=st.sampled_from([(3, 3), (2, 3), (3, 2), (6, 6), (6, 3), (3, 7)]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
        lam=st.sampled_from([0.0, 1e-20, 1e-6, 0.5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_deficient_products(self, shape, seed, data, lam):
        """J = U diag(sigma) V^T with some sigma exactly 0: its computed ones are rounding."""
        m, n = shape
        rank = data.draw(st.integers(0, min(shape) - 1), label="rank")
        sigma = sorted(data.draw(st.lists(st.floats(0.01, 10.0), min_size=rank,
                                          max_size=rank), label="sigma"), reverse=True)
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        J = U[:, :rank] @ np.diag(sigma) @ V[:, :rank].T
        assert cond(J) == np.inf
        assert_one_block_law(J, lam)
        assert not mfac_pole_matrix(J, lam).stable


def test_a_sigma_at_the_rank_cutoff_is_dropped():
    # J = diag(s0, c), c the rank cutoff eps * 2 * s0 of its own 2 x 2 SVD: mu sigma^2 = c * c
    # is at the cutoff, so the step drops it and its pole is 1, while pow(c, 2) rounds one ulp
    # below c * c (glibc), so a cutoff squared with ** kept it at an undamped gain of 1 / c
    s0 = 6.049948499013176e-10
    c = _rank_cutoff(s0, 2)
    J = np.diag([s0, c])
    assert np.linalg.svd(J, compute_uv=False).tolist() == [s0, c]
    assert mfac_step(J, [1.0, 1.0], 0.0)[1] == 0.0
    assert mfac_pole_matrix(J, 0.0).eigenvalues.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("n", range(1, 9))
def test_a_direction_with_every_term_dropped_has_a_pole_of_exactly_one(n):
    # sigma_2 = 0: every term mu_i sigma_2^2 is dropped, so its pole is 1, not the sum of the
    # weights, which reads 1.000000000000002 at n = 5 and 0.9999999999999993 at n = 8
    rng = np.random.default_rng(2701)
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    report = mfapc_pole_matrix([U @ np.diag([2.0, 0.7, 0.0]) @ V.T] * n, 0.01)
    assert report.max_modulus == 1.0
    assert report.eigenvalues[2] == 1.0 and np.all(report.eigenvalues[:2] < 1.0)


class TestFrozenLoop:
    """The closed-form frozen poles of `_frozen_loop`, against the dense stack's own gain."""

    @staticmethod
    def filter_factor_gain(J, lam):
        """U diag(lam / (lam + sigma^2)) U^T with gain 1 at or below the rank cutoff, directly."""
        U, s, _ = np.linalg.svd(J)
        gains = np.ones(J.shape[0])
        gains[: s.size] = np.divide(lam, lam + s**2, out=np.ones_like(s),
                                    where=s > _rank_cutoff(s[0], max(J.shape)))
        return U @ np.diag(gains) @ U.T

    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
        dropped=st.integers(0, 5),
        tiny=st.booleans(),
        n=st.integers(1, 6),
        lam=st.sampled_from([0.0, 1e-20, 1e-6, 0.01, 1.0, 100.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form(self, shape, seed, dropped, tiny, n, lam):
        m, k = shape
        rank = min(shape)
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((k, k)))[0]
        sigma = np.sort(rng.uniform(0.1, 10.0, rank))[::-1]
        # the weakest singular values exactly 0 or a rounding-level 1e-17 sigma_0
        sigma[rank - min(dropped, rank - 1):] = 1e-17 * sigma[0] if tiny else 0.0
        J = U[:, :rank] @ np.diag(sigma) @ V[:, :rank].T

        report = mfapc_pole_matrix([J] * n, lam)
        K = mfac_step(build_psi([J] * n), np.eye(n * m), lam)[:k]
        oracle = np.eye(m) - J @ K.reshape(k, n, m).sum(axis=1)
        np.testing.assert_allclose(report.pole_matrix, oracle, rtol=0, atol=1e-10)
        np.testing.assert_allclose(np.sort(report.eigenvalues),
                                   np.sort(np.linalg.eigvals(oracle).real), rtol=0, atol=1e-10)
        assert np.all((report.eigenvalues >= 0) & (report.eigenvalues <= 1 + 1e-12))

        one_step, one_block = mfac_pole_matrix(J, lam), mfapc_pole_matrix([J], lam)
        assert one_step.pole_matrix.tobytes() == one_block.pole_matrix.tobytes()
        assert one_step.eigenvalues.tobytes() == one_block.eigenvalues.tobytes()
        assert (one_step.max_modulus, one_step.stable) == (one_block.max_modulus,
                                                           one_block.stable)
        assert static_error_gain(J, lam).tobytes() == self.filter_factor_gain(J, lam).tobytes()


class TestHorizonClosedForm:
    """What the horizon buys on a fixed target: the weights of `_frozen_loop` satisfy
    sum w_i / mu_i = 1 and sum w_i mu_i = n, so each n-step pole lies between the one-step
    poles at lam / n and at lam. Tolerances, from a scan of n <= 24: 1e-12 relative on
    each identity (1.5e-13 seen) and 1e-14 absolute on the pole bound (3.3e-16 seen)."""

    @staticmethod
    def weights(n):
        """w_i = W[0, i] (W^T T^T 1)_i / mu_i, as `_frozen_loop` forms them, and mu."""
        mu, _, W, WtTt = _horizon_spectrum(n)
        mu = np.array(mu)
        return W[0] * WtTt.sum(axis=1) / mu, mu

    @given(n=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_weight_identities(self, n):
        w, mu = self.weights(n)
        assert np.all(w > 0)
        assert abs((w / mu).sum() - 1.0) <= 1e-12
        assert abs((w * mu).sum() - n) <= 1e-12 * n

    @given(n=st.integers(1, 24), log_ratio=st.floats(-8.0, 8.0),
           log_lam=st.floats(-6.0, 6.0))
    @settings(max_examples=300, deadline=None)
    def test_poles_lie_between_the_one_step_poles(self, n, log_ratio, log_lam):
        lam = 10.0 ** log_lam
        s2 = 10.0 ** log_ratio * lam  # sigma^2 / lam from 1e-8 to 1e8
        p_n = analysis._frozen_loop(np.array([[math.sqrt(s2)]]), n, lam).eigenvalues[0]
        sigma2 = math.sqrt(s2) ** 2

        def one_step(x):
            return x / (x + sigma2)

        assert one_step(lam / n) - 1e-14 <= p_n <= one_step(lam) + 1e-14


class TestHorizonOnExample1:
    """What the horizon buys when tracking configs/example1.json, whose run draws nothing at
    random: the median error from step 100 on reads 3.88e-3 at horizon 5, 3.91e-3 at horizon 1
    and 2.48e-6 at horizon 5 with a second linearisation per sample (n_up = 2)."""

    @staticmethod
    def steady_error(horizon, n_up):
        cfg = json.loads(EXAMPLE1.read_text())
        cfg["solver"]["horizon"], cfg["tolerances"]["n_up"] = horizon, n_up
        model = cli.parse_model(cfg["model"])
        report = receding_horizon_track(
            model, cli.parse_trajectory(cfg["trajectory"], model), cfg["initial_q"],
            cli.solver_config_from(cfg), y0=cfg["initial_y"] if n_up == 1 else None)
        return float(np.median([s.error_norm for s in report.steps if s.k >= 100]))

    def test_accuracy_comes_from_relinearising_not_from_the_look_ahead(self):
        one_step, five_step = self.steady_error(1, 1), self.steady_error(5, 1)
        assert abs(five_step - one_step) <= 0.1 * one_step
        assert self.steady_error(5, 2) < 1e-4


class TestMfapcPoleMatrix:
    def test_n1_matches_mfac(self, rng):
        J = rng.standard_normal((3, 3))
        a = mfac_pole_matrix(J, 2.0)
        b = mfapc_pole_matrix([J], 2.0)
        np.testing.assert_allclose(a.pole_matrix, b.pole_matrix, atol=1e-10)

    @staticmethod
    def dense_oracle(blocks, lam):
        """I - J_0 g^T (Psi^T Psi + lam I)^{-1} Psi^T E with Psi = build_psi(blocks)."""
        psi = build_psi(blocks)
        m_y, m_u = blocks[0].shape
        E = np.tile(np.eye(m_y), (len(blocks), 1))
        gain = np.linalg.solve(psi.T @ psi + lam * np.eye(psi.shape[1]), psi.T @ E)
        return np.eye(m_y) - blocks[0] @ gain[:m_u]

    def test_zero_lambda_deadbeat(self, rng):
        # distinct blocks take the dense stack with no mode argument
        for n in [2, 3]:
            blocks = [full_rank(rng) for _ in range(n)]
            report = mfapc_pole_matrix(blocks, 0.0)
            assert report.max_modulus < 1e-9

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_distinct_blocks_match_dense_oracle(self, rng, lam):
        blocks = [full_rank(rng) for _ in range(3)]
        report = mfapc_pole_matrix(blocks, lam)
        np.testing.assert_allclose(
            report.pole_matrix, self.dense_oracle(blocks, lam), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0, 10.0])
    def test_equal_blocks_match_dense_stack(self, rng, lam):
        J = full_rank(rng)
        report = mfapc_pole_matrix([J.copy() for _ in range(4)], lam)
        np.testing.assert_allclose(
            report.pole_matrix, self.dense_oracle([J] * 4, lam), rtol=0, atol=1e-12
        )

    def test_second_block_is_read(self, rng):
        J0, J1 = full_rank(rng), full_rank(rng)
        a = mfapc_pole_matrix([J0, J1], 1.0).pole_matrix
        b = mfapc_pole_matrix([J0, J0], 1.0).pole_matrix
        assert np.max(np.abs(a - b)) > 1e-6

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 10.0])
    def test_repeated_block_is_its_copies(self, rng, n, lam):
        # [J] * n skips the array comparisons that copies of J take, to the same report
        J = rng.standard_normal((3, 3))
        same, copies = mfapc_pole_matrix([J] * n, lam), mfapc_pole_matrix(
            [J.copy() for _ in range(n)], lam)
        assert same.pole_matrix.tobytes() == copies.pole_matrix.tobytes()
        assert same.eigenvalues.tobytes() == copies.eigenvalues.tobytes()
        assert (same.max_modulus, same.stable) == (copies.max_modulus, copies.stable)
        J[1, 2] = math.nan
        for blocks in ([J] * n, [J.copy() for _ in range(n)]):
            with pytest.raises(np.linalg.LinAlgError):
                mfapc_pole_matrix(blocks, lam)

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError, match="need at least one Jacobian block"):
            mfapc_pole_matrix([], 0.1)

    @pytest.mark.parametrize("blocks", [[np.eye(3), np.eye(3)[:2]], [np.ones(3)] * 2],
                             ids=["mismatched-blocks", "vector-blocks"])
    def test_blocks_of_no_one_shape_rejected(self, blocks):
        with pytest.raises(ValueError, match="all Jacobian blocks must share one shape"):
            mfapc_pole_matrix(blocks, 0.1)

    def test_moduli_shrink_with_lambda(self, rng):
        blocks = [full_rank(rng)] * 3
        mods = [
            mfapc_pole_matrix(blocks, lam).max_modulus for lam in [10.0, 1.0, 0.1, 0.0]
        ]
        assert all(a >= b - 1e-12 for a, b in zip(mods, mods[1:]))


class TestClosedLoopSimulation:
    def test_deadbeat_constant_reference(self, rng):
        J = full_rank(rng)
        e = simulate_linear_closed_loop(
            J, MfapcController(1, 0.0), ConstantReference(np.array([1.0, -2.0, 0.5])), 20
        )
        assert np.max(np.abs(e[1:])) <= 1e-12

    def test_geometric_decay_rate(self, rng):
        J = full_rank(rng)
        lam = 5.0
        e = simulate_linear_closed_loop(
            J, MfapcController(1, lam), ConstantReference(np.ones(3)), 60
        )
        norms = np.linalg.norm(e, axis=1)
        k = np.arange(10, 51)
        slope = np.polyfit(k, np.log(norms[10:51]), 1)[0]
        rate = np.exp(slope)
        expected = mfac_pole_matrix(J, lam).max_modulus
        assert rate == pytest.approx(expected, rel=0.05)

    def test_ramp_error_grows_with_lambda(self):
        J = np.diag([1.0, 2.0])
        norms = []
        for lam in [0.1, 1.0, 10.0]:
            e = simulate_linear_closed_loop(
                J, MfapcController(1, lam), RampReference(np.ones(2)), 2000
            )
            norms.append(np.linalg.norm(e[-1]))
        assert norms[0] < norms[1] < norms[2]

    def test_ramp_steady_state_closed_form(self):
        # decoupled channels: e_ss = slope * lam / sigma^2
        J = np.diag([1.0, 2.0])
        lam = 1.0
        e = simulate_linear_closed_loop(
            J, MfapcController(1, lam), RampReference(np.ones(2)), 3000
        )
        np.testing.assert_allclose(e[-1], [lam / 1.0, lam / 4.0], atol=1e-6)

    def test_mfapc_controller_tracks(self, rng):
        J = full_rank(rng)
        e = simulate_linear_closed_loop(
            J, MfapcController(n=3, lam=0.0), ConstantReference(np.ones(3)), 20
        )
        assert np.max(np.abs(e[1:])) <= 1e-10

    @given(
        shape=st.sampled_from([(2, 2), (3, 3), (2, 3), (3, 6)]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        steps=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_step_loop_is_static_gain_power(self, shape, seed, lam, steps):
        # independent oracle for n = 1: on a constant reference the error
        # obeys e(k+1) = G e(k), so e(k) = G^k r
        rng = np.random.default_rng(seed)
        J = rng.standard_normal(shape)
        assume(cond(J) < 1e4)
        r = rng.standard_normal(shape[0])
        e = simulate_linear_closed_loop(
            J, MfapcController(1, lam), ConstantReference(r), steps
        )
        G = static_error_gain(J, lam)
        expected = [r]
        for _ in range(steps):
            expected.append(G @ expected[-1])
        np.testing.assert_allclose(e, expected, rtol=0, atol=1e-9)

    @staticmethod
    def stepwise_oracle(J, controller, reference, steps):
        """The per-step loop: one window, one matvec and n + 1 reference calls per step."""
        m_y, m_u = J.shape
        n = controller.n
        JK = J @ mfac_step(J, np.eye(n * m_y), controller.lam)[:m_u]
        y = np.zeros(m_y)
        errors = [reference(0) - y]
        for k in range(steps):
            window = np.concatenate([reference(k + 1 + j) for j in range(n)])
            y = y + JK @ (window - np.tile(y, n))
            errors.append(reference(k + 1) - y)
        return np.asarray(errors)

    @given(
        shape=st.sampled_from([(2, 2), (3, 3), (2, 3), (3, 6), (6, 6), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        ramp=st.booleans(),
        steps=st.integers(1, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_stepwise_loop(self, shape, seed, n, lam, ramp, steps):
        rng = np.random.default_rng(seed)
        J = rng.standard_normal(shape)
        r = rng.standard_normal(shape[0])
        reference = RampReference(r) if ramp else ConstantReference(r)
        controller = MfapcController(n, lam)
        e = simulate_linear_closed_loop(J, controller, reference, steps)
        expected = self.stepwise_oracle(J, controller, reference, steps)
        assert e.shape == (steps + 1, shape[0])
        np.testing.assert_allclose(
            e, expected, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(expected)))
        )

    @pytest.mark.parametrize("n, steps", [(1, 1), (1, 30), (5, 1), (5, 30)])
    def test_reference_sampled_once_per_k(self, n, steps):
        # one call, over np.arange(steps + n): every k once, in order
        calls = []

        def reference(k):
            calls.append(np.array(k))
            return np.multiply.outer(k, np.ones(3))

        simulate_linear_closed_loop(np.eye(3), MfapcController(n, 0.1), reference, steps)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.arange(steps + n))

    @pytest.mark.parametrize("reference", [
        lambda k: np.array([k, -k, 2 * k], dtype=float),  # written for a scalar k: one column per k
        lambda k: np.ones(3),  # one row for every k
        lambda k: np.zeros((len(k), 2)),  # rows of the wrong width
        lambda k: np.zeros((len(k) - 1, 3)),  # a row short
    ], ids=["scalar-only", "one-row", "wrong-width", "row-short"])
    def test_reference_protocol_enforced(self, reference):
        with pytest.raises(ValueError, match="reference protocol"):
            simulate_linear_closed_loop(np.eye(3), MfapcController(2, 0.1), reference, 10)

    def test_one_damped_solve_per_gain(self, rng, monkeypatch):
        # the frozen pole matrix and the simulator's gains each come from one SVD of J
        calls = {"mfac_step": 0, "svd": 0, "eigvals": 0}

        def counted(name, f):
            def call(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(analysis, "mfac_step", counted("mfac_step", mfac_step))
        for name in ("svd", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        J = full_rank(rng)
        mfapc_pole_matrix([J] * 5, 0.1)
        assert calls == {"mfac_step": 0, "svd": 1, "eigvals": 0}
        calls.update(svd=0)
        simulate_linear_closed_loop(J, MfapcController(5, 0.1), RampReference(np.ones(3)), 20)
        assert calls == {"mfac_step": 0, "svd": 1, "eigvals": 0}

    @given(
        shape=st.sampled_from([(2, 2), (3, 3), (2, 3), (3, 6), (6, 6), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    )
    @settings(max_examples=80, deadline=None)
    def test_state_matrix_is_the_frozen_pole_matrix(self, shape, seed, n, lam):
        # on a constant reference e(1) = A r, and A = I - sum_r J K_r is the pole matrix
        rng = np.random.default_rng(seed)
        J = rng.standard_normal(shape)
        r = rng.standard_normal(shape[0])
        e1 = simulate_linear_closed_loop(J, MfapcController(n, lam), ConstantReference(r), 1)[1]
        np.testing.assert_allclose(e1, mfapc_pole_matrix([J] * n, lam).pole_matrix @ r,
                                   rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(r)))

    @staticmethod
    def exit_case(case):
        """(J, n, lam, bounds on the largest pole) from a fixed seed: a pole of exactly 1
        or at 0.999 and above, so the scan runs in full, or poles at most 0.53, so it
        stops at A^64, below rounding."""
        rng = np.random.default_rng(2701)
        if case == "tall":  # the complement of J's range keeps a pole at 1
            return rng.standard_normal((3, 2)), 3, 0.1, (1.0, 1.0)
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        if case == "rank-deficient":  # sigma_2 = 0 gives a pole at 1 along U[:, 2]
            return U @ np.diag([2.0, 0.7, 0.0]) @ V.T, 5, 0.01, (1.0, 1.0)
        if case == "slow":  # lam / sigma_2^2 = 1e4
            return U @ np.diag([2.0, 0.7, 0.01]) @ V.T, 5, 1.0, (0.999, 1.0 - 1e-12)
        return U @ np.diag([2.0, 0.7, 0.3]) @ V.T, 1, 0.1, (0.5, 0.53)

    @pytest.mark.parametrize("case", ["tall", "rank-deficient", "slow", "fast"])
    @pytest.mark.parametrize("steps", [1000, 4000])
    @pytest.mark.parametrize("ramp", [False, True])
    def test_early_exit_keeps_slow_modes(self, case, steps, ramp):
        # A^s of a pole at or near 1 never falls below rounding, so the scan runs in full;
        # fast poles end it early, and what it drops is below rounding
        J, n, lam, (low, high) = self.exit_case(case)
        assert low <= mfapc_pole_matrix([J] * n, lam).max_modulus <= high
        r = np.random.default_rng(2702).standard_normal(3)
        reference = RampReference(r) if ramp else ConstantReference(r)
        controller = MfapcController(n, lam)
        e = simulate_linear_closed_loop(J, controller, reference, steps)
        expected = self.stepwise_oracle(J, controller, reference, steps)
        np.testing.assert_allclose(
            e, expected, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(expected)))
        )

    @pytest.mark.parametrize("lam", [-1e-3, math.nan, math.inf])
    def test_lambda_validated(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and non-negative"):
            simulate_linear_closed_loop(
                np.eye(2), MfapcController(2, lam), ConstantReference(np.ones(2)), 5
            )

    def test_references_are_their_formula(self):
        slope = np.array([0.3, -0.7, 1e-300])
        ramp, const = RampReference(slope), ConstantReference([1, -2, 0.5])
        for k in (0, 1, 7, 10**6):
            np.testing.assert_array_equal(ramp(k), k * np.asarray(slope, dtype=float))
            assert ramp(k).dtype == const(k).dtype == np.float64
            np.testing.assert_array_equal(const(k), [1.0, -2.0, 0.5])

    @given(
        values=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=6),
        length=st.integers(1, 3000),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_of_k_is_each_k_bit_for_bit(self, values, length):
        k = np.arange(length)
        for reference in (RampReference(values), ConstantReference(values)):
            with np.errstate(over="ignore", invalid="ignore"):  # k * huge is inf, 0 * inf NaN
                rows = reference(k)
                assert rows.dtype == np.float64 and rows.shape == (length, len(values))
                for i, row in enumerate(rows):
                    assert row.tobytes() == reference(i).tobytes()

    def test_written_reference_values_do_not_leak(self):
        slope, value = np.ones(2), np.ones(2)
        ramp, const = RampReference(slope), ConstantReference(value)
        ramp(1)[:] = 5.0
        const(1)[:] = 5.0
        slope[:] = value[:] = 9.0  # the caller's arrays were copied, not kept
        np.testing.assert_array_equal(ramp(1), [1.0, 1.0])
        np.testing.assert_array_equal(const(2), [1.0, 1.0])

    @pytest.mark.parametrize("n", [0, -1, 1.5, 2.0, True, math.nan])
    def test_controller_horizon_validated(self, n):
        # 0 indexed past an empty window and 1.5 reached the weights as a TypeError
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            MfapcController(n, 0.1)

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            simulate_linear_closed_loop(
                np.eye(2), MfapcController(1, 0.0), ConstantReference(np.ones(2)), 0
            )


def _terms_numpy(sigma, shape, n):
    """w, w_r, s2 = mu_i sigma_j^2 and s2 > the rank cutoff squared, in numpy, as they were."""
    _, root_mu_max, w, w_r = analysis._weights(n)
    s2 = np.array(_horizon_spectrum(n)[0])[:, None] * sigma**2
    cutoff = _rank_cutoff(root_mu_max * sigma[0], n * max(shape))
    return w, w_r, s2, s2 > cutoff * cutoff


def poles_numpy(sigma, shape, n, lam):
    """`analysis._poles` with its elementwise work in numpy: the float path's oracle."""
    w, _, s2, kept = _terms_numpy(sigma, shape, n)
    p = np.ones(shape[0])
    p[: sigma.size] = np.where(
        kept[-1], w @ np.divide(lam, lam + s2, out=np.ones(s2.shape), where=kept), 1.0)
    return p


def block_gains_numpy(sigma, shape, n, lam):
    """`analysis._block_gains` with its elementwise work in numpy."""
    _, w_r, s2, kept = _terms_numpy(sigma, shape, n)
    return w_r.T @ np.divide(s2, lam + s2, out=np.zeros(s2.shape), where=kept)


def frozen_report_numpy(J, n, lam):
    """(pole matrix, poles, max modulus, stable) of `_frozen_loop` as it was: U diag(p) U^T."""
    U, sigma, _ = np.linalg.svd(J)
    p = poles_numpy(sigma, J.shape, n, lam)
    max_mod = float(np.max(np.abs(p)))
    return U @ np.diag(p) @ U.T, p, max_mod, max_mod < 1.0 - 1e-12


def simulate_oracle(J, controller, reference, steps):
    """The simulator as it was: each doubling pass multiplies by the transposed view P.T of
    A^s, which numpy does not hand to BLAS as it does a C-ordered A^T."""
    J, n = np.asarray(J, dtype=float), controller.n
    m_y, (U, sigma, _) = len(J), np.linalg.svd(J, full_matrices=False)
    JK = (U * block_gains_numpy(sigma, J.shape, n, controller.lam)[:, None]) @ U.T
    R = np.asarray(reference(np.arange(steps + n)), dtype=float)
    Y = sliding_window_view(R[1:].ravel(), n * m_y)[::m_y] @ JK.reshape(n * m_y, m_y)
    P, s = np.eye(m_y) - JK.sum(axis=0), 1
    while s < steps and np.abs(P).max() > _EPS:
        Y[s:] += Y[:-s] @ P.T
        P, s = P @ P, 2 * s
    return R[: steps + 1] - np.vstack([np.zeros(m_y), Y])


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 7)),
    seed=st.integers(0, 2**32 - 1),
    zero_columns=st.integers(0, 7),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    n=st.integers(1, 5),
    lam=st.sampled_from([0.0, 1e-300, 1e-3, 10.0]),
)
@settings(max_examples=300, deadline=None)
def test_float_pole_path_is_the_numpy_form_bit_for_bit(shape, seed, zero_columns, scale, n, lam):
    # scale 0 is an all-zero J; zeroed columns give singular values that are exactly 0
    rng = np.random.default_rng(seed)
    J = scale * rng.standard_normal(shape)
    J[:, : min(zero_columns, shape[1])] = 0.0
    full, thin = np.linalg.svd(J)[1], np.linalg.svd(J, compute_uv=False)
    assert analysis._poles(full, J.shape, n, lam).tobytes() == poles_numpy(
        full, J.shape, n, lam).tobytes()
    assert analysis._block_gains(thin, J.shape, n, lam).tobytes() == block_gains_numpy(
        thin, J.shape, n, lam).tobytes()
    M, p, max_mod, stable = frozen_report_numpy(J, n, lam)
    report = mfapc_pole_matrix([J] * n, lam)
    assert report.pole_matrix.tobytes() == M.tobytes()
    assert report.eigenvalues.tobytes() == p.tobytes()
    assert (report.max_modulus, report.stable) == (max_mod, stable)
    assert type(report.max_modulus) is float


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    ramp=st.booleans(),
    steps=st.integers(1, 300),
)
@settings(max_examples=150, deadline=None)
def test_simulator_matches_its_oracle(shape, seed, n, lam, ramp, steps):
    # the passes run in BLAS on A^T in place of numpy on P.T: equal to rounding, mostly bit for bit
    rng = np.random.default_rng(seed)
    J, r = rng.standard_normal(shape), rng.standard_normal(shape[0])
    reference = RampReference(r) if ramp else ConstantReference(r)
    controller = MfapcController(n, lam)
    e = simulate_linear_closed_loop(J, controller, reference, steps)
    expected = simulate_oracle(J, controller, reference, steps)
    np.testing.assert_allclose(e, expected, rtol=0,
                               atol=1e-12 * max(1.0, np.max(np.abs(expected))))


def test_simulator_is_its_oracle_bit_for_bit_on_the_digest_inputs():
    # scripts/output_digest.py's ramp simulations, with its seed and sizes
    rng = np.random.default_rng(506)
    for model in (ThreeLink(), default_dh_chain()):
        for q in rng.uniform(-math.pi, math.pi, (10, model.m_u)):
            J = model.jacobian(q)
            ramp = RampReference(rng.uniform(-1.0, 1.0, model.m_y))
            for n in (1, 5):
                for lam in (0.0, 0.01, 0.1, 1.0, 10.0):
                    controller = MfapcController(n, lam)
                    assert simulate_linear_closed_loop(J, controller, ramp, 50).tobytes() == (
                        simulate_oracle(J, controller, ramp, 50).tobytes())


@pytest.mark.parametrize("shape", [(3, 3), (1, 4), (6, 2)], ids=["3x3", "1x4", "6x2"])
@pytest.mark.parametrize("layout", ["F", "strided", "read-only"])
def test_reference_layout_does_not_move_a_bit(shape, layout):
    # the simulator reads the reference's rows, not its memory layout
    rng = np.random.default_rng(2703)
    J, slope = rng.standard_normal(shape), rng.standard_normal(shape[0])
    rows = RampReference(slope)(np.arange(305))

    def reference(k):
        out = rows[: len(k)].copy()
        if layout == "F":
            return np.asfortranarray(out)
        if layout == "strided":
            wide = np.zeros((len(k), 2 * shape[0]))
            wide[:, 1::2] = out
            return wide[:, 1::2]
        out.setflags(write=False)
        return out

    controller = MfapcController(5, 0.1)
    baseline = simulate_linear_closed_loop(
        J, controller, lambda k: rows[: len(k)].copy(), 300)
    assert simulate_linear_closed_loop(J, controller, reference, 300).tobytes() == (
        baseline.tobytes())
