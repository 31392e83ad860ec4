"""Acceptance suite: one test per criterion, each prints a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""
import math
from pathlib import Path

import numpy as np

from ikdamp.analysis import (
    ConstantReference,
    MfapcController,
    RampReference,
    mfac_pole_matrix,
    simulate_linear_closed_loop,
)
from ikdamp.cli import main
from ikdamp.damping import Constant, ThresholdRule
from ikdamp.kinematics import (
    ThreeLink,
    axis_angle_to_rotation,
    default_dh_chain,
    forward,
    forward_pose,
    jacobian,
    jacobian_fd,
    orientation_error,
    pose_error,
)
from ikdamp.damping import cond
from ikdamp.mfac import SolverConfig, mfac_step, solve_ik
from ikdamp.mfapc import (
    build_psi,
    psi_right_inverse,
    receding_horizon_track,
    solve_ik_predictive,
)
from ikdamp.trajectory import helix

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ARM = ThreeLink(5.0, 7.0, 7.0)

# fixed seed so the acceptance sample is the same on every run
ACCEPT_SEED = 1


def report(criterion: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_helix_tracking():
    cfg = SolverConfig(
        delta=1e-10, n_up=1, schedule=ThresholdRule(2.0, 1.1, 1.02, 10.0), horizon=5
    )
    rep = receding_horizon_track(ARM, helix(800), np.zeros(3), cfg, y0=np.zeros(3))
    errors = rep.error_norms
    ok = (
        rep.settling_step is not None
        and rep.settling_step <= 100
        and np.all(errors[rep.settling_step - 1 :] < 0.1)
    )
    report(
        f"1. helix tracking error < 0.1 from step {rep.settling_step} "
        "(required within [1, 100]) through k=800",
        ok,
    )


def test_criterion_2_three_link_round_trip():
    rng = np.random.default_rng(ACCEPT_SEED)
    successes = 0
    for _ in range(100):
        q_goal = np.array(
            [
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.2, math.pi - 0.2),
                rng.uniform(-math.pi, math.pi),
            ]
        )
        target = forward(ARM, q_goal)
        q0 = q_goal + rng.uniform(-0.1, 0.1, 3)
        rep = solve_ik(
            ARM, target, q0, SolverConfig(delta=1e-10, n_up=500, schedule=Constant(0.01))
        )
        if rep.converged:
            successes += 1
    report(f"2. three-link IK round trip: {successes}/100 converged (need >= 99)",
           successes >= 99)


def test_criterion_3_six_dof_round_trip():
    rng = np.random.default_rng(ACCEPT_SEED)
    chain = default_dh_chain()
    successes = 0
    count = 0
    while count < 50:
        q_goal = rng.uniform(-math.pi / 2, math.pi / 2, 6)
        if cond(jacobian(chain, q_goal)) >= 1e3:
            continue
        count += 1
        goal = forward_pose(chain, q_goal)
        q0 = q_goal + rng.uniform(-0.1, 0.1, 6)
        cfg = SolverConfig(delta=1e-12, n_up=10, schedule=Constant(0.0), horizon=2)
        rep = solve_ik_predictive(chain, [goal, goal], q0, cfg)
        err = np.linalg.norm(pose_error(goal, forward_pose(chain, rep.q_final)))
        if err <= 1e-8 and rep.iterations <= 10:
            successes += 1
    report(f"3. 6-DOF predictive round trip: {successes}/50 within budget (need >= 45)",
           successes >= 45)


def test_criterion_4_pole_formula():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    accepted = 0
    while accepted < 500:
        J = rng.standard_normal((3, 3))
        if cond(J) > 1e8:
            continue
        accepted += 1
        lam = rng.uniform(0.0, 100.0)
        rep = mfac_pole_matrix(J, lam)
        s = np.linalg.svd(J, compute_uv=False)
        gap = np.max(
            np.abs(np.sort(np.abs(rep.eigenvalues)) - np.sort(lam / (lam + s**2)))
        )
        worst = max(worst, gap)
    report(f"4. pole spectrum matches lam/(lam+sigma^2), worst gap {worst:.3e}",
           worst <= 1e-10)


def test_criterion_5_zero_lambda_deadbeat():
    rng = np.random.default_rng(ACCEPT_SEED)
    J = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    e = simulate_linear_closed_loop(
        J, MfapcController(1, 0.0), ConstantReference(np.array([1.0, -2.0, 0.5])), 50
    )
    worst = float(np.max(np.linalg.norm(e[1:], axis=1)))
    report(f"5. zero-damping deadbeat: max ||e(k)|| for k>=1 is {worst:.3e}",
           worst <= 1e-12)


def test_criterion_6_ramp_steady_state():
    J = np.diag([1.0, 2.0])
    norms = []
    for lam in [0.1, 1.0, 10.0]:
        e = simulate_linear_closed_loop(
            J, MfapcController(1, lam), RampReference(np.ones(2)), 5000
        )
        norms.append(float(np.linalg.norm(e[-1])))
    e0 = simulate_linear_closed_loop(
        J, MfapcController(1, 0.0), RampReference(np.ones(2)), 100
    )
    zero_ss = float(np.linalg.norm(e0[-1]))
    ok = norms[0] < norms[1] < norms[2] and zero_ss <= 1e-10
    report(
        "6. ramp steady-state error increases with damping "
        f"({norms[0]:.3g} < {norms[1]:.3g} < {norms[2]:.3g}), zero at lam=0 "
        f"({zero_ss:.1e})",
        ok,
    )


def test_criterion_7_degeneration():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(200):
        J = rng.standard_normal((3, 3))
        e = rng.standard_normal(3)
        lam = rng.uniform(0.0, 10.0)
        dq = mfac_step(build_psi([J]), e, lam)
        worst = max(worst, float(np.max(np.abs(dq - mfac_step(J, e, lam)))))
    report(f"7. horizon-1 degeneration: worst step gap {worst:.3e}", worst <= 1e-12)


def test_criterion_8_right_inverse_identity():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for n in [1, 2, 3, 4]:
        blocks = [rng.standard_normal((3, 3)) + 3 * np.eye(3) for _ in range(n)]
        prod = build_psi(blocks) @ psi_right_inverse(blocks)
        worst = max(worst, float(np.max(np.abs(prod - np.eye(3 * n)))))
    report(f"8. stacked right-inverse identity: worst deviation {worst:.3e}",
           worst <= 1e-9)


def test_criterion_9_jacobian_correctness():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for model, dim in [(ARM, 3), (default_dh_chain(), 6)]:
        for _ in range(100):
            q = rng.uniform(-math.pi, math.pi, dim)
            J = jacobian(model, q)
            Jfd = jacobian_fd(model, q, 1e-6)
            worst = max(
                worst, float(np.linalg.norm(J - Jfd) / np.linalg.norm(J))
            )
    report(
        "9. analytic vs finite-difference Jacobians agree within 1e-6 relative "
        f"(100 configs/model, worst {worst:.3e})",
        worst <= 1e-6,
    )


def test_criterion_10_orientation_round_trip():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(100):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = rng.uniform(0.01, math.pi - 0.01)
        D = axis_angle_to_rotation(axis, theta)
        v = orientation_error(D, np.eye(3))
        rebuilt = axis_angle_to_rotation(v / np.linalg.norm(v), np.linalg.norm(v))
        worst = max(worst, float(np.max(np.abs(rebuilt - D))))
    report(f"10. orientation-error round trip: worst reconstruction gap {worst:.3e}",
           worst <= 1e-9)


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for name in ["a.csv", "b.csv"]:
        out = tmp_path / name
        rc = main(
            ["track", "--config", str(CONFIG_DIR / "example1.json"), "--out", str(out)]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    report("11. checked-in config reproduces byte-identical CSV output",
           outputs[0] == outputs[1])
