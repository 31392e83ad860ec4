#!/usr/bin/env python3
"""Print one labelled SHA-256 per ikdamp output, to compare two checkouts bit for bit.

The outputs are the `ikdamp track` CSVs of configs/example1.json and
configs/example2.json, of example2 in propagated mode and with the
single-step law (n_up = 1), and of example1 with the inner loop
(n_up = 10) and no initial_y, with and without reset_on_cross, of
example1 from another q0 with an initial_y away from its output, and of
example1 with a schedule that reads the condition number; every SolveReport field of `solve_ik` on
seeds 501-502 x --goals random 6-DOF goals x two damping schedules;
`ikdamp ik` in propagated mode with n = 2 on --goals seeded 6-DOF goals;
`DhChain.forward_pose` and `jacobian` on 500 seeded configurations of
the default chain; `mfapc_pole_matrix` of the frozen n = 5 horizon on
seeded three-link Jacobians and of n = 5 distinct seeded blocks;
`simulate_linear_closed_loop` on seeded three-link and default-chain
Jacobians for n = 1 and 5; and the `ikdamp analyze` CSVs of both
builtin models and of the default chain at its singular home pose
q = 0. Every line runs through
the CLI or an API that older checkouts share, so the script runs
unchanged on both. Run it against each checkout's sources and diff:

    PYTHONPATH=old/src python3 scripts/output_digest.py > old.txt
    PYTHONPATH=new/src python3 scripts/output_digest.py > new.txt
    diff old.txt new.txt
"""
import argparse
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from ikdamp.analysis import (
    MfapcController,
    RampReference,
    mfapc_pole_matrix,
    simulate_linear_closed_loop,
)
from ikdamp.cli import main as ikdamp_main
from ikdamp.damping import Constant, RatioRule
from ikdamp.kinematics import ThreeLink, default_dh_chain, forward
from ikdamp.mfac import SolverConfig, solve_ik

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = (501, 502)
SCHEDULES = {
    "constant": lambda: Constant(0.01),
    "ratio": lambda: RatioRule(0.1, 1.5, 1.5),
}
FK_CONFIGS = 500
FK_SEED = 503
PROPAGATED_SEED = 504
POLE_CONFIGS = 50
POLE_SEED = 505
SIM_CONFIGS = 10
SIM_SEED = 506
SIM_STEPS = 50


class Replace(dict):
    """A config section that replaces the config's own instead of merging into it."""


# (label, config, edits): a dict merges into that config section, None deletes the key,
# any other value (a Replace too) replaces it
TRACK_RUNS = (
    ("example1", "example1", {}),
    ("example2", "example2", {}),
    ("example2-propagated", "example2", {"solver": {"mode": "propagated"}}),
    ("example2-single-step", "example2", {"tolerances": {"n_up": 1}}),
    ("example1-inner-loop", "example1", {"tolerances": {"n_up": 10}, "initial_y": None}),
    ("example1-inner-reset", "example1", {"tolerances": {"n_up": 10}, "initial_y": None,
                                          "schedule": {"reset_on_cross": True}}),
    # y0 apart from forward(q0) along directions the first Jacobian sees
    ("example1-initial-y", "example1", {"initial_q": [0.3, 0.8, -0.5],
                                        "initial_y": [4.0, 1.0, 12.0]}),
    # every bin is hit along the helix, where the condition number runs from 1.6 to about 240
    ("example1-cond-schedule", "example1", {"schedule": Replace(
        type="cond", cond_bins=[1.7, 2.5, 5.0], lambdas=[0.2, 1.0, 4.0])}),
)
LAMBDAS = (0.0, 0.01, 0.1, 1.0, 10.0)
ANALYZE_Q = {"three-link": "0.3,0.7,-0.5", "default-dh": "0.3,-0.4,0.5,0.2,-0.6,0.1"}


def _bytes(value) -> bytes:
    """An exact encoding: arrays with dtype and shape, floats as hex, lists item by item."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_bytes(v) for v in value) + b"]"
    if isinstance(value, enum.Enum):
        return _bytes(value.value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex().encode()
    return repr(value).encode()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, out_path=None) -> bytes:
    """Exit code, printed lines and, if it wrote one, the output file of an ikdamp command."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        rc = ikdamp_main(argv)
    data = f"rc={rc}\n{printed.getvalue()}".encode()
    return data + out_path.read_bytes() if out_path is not None else data


def track_digests(out_dir: Path):
    for label, name, edits in TRACK_RUNS:
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        for key, value in edits.items():
            if value is None:
                del cfg[key]
            elif isinstance(value, dict) and not isinstance(value, Replace):
                cfg[key].update(value)
            else:
                cfg[key] = value
        cfg_path, csv_path = out_dir / f"{label}.json", out_dir / f"{label}.csv"
        cfg_path.write_text(json.dumps(cfg))
        data = _run(["track", "--config", str(cfg_path), "--out", str(csv_path)], csv_path)
        yield f"track/{label}.csv", _digest(data)


def solve_digests(goals: int):
    """Batch-style requests: the pose of a random joint vector, from q0 = 0.1 * ones."""
    chain = default_dh_chain()
    q0 = np.full(chain.m_u, 0.1)
    for schedule, make in SCHEDULES.items():
        for seed in SEEDS:
            fields = {}
            for i in range(goals):
                rng = np.random.default_rng((seed, i))
                goal = chain.forward_pose(rng.uniform(-math.pi, math.pi, chain.m_u))
                config = SolverConfig(delta=1e-9, n_up=200, schedule=make())
                report = solve_ik(chain, goal, q0, config)
                for f in dataclasses.fields(report):
                    fields.setdefault(f.name, hashlib.sha256()).update(
                        _bytes(getattr(report, f.name))
                    )
            for name, h in fields.items():
                yield f"solve_ik/{schedule}/seed{seed}/{name}", h.hexdigest()


def propagated_ik_digests(out_dir: Path, goals: int):
    """`ikdamp ik` with propagated n = 2 at lambda = 0 on the task vectors of random joint vectors."""
    chain = default_dh_chain()
    cfg = {
        "model": "default-dh",
        "solver": {"method": "mfapc", "horizon": 2, "mode": "propagated"},
        "schedule": {"type": "constant", "lambda0": 0.0},
        "tolerances": {"delta": 1e-9, "n_up": 200},
        "initial_q": [0.1] * chain.m_u,
    }
    cfg_path, csv_path = out_dir / "ik.json", out_dir / "ik.csv"
    rng = np.random.default_rng(PROPAGATED_SEED)
    h = hashlib.sha256()
    for _ in range(goals):
        cfg["target"] = forward(chain, rng.uniform(-math.pi, math.pi, chain.m_u)).tolist()
        cfg_path.write_text(json.dumps(cfg))  # floats are written with repr, exactly
        h.update(_run(["ik", "--config", str(cfg_path), "--out", str(csv_path)], csv_path))
    yield "ik/propagated_n2", h.hexdigest()


def _pole_bytes(report) -> bytes:
    return b"".join(_bytes(getattr(report, f.name)) for f in dataclasses.fields(report))


def analysis_digests():
    """n = 5 pole matrices (frozen, distinct blocks), ramp simulations, `ikdamp analyze` CSVs."""
    arm = ThreeLink()
    rng = np.random.default_rng(POLE_SEED)
    frozen, distinct = hashlib.sha256(), hashlib.sha256()
    for q in rng.uniform(-math.pi, math.pi, (POLE_CONFIGS, arm.m_u)):
        J = arm.jacobian(q)
        blocks = [arm.jacobian(q + 0.1 * r) for r in range(5)]
        for lam in LAMBDAS:
            frozen.update(_pole_bytes(mfapc_pole_matrix([J] * 5, lam)))
            distinct.update(_pole_bytes(mfapc_pole_matrix(blocks, lam)))
    yield "analysis/mfapc_pole_matrix", frozen.hexdigest()
    yield "analysis/mfapc_pole_matrix_distinct", distinct.hexdigest()
    rng = np.random.default_rng(SIM_SEED)
    h = hashlib.sha256()
    for model in (arm, default_dh_chain()):
        for q in rng.uniform(-math.pi, math.pi, (SIM_CONFIGS, model.m_u)):
            J = model.jacobian(q)
            ramp = RampReference(rng.uniform(-1.0, 1.0, model.m_y))
            for n in (1, 5):
                for lam in LAMBDAS:
                    controller = MfapcController(n, lam)
                    h.update(_bytes(simulate_linear_closed_loop(J, controller, ramp, SIM_STEPS)))
    yield "analysis/simulate_linear_closed_loop", h.hexdigest()
    sweep = ",".join(repr(lam) for lam in LAMBDAS)
    for model, q in ANALYZE_Q.items():
        data = _run(["analyze", "--model", model, "--q", q, "--lambda-sweep", sweep])
        yield f"analyze/{model}.csv", _digest(data)
    # the home pose, where the chain's smallest singular value is rounding (about 3e-18)
    data = _run(["analyze", "--model", "default-dh", "--q", "0,0,0,0,0,0",
                 "--lambda-sweep", "0,1e-20,0.01"])
    yield "analyze/default-dh-home.csv", _digest(data)


def kinematics_digests():
    """Pose then Jacobian at each configuration, as the solver loop calls them."""
    chain = default_dh_chain()
    qs = np.random.default_rng(FK_SEED).uniform(-math.pi, math.pi, (FK_CONFIGS, chain.m_u))
    pose, jac = hashlib.sha256(), hashlib.sha256()
    for q in qs:
        p = chain.forward_pose(q)
        pose.update(_bytes(p.position) + _bytes(p.rotation))
        jac.update(_bytes(chain.jacobian(q)))
    yield "dh/forward_pose", pose.hexdigest()
    yield "dh/jacobian", jac.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--goals", type=int, default=100,
                        help="solve_ik goals per seed, and propagated ik goals")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = [*track_digests(tmp), *solve_digests(args.goals),
                 *propagated_ik_digests(tmp, args.goals), *kinematics_digests(),
                 *analysis_digests()]
    for label, digest in lines:
        print(f"{label} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
