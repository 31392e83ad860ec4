#!/usr/bin/env python3
"""Print one labelled SHA-256 per ikdamp output, to compare two checkouts bit for bit.

The outputs are the `ikdamp track` CSVs of configs/example1.json and
configs/example2.json; every SolveReport field of `solve_ik` on seeds
501-502 x --goals random 6-DOF goals x two damping schedules; and
`DhChain.forward_pose` and `jacobian` on 500 seeded configurations of
the default chain. Run it against each checkout's sources and diff:

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
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from ikdamp.cli import main as ikdamp_main
from ikdamp.damping import Constant, RatioRule
from ikdamp.kinematics import default_dh_chain
from ikdamp.mfac import SolverConfig, solve_ik

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = (501, 502)
SCHEDULES = {
    "constant": lambda: Constant(0.01),
    "ratio": lambda: RatioRule(0.1, 1.5, 1.5),
}
FK_CONFIGS = 500
FK_SEED = 503


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


def track_digests(out_dir: Path):
    for name in ("example1", "example2"):
        csv_path = out_dir / f"{name}.csv"
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            rc = ikdamp_main(["track", "--config", str(CONFIGS / f"{name}.json"),
                              "--out", str(csv_path)])
        data = f"rc={rc}\n{printed.getvalue()}".encode() + csv_path.read_bytes()
        yield f"track/{name}.csv", _digest(data)


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
    parser.add_argument("--goals", type=int, default=100, help="solve_ik goals per seed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = [*track_digests(Path(tmp)), *solve_digests(args.goals), *kinematics_digests()]
    for label, digest in lines:
        print(f"{label} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
