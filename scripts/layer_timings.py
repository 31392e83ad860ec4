#!/usr/bin/env python3
"""Per-call times of the solver's layers, in microseconds.

For each layer it prints the minimum over --repeat `timeit` repeats of
the mean time of one call, each repeat making --number calls:

- the DH walk of the default chain (`DhChain._walk`);
- `DhChain.jacobian` and a one-target `task_error` at a q whose walk the
  chain keeps, as in the solve loop;
- a 3x3 and a 6x6 thin `np.linalg.svd`;
- `mfac_step` at (3x3, n = 5), (6x6, n = 2) and (6x6, n = 1), on a
  seeded J and error vector, at lambda = 0.01;
- `mfac_pole_matrix`, `static_error_gain`, `mfapc_pole_matrix([J] * 5)`
  and `simulate_linear_closed_loop` of a 1000-step ramp with n = 5, on one
  seeded 3x3 J at lambda = 0.01;
- `cli.parse`: the four calls `ikdamp track` makes to read a config
  (`load_config`, `parse_model`, `solver_config_from`, `parse_trajectory`,
  which builds the trajectory's samples), on configs/example1.json and
  then configs/example2.json.

Every input is drawn from one seeded generator, so each run times the
same calls.

Calls this short are below what one traced benchmark run resolves, so
the layer figures are taken here. Compare figures only within one
session: a shared host moves them by tens of percent between sessions.
Run it from the repository root:

    PYTHONPATH=src python scripts/layer_timings.py [--repeat 7] [--number 2000]
"""
from __future__ import annotations

import argparse
import timeit
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from ikdamp import analysis, cli
from ikdamp.kinematics import default_dh_chain, forward
from ikdamp.mfac import mfac_step, task_error

LAMBDA = 0.01
SEED = 0
EXAMPLES = [Path(__file__).resolve().parent.parent / "configs" / f"example{i}.json" for i in (1, 2)]


def parse_examples() -> None:
    """Read both example configs as `ikdamp track` does."""
    for path in EXAMPLES:
        cfg = cli.load_config(path)
        model = cli.parse_model(cfg["model"])
        cli.solver_config_from(cfg)
        cli.parse_trajectory(cfg["trajectory"], model)


def layers() -> List[Tuple[str, Callable[[], object]]]:
    """(label, call) for each layer, on inputs drawn from default_rng(SEED)."""
    rng = np.random.default_rng(SEED)
    chain = default_dh_chain()
    q = rng.uniform(-1.0, 1.0, chain.m_u)
    targets = chain._targets([forward(chain, q + 0.1)])  # a Pose, as the loop passes it
    chain.jacobian(q)  # keep q's walk, so the two calls below read it
    calls = [
        ("DhChain._walk", lambda: chain._walk(q)),
        ("DhChain.jacobian", lambda: chain.jacobian(q)),
        ("task_error, one target", lambda: task_error(chain, targets, q)),
    ]
    for m in (3, 6):
        J = rng.standard_normal((m, m))
        calls.append((f"np.linalg.svd {m}x{m} thin",
                      lambda J=J: np.linalg.svd(J, full_matrices=False)))
    for m, n in ((3, 5), (6, 2), (6, 1)):
        J, e = rng.standard_normal((m, m)), rng.standard_normal(n * m)
        calls.append((f"mfac_step {m}x{m}, n = {n}", lambda J=J, e=e: mfac_step(J, e, LAMBDA)))
    J, ramp = rng.standard_normal((3, 3)), analysis.RampReference(rng.uniform(-1.0, 1.0, 3))
    controller = analysis.MfapcController(5, LAMBDA)
    calls += [
        ("mfac_pole_matrix 3x3", lambda: analysis.mfac_pole_matrix(J, LAMBDA)),
        ("static_error_gain 3x3", lambda: analysis.static_error_gain(J, LAMBDA)),
        ("mfapc_pole_matrix 3x3, [J] * 5", lambda: analysis.mfapc_pole_matrix([J] * 5, LAMBDA)),
        ("simulate_linear_closed_loop 3x3, n = 5",
         lambda: analysis.simulate_linear_closed_loop(J, controller, ramp, 1000)),
    ]
    calls.append(("cli.parse, example1 + example2", parse_examples))
    return calls


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timeit repeats (default 7)")
    parser.add_argument("--number", type=int, default=2000, help="calls per repeat (default 2000)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.number < 1:
        parser.error("--repeat and --number must be at least 1")
    calls = layers()
    width = max(len(label) for label, _ in calls)
    print(f"{'layer':<{width}}  us/call")
    for label, call in calls:
        best = min(timeit.Timer(call).repeat(args.repeat, args.number)) / args.number
        print(f"{label:<{width}}  {best * 1e6:7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
