#!/usr/bin/env python3
"""Helix-tracking experiment on the three-link arm.

Runs the receding-horizon controller against the 800-step helix with the
threshold damping schedule, writes the per-step CSV, and prints the
settling step plus the worst post-settling error.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from ikdamp.cli import write_track_csv
from ikdamp.damping import ThresholdRule
from ikdamp.kinematics import ThreeLink
from ikdamp.mfac import SolverConfig
from ikdamp.mfapc import receding_horizon_track
from ikdamp.trajectory import helix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=800)
    parser.add_argument("--horizon", type=int, default=5)
    parser.add_argument("--lambda0", type=float, default=2.0)
    parser.add_argument("--out", type=Path, default=Path("example1_track.csv"))
    args = parser.parse_args(argv)

    model = ThreeLink(5.0, 7.0, 7.0)
    config = SolverConfig(
        delta=1e-10,
        n_up=1,
        schedule=ThresholdRule(args.lambda0, 1.1, 1.02, 10.0),
        horizon=args.horizon,
    )
    report = receding_horizon_track(
        model, helix(args.steps), np.zeros(3), config, y0=np.zeros(3)
    )
    write_track_csv(args.out, report, model)
    print(f"wrote {args.out}")
    if report.settling_step is None:
        print("settling_step=none")
        print("max_post_settling_error=none")
    else:
        print(f"settling_step={report.settling_step}")
        print(f"max_post_settling_error={report.max_post_settling_error:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
