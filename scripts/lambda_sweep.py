#!/usr/bin/env python3
"""Sweep the damping factor and report closed-loop poles and tracking error.

For a given joint configuration this prints, per lambda: the singular
values of the Jacobian, the pole moduli of the error dynamics, the top
static error gain, and the steady-state error norm of a linearized loop
chasing a unit ramp.
"""
import argparse
import sys

import numpy as np

from ikdamp.analysis import (
    MfapcController,
    RampReference,
    mfac_pole_matrix,
    simulate_linear_closed_loop,
)
from ikdamp.cli import parse_model
from ikdamp.kinematics import jacobian


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="three-link")
    parser.add_argument("--q", default="0.3,0.7,-0.5")
    parser.add_argument(
        "--lambdas", default="0,0.01,0.1,1,10", help="comma-separated sweep values"
    )
    parser.add_argument("--ramp-steps", type=int, default=3000)
    args = parser.parse_args(argv)

    model = parse_model(args.model)
    q = np.array([float(v) for v in args.q.split(",")])
    J = jacobian(model, q)
    sigmas = np.linalg.svd(J, compute_uv=False)
    print(f"sigma(J) = {np.array2string(sigmas, precision=4)}")
    print(f"{'lambda':>10} {'max|pole|':>12} {'top gain':>12} {'ramp e_ss':>12}")
    for lam in (float(v) for v in args.lambdas.split(",")):
        pole = mfac_pole_matrix(J, lam)  # its pole matrix is the static error gain
        errors = simulate_linear_closed_loop(
            J, MfapcController(1, lam), RampReference(np.ones(J.shape[0])), args.ramp_steps
        )
        e_ss = float(np.linalg.norm(errors[-1]))
        print(f"{lam:>10.4g} {pole.max_modulus:>12.6g} {pole.max_modulus:>12.6g} {e_ss:>12.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
