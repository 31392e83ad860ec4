"""Experiment runner: fk / ik / track / analyze subcommands.

Configs are JSON, outputs are CSV with fixed 17-significant-digit float
formatting so identical configs reproduce byte-identical files.
Exit codes: 0 success/converged, 1 non-convergence, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import analysis, damping, kinematics, mfac, mfapc, trajectory


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def default_rng() -> np.random.Generator:
    """RNG seeded from IKD_SEED (default 0) for randomized target generation."""
    return np.random.default_rng(int(os.environ.get("IKD_SEED", "0")))


def parse_model(spec) -> kinematics.KinematicModel:
    """Builtin name ('three-link', 'default-dh'), DH JSON path, or dict."""
    if isinstance(spec, kinematics.KinematicModel):
        return spec
    if isinstance(spec, dict):
        if "rows" in spec:
            return kinematics.load_dh_chain(spec)
        if spec.get("type") == "three-link":
            return kinematics.ThreeLink(
                float(spec.get("l1", 5.0)),
                float(spec.get("l2", 7.0)),
                float(spec.get("l3", 7.0)),
            )
        raise ConfigError(f"unrecognized model spec: {spec!r}")
    name = str(spec)
    if name == "three-link":
        return kinematics.ThreeLink()
    if name == "default-dh":
        return kinematics.default_dh_chain()
    if Path(name).exists():
        return kinematics.load_dh_chain(name)
    raise ConfigError(f"unknown model {name!r} (not a builtin, not a file)")


def parse_trajectory(spec, model) -> trajectory.Trajectory:
    kind = spec.get("type")
    if kind == "helix":
        return trajectory.helix(int(spec.get("k_max", 800)))
    if kind == "lspb":
        steps = int(spec["steps"])
        blend = float(spec.get("blend_fraction", 0.2))
        if "start_q" in spec:
            # joint-space endpoints are converted to task space first
            start = kinematics.forward(model, spec["start_q"])
            goal = kinematics.forward(model, spec["goal_q"])
        else:
            start = np.asarray(spec["start"], dtype=float)
            goal = np.asarray(spec["goal"], dtype=float)
        return trajectory.lspb(start, goal, steps, blend)
    if kind == "csv":
        return trajectory.load_csv(spec["path"])
    raise ConfigError(f"unknown trajectory type {kind!r}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def solver_config_from(cfg: dict) -> mfac.SolverConfig:
    tol = cfg.get("tolerances", {})
    solver = cfg.get("solver", {})
    method = solver.get("method", "mfac")
    if method not in ("mfac", "mfapc"):
        raise ConfigError(f"unknown solver method {method!r} (mfac or mfapc)")
    horizon = int(solver.get("horizon", 1))
    if method == "mfac" and horizon != 1:
        raise ConfigError("mfac requires horizon n = 1")
    try:
        return mfac.SolverConfig(
            delta=float(tol.get("delta", 1e-10)),
            n_up=int(tol.get("n_up", 500)),
            schedule=damping.schedule_from_config(
                cfg.get("schedule", {"type": "constant", "lambda0": 0.0})
            ),
            horizon=horizon,
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def horizon_mode_from(cfg: dict) -> mfapc.HorizonMode:
    mode = cfg.get("solver", {}).get("mode", "frozen")
    try:
        return mfapc.HorizonMode(mode)
    except ValueError as exc:
        raise ConfigError(f"unknown horizon mode {mode!r}") from exc


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def cmd_fk(args) -> int:
    model = parse_model(args.model)
    y = kinematics.forward(model, _parse_floats(args.q))
    print(" ".join(_fmt(v) for v in y))
    return 0


def _write_ik_csv(path, report, m_u: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["iter", "error_norm", "lambda"] + [f"q_{i + 1}" for i in range(m_u)]
        )
        for i in range(report.iterations):
            writer.writerow(
                [i + 1, _fmt(report.error_trace[i]), _fmt(report.lambda_trace[i])]
                + [_fmt(v) for v in report.q_trace[i]]
            )


def cmd_ik(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    model = parse_model(args.model or cfg.get("model", "three-link"))
    config = solver_config_from(cfg)
    target = (
        _parse_floats(args.target)
        if args.target
        else np.asarray(cfg["target"], dtype=float)
    )
    q0 = (
        _parse_floats(args.q)
        if args.q
        else np.asarray(cfg.get("initial_q", np.zeros(model.m_u)), dtype=float)
    )
    # mfac is the n = 1 case: solve_ik is this call with one target
    report = mfapc.solve_ik_predictive(
        model, [target] * config.horizon, q0, config, horizon_mode_from(cfg)
    )

    out = args.out or cfg.get("output")
    if out:
        _write_ik_csv(out, report, model.m_u)
    print(
        f"status={report.status.value} iterations={report.iterations} "
        f"error={_fmt(report.error_trace[-1])} "
        f"q={','.join(_fmt(v) for v in report.q_final)}"
    )
    return 0 if report.converged else 1


def cmd_track(args) -> int:
    cfg = load_config(args.config)
    model = parse_model(cfg.get("model", "three-link"))
    config = solver_config_from(cfg)
    traj = parse_trajectory(cfg["trajectory"], model)
    q0 = np.asarray(cfg.get("initial_q", np.zeros(model.m_u)), dtype=float)
    y0 = cfg.get("initial_y")
    report = mfapc.receding_horizon_track(
        model,
        traj,
        q0,
        config,
        mode=horizon_mode_from(cfg),
        y0=None if y0 is None else np.asarray(y0, dtype=float),
    )
    out = args.out or cfg.get("output")
    if out:
        write_track_csv(out, report, model)
    settle = report.settling_step
    print(
        f"settling_step={settle if settle is not None else 'none'} "
        f"max_post_settling_error="
        f"{_fmt(report.max_post_settling_error) if settle is not None else 'none'}"
    )
    return 0


def write_track_csv(path, report: mfapc.TrackReport, model) -> None:
    m_y = model.m_y
    m_u = model.m_u
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["k"]
            + [f"ystar_{i + 1}" for i in range(m_y)]
            + [f"y_{i + 1}" for i in range(m_y)]
            + ["error_norm", "lambda", "inner_iterations"]
            + [f"q_{i + 1}" for i in range(m_u)]
        )
        for s in report.steps:
            writer.writerow(
                [s.k]
                + [_fmt(v) for v in s.target]
                + [_fmt(v) for v in s.output]
                + [_fmt(s.error_norm), _fmt(s.lam), s.inner_iterations]
                + [_fmt(v) for v in s.q]
            )
        settle = report.settling_step
        if settle is None:
            fh.write("# settling_step=none max_post_settling_error=none\n")
        else:
            fh.write(
                f"# settling_step={settle} "
                f"max_post_settling_error={_fmt(report.max_post_settling_error)}\n"
            )


def cmd_analyze(args) -> int:
    model = parse_model(args.model)
    q = _parse_floats(args.q)
    lams = [float(v) for v in args.lambda_sweep.split(",")]
    if any(v < 0 for v in lams):
        raise ConfigError("lambda sweep values must be non-negative")
    J = kinematics.jacobian(model, q)
    m_y = J.shape[0]
    sigmas = np.linalg.svd(J, compute_uv=False)
    rows = []
    for lam in lams:
        pole = analysis.mfac_pole_matrix(J, lam)
        gain = analysis.static_error_gain(J, lam)
        gains = np.sort(np.linalg.eigvalsh(gain))[::-1]
        poles = np.sort(np.abs(pole.eigenvalues))[::-1]
        rows.append(
            [_fmt(lam)]
            + [_fmt(s) for s in sigmas]
            + [_fmt(p) for p in poles]
            + [_fmt(g) for g in gains]
        )
    header = (
        ["lambda"]
        + [f"sigma_{i + 1}" for i in range(sigmas.size)]
        + [f"pole_{i + 1}" for i in range(m_y)]
        + [f"static_gain_{i + 1}" for i in range(m_y)]
    )
    lines = [",".join(header)] + [",".join(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikdamp", description="Damped-IK experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fk = sub.add_parser("fk", help="forward kinematics of a joint vector")
    p_fk.add_argument("--model", required=True)
    p_fk.add_argument("--q", required=True)
    p_fk.set_defaults(func=cmd_fk)

    p_ik = sub.add_parser("ik", help="solve IK for one target")
    p_ik.add_argument("--config")
    p_ik.add_argument("--model")
    p_ik.add_argument("--q")
    p_ik.add_argument("--target")
    p_ik.add_argument("--out")
    p_ik.set_defaults(func=cmd_ik)

    p_tr = sub.add_parser("track", help="receding-horizon trajectory tracking")
    p_tr.add_argument("--config", required=True)
    p_tr.add_argument("--out")
    p_tr.set_defaults(func=cmd_track)

    p_an = sub.add_parser("analyze", help="pole/gain sweep over lambda")
    p_an.add_argument("--model", required=True)
    p_an.add_argument("--q", required=True)
    p_an.add_argument("--lambda-sweep", required=True, dest="lambda_sweep")
    p_an.add_argument("--out")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
