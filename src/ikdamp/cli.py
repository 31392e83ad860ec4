"""Experiment runner: fk / ik / track / analyze subcommands.

Configs are JSON, outputs are CSV with fixed 17-significant-digit float
formatting so identical configs reproduce byte-identical files.
Exit codes: 0 success/converged; 1 the solver did not converge, so `ik`
printed status=max_iterations, stalled or diverged, or a `track` error norm
is not finite (after its CSV is written); 2 usage/config error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import analysis, damping, kinematics, mfac, mfapc, trajectory
from .damping import _check_keys, _check_object, _from_config

# the top-level keys each command reads; a config object with a key its reader skips exits 2
_SOLVE_KEYS = ("model", "solver", "schedule", "tolerances", "initial_q", "output")


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def parse_model(spec) -> kinematics.KinematicModel:
    """Builtin name ('three-link', 'default-dh'), DH JSON path, or dict."""
    if isinstance(spec, dict):
        if "rows" in spec:
            return kinematics.load_dh_chain(spec)
        if spec.get("type") == "three-link":
            return _from_config(kinematics.ThreeLink, spec, "model", ConfigError, ("type",))
        raise ConfigError(f"unrecognized model spec: {spec!r}")
    name = str(spec)
    if name == "three-link":
        return kinematics.ThreeLink()
    if name == "default-dh":
        return kinematics.default_dh_chain()
    if Path(name).exists():
        return kinematics.load_dh_chain(name)
    raise ConfigError(f"unknown model {name!r} (not a builtin, not a file)")


# each type's `trajectory` function by name, looked up per call: a wrapper put in its place
# (benchmark/spans.py traces helix and lspb) is then the one called
_TRAJECTORY_TYPES = {"helix": "helix", "lspb": "lspb", "csv": "load_csv"}


def parse_trajectory(spec, model) -> trajectory.Trajectory:
    """The `trajectory` function "type" names, called with the other keys. lspb's endpoints are
    task vectors (start, goal) or joint vectors (start_q, goal_q) that forward maps to them."""
    _check_object(spec, "trajectory", ConfigError)
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _TRAJECTORY_TYPES:
        raise ConfigError(f"unknown trajectory type {kind!r}")
    what, skip, ends = f"{kind} trajectory", ("type",), {}
    if kind == "lspb":
        joint = "start_q" in spec
        for end in ("start", "goal"):
            key = end + "_q" if joint else end
            if key not in spec:
                raise ConfigError(f"missing {what} key {key!r}")
            skip += (key,)
            v = kinematics._as_vector(spec[key], model.m_u if joint else model.m_y,
                                      f"trajectory.{key}")
            ends[end] = kinematics.forward(model, v) if joint else v
    return _from_config(getattr(trajectory, _TRAJECTORY_TYPES[kind]), spec, what, ConfigError,
                        skip, ends)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _solver(method: str = "mfac", horizon: int = 1, mode: str = "frozen") -> tuple:
    """A config's "solver" object, read by `_from_config`: its horizon and `HorizonMode`."""
    if method not in ("mfac", "mfapc"):
        raise ConfigError(f"unknown solver method {method!r} (mfac or mfapc)")
    if method == "mfac" and horizon != 1:
        raise ConfigError("mfac requires horizon n = 1")
    try:
        return horizon, mfapc.HorizonMode(mode)
    except ValueError as exc:
        raise ConfigError(f"unknown horizon mode {mode!r}") from exc


def solver_config_from(cfg: dict) -> mfac.SolverConfig:
    """Config "tolerances" are `SolverConfig`'s delta and n_up; "solver", "schedule" the rest."""
    horizon, mode = _from_config(_solver, cfg.get("solver", {}), "solver", ConfigError)
    schedule = damping.schedule_from_config(cfg.get("schedule", {"type": "constant"}))
    return _from_config(mfac.SolverConfig, cfg.get("tolerances", {}), "tolerances", ConfigError,
                        given=dict(schedule=schedule, horizon=horizon, mode=mode))


def horizon_mode_from(cfg: dict) -> mfapc.HorizonMode:
    return _from_config(_solver, cfg.get("solver", {}), "solver", ConfigError)[1]


def _parse_floats(text: str, name: str) -> np.ndarray:
    """A comma-separated list; an empty or non-numeric entry exits 2 naming the option."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad {name} {text!r}: {exc}") from exc


def cmd_fk(args) -> int:
    model = parse_model(args.model)
    y = kinematics.forward(model, _parse_floats(args.q, "--q"))
    print(" ".join(_fmt(v) for v in y))
    return 0


def _output_path(args, cfg: dict) -> Optional[str]:
    """--out, else the config's "output": a non-empty path string, or None for no CSV."""
    out = args.out or cfg.get("output")
    # an integer would open a file descriptor, and "" would write nothing without a word
    if not (out is None or isinstance(out, str) and out):
        raise ConfigError(f"output must be a non-empty path string, got {out!r}")
    return out


def cmd_ik(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    _check_keys(cfg, _SOLVE_KEYS + ("target",), "ik config")
    model = parse_model(args.model or cfg.get("model", "three-link"))
    config = solver_config_from(cfg)
    out = _output_path(args, cfg)
    # the loop converts and checks the target and q0 itself
    if not (args.target or "target" in cfg):
        raise ConfigError("ik needs --target or a config 'target'")
    target = _parse_floats(args.target, "--target") if args.target else cfg["target"]
    q0 = _parse_floats(args.q, "--q") if args.q else cfg.get("initial_q", np.zeros(model.m_u))
    # mfac is the n = 1 case: solve_ik is this call with one target
    report = mfapc.solve_ik_predictive(model, [target] * config.horizon, q0, config)

    if out:
        header = ["iter", "error_norm", "lambda"] + [f"q_{i + 1}" for i in range(model.m_u)]
        with open(out, "w", newline="") as fh:
            trajectory._write_csv(fh, header, (
                (i + 1, report.error_trace[i], report.lambda_trace[i], *report.q_trace[i].tolist())
                for i in range(report.iterations)
            ))
    print(
        f"status={report.status.value} iterations={report.iterations} "
        f"error={_fmt(report.error_trace[-1])} "
        f"q={','.join(_fmt(v) for v in report.q_final)}"
    )
    return 0 if report.converged else 1


def cmd_track(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, _SOLVE_KEYS + ("trajectory", "initial_y"), "track config")
    model = parse_model(cfg.get("model", "three-link"))
    config = solver_config_from(cfg)
    if "trajectory" not in cfg:
        raise ConfigError("track config needs a 'trajectory' key")
    traj = parse_trajectory(cfg["trajectory"], model)
    out = _output_path(args, cfg)
    q0 = cfg.get("initial_q", np.zeros(model.m_u))
    report = mfapc.receding_horizon_track(model, traj, q0, config, y0=cfg.get("initial_y"))
    if out:
        write_track_csv(out, report, model)
    print(_settling(report))
    return 0 if all(math.isfinite(s.error_norm) for s in report.steps) else 1


def _settling(report: mfapc.TrackReport) -> str:
    """The settling summary that `track` prints and ends its CSV with."""
    if report.settling_step is None:
        return "settling_step=none max_post_settling_error=none"
    return (f"settling_step={report.settling_step} "
            f"max_post_settling_error={_fmt(report.max_post_settling_error)}")


def write_track_csv(path, report: mfapc.TrackReport, model) -> None:
    """The track CSV at path (benchmark/spans.py reads its size from this first argument)."""
    m_y, m_u = model.m_y, model.m_u
    header = (
        ["k"]
        + [f"ystar_{i + 1}" for i in range(m_y)]
        + [f"y_{i + 1}" for i in range(m_y)]
        + ["error_norm", "lambda", "inner_iterations"]
        + [f"q_{i + 1}" for i in range(m_u)]
    )
    with open(path, "w", newline="") as fh:
        trajectory._write_csv(fh, header, (
            (s.k, *s.target.tolist(), *s.output.tolist(), s.error_norm, s.lam,
             s.inner_iterations, *s.q.tolist())
            for s in report.steps
        ), _settling(report))


def cmd_analyze(args) -> int:
    model = parse_model(args.model)
    q = _parse_floats(args.q, "--q")
    lams = _parse_floats(args.lambda_sweep, "--lambda-sweep")
    if not all(0 <= v < np.inf for v in lams):
        raise ConfigError("lambda sweep values must be finite and non-negative")
    J = kinematics.jacobian(model, q)
    m_y = J.shape[0]
    sigmas = np.linalg.svd(J, compute_uv=False)
    full_sigma = np.linalg.svd(J)[1]  # `mfac_pole_matrix`'s SVD, taken once for every lambda
    rows = []
    for lam in lams:  # the pole matrix is the static gain, so its poles are the gains
        poles = np.sort(analysis._poles(full_sigma, J.shape, 1, lam))[::-1]
        rows.append((lam, *sigmas, *poles, *poles))
    header = (
        ["lambda"]
        + [f"sigma_{i + 1}" for i in range(sigmas.size)]
        + [f"pole_{i + 1}" for i in range(m_y)]
        + [f"static_gain_{i + 1}" for i in range(m_y)]
    )
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        trajectory._write_csv(fh, header, rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser every `main` call reads: parsing does not change it, and building it
    takes about a millisecond."""
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
