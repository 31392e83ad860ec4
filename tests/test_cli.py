import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikdamp import kinematics, mfac, mfapc, trajectory
from ikdamp.analysis import mfac_pole_matrix
from ikdamp.cli import (
    ConfigError,
    _fmt,
    _settling,
    load_config,
    main,
    parse_model,
    parse_trajectory,
    solver_config_from,
    write_track_csv,
)
from ikdamp.kinematics import ThreeLink, default_dh_chain, load_dh_chain
from ikdamp.mfac import SolveReport, SolveStatus
from ikdamp.mfapc import TrackReport, TrackStep

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, **overrides):
    cfg = {
        "model": "three-link",
        "solver": {"method": "mfac", "horizon": 1},
        "schedule": {"type": "constant", "lambda0": 0.01},
        "tolerances": {"delta": 1e-10, "n_up": 500},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestFk:
    def test_zero_configuration(self, capsys):
        assert main(["fk", "--model", "three-link", "--q", "0,0,0"]) == 0
        assert capsys.readouterr().out.strip() == "0 0 19"

    def test_elbow_out(self, capsys):
        assert main(["fk", "--model", "three-link", "--q", "0,1.5707963,0"]) == 0
        vals = [float(v) for v in capsys.readouterr().out.split()]
        np.testing.assert_allclose(vals, [14, 0, 5], atol=1e-6)

    def test_missing_q_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fk", "--model", "three-link"])
        assert exc.value.code == 2

    def test_empty_entry_names_the_option(self, capsys):
        assert main(["fk", "--model", "three-link", "--q", "0.3,,0.7,-0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "bad --q '0.3,,0.7,-0.5': could not convert string to float: ''" in err

    @pytest.mark.parametrize("command", ["fk", "ik"])
    def test_non_finite_dh_row_exits_2(self, tmp_path, capsys, command):
        doc = json.loads((CONFIG_DIR / "default_dh.json").read_text())
        doc["rows"][-1]["alpha"] = math.nan
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))  # written as the JSON literal NaN
        args = [command, "--model", str(path), "--q", "0.1,0.2,0.3,0.4,0.5,0.6"]
        if command == "ik":
            args += ["--target", "0.5,0.1,0.4,0,0,0"]
        assert main(args) == 2
        assert "DH parameters must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fk", "ik"])
    @pytest.mark.parametrize("where, key", [("row", "theta_ofset"), ("document", "name")])
    def test_unknown_dh_key_exits_2(self, tmp_path, capsys, command, where, key):
        doc = json.loads((CONFIG_DIR / "default_dh.json").read_text())
        (doc["rows"][-1] if where == "row" else doc)[key] = 1.0
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        args = [command, "--model", str(path), "--q", "0.1,0.2,0.3,0.4,0.5,0.6"]
        if command == "ik":
            args += ["--target", "0.5,0.1,0.4,0,0,0"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unknown DH {where} key(s) [{key!r}]" in err


class TestIk:
    def test_reachable_target_converges(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(
            [
                "ik",
                "--config",
                str(cfg),
                "--target",
                "3.0,1.0,14.0",
                "--q",
                "0.1,0.5,0.2",
                "--out",
                str(tmp_path / "trace.csv"),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,error_norm,lambda,q_1,q_2,q_3"
        assert len(lines) > 1

    def test_unreachable_target_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, tolerances={"delta": 1e-10, "n_up": 50})
        rc = main(
            [
                "ik",
                "--config",
                str(cfg),
                "--target",
                "20,0,5",
                "--q",
                "0.1,0.5,0.2",
                "--out",
                str(tmp_path / "trace.csv"),
            ]
        )
        assert rc == 1
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 51

    def test_stalled_solve_exits_1(self, tmp_path, capsys):
        # a tolerance below the error's rounding floor: the steps vanish before it is met
        cfg = write_config(tmp_path, tolerances={"delta": 1e-16, "n_up": 500})
        rc = main(["ik", "--config", str(cfg), "--target", "3,1,14", "--q", "0.1,0.5,0.2"])
        assert rc == 1
        assert capsys.readouterr().out.startswith("status=stalled ")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_error_exits_1_not_2(self, tmp_path, capsys):
        # two links of 1e308 m: the pose, so the error, is past the largest float
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"rows": [{"alpha": 0, "a": 1e308, "d": 0}] * 2}))
        rc = main(["ik", "--model", str(model), "--target", "0,0,0,0,0,0", "--q", "0,0"])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out.startswith("status=diverged iterations=1 error=inf q=0,0")
        assert out.err == ""

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_step_exits_1_with_q_unmoved(self, monkeypatch, capsys, bad):
        step = mfac.mfac_step
        monkeypatch.setattr(mfac, "mfac_step", lambda J, e, lam: np.full_like(step(J, e, lam), bad))
        rc = main(["ik", "--model", "three-link", "--target", "3,1,14", "--q", "0.1,0.5,0.2"])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out.startswith("status=diverged iterations=1 ")
        assert out.out.rstrip().endswith(f"q={_fmt(0.1)},{_fmt(0.5)},{_fmt(0.2)}")
        assert out.err == ""

    def test_invalid_n_up_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, tolerances={"delta": 1e-10, "n_up": 0})
        rc = main(["ik", "--config", str(cfg), "--target", "3,1,14", "--q", "0,0.5,0"])
        assert rc == 2

    def test_mfapc_method(self, tmp_path):
        cfg = write_config(
            tmp_path,
            solver={"method": "mfapc", "horizon": 2, "mode": "frozen"},
            schedule={"type": "constant", "lambda0": 0.0},
        )
        rc = main(["ik", "--config", str(cfg), "--target", "3,1,14", "--q", "0.1,0.5,0.2"])
        assert rc == 0

    @pytest.mark.parametrize(
        "horizon, n_up", [(1, 500), (2, 1)], ids=["horizon1", "n_up1"]
    )
    def test_propagated_without_effect_exits_2(self, tmp_path, capsys, horizon, n_up):
        cfg = write_config(
            tmp_path,
            solver={"method": "mfapc", "horizon": horizon, "mode": "propagated"},
            tolerances={"delta": 1e-10, "n_up": n_up},
        )
        rc = main(["ik", "--config", str(cfg), "--target", "3,1,14", "--q", "0.1,0.5,0.2"])
        assert rc == 2
        assert "propagated" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--target", "3,,1,14"), ("--q", "0.1,0.5,")])
    def test_empty_entry_names_the_option(self, capsys, option, value):
        args = {"--target": "3,1,14", "--q": "0.1,0.5,0.2", option: value}
        rc = main(["ik", "--model", "three-link", *(x for kv in args.items() for x in kv)])
        assert rc == 2
        assert f"bad {option} {value!r}" in capsys.readouterr().err

    def test_non_finite_target_exits_2(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["ik", "--model", "three-link", "--target", "nan,1,14"])
        assert rc == 2
        assert "target contains non-finite entries" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trajectory={"type": "helix"})
        rc = main(["ik", "--config", str(cfg), "--target", "3,1,14", "--q", "0.1,0.5,0.2"])
        assert rc == 2
        assert "'trajectory'" in capsys.readouterr().err

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"method": "mfapcc", "mode": "sideways"})
        rc = main(["ik", "--config", str(cfg), "--target", "3,1,14", "--q", "0.1,0.5,0.2"])
        assert rc == 2
        assert "mfapcc" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [False, True], ids=["no-config", "config"])
    def test_missing_target_is_named(self, tmp_path, capsys, config):
        argv = ["ik", "--q", "0.1,0.5,0.2"] + (["--config", str(write_config(tmp_path))]
                                               if config else ["--model", "three-link"])
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: ik needs --target or a config 'target'\n"


class TestTrack:
    def test_example1_config(self, tmp_path, capsys):
        out = tmp_path / "track.csv"
        rc = main(
            ["track", "--config", str(CONFIG_DIR / "example1.json"), "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 802  # header + 800 rows + summary
        assert lines[-1].startswith("# settling_step=")
        settle = int(lines[-1].split("settling_step=")[1].split()[0])
        assert 1 <= settle <= 100

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_tracked_error_exits_1_after_the_csv(self, tmp_path, capsys):
        # two links of 1e308 m: every pose, so every tracked error, is past the largest float
        model = tmp_path / "huge.json"
        model.write_text(json.dumps({"rows": [{"alpha": 0, "a": 1e308, "d": 0}] * 2}))
        out = tmp_path / "track.csv"
        cfg = write_config(
            tmp_path, model=str(model), tolerances={"delta": 1e-10, "n_up": 5},
            trajectory={"type": "lspb", "start": [0, 0, 0, 0, 0, 0],
                        "goal": [1, 0, 0, 0, 0, 0], "steps": 5},
            initial_q=[0, 0], output=str(out),
        )
        assert main(["track", "--config", str(cfg)]) == 1
        assert capsys.readouterr().out == "settling_step=none max_post_settling_error=none\n"
        lines = out.read_text().splitlines()
        rows = list(csv.DictReader(lines[:-1]))
        assert [r["error_norm"] for r in rows] == ["inf"] * 5
        assert lines[-1] == "# settling_step=none max_post_settling_error=none"

    def test_constant_trajectory_zero_error(self, tmp_path):
        from ikdamp.kinematics import ThreeLink, forward
        from ikdamp.trajectory import Trajectory, save_csv

        q0 = [0.3, 0.8, -0.4]
        y = forward(ThreeLink(), q0)
        traj_path = tmp_path / "const.csv"
        save_csv(Trajectory(np.tile(y, (10, 1))), traj_path)
        cfg = write_config(
            tmp_path,
            solver={"method": "mfapc", "horizon": 2, "mode": "frozen"},
            schedule={"type": "constant", "lambda0": 0.5},
            tolerances={"delta": 1e-10, "n_up": 1},
            trajectory={"type": "csv", "path": str(traj_path)},
            initial_q=q0,
            output=str(tmp_path / "out.csv"),
        )
        assert main(["track", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:-1]
        errs = [float(r.split(",")[7]) for r in rows]
        assert max(errs) <= 1e-12

    def test_propagated_single_step_is_usage_error(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "example1.json").read_text())
        cfg["solver"]["mode"] = "propagated"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["track", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        assert "propagated" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_propagated_at_horizon_1_is_usage_error(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "example2.json").read_text())
        cfg["solver"] = {"method": "mfapc", "horizon": 1, "mode": "propagated"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["track", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        assert "propagated" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_non_finite_trajectory_exits_2(self, tmp_path, capsys):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_text("k,y1,y2,y3\n1,3,1,14\n2,nan,1,14\n3,3,1,14\n")
        cfg = write_config(
            tmp_path,
            tolerances={"delta": 1e-10, "n_up": 1},
            trajectory={"type": "csv", "path": str(traj_path)},
            output=str(tmp_path / "out.csv"),
        )
        assert main(["track", "--config", str(cfg)]) == 2
        assert "trajectory contains non-finite samples" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_ragged_trajectory_exits_2(self, tmp_path, capsys):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_text("k,y1,y2,y3\n1,3,1,14\n2,3,1\n3,3,1,14\n")
        cfg = write_config(
            tmp_path,
            tolerances={"delta": 1e-10, "n_up": 1},
            trajectory={"type": "csv", "path": str(traj_path)},
            output=str(tmp_path / "out.csv"),
        )
        assert main(["track", "--config", str(cfg)]) == 2
        assert f"{traj_path} line 3:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_non_numeric_trajectory_entry_exits_2(self, tmp_path, capsys):
        traj_path = tmp_path / "traj.csv"
        traj_path.write_text("k,y1,y2,y3\n1,3,1,14\n2,x,4,5\n")
        cfg = write_config(
            tmp_path,
            tolerances={"delta": 1e-10, "n_up": 1},
            trajectory={"type": "csv", "path": str(traj_path)},
            output=str(tmp_path / "out.csv"),
        )
        assert main(["track", "--config", str(cfg)]) == 2
        assert f"{traj_path} line 3: could not convert" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "example, change",
        [
            ("example1", {"solver": {"method": "mfapcc", "horizon": 5}}),
            ("example2", {"initial_y": [0.5, 0.0, 0.5, 0.0, 0.0, 0.0]}),
        ],
        ids=["unknown-method", "inert-initial-y"],
    )
    def test_ignored_option_is_usage_error(self, tmp_path, capsys, example, change):
        cfg = json.loads((CONFIG_DIR / f"{example}.json").read_text())
        cfg.update(change)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["track", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "example, path",
        [
            ("example1", "tolerance"),
            ("example1", "outptu"),
            ("example1", "trajectory.kmax"),
            ("example1", "model.l4"),
            ("example1", "solver.horizn"),
            ("example1", "tolerances.nup"),
            ("example2", "schedule.a1"),
            ("example2", "trajectory.start"),
        ],
    )
    def test_unknown_key_exits_2(self, tmp_path, capsys, example, path):
        cfg = json.loads((CONFIG_DIR / f"{example}.json").read_text())
        *sections, key = path.split(".")
        spec = cfg
        for section in sections:
            spec = spec[section]
        spec[key] = 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_missing_trajectory_is_named(self, tmp_path, capsys, example):
        cfg = json.loads((CONFIG_DIR / f"{example}.json").read_text())
        del cfg["trajectory"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == "error: track config needs a 'trajectory' key\n"
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_key_in_model_rows_exits_2(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "example2.json").read_text())
        cfg["model"] = json.loads((CONFIG_DIR / "default_dh.json").read_text())
        cfg["model"]["rows"][0]["theta_ofset"] = 1.0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 2
        assert "'theta_ofset'" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "initial_y",
        [[5.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0]],
        ids=["scalar", "short", "long", "nan"],
    )
    def test_bad_initial_y_exits_2(self, tmp_path, capsys, initial_y):
        cfg = json.loads((CONFIG_DIR / "example1.json").read_text())
        cfg["initial_y"] = initial_y
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))  # NaN is written as the JSON literal NaN
        assert main(["track", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 2
        assert "error: y0 " in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_example2_inner_budget(self, tmp_path):
        out = tmp_path / "track2.csv"
        rc = main(
            ["track", "--config", str(CONFIG_DIR / "example2.json"), "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().splitlines()[1:-1]
        inner = [int(r.split(",")[15]) for r in rows]
        assert max(inner) <= 10

    def test_example2_inner_loop_stalls(self, tmp_path, monkeypatch):
        # n = 2 stacks the next waypoint's error, which no q nulls while the two differ:
        # each inner solve stops when its committed step stops moving q, not at the cap
        statuses = []
        solve = mfapc.solve_ik_predictive

        def recording_solve(*args):
            report = solve(*args)
            statuses.append(report.status)
            return report

        monkeypatch.setattr(mfapc, "solve_ik_predictive", recording_solve)
        out = tmp_path / "track2.csv"
        assert main(["track", "--config", str(CONFIG_DIR / "example2.json"),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = list(csv.DictReader(lines[:-1]))
        assert len(statuses) == len(rows) == 200
        assert SolveStatus.MAX_ITERATIONS not in statuses
        assert statuses.count(SolveStatus.STALLED) >= 199
        assert sum(int(r["inner_iterations"]) for r in rows) <= 850  # 796; 1993 at the cap
        assert max(float(r["error_norm"]) for r in rows) <= 1e-8
        assert lines[-1].startswith("# settling_step=1 ")
        assert {r["lambda"] for r in rows} == {"0"}  # the constant schedule's 0, as before


@pytest.mark.parametrize("command", ["ik", "track"])
@pytest.mark.parametrize(
    "section, spec, name",
    [
        ("tolerances", {"delta": math.nan, "n_up": 50}, "delta"),
        ("schedule", {"type": "constant", "lambda0": math.nan}, "lambda0"),
        ("schedule", {"type": "ratio", "lambda0": 1, "a1": math.nan, "a2": 2}, "a1"),
        ("schedule", {"type": "threshold", "lambda0": 2, "a1": 1.1, "a2": 1.02,
                      "t1": math.nan}, "t1"),
        ("schedule", {"type": "lookup", "error_bins": [1, math.nan], "cond_bins": [10],
                      "table": [[0.1], [0.2]]}, "error_bins"),
        ("schedule", {"type": "lookup", "error_bins": [1], "cond_bins": [10],
                      "table": [[math.nan]]}, "table"),
        ("schedule", {"type": "cond", "cond_bins": [math.nan], "lambdas": [1]}, "cond_bins"),
        ("schedule", {"type": "cond", "cond_bins": [10], "lambdas": [math.nan]}, "lambdas"),
        ("tolerances", {"delta": math.inf, "n_up": 50}, "delta"),
        ("schedule", {"type": "constant", "lambda0": math.inf}, "lambda0"),
        ("schedule", {"type": "ratio", "lambda0": 0, "a1": math.inf, "a2": 2}, "a1"),
        ("schedule", {"type": "lookup", "error_bins": [1], "cond_bins": [10],
                      "table": [[math.inf]]}, "table"),
        ("schedule", {"type": "cond", "cond_bins": [10], "lambdas": [math.inf]}, "lambdas"),
        ("model", {"type": "three-link", "l1": math.inf}, "link lengths"),
    ],
    ids=["delta", "lambda0", "a1", "t1", "bin", "table", "cond-bin", "cond-lambda",
         "inf-delta", "inf-lambda0", "inf-a1", "inf-table", "inf-cond-lambda", "inf-l1"],
)
def test_nan_parameter_exits_2(tmp_path, capsys, command, section, spec, name):
    # the parameter is named, rather than the run ending on its symptoms
    cfg = json.loads((CONFIG_DIR / "example1.json").read_text())
    cfg[section] = spec
    if command == "ik":
        del cfg["trajectory"], cfg["initial_y"]
        cfg["solver"] = {"method": "mfac", "horizon": 1}
        cfg["target"] = [3.0, 1.0, 14.0]
    config = tmp_path / "config.json"
    # NaN and inf are written as the JSON literals NaN and Infinity; 1e999 also reads as inf
    config.write_text(json.dumps(cfg))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def run_edited(tmp_path, example, edit):
    """Exit code of `track` on configs/<example>.json after edit(cfg); no CSV is left on failure."""
    cfg = json.loads((CONFIG_DIR / f"{example}.json").read_text())
    edit(cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))  # NaN is written as the JSON literal NaN
    rc = main(["track", "--config", str(config), "--out", str(tmp_path / "t.csv")])
    assert rc == 0 or not (tmp_path / "t.csv").exists()
    return rc


def test_never_settling_track_reports_none(tmp_path, capsys):
    def edit(cfg):
        cfg["schedule"]["lambda0"] = 5000
        cfg["trajectory"]["k_max"] = 20

    assert run_edited(tmp_path, "example1", edit) == 0
    summary = "settling_step=none max_post_settling_error=none"
    assert capsys.readouterr().out.strip() == summary
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert len(lines) == 22  # header + 20 rows + summary
    assert lines[-1] == f"# {summary}"


COUNT_KEYS = [
    ("example1", "tolerances", "n_up"),
    ("example1", "solver", "horizon"),
    ("example1", "trajectory", "k_max"),
    ("example2", "trajectory", "steps"),
]


@pytest.mark.parametrize("value", [1.9, math.nan, None, [5]], ids=["1.9", "nan", "null", "list"])
@pytest.mark.parametrize("example, section, key", COUNT_KEYS, ids=[k for *_, k in COUNT_KEYS])
def test_count_must_be_whole_number(tmp_path, capsys, example, section, key, value):
    # 1.9 is not truncated to 1, and NaN or null is named rather than crashing int()
    assert run_edited(tmp_path, example, lambda cfg: cfg[section].update({key: value})) == 2
    assert f"{section} key {key!r} must be a whole number in int64 range, got " in (
        capsys.readouterr().err)


@pytest.mark.parametrize("value", [10**400, 1e300], ids=["int", "float"])
def test_whole_number_beyond_int64_is_named(tmp_path, capsys, value):
    # numpy refused to allocate k_max samples, and only its own message was printed
    assert run_edited(tmp_path, "example1", lambda cfg: cfg["trajectory"].update(k_max=value)) == 2
    assert "trajectory key 'k_max' must be a whole number in int64 range, got " in (
        capsys.readouterr().err)


# example2's lspb in joint space, and an lspb between two task vectors of its chain
JOINT_LSPB = {"type": "lspb", "start_q": [-0.7853981633974483, 0, 0, 0, -1.5707963267948966, 0],
              "goal_q": [0.7853981633974483, 0, 0, 0, -1.5707963267948966, 0], "steps": 10}
TASK_LSPB = {"type": "lspb", "start": [0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
             "goal": [0.4, 0.1, 0.5, 0.0, 0.0, 0.0], "steps": 10}


@pytest.mark.parametrize("example, section, spec, message", [
    ("example1", "tolerances", {"delta": 10**400, "n_up": 1},
     "tolerances key 'delta' must be a number"),
    ("example1", "schedule",
     {"type": "threshold", "lambda0": 2, "a1": -10**400, "a2": 1.02, "t1": 10},
     "threshold schedule key 'a1' must be a number"),
    ("example1", "schedule",
     {"type": "lookup", "error_bins": [1], "cond_bins": [10], "table": [[10**400]]},
     "lookup schedule key 'table' must be Sequence[Sequence[float]]"),
    ("example2", "trajectory", {**TASK_LSPB, "start": [10**400, 0, 0, 0, 0, 0]},
     "trajectory.start must be a vector of numbers"),
    ("example1", "initial_q", [10**400, 0, 0], "q0 must be a vector of numbers"),
], ids=["delta", "threshold-a1", "lookup-entry", "lspb-start", "initial_q"])
def test_integer_beyond_float_range_is_named(tmp_path, capsys, example, section, spec, message):
    # float() of such an int raises OverflowError: the key is named, not a traceback printed
    assert run_edited(tmp_path, example, lambda cfg: cfg.update({section: spec})) == 2
    assert message in capsys.readouterr().err


def without(spec: dict, key: str) -> dict:
    return {k: v for k, v in spec.items() if k != key}


@pytest.mark.parametrize("spec, message", [
    (without(JOINT_LSPB, "steps"), "missing lspb trajectory key 'steps'"),
    (without(TASK_LSPB, "start"), "missing lspb trajectory key 'start'"),
    (without(TASK_LSPB, "goal"), "missing lspb trajectory key 'goal'"),
    (without(JOINT_LSPB, "goal_q"), "missing lspb trajectory key 'goal_q'"),
    ({"type": "csv"}, "missing csv trajectory key 'path'"),
    ({**JOINT_LSPB, "start": [0.5] * 6}, "unknown lspb trajectory key(s) ['start']"),
], ids=["steps", "start", "goal", "goal_q", "path", "start-and-start_q"])
def test_trajectory_key_is_named(tmp_path, capsys, spec, message):
    # the missing keys printed only the key, as "error: 'steps'"; the last pins that the
    # joint endpoints, which go in as start and goal, do not hide a "start" beside them
    assert run_edited(tmp_path, "example2", lambda cfg: cfg.update(trajectory=spec)) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("key, value, message", [
    ("start", [0.5] * 5, "trajectory.start must have length 6, got (5,)"),
    ("goal", [0.4, math.nan, 0.5, 0.0, 0.0, 0.0], "trajectory.goal contains non-finite entries"),
    ("start_q", [0.0] * 7, "trajectory.start_q must have length 6, got (7,)"),
    ("goal_q", [0.0, 0.0, math.nan, 0.0, 0.0, 0.0],
     "trajectory.goal_q contains non-finite entries"),
], ids=["short-start", "nan-goal", "long-start_q", "nan-goal_q"])
def test_bad_lspb_endpoint_is_named(tmp_path, capsys, key, value, message):
    spec = {**(JOINT_LSPB if key.endswith("_q") else TASK_LSPB), key: value}
    assert run_edited(tmp_path, "example2", lambda cfg: cfg.update(trajectory=spec)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_joint_lspb_is_the_lspb_of_its_poses():
    chain = default_dh_chain()
    poses = {end: kinematics.forward(chain, JOINT_LSPB[end + "_q"]).tolist()
             for end in ("start", "goal")}
    joint = parse_trajectory(JOINT_LSPB, chain)
    task = parse_trajectory({"type": "lspb", "steps": 10, **poses}, chain)
    assert joint.samples.tobytes() == task.samples.tobytes()


def test_trajectory_function_is_looked_up_when_called(monkeypatch):
    # a wrapper put in place of `trajectory.helix`, as the benchmark's tracer puts one, is called
    helix, calls = trajectory.helix, []

    @functools.wraps(helix)
    def traced(*args, **kwargs):
        calls.append(kwargs)
        return helix(*args, **kwargs)

    monkeypatch.setattr(trajectory, "helix", traced)
    assert len(parse_trajectory({"type": "helix", "k_max": 5.0}, ThreeLink())) == 5
    assert len(parse_trajectory({"type": "helix"}, ThreeLink())) == 800
    assert calls == [{"k_max": 5}, {}] and type(calls[0]["k_max"]) is int


@pytest.mark.parametrize(
    "example, section, key, value",
    [
        ("example1", "schedule", "lambda0", None),
        ("example1", "schedule", "reset_on_cross", 0),
        ("example1", "tolerances", "delta", None),
        ("example1", "tolerances", "delta", "1e-10"),
        ("example1", "model", "l1", None),
        ("example1", "model", "l2", [7]),
        ("example2", "trajectory", "blend_fraction", None),
        ("example2", "schedule", "lambda0", True),
    ],
    ids=["null-lambda0", "int-reset", "null-delta", "string-delta", "null-l1", "list-l2",
         "null-blend", "bool-lambda0"],
)
def test_wrong_type_exits_2(tmp_path, capsys, example, section, key, value):
    assert run_edited(tmp_path, example, lambda cfg: cfg[section].update({key: value})) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, section, value", [
    (command, section, value) for command in ("ik", "track")
    for section, value in [("tolerances", 5), ("solver", 3), ("schedule", "constant"),
                           ("trajectory", [1])]
    if (command, section) != ("ik", "trajectory")  # ik reads no trajectory
])
def test_non_object_section_exits_2(tmp_path, capsys, command, section, value):
    cfg = json.loads((CONFIG_DIR / "example1.json").read_text())
    cfg[section] = value
    if command == "ik":
        del cfg["trajectory"], cfg["initial_y"]
        cfg["target"] = [3.0, 1.0, 14.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert f"{section} must be a JSON object, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ik", "track"])
def test_unknown_horizon_mode_exits_2(tmp_path, capsys, command):
    # a known method, so the mode check is the one that fails
    cfg = json.loads((CONFIG_DIR / "example1.json").read_text())
    cfg["solver"] = {"method": "mfapc", "horizon": 5, "mode": "sideways"}
    if command == "ik":
        del cfg["trajectory"], cfg["initial_y"]
        cfg["target"] = [3.0, 1.0, 14.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert "unknown horizon mode 'sideways'" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("section, key, value", [(None, "output", 1), (None, "output", ""),
                                                 ("trajectory", "path", 1)])
def test_path_that_is_no_file_name_exits_2(tmp_path, capsys, section, key, value):
    # an integer path would open that file descriptor: writing to 1 closes stdout
    cfg = json.loads((CONFIG_DIR / "example1.json").read_text())
    if section:
        cfg[section] = {"type": "csv", key: value}
    else:
        cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["track", "--config", str(path)]) == 2
    kind = f"csv trajectory key {key!r} must be a string" if section else (
        f"{key} must be a non-empty path string")
    assert f"{kind}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config .*No such file"),
    ("{", "cannot read config .*Expecting property name"),
    (json.dumps({"solver": {"method": "mfac", "horizon": 2}}), "mfac requires horizon n = 1"),
    (json.dumps({"model": {"type": "five-link"}}), "unrecognized model spec"),
], ids=["missing-file", "bad-json", "mfac-horizon", "model-spec"])
def test_input_checks_name_the_fault(tmp_path, content, message):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ConfigError, match=message):
        cfg = load_config(path)
        solver_config_from(cfg)
        parse_model(cfg["model"])


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_loads(path):
    """Every shipped config reads through the reader that `ikdamp` uses for it."""
    cfg = json.loads(path.read_text())
    if "rows" in cfg:
        chain = load_dh_chain(cfg)
        assert [dataclasses.asdict(row) for row in chain.rows] == cfg["rows"]
        return
    model = parse_model(cfg["model"])
    if isinstance(cfg["model"], dict):
        assert model == ThreeLink(**{k: v for k, v in cfg["model"].items() if k != "type"})
    config = solver_config_from(cfg)
    for key, value in cfg["schedule"].items():  # example1 sets reset_on_cross to false
        assert key == "type" or getattr(config.schedule, key) == value
    assert (config.delta, config.n_up) == (cfg["tolerances"]["delta"], cfg["tolerances"]["n_up"])
    assert config.horizon == cfg["solver"]["horizon"]
    assert config.mode.value == cfg["solver"]["mode"]
    traj = parse_trajectory(cfg["trajectory"], model)
    assert len(traj) == cfg["trajectory"].get("k_max", cfg["trajectory"].get("steps"))


def csv_writer_track_csv(report, m_y: int, m_u: int) -> bytes:
    """The track CSV as csv.writer wrote it, with `_fmt` of each float: the reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
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
    buf.write(f"# {_settling(report)}\n")
    return buf.getvalue().encode()


# any float, with NaN, ±inf, ±0, subnormals, the extremes and inexact decimals drawn more often
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e-300,
               1.7976931348623157e308, 0.1, 1 / 3]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
LAMBDAS = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(0, 10**6))


@st.composite
def track_reports(draw):
    m_y, m_u = draw(st.integers(1, 6)), draw(st.integers(1, 7))

    def vector(size):
        return np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)))

    steps = [
        TrackStep(k=k, target=vector(m_y), output=vector(m_y), error_norm=draw(FLOATS),
                  lam=draw(LAMBDAS), inner_iterations=draw(st.integers(1, 500)), q=vector(m_u))
        for k in range(1, draw(st.integers(0, 4)) + 1)
    ]
    settled = draw(st.booleans())
    report = TrackReport(steps, draw(st.integers(1, 10**4)) if settled else None,
                         draw(FLOATS) if settled else None)
    return report, m_y, m_u


class TestTrackCsv:
    @given(track_reports())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_csv_writer(self, drawn):
        report, m_y, m_u = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "track.csv"
            write_track_csv(path, report, SimpleNamespace(m_y=m_y, m_u=m_u))
            assert path.read_bytes() == csv_writer_track_csv(report, m_y, m_u)


def csv_writer_ik_csv(report, m_u: int) -> bytes:
    """The ik CSV as csv.writer wrote it, with `_fmt` of each float: the reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter", "error_norm", "lambda"] + [f"q_{i + 1}" for i in range(m_u)])
    for i in range(report.iterations):
        writer.writerow(
            [i + 1, _fmt(report.error_trace[i]), _fmt(report.lambda_trace[i])]
            + [_fmt(v) for v in report.q_trace[i]]
        )
    return buf.getvalue().encode()


@st.composite
def solve_reports(draw, m_u):
    iterations = draw(st.integers(1, 5))
    q_trace = [np.array(draw(st.lists(FLOATS, min_size=m_u, max_size=m_u)))
               for _ in range(iterations)]
    return SolveReport(
        q_final=q_trace[-1], status=draw(st.sampled_from(SolveStatus)), iterations=iterations,
        error_trace=draw(st.lists(FLOATS, min_size=iterations, max_size=iterations)),
        lambda_trace=draw(st.lists(LAMBDAS, min_size=iterations, max_size=iterations)),
        q_trace=q_trace,
    )


class TestIkCsv:
    @given(data=st.data(), model=st.sampled_from([("three-link", 3), ("default-dh", 6)]))
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_csv_writer(self, data, model):
        """`ikdamp ik --out` writes each report of the loop as csv.writer wrote it."""
        name, m_u = model
        report = data.draw(solve_reports(m_u), label="report")
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(mfapc, "solve_ik_predictive", return_value=report), \
                contextlib.redirect_stdout(io.StringIO()):
            path = Path(tmp) / "ik.csv"
            rc = main(["ik", "--model", name, "--target", "1,2,3", "--out", str(path)])
            assert rc == (0 if report.converged else 1)
            assert path.read_bytes() == csv_writer_ik_csv(report, m_u)


class TestAnalyze:
    def test_stdout_and_out_write_the_same_bytes(self, tmp_path, capsysbinary):
        args = ["analyze", "--model", "default-dh", "--q", "0.3,-0.4,0.5,0.2,-0.6,0.1",
                "--lambda-sweep", "0,1e-20,0.01,10"]
        assert main(args) == 0
        printed = capsysbinary.readouterr().out
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert capsysbinary.readouterr().out == b""
        assert (tmp_path / "a.csv").read_bytes() == printed
        assert printed.count(b"\n") == 5

    def test_two_svds_per_sweep(self, monkeypatch, capsys):
        # one for the sigma columns, one full SVD whose sigma gives every lambda's poles
        calls = {"svd": 0, "eigvals": 0, "eigvalsh": 0}

        def counted(name, f):
            def call(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        args = ["analyze", "--model", "default-dh", "--q", "0.3,-0.4,0.5,0.2,-0.6,0.1",
                "--lambda-sweep", "0,1e-6,0.01,1,10"]
        assert main(args) == 0
        assert calls == {"svd": 2, "eigvals": 0, "eigvalsh": 0}
        rows = capsys.readouterr().out.splitlines()[1:]
        monkeypatch.undo()
        J = kinematics.jacobian(default_dh_chain(), [0.3, -0.4, 0.5, 0.2, -0.6, 0.1])
        for row, lam in zip(rows, (0.0, 1e-6, 0.01, 1.0, 10.0)):  # each row is lambda's own
            poles = np.sort(mfac_pole_matrix(J, lam).eigenvalues)[::-1]
            assert row.split(",")[7:] == ["%.17g" % p for p in (*poles, *poles)]

    @pytest.mark.parametrize("sweep", ["0,abc", "0,,1", "", "0.1,"])
    def test_bad_lambda_sweep_names_the_option(self, capsys, sweep):
        rc = main(["analyze", "--model", "three-link", "--q", "0.3,0.7,-0.5",
                   "--lambda-sweep", sweep])
        assert rc == 2
        assert f"bad --lambda-sweep {sweep!r}" in capsys.readouterr().err

    def test_lambda_zero_row(self, capsys):
        rc = main(
            [
                "analyze",
                "--model",
                "three-link",
                "--q",
                "0.3,0.7,-0.5",
                "--lambda-sweep",
                "0",
            ]
        )
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        poles = [float(v) for v in row[4:7]]
        gains = [float(v) for v in row[7:10]]
        assert max(abs(p) for p in poles) <= 1e-10
        assert max(abs(g) for g in gains) <= 1e-12

    def test_gain_monotonicity(self, capsys):
        rc = main(
            [
                "analyze",
                "--model",
                "three-link",
                "--q",
                "0.3,0.7,-0.5",
                "--lambda-sweep",
                "0.1,1,10",
            ]
        )
        assert rc == 0
        rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
        top_gains = [float(r[7]) for r in rows]
        assert top_gains[0] < top_gains[1] < top_gains[2]

    def test_singular_pose_svd_fallback(self, capsys):
        rc = main(
            [
                "analyze",
                "--model",
                "three-link",
                "--q",
                "0,0,0",
                "--lambda-sweep",
                "0",
            ]
        )
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        sigmas = [float(v) for v in row[1:4]]
        assert min(sigmas) < 1e-12

    def test_three_joint_dh_chain(self, tmp_path, capsys):
        # a 6 x 3 Jacobian: three directions of the pose error lie outside its range
        rows = [
            {"alpha": math.pi / 2, "a": 0.0, "d": 1.0, "theta_offset": 0.0},
            {"alpha": 0.0, "a": 2.0, "d": 0.0, "theta_offset": 0.0},
            {"alpha": 0.0, "a": 1.5, "d": 0.0, "theta_offset": 0.0},
        ]
        model = tmp_path / "arm3.json"
        model.write_text(json.dumps({"rows": rows}))
        rc = main(
            ["analyze", "--model", str(model), "--q", "0.3,0.7,-0.5",
             "--lambda-sweep", "0,1"]
        )
        assert rc == 0
        header, *lines = capsys.readouterr().out.splitlines()
        header = header.split(",")
        assert sum(h.startswith("sigma_") for h in header) == 3
        for line in lines:
            row = dict(zip(header, map(float, line.split(","))))
            assert len(row) == len(header) == len(line.split(","))
            poles = [row[f"pole_{i}"] for i in range(1, 7)]
            assert poles[:3] == pytest.approx([1.0, 1.0, 1.0])


class TestDeterminism:
    def test_byte_identical_track_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert (
                main(
                    [
                        "track",
                        "--config",
                        str(CONFIG_DIR / "example1.json"),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()


def _paths(node, prefix=()):
    """The path of every key and list item in a JSON document, parents before children."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix + (key,)
            yield from _paths(child, prefix + (key,))


# numbers stay small so that a count (k_max, steps, n_up, horizon) keeps a run short;
# strings hold no "/", so an output path stays in the run's own directory
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(-50, 50),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e-300]),
    st.text(st.characters(exclude_characters="/"), max_size=6),
)
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=7),
    st.dictionaries(st.text(max_size=6), _JSON_SCALARS, max_size=3),
)
# the shipped configs' trajectories shortened, so that one run takes milliseconds
_SHORT_TRAJECTORY = {"example1": {"k_max": 20}, "example2": {"steps": 10}}


@given(data=st.data(), example=st.sampled_from(sorted(_SHORT_TRAJECTORY)))
@settings(max_examples=150, deadline=None)
def test_mutated_config_exits_cleanly(data, example):
    """Any one value replaced, or any one key deleted: `track` exits 0, 1 or 2 and never raises."""
    cfg = json.loads((CONFIG_DIR / f"{example}.json").read_text())
    cfg["trajectory"].update(_SHORT_TRAJECTORY[example])
    path = data.draw(st.sampled_from(list(_paths(cfg))), label="path")
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if isinstance(node, dict) and data.draw(st.booleans(), label="delete"):
        del node[last]
    else:
        node[last] = data.draw(_JSON_VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("config.json").write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in a diverging run
            assert main(["track", "--config", "config.json"]) in (0, 1, 2)
