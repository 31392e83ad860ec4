import json
import math
from pathlib import Path

import numpy as np
import pytest

from ikdamp.cli import main

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

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, solver={"method": "mfapcc", "mode": "sideways"})
        rc = main(["ik", "--config", str(cfg), "--target", "3,1,14", "--q", "0.1,0.5,0.2"])
        assert rc == 2
        assert "mfapcc" in capsys.readouterr().err


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

    def test_example2_inner_budget(self, tmp_path):
        out = tmp_path / "track2.csv"
        rc = main(
            ["track", "--config", str(CONFIG_DIR / "example2.json"), "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().splitlines()[1:-1]
        inner = [int(r.split(",")[15]) for r in rows]
        assert max(inner) <= 10


class TestAnalyze:
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
