"""Smoke runs of the standalone scripts, loaded by path with small arguments."""
import dataclasses
import importlib.util
import re
from pathlib import Path

from ikdamp.mfac import SolveReport

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lambda_sweep(capsys):
    assert load("lambda_sweep").main(["--lambdas", "0,1", "--ramp-steps", "50"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [float(r.split()[0]) for r in rows] == [0.0, 1.0]


def test_run_example1(tmp_path, capsys):
    out = tmp_path / "track.csv"
    assert load("run_example1").main(["--steps", "40", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 42  # header + 40 rows + summary
    assert "settling_step=" in capsys.readouterr().out


def test_run_example1_never_settles(tmp_path, capsys):
    out = tmp_path / "track.csv"
    args = ["--steps", "20", "--lambda0", "5000", "--out", str(out)]
    assert load("run_example1").main(args) == 0
    printed = capsys.readouterr().out
    assert "settling_step=none" in printed
    assert "max_post_settling_error=none" in printed


def test_output_digest(capsys):
    digest = load("output_digest")
    runs = []
    for _ in range(2):
        assert digest.main(["--goals", "2"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    labels = [line.split()[0] for line in runs[0]]
    fields = [f.name for f in dataclasses.fields(SolveReport)]
    assert labels == (
        ["track/example1.csv", "track/example2.csv"]
        + [f"solve_ik/{schedule}/seed{seed}/{name}"
           for schedule in ("constant", "ratio") for seed in (501, 502) for name in fields]
        + ["dh/forward_pose", "dh/jacobian"]
    )
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in runs[0])
