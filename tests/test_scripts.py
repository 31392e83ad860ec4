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
        [f"track/{label}.csv" for label in ("example1", "example2", "example2-propagated",
                                             "example2-single-step", "example1-inner-loop",
                                             "example1-inner-reset", "example1-initial-y",
                                             "example1-cond-schedule")]
        + [f"solve_ik/{schedule}/seed{seed}/{name}"
           for schedule in ("constant", "ratio") for seed in (501, 502) for name in fields]
        + ["ik/propagated_n2", "dh/forward_pose", "dh/jacobian"]
        + ["analysis/mfapc_pole_matrix", "analysis/mfapc_pole_matrix_distinct",
           "analysis/simulate_linear_closed_loop"]
        + ["analyze/three-link.csv", "analyze/default-dh.csv", "analyze/default-dh-home.csv"]
    )
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in runs[0])


def test_source_size(capsys):
    size = load("source_size")
    source = (
        '"""Module docstring\n'
        '\n'
        'over three lines."""\n'
        'import math  # a trailing comment leaves a code line\n'
        '\n'
        '# a comment line\n'
        'def f(x):\n'
        '    """One line."""\n'
        '    return (x +\n'
        '            1)\n'
    )
    assert size.count_lines(source) == {"wc_l": 10, "code": 4, "docstring": 4, "comment": 1,
                                        "blank": 1}
    assert size.main([]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", *size.COLUMNS]
    modules = {row[0]: [int(v) for v in row[1:]] for row in rows}
    total = modules.pop("total")
    assert "kinematics.py" in modules
    for name, (wc_l, *split) in modules.items():
        assert wc_l == sum(split) == (size.DEFAULT_DIR / name).read_text().count("\n")
    assert total == [sum(column) for column in zip(*modules.values())]


def test_layer_timings(capsys):
    timings = load("layer_timings")
    assert timings.main(["--repeat", "1", "--number", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["layer", "us/call"]
    labels = [row.rsplit(None, 1)[0] for row in rows]
    assert labels == [label for label, _ in timings.layers()]
    assert labels[0] == "DhChain._walk" and labels[-5] == "mfac_step 6x6, n = 1"
    assert labels[-4:] == ["mfac_pole_matrix 3x3", "mfapc_pole_matrix 3x3, [J] * 5",
                           "simulate_linear_closed_loop 3x3, n = 5",
                           "cli.parse, example1 + example2"]
    assert all(float(row.rsplit(None, 1)[1]) > 0 for row in rows)
