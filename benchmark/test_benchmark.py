"""Tests of the benchmark's own code: python -m pytest benchmark -q"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ikdamp import kinematics, mfac, mfapc  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > solve [1, 9] > (step [2, 4], step [5, 8] > fk [6, 7])
    parents = np.array([-1, 0, 1, 1, 3])
    starts = np.array([0.0, 1.0, 2.0, 5.0, 6.0])
    ends = np.array([10.0, 9.0, 4.0, 8.0, 7.0])
    np.testing.assert_allclose(spans.self_times(parents, starts, ends), [2, 3, 2, 2, 1])


def test_table_sums_self_time_per_name():
    tracer = spans.Tracer()
    with tracer.span("op"):
        for _ in range(3):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
    table = tracer.table()
    assert table["a"][0] == 3 and table["b"][0] == 3
    _, op_self, op_total = table["op"]
    assert op_self == pytest.approx(op_total - table["a"][2])
    assert table["a"][1] == pytest.approx(table["a"][2] - table["b"][2])


@pytest.mark.parametrize("n, q", [(5, 0.5), (19, 0.5), (20, 0.5), (40, 0.75),
                                  (50, 0.8), (99, 1 - 10 / 99), (100, 0.9), (5000, 0.9)])
def test_tail_quantile_keeps_ten_ops_above_it(n, q):
    assert run.tail_quantile(n) == pytest.approx(q)


def test_quantile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0.0, 0.5, 0.8, 0.9, 1.0):
        assert run.quantile(values, q) == pytest.approx(np.quantile(values, q))


def test_end_to_end_scales_every_time():
    phase = run.Phase()
    for latency in (0.1, 0.2, 0.3):
        phase.add(latency, workloads.Outcome(4, True, False, 0.0))
    raw, scaled = phase.end_to_end(1.0, 1.0), phase.end_to_end(1.0, 0.5)
    assert raw["op_p50_ms"] == pytest.approx(200.0)
    assert scaled["op_p50_ms"] == pytest.approx(100.0)
    assert scaled["ops_per_s"] == pytest.approx(2 * raw["ops_per_s"]) == pytest.approx(10.0)
    assert scaled["iters_per_s"] == pytest.approx(40.0)


@pytest.mark.parametrize("make", [workloads.Batch, workloads.Sweep])
def test_inputs_follow_the_seed(make):
    def draw(seed):
        w = make(seed)
        out = []
        for i in range(6):
            x = w.input(i)
            out.append(x.position if isinstance(x, kinematics.Pose) else x.q)
        return np.array(out)

    np.testing.assert_array_equal(draw(3), draw(3))
    assert not np.allclose(draw(3), draw(4))


def test_wrappers_catch_methods_and_consumer_bindings():
    arm = kinematics.ThreeLink()
    q = np.array([0.1, 0.5, -0.3])
    tracer = spans.Tracer()
    original = mfapc.build_psi
    with tracer.patched():
        arm.jacobian(q)  # outside any span: not recorded
        with tracer.span("op"):
            J = arm.jacobian(q)                 # class method
            mfapc.build_psi([J, J])             # name bound by mfapc
            mfac.jacobian(arm, q)               # bound free function over the method
    assert mfapc.build_psi is original
    table = tracer.table()
    assert table["kinematics.jacobian"][0] == 2
    assert table["mfapc.build_psi"][0] == 1
    assert set(table) == {"op", "kinematics.jacobian", "mfapc.build_psi"}


def test_solver_calls_are_traced_with_counters():
    chain = kinematics.default_dh_chain()
    goal = chain.forward_pose(np.full(6, 0.3))
    config = mfac.SolverConfig(delta=1e-9, n_up=50)
    tracer = spans.Tracer()
    with tracer.patched(), tracer.span("op"):
        report = mfac.solve_ik(chain, goal, np.full(6, 0.25), config)
    table = tracer.table()
    assert table["mfac.solve_ik"][0] == 1
    assert table["kinematics.jacobian"][0] == report.iterations - 1
    assert tracer.counters["mfac.solve_ik.iterations"] == report.iterations
    assert tracer.counters["mfac.mfac_step.dim"] == 6 * table["mfac.mfac_step"][0]


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
