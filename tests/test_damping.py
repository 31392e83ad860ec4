import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikdamp.damping import (
    CondRule,
    Constant,
    DampingError,
    DampingObservation,
    DampingSchedule,
    LookupTable,
    RatioRule,
    ThresholdRule,
    _SCHEDULE_TYPES,
    cond,
    schedule_from_config,
)
from conftest import angles, dh_rows
from ikdamp.cli import ConfigError, parse_model
from ikdamp.kinematics import DhChain, KinematicsError, Pose, ThreeLink, load_dh_chain
from ikdamp.mfac import SolverConfig, mfac_step, solve_ik_predictive
from ikdamp.mfapc import receding_horizon_track
from ikdamp.trajectory import helix


def obs(err, prev=None, c=None):
    """An observation whose singular values [c, 1] (or [1, 0] for c = inf) have cond c."""
    sigma = None if c is None else [1.0, 0.0] if c == np.inf else [c, 1.0]
    return DampingObservation(err, prev_error_norm=prev, sigma=sigma, size=2)


class TestCond:
    def test_identity(self):
        assert cond(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert cond(np.diag([2.0, 1.0])) == pytest.approx(2.0)

    def test_rank_deficient(self):
        assert cond(np.diag([1.0, 0.0])) == float("inf")

    def test_all_zero(self):
        assert cond(np.zeros((2, 2))) == float("inf")

    def test_rank_rule_is_the_steps(self):
        # eps * max(shape) * sigma_max: 1.2e-15 is above the cutoff at 2 x 2, below it at 6 x 6
        assert cond(np.diag([1.0, 1.2e-15])) == pytest.approx(1 / 1.2e-15)
        J = np.diag([1.0] * 5 + [1.2e-15])
        assert cond(J) == float("inf")
        assert mfac_step(J, np.ones(6), 0.0)[-1] == 0.0  # the step drops that direction too


class TestObservation:
    def test_cond_reads_size(self):
        # a 6 x 7 J has 6 singular values and size 7: the rank rule reads the 7
        sigma = np.array([1.0] * 5 + [1.4e-15])
        assert DampingObservation(1.0, sigma=sigma, size=6).cond == pytest.approx(1 / 1.4e-15)
        assert DampingObservation(1.0, sigma=sigma, size=7).cond == float("inf")

    def test_cond_is_the_largest_over_the_blocks(self):
        o = DampingObservation(1.0, sigma=np.array([[4.0, 1.0], [3.0, 0.5]]), size=3)
        assert o.cond == 6.0
        with pytest.raises(DampingError, match="singular values"):
            DampingObservation(1.0).cond

    @pytest.mark.parametrize("sigma", [
        [1.0, -0.5], [1.0, 2.0], [1.0, float("nan")], [float("nan"), 1.0], [float("nan")],
        [[2.0, 1.0], [1.0, 2.0]], [[2.0, 1.0, 0.5]], 1.0,
    ], ids=["negative", "increasing", "nan-last", "nan-first", "nan-only",
            "increasing-block", "more-than-size", "scalar"])
    def test_sigma_check(self, sigma):
        with pytest.raises(DampingError, match="sigma"):
            DampingObservation(1.0, sigma=sigma, size=2)

    def test_sigma_needs_a_size(self):
        with pytest.raises(DampingError, match="sigma"):
            DampingObservation(1.0, sigma=[2.0, 1.0])

    @pytest.mark.parametrize("error_norm, prev_error_norm, name", [
        (float("nan"), None, "error_norm"), (-1.0, None, "error_norm"),
        (1.0, float("nan"), "prev_error_norm"), (1.0, -1.0, "prev_error_norm"),
    ], ids=["nan", "negative", "nan-prev", "negative-prev"])
    def test_error_norms_must_be_non_negative(self, error_norm, prev_error_norm, name):
        with pytest.raises(DampingError, match=f"^{name} must be non-negative"):
            DampingObservation(error_norm, prev_error_norm)

    def test_nan_errors_reach_no_schedule(self):
        # a NaN ratio compares False, so RatioRule would take its divide branch without a word
        s = RatioRule(0.1, 2.0, 2.0)
        with pytest.raises(DampingError, match="error_norm"):
            s.next_lambda(DampingObservation(float("nan"), prev_error_norm=float("nan")))
        assert s.peek() == 0.1


class RecordingRatioRule(RatioRule):
    """A RatioRule that keeps every observation it is fed; lambda0 = 0 stays 0."""

    def __post_init__(self):
        super().__post_init__()
        self.seen = []

    def next_lambda(self, obs):
        self.seen.append(obs)
        return super().next_lambda(obs)


def assert_public_checks_pass(seen):
    """Each observation the library built unchecked passes the constructor's checks."""
    assert seen
    for o in seen:
        assert type(o.sigma) is np.ndarray and o.sigma.dtype == np.float64
        rebuilt = DampingObservation(o.error_norm, o.prev_error_norm, o.sigma, o.size)
        assert rebuilt.sigma.tobytes() == o.sigma.tobytes()
        assert (rebuilt.error_norm, rebuilt.prev_error_norm, rebuilt.size) == (
            o.error_norm, o.prev_error_norm, o.size)


class TestTrustedObservations:
    """The loops and the tracker skip the sigma check: their sigma is their own SVD's.
    Every observation they build would pass it."""

    @given(rows=dh_rows, data=st.data(), lam=st.sampled_from([0.0, 1e-3, 1.0]),
           mode=st.sampled_from(["frozen", "propagated"]))
    @settings(max_examples=80, deadline=None)
    def test_loops_on_random_chains(self, rows, data, lam, mode):
        chain = DhChain(tuple(rows))
        joint_lists = st.lists(angles, min_size=len(rows), max_size=len(rows))
        q0 = np.array(data.draw(joint_lists | st.just([0.0] * len(rows)), label="q0"))
        reached = chain.forward_pose(data.draw(joint_lists, label="q_goal"))
        # a position off the reached one, so that no solve stops before its first step
        goal = Pose(reached.position + [0.3, -0.2, 0.1], reached.rotation)
        schedule = RecordingRatioRule(lam, 2.0, 1.5)
        config = SolverConfig(n_up=6, schedule=schedule, horizon=2, mode=mode)
        solve_ik_predictive(chain, [goal, goal], q0, config)
        assert_public_checks_pass(schedule.seen)
        if mode == "propagated":
            assert all(o.sigma.shape == (2, min(6, len(rows))) for o in schedule.seen)

    @pytest.mark.parametrize("lam, q0", [
        (0.0, [0.0, 0.0, 0.0]), (0.0, [0.2, 0.6, -0.4]), (0.1, [0.0, 0.0, 0.0]),
        (0.1, [0.3, math.pi, 0.0]),
    ], ids=["lam0-singular", "lam0", "damped-singular", "damped-folded"])
    def test_single_step_tracker(self, lam, q0):
        schedule = RecordingRatioRule(lam, 2.0, 1.5)
        config = SolverConfig(n_up=1, schedule=schedule, horizon=5)
        receding_horizon_track(ThreeLink(5.0, 7.0, 7.0), helix(40), q0, config)
        assert len(schedule.seen) == 40
        assert_public_checks_pass(schedule.seen)
        if q0 == [0.0, 0.0, 0.0]:  # q2 = q3 = 0 stretches the arm: J has a zero sigma
            assert schedule.seen[0].cond == np.inf

    @pytest.mark.parametrize("error_norm, prev_error_norm, name", [
        (math.nan, None, "error_norm"), (-1.0, None, "error_norm"),
        (1.0, math.nan, "prev_error_norm"), (1.0, -0.5, "prev_error_norm"),
    ], ids=["nan", "negative", "nan-prev", "negative-prev"])
    def test_error_norms_are_still_checked(self, error_norm, prev_error_norm, name):
        with pytest.raises(DampingError, match=f"^{name} must be non-negative"):
            DampingObservation._trusted(error_norm, prev_error_norm, np.array([1.0]), 1)

    def test_trusted_stores_what_it_is_given(self):
        sigma = np.array([[3.0, 1.0], [2.0, 0.0]])
        o = DampingObservation._trusted(0.5, 0.25, sigma, 3)
        assert (o.error_norm, o.prev_error_norm, o.sigma, o.size) == (0.5, 0.25, sigma, 3)
        assert o.cond == np.inf
        assert o == DampingObservation(0.5, 0.25, sigma, 3)


class TestConstant:
    def test_always_lambda0(self):
        s = Constant(0.0)
        assert s.next_lambda(obs(5.0)) == 0.0
        assert s.next_lambda(obs(0.1)) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DampingError):
            Constant(-1.0)


class TestRatioRule:
    def test_two_step_trace(self):
        s = RatioRule(1.0, a1=2.0, a2=4.0)
        # error grew (3 vs prev 2): multiply
        assert s.next_lambda(obs(3.0, prev=2.0)) == 2.0
        # error shrank (1 vs prev 3): divide
        assert s.next_lambda(obs(1.0, prev=3.0)) == 0.5

    def test_tie_takes_divide_branch(self):
        s = RatioRule(1.0, a1=2.0, a2=2.0)
        assert s.next_lambda(obs(2.0, prev=2.0)) == 0.5

    def test_zero_previous_error_divides(self):
        s = RatioRule(1.0, a1=2.0, a2=2.0)
        assert s.next_lambda(obs(1.0, prev=0.0)) == 0.5

    def test_coefficient_constraint(self):
        with pytest.raises(DampingError):
            RatioRule(1.0, a1=0.5, a2=2.0)


class TestThresholdRule:
    def test_above_threshold_multiplies(self):
        s = ThresholdRule(2.0, a1=1.1, a2=1.02, t1=10.0)
        assert s.next_lambda(obs(12.0)) == pytest.approx(2.2)

    def test_below_threshold_divides(self):
        s = ThresholdRule(2.0, a1=1.1, a2=1.02, t1=10.0)
        assert s.next_lambda(obs(5.0)) == pytest.approx(2.0 / 1.02)

    def test_reset_on_cross(self):
        s = ThresholdRule(2.0, a1=1.1, a2=1.02, t1=10.0, reset_on_cross=True)
        s.next_lambda(obs(12.0))  # above
        s.next_lambda(obs(5.0))   # below
        # crossing back above resets to lambda0 before multiplying
        assert s.next_lambda(obs(15.0)) == pytest.approx(2.0 * 1.1)

    def test_no_reset_by_default(self):
        s = ThresholdRule(2.0, a1=1.1, a2=1.02, t1=10.0)
        s.next_lambda(obs(12.0))
        s.next_lambda(obs(5.0))
        assert s.next_lambda(obs(15.0)) == pytest.approx(2.2 / 1.02 * 1.1)

    def test_reproducible(self):
        seq = [12.0, 5.0, 15.0, 3.0, 3.0]
        a = ThresholdRule(2.0, 1.1, 1.02, 10.0)
        b = ThresholdRule(2.0, 1.1, 1.02, 10.0)
        assert [a.next_lambda(obs(e)) for e in seq] == [
            b.next_lambda(obs(e)) for e in seq
        ]


class TestLookupTable:
    TABLE = LookupTable(
        error_bins=[1.0, 10.0],
        cond_bins=[100.0, 1e6],
        table=[[0.0, 0.5], [1.0, 5.0]],
    )

    def test_zero_corner(self):
        assert self.TABLE.next_lambda(obs(0.5, c=10.0)) == 0.0

    def test_bin_selection(self):
        assert self.TABLE.next_lambda(obs(5.0, c=10.0)) == 1.0
        assert self.TABLE.next_lambda(obs(0.5, c=1e4)) == 0.5
        assert self.TABLE.next_lambda(obs(5.0, c=1e4)) == 5.0

    def test_out_of_range_clamps(self):
        assert self.TABLE.next_lambda(obs(1e9, c=float("inf"))) == 5.0

    def test_requires_cond(self):
        with pytest.raises(DampingError):
            self.TABLE.next_lambda(obs(1.0))

    def test_bins_must_ascend(self):
        with pytest.raises(DampingError):
            LookupTable([2.0, 1.0], [10.0], [[0.1], [0.2]])


class TestCondRule:
    RULE = CondRule(cond_bins=[10.0, 100.0], lambdas=[0.5, 2.0])

    def test_below_first_bin_is_zero(self):
        assert self.RULE.next_lambda(obs(1.0, c=5.0)) == 0.0

    def test_piecewise_selection(self):
        assert self.RULE.next_lambda(obs(1.0, c=10.0)) == 0.5
        assert self.RULE.next_lambda(obs(1.0, c=50.0)) == 0.5
        assert self.RULE.next_lambda(obs(1.0, c=100.0)) == 2.0
        assert self.RULE.next_lambda(obs(1.0, c=float("inf"))) == 2.0


class TestProperties:
    @given(
        errors=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=20)
    )
    @settings(max_examples=50, deadline=None)
    def test_lambda_never_negative(self, errors):
        s = ThresholdRule(2.0, 1.1, 1.02, 10.0)
        r = RatioRule(1.0, 1.5, 1.5)
        prev = None
        for e in errors:
            assert s.next_lambda(obs(e)) >= 0.0
            assert r.next_lambda(obs(e, prev=prev)) >= 0.0
            prev = e

    def test_recommended_initialization_window(self):
        # with a typical 1 m link, lambda0 between 1e-3*l^2 and 0.1*l^2
        l = 1.0
        lambda0 = 0.01 * l**2
        assert 1e-3 * l**2 <= lambda0 <= 1e-1 * l**2

    def test_negative_error_rejected(self):
        with pytest.raises(DampingError):
            DampingObservation(-1.0)


class TestConfigFactory:
    def test_threshold_shape(self):
        s = schedule_from_config(
            {"type": "threshold", "lambda0": 2, "a1": 1.1, "a2": 1.02, "t1": 10}
        )
        assert isinstance(s, ThresholdRule)
        assert s.peek() == 2.0

    def test_all_variants(self):
        assert isinstance(
            schedule_from_config({"type": "constant", "lambda0": 0}), Constant
        )
        assert isinstance(
            schedule_from_config({"type": "ratio", "lambda0": 1, "a1": 2, "a2": 2}),
            RatioRule,
        )
        assert isinstance(
            schedule_from_config(
                {
                    "type": "lookup",
                    "error_bins": [1],
                    "cond_bins": [10],
                    "table": [[0.0]],
                }
            ),
            LookupTable,
        )
        assert isinstance(
            schedule_from_config({"type": "cond", "cond_bins": [10], "lambdas": [1]}),
            CondRule,
        )

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="'a1'"):
            schedule_from_config({"type": "constant", "lambda0": 0, "a1": 2})

    def test_unknown_type(self):
        with pytest.raises(DampingError):
            schedule_from_config({"type": "nope"})


# each schedule type, fresh, with the lambda it holds before any update
SCHEDULES = {
    "constant": (lambda: Constant(0.3), 0.3),
    "ratio": (lambda: RatioRule(0.3, 1.5, 2.0), 0.3),
    "threshold": (lambda: ThresholdRule(0.3, 1.1, 1.02, 1.0, reset_on_cross=True), 0.3),
    "lookup": (lambda: LookupTable([1.0, 10.0], [100.0, 1e6], [[0.2, 0.5], [1.0, 5.0]]), 0.2),
    "cond": (lambda: CondRule([10.0, 100.0], [0.5, 2.0]), 0.0),
}


class TestPeek:
    def test_every_schedule_type_is_covered(self):
        made = {type(make()) for make, _ in SCHEDULES.values()}
        assert made == set(DampingSchedule.__subclasses__())
        # the config reader's type table names the same classes, under the same names
        assert {k: type(SCHEDULES[k][0]()) for k in SCHEDULES} == _SCHEDULE_TYPES

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    @given(
        observed=st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(1.0, 1e8)), max_size=20
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_peek_reads_the_last_lambda(self, kind, observed):
        make, lambda0 = SCHEDULES[kind]
        s = make()
        assert s.peek() == lambda0
        prev = None
        for err, c in observed:
            lam = s.next_lambda(obs(err, prev, c))
            assert s.peek() == lam
            prev = err


NAN = float("nan")


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: Constant(NAN), "lambda0"),
        (lambda: RatioRule(NAN, 1.5, 2.0), "lambda0"),
        (lambda: RatioRule(1.0, NAN, 2.0), "a1"),
        (lambda: ThresholdRule(1.0, 1.1, NAN, 1.0), "a2"),
        (lambda: ThresholdRule(1.0, 1.1, 1.02, NAN), "t1"),
        (lambda: LookupTable([1.0, NAN], [10.0], [[0.1], [0.2]]), "error_bins"),
        (lambda: LookupTable([1.0], [NAN], [[0.1]]), "cond_bins"),
        (lambda: LookupTable([1.0], [10.0], [[NAN]]), "table"),
        (lambda: CondRule([NAN], [1.0]), "cond_bins"),
        (lambda: CondRule([1.0], [NAN]), "lambdas"),
    ],
    ids=[
        "constant-lambda0", "ratio-lambda0", "ratio-a1", "threshold-a2", "threshold-t1",
        "lookup-error-bin", "lookup-cond-bin", "lookup-table", "cond-bin", "cond-lambda",
    ],
)
def test_nan_parameter_rejected(make, name):
    with pytest.raises(DampingError, match=name):
        make()


@pytest.mark.parametrize("table", [[[0.1], [0.2, 0.3]], [[0.1, 0.2], [0.3]], [[0.1, 0.2]]],
                         ids=["short-first-row", "short-last-row", "missing-row"])
def test_ragged_table_rejected_by_name(table):
    spec = {"type": "lookup", "error_bins": [1.0, 10.0], "cond_bins": [100.0, 1e6]}
    with pytest.raises(DampingError, match="table shape"):
        LookupTable(spec["error_bins"], spec["cond_bins"], table)
    with pytest.raises(DampingError, match="table shape"):
        schedule_from_config({**spec, "table": table})


# each schedule type's parameters drawn for a config, some of them ints, which the reader
# turns to floats (the rates are floats so a direct build also multiplies in floats)
number = st.one_of(st.integers(0, 100), st.floats(0.0, 100.0))
rate = st.floats(1.0, 5.0)
CONFIG_PARAMS = {
    "constant": st.fixed_dictionaries({"lambda0": number}),
    "ratio": st.fixed_dictionaries({"lambda0": number, "a1": rate, "a2": rate}),
    "threshold": st.fixed_dictionaries(
        {"lambda0": number, "a1": rate, "a2": rate, "t1": number, "reset_on_cross": st.booleans()}
    ),
    "lookup": st.just(
        {"error_bins": [1, 10.0], "cond_bins": [100.0, 1e6], "table": [[0.2, 0], [1.0, 5.0]]}
    ),
    "cond": st.just({"cond_bins": [10.0, 100], "lambdas": [0.5, 2]}),
}


class TestFromConfig:
    @pytest.mark.parametrize("kind", sorted(_SCHEDULE_TYPES))
    def test_keys_are_the_class_parameters(self, kind):
        params = {f.name for f in dataclasses.fields(_SCHEDULE_TYPES[kind]) if f.init}
        with pytest.raises(DampingError, match="'extra'") as info:
            schedule_from_config({"type": kind, "extra": 1.0})
        known = str(info.value).split("known: ")[1].split(", ")
        assert sorted(known) == sorted(params | {"type"})

    @pytest.mark.parametrize("kind", sorted(CONFIG_PARAMS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, kind, data):
        params = data.draw(CONFIG_PARAMS[kind])
        assert set(params) == {f.name for f in dataclasses.fields(_SCHEDULE_TYPES[kind]) if f.init}
        read = schedule_from_config({"type": kind, **params})
        made = _SCHEDULE_TYPES[kind](**params)
        assert type(read) is type(made)
        assert read.peek() == made.peek()
        observed = data.draw(
            st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(1.0, 1e8)), max_size=20)
        )
        prev = None
        for err, c in observed:
            assert read.next_lambda(obs(err, prev, c)) == made.next_lambda(obs(err, prev, c))
            assert read.peek() == made.peek()
            prev = err

    def test_defaulted_parameter_may_be_left_out(self):
        assert schedule_from_config({"type": "constant"}).peek() == 0.0
        rule = schedule_from_config({"type": "threshold", "lambda0": 2, "a1": 1.1, "a2": 1.02,
                                     "t1": 10})
        assert rule.reset_on_cross is False

    @pytest.mark.parametrize(
        "read, key",
        [
            (lambda: schedule_from_config({"type": "ratio", "lambda0": 1, "a1": 2}), "a2"),
            (lambda: load_dh_chain({"rows": [{"alpha": 0.0, "a": 1.0}]}), "d"),
        ],
        ids=["schedule", "dh-row"],
    )
    def test_missing_parameter_named(self, read, key):
        # ThreeLink has a default for every link length, so a three-link dict has none to miss
        with pytest.raises(ValueError, match=f"missing .* key '{key}'"):
            read()

    @pytest.mark.parametrize(
        "read, key, error",
        [
            (lambda v: schedule_from_config({"type": "constant", "lambda0": v}), "lambda0",
             DampingError),
            (lambda v: schedule_from_config({"type": "cond", "cond_bins": [10], "lambdas": [v]}),
             "lambdas", DampingError),
            (lambda v: load_dh_chain({"rows": [{"alpha": 0.0, "a": v, "d": 0.0}]}), "a",
             KinematicsError),
            (lambda v: parse_model({"type": "three-link", "l3": v}), "l3", ConfigError),
        ],
        ids=["schedule", "schedule-list-entry", "dh-row", "three-link"],
    )
    def test_null_value_named(self, read, key, error):
        with pytest.raises(error, match=f"key '{key}' must be .*, got .*None"):
            read(None)
