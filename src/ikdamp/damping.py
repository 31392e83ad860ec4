"""Adaptive damping-factor schedules.

Each schedule is a pure rule: `next_lambda(lam, obs)` maps the scalar
damping factor a loop holds (applied as lam * I) to the one its next
damped step applies, driven by the tracking-error norm and/or the
singular values of the step's SVD of J (only `DampingObservation.cond`
turns them into a condition number). Schedules are frozen values that hold
no state: the loop holds lam, and starts it from the schedule's `lambda0`.
Their sequences are tuples of floats, so every schedule compares and hashes.

A `DampingObservation` built by its constructor checks sigma (rows of at
most size values, descending to >= 0). The library's own loops, the
frozen and propagated ones in `mfac` and the single-step tracker in
`mfapc`, build theirs with `DampingObservation._trusted`, which skips that
check: their sigma is the step's own LAPACK SVD, which returns it so or
raises. The tests rebuild every such observation through the constructor.
"""
from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from operator import ge
from typing import Optional, Sequence

import numpy as np


class DampingError(ValueError):
    """Contract violation in a damping schedule."""


@dataclass
class DampingObservation:
    """Per-iteration inputs to a schedule.

    error_norm / prev_error_norm are ||y* - y||_2 at the current and previous
    iterate; sigma, the descending singular values of J from the step's own SVD
    (one row per block in propagated mode); size, J's larger dimension, which
    the rank rule reads: a 6 x 7 J has 6 values of sigma but size 7.
    """

    error_norm: float
    prev_error_norm: Optional[float] = None
    sigma: Optional[np.ndarray] = None
    size: int = 0

    def __post_init__(self):
        self._check_norms()
        if self.sigma is not None:
            s = self.sigma = np.asarray(self.sigma, dtype=float)
            rows = [s.tolist()] if s.ndim == 1 else s.tolist()
            # each row descends to a value >= 0; a NaN fails a comparison
            if not (s.ndim in (1, 2) and s.shape[-1] <= self.size
                    and all(all(map(ge, [np.inf, *r], [*r, 0.0])) for r in rows)):
                raise DampingError("sigma must be rows of at most size non-increasing values >= 0")

    def _check_norms(self):
        # written so that a NaN, which compares False, fails each check
        if not self.error_norm >= 0:
            raise DampingError(f"error_norm must be non-negative, got {self.error_norm}")
        if not (self.prev_error_norm is None or self.prev_error_norm >= 0):
            raise DampingError(f"prev_error_norm must be non-negative, got {self.prev_error_norm}")

    @classmethod
    def _trusted(cls, error_norm, prev_error_norm, sigma: np.ndarray, size: int):
        """An observation of sigma from the library's own SVD of a J whose larger
        dimension is size: LAPACK returns it as float64, descending and >= 0, or raises
        LinAlgError. So only the error norms are checked; sigma and size are stored."""
        obs = object.__new__(cls)
        obs.error_norm, obs.prev_error_norm, obs.sigma, obs.size = (
            error_norm, prev_error_norm, sigma, size)
        obs._check_norms()
        return obs

    @property
    def cond(self) -> float:
        """sigma_max / sigma_min by numpy's rank rule, the largest over the rows of sigma."""
        if self.sigma is None:
            raise DampingError("this schedule needs the singular values of J")
        return max(_cond_of(s, self.size) for s in np.atleast_2d(self.sigma))


_EPS = float(np.finfo(float).eps)


def _rank_cutoff(s_max: float, size: int) -> float:
    """numpy's rank rule: a sigma at or below it is zero; size is the larger dimension."""
    return _EPS * size * s_max


def _cond_of(s, size: int) -> float:
    """sigma_max / sigma_min of descending singular values s, +inf at or below `_rank_cutoff`."""
    if s.size == 0 or s[-1] <= _rank_cutoff(s[0], size):
        return float("inf")
    return float(s[0] / s[-1])


def cond(J) -> float:
    """Condition number sigma_max / sigma_min, +inf when rank deficient."""
    J = np.asarray(J, dtype=float)
    return _cond_of(np.linalg.svd(J, compute_uv=False), max(J.shape))


class DampingSchedule:
    """Base class: next_lambda(lam, obs) is the damping factor that follows lam after obs."""

    lambda0: float  # the factor a loop starts from

    def next_lambda(self, lam: float, obs: DampingObservation) -> float:
        raise NotImplementedError


def _factor(value, what: str = "lam", error: type = ValueError) -> float:
    """A damping factor (lam, lambda0, a table entry) as a float; a NaN, comparing False, fails,
    and so does a number beyond float range, which may compare below inf: float() of an int
    overflows, and of a Decimal gives inf."""
    if 0 <= value < np.inf:
        try:
            lam = float(value)
        except OverflowError:
            lam = np.inf
        if lam < np.inf:
            return lam
    raise error(f"{what} must be finite and non-negative")


def _check_rates(lambda0: float, a1: float = 1.0, a2: float = 1.0) -> None:
    _factor(lambda0, "lambda0", DampingError)
    # written so that a NaN, which compares False, fails it
    if not (1 <= a1 < np.inf and 1 <= a2 < np.inf):
        raise DampingError("a1 and a2 must be finite and >= 1")


def _ascending(bins: Sequence[float], name: str) -> tuple:
    """The thresholds as a tuple of floats, checked strictly ascending and free of NaN."""
    bins = tuple(float(b) for b in bins)
    if np.isnan(bins).any() or not np.all(np.diff(bins) > 0):
        raise DampingError(f"{name} must be strictly ascending numbers, got {bins}")
    return bins


@dataclass(frozen=True)
class Constant(DampingSchedule):
    lambda0: float = 0.0

    def __post_init__(self):
        _check_rates(self.lambda0)

    def next_lambda(self, lam: float, obs: DampingObservation) -> float:
        return self.lambda0


@dataclass(frozen=True)
class RatioRule(DampingSchedule):
    """Multiply by a1 when the error ratio exceeds 1, else divide by a2."""

    lambda0: float
    a1: float
    a2: float

    def __post_init__(self):
        _check_rates(self.lambda0, self.a1, self.a2)

    def next_lambda(self, lam: float, obs: DampingObservation) -> float:
        prev = obs.prev_error_norm
        # missing/zero previous error: ratio treated as <= 1 (divide branch)
        if prev is not None and prev > 0 and obs.error_norm / prev > 1:
            return lam * self.a1
        return lam / self.a2


@dataclass(frozen=True)
class ThresholdRule(DampingSchedule):
    """Multiply by a1 while the error exceeds t1, else divide by a2.

    With reset_on_cross, an error above t1 after a previous error at or
    below it restarts from lambda0 before the multiplicative update.
    """

    lambda0: float
    a1: float
    a2: float
    t1: float
    reset_on_cross: bool = False

    def __post_init__(self):
        _check_rates(self.lambda0, self.a1, self.a2)
        if not self.t1 >= 0:
            raise DampingError("t1 must be non-negative")

    def next_lambda(self, lam: float, obs: DampingObservation) -> float:
        if obs.error_norm <= self.t1:
            return lam / self.a2
        prev = obs.prev_error_norm
        if self.reset_on_cross and prev is not None and prev <= self.t1:
            lam = self.lambda0
        return lam * self.a1


def _bin_index(thresholds: Sequence[float], value: float) -> int:
    """Index of the bin [prev, t_i] containing value; clamps past the end."""
    idx = int(np.searchsorted(thresholds, value, side="left"))
    return min(idx, len(thresholds) - 1)


@dataclass(frozen=True)
class LookupTable(DampingSchedule):
    """Two-way lookup over (error bin, condition-number bin); starts from table[0][0]."""

    error_bins: Sequence[float]
    cond_bins: Sequence[float]
    table: Sequence[Sequence[float]]

    def __post_init__(self):
        object.__setattr__(self, "error_bins", _ascending(self.error_bins, "error_bins"))
        object.__setattr__(self, "cond_bins", _ascending(self.cond_bins, "cond_bins"))
        shape = (len(self.error_bins), len(self.cond_bins))
        if len(self.table) != shape[0] or any(np.shape(row) != shape[1:] for row in self.table):
            raise DampingError(f"table shape must be (error bins) x (cond bins) = {shape}")
        object.__setattr__(self, "table", tuple(
            tuple(_factor(v, "table entries", DampingError) for v in row) for row in self.table))

    @property
    def lambda0(self) -> float:
        return self.table[0][0]

    def next_lambda(self, lam: float, obs: DampingObservation) -> float:
        row = _bin_index(self.error_bins, obs.error_norm)
        col = _bin_index(self.cond_bins, obs.cond)
        return self.table[row][col]


@dataclass(frozen=True)
class CondRule(DampingSchedule):
    """Piecewise-constant in the condition number; 0 below the first bin, where it starts."""

    cond_bins: Sequence[float]
    lambdas: Sequence[float]
    lambda0 = 0.0  # a class constant, not a field: no config key sets it

    def __post_init__(self):
        object.__setattr__(self, "cond_bins", _ascending(self.cond_bins, "cond_bins"))
        object.__setattr__(self, "lambdas", tuple(
            _factor(v, "lambdas", DampingError) for v in self.lambdas))
        if len(self.lambdas) != len(self.cond_bins):
            raise DampingError("need one lambda per condition threshold")

    def next_lambda(self, lam: float, obs: DampingObservation) -> float:
        # number of thresholds <= cond, at most len(cond_bins) == len(lambdas); 0 is below the first
        idx = int(np.searchsorted(self.cond_bins, obs.cond, side="right"))
        return 0.0 if idx == 0 else self.lambdas[idx - 1]


def _check_object(spec, what: str, error: type = ValueError) -> None:
    """Reject a config section that is not a JSON object, naming the section."""
    if not isinstance(spec, dict):
        raise error(f"{what} must be a JSON object, got {spec!r}")


def _check_keys(spec: dict, keys: tuple, what: str, error: type = ValueError) -> None:
    """Reject a config section that is not an object, or holds a key its reader does not read."""
    _check_object(spec, what, error)
    unknown = [k for k in spec if k not in keys]
    if unknown:
        raise error(f"unknown {what} key(s) {unknown}; known: {', '.join(keys)}")


# per annotation (a string in every ikdamp module): a value's JSON types and what one is called
_JSON_TYPES = {"float": ((int, float), "a number in float range"),
               "int": ((int, float), "a whole number in int64 range"),
               "bool": ((bool,), "a boolean"), "str": ((str,), "a string"),
               "dict": ((dict,), "an object")}
_CASTS = {"float": float, "int": int}
_FLOAT_OVERFLOW = 2**1024 - 2**970  # float() of an int this large or larger raises OverflowError
_INT64 = 2**63  # an int parameter takes what numpy's int64, its sizes and indices, holds
_signature = functools.lru_cache(maxsize=64)(inspect.signature)  # each callable's, read once


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value is the annotation's (a whole one that an int64 holds for int, an int
    that a float holds for float), or a list of them."""
    if annotation.startswith("Sequence["):
        return type(value) is list and all(_fits(v, annotation[9:-1]) for v in value)
    return type(value) in _JSON_TYPES[annotation][0] and (
        annotation != "int" or (type(value) is int or value.is_integer())
        and -_INT64 <= value < _INT64) and (
        annotation != "float" or type(value) is float or abs(value) < _FLOAT_OVERFLOW)


def _from_config(fn, spec: dict, what: str, error: type = ValueError, skip: tuple = (),
                 given: Optional[dict] = None):
    """fn called with a config object's keys as its keyword arguments: the one config reader.

    The keys are fn's parameters less those in given (passed as is), and skip (not passed);
    one with a default may be left out. A value must fit its parameter's annotation, a number
    is passed as the float or int it names, and a wrong key or value raises error naming it.
    """
    args = dict(given or {})
    params = [p for p in _signature(fn).parameters.values() if p.name not in args]
    _check_keys(spec, skip + tuple(p.name for p in params), what, error)
    for p in params:
        if p.name in spec:
            value, annotation = spec[p.name], p.annotation
            if not _fits(value, annotation):
                kind = _JSON_TYPES[annotation][1] if annotation in _JSON_TYPES else annotation
                raise error(f"{what} key {p.name!r} must be {kind}, got {value!r}")
            args[p.name] = _CASTS[annotation](value) if annotation in _CASTS else value
        elif p.default is p.empty:
            raise error(f"missing {what} key {p.name!r}")
    return fn(**args)


_SCHEDULE_TYPES = dict(constant=Constant, ratio=RatioRule, threshold=ThresholdRule,
                       lookup=LookupTable, cond=CondRule)


def schedule_from_config(spec: dict) -> DampingSchedule:
    """Build a schedule from a JSON config fragment: its "type" and its class's parameters."""
    _check_object(spec, "schedule", DampingError)
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _SCHEDULE_TYPES:
        raise DampingError(f"unknown schedule type: {kind!r}")
    return _from_config(_SCHEDULE_TYPES[kind], spec, f"{kind} schedule", DampingError, ("type",))
