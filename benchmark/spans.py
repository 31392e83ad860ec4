"""In-memory spans around ikdamp's public functions, and their self times.

The tracer wraps functions from outside the library. A function can be
reached in two ways, and both are patched: as a class method
(`DhChain.jacobian`, each schedule's `next_lambda`, ...) and through the
name a consumer module bound at import time (`mfapc.build_psi`,
`analysis.mfac_step`, ...). Calls a module makes to its own helpers
through names that are not patched stay inside the caller's self time.

Spans are recorded only inside an open span, so the benchmark's own
input generation and output checks, which run between ops, leave no
trace. A span opened directly inside a span of the same name is merged
into it, so a free function that only forwards to a patched method
(`kinematics.jacobian(model, q)` -> `model.jacobian(q)`) counts once.
"""
from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.counters: Dict[str, float] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.current)
        self.ends.append(0.0)
        self.current = idx
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.current = self.parents[idx]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Wrap every point in `patch_points` for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in patch_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """`fn` recording a span `name`; `count(tracer, args, result)` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cur = self.current
            if cur < 0 or self.names[self.name_ids[cur]] == name:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name_ids, dtype=np.int32),
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.starts, dtype=np.float64),
            np.frombuffer(self.ends, dtype=np.float64),
        )

    def table(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total self seconds, total seconds)."""
        name_ids, parents, starts, ends = self.arrays()
        own = self_times(parents, starts, ends)
        calls = np.bincount(name_ids, minlength=len(self.names))
        self_s = np.bincount(name_ids, weights=own, minlength=len(self.names))
        total_s = np.bincount(name_ids, weights=ends - starts, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        """Write every span: name index, parent index (-1 for a root), start, end."""
        name_ids, parents, starts, ends = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_ids,
                 parent=parents, start=starts, end=ends)


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so children of one
    parent never overlap and their durations add up.
    """
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents)
    covered = np.zeros_like(dur)
    child = parents >= 0
    np.add.at(covered, parents[child], dur[child])
    return dur - covered


def _count_solve_ik(tracer, args, report):
    tracer.count("mfac.solve_ik.iterations", report.iterations)
    tracer.count("mfac.solve_ik.converged", report.converged)


def _count_predictive(tracer, args, report):
    tracer.count("mfapc.solve_ik_predictive.iterations", report.iterations)


def _count_step(tracer, args, dq):
    tracer.count("mfac.mfac_step.dim", len(dq))


def _count_csv(tracer, args, _):
    tracer.count("cli.write_track_csv.bytes", os.path.getsize(args[0]))


def patch_points():
    """(owner, attribute, span name, counter) for every patched function."""
    from ikdamp import analysis, cli, damping, kinematics, mfac, mfapc, trajectory

    methods = [
        (kinematics.ThreeLink, "forward", "kinematics.forward", None),
        (kinematics.ThreeLink, "jacobian", "kinematics.jacobian", None),
        (kinematics.DhChain, "forward", "kinematics.forward", None),
        (kinematics.DhChain, "forward_pose", "kinematics.forward_pose", None),
        (kinematics.DhChain, "jacobian", "kinematics.jacobian", None),
    ] + [
        (cls, "next_lambda", "damping.next_lambda", None)
        for cls in damping.DampingSchedule.__subclasses__()
        if "next_lambda" in vars(cls)
    ]
    bound = [
        (mfac, "jacobian", "kinematics.jacobian", None),
        (mfac, "cond", "damping.cond", None),
        (mfac, "task_error", "mfac.task_error", None),
        (mfac, "mfac_step", "mfac.mfac_step", _count_step),
        (mfac, "solve_ik", "mfac.solve_ik", _count_solve_ik),
        (mfapc, "jacobian", "kinematics.jacobian", None),
        (mfapc, "forward", "kinematics.forward", None),
        (mfapc, "cond", "damping.cond", None),
        (mfapc, "mfac_step", "mfac.mfac_step", _count_step),
        (mfapc, "task_error", "mfac.task_error", None),
        (mfapc, "build_psi", "mfapc.build_psi", None),
        (mfapc, "horizon_window", "trajectory.horizon_window", None),
        (mfapc, "solve_ik_predictive", "mfapc.solve_ik_predictive", _count_predictive),
        (mfapc, "receding_horizon_track", "mfapc.receding_horizon_track", None),
        (analysis, "mfac_step", "mfac.mfac_step", _count_step),
        (analysis, "build_psi", "mfapc.build_psi", None),
        (analysis, "mfac_pole_matrix", "analysis.mfac_pole_matrix", None),
        (analysis, "static_error_gain", "analysis.static_error_gain", None),
        (analysis, "mfapc_pole_matrix", "analysis.mfapc_pole_matrix", None),
        (analysis, "simulate_linear_closed_loop", "analysis.simulate_linear_closed_loop", None),
        (cli, "write_track_csv", "cli.write_track_csv", _count_csv),
        (trajectory, "helix", "trajectory.generate", None),
        (trajectory, "lspb", "trajectory.generate", None),
    ] + [
        (cli, attr, "cli.parse", None)
        for attr in ("load_config", "parse_model", "solver_config_from",
                     "parse_trajectory", "horizon_mode_from")
    ]
    return methods + bound
