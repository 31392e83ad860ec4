"""Desired-trajectory generators, whose parameters are a config trajectory's keys, and
horizon-window extraction."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Trajectory:
    """Ordered task-vector samples indexed by the integer time base k=1..K."""

    samples: np.ndarray  # K x M_y

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.size == 0:
            raise ValueError("trajectory must be non-empty")
        if not np.all(np.isfinite(samples)):
            raise ValueError("trajectory contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        """A copy of sample k (0-based), so no caller writes into the trajectory."""
        return self.samples[k].copy()


def helix(k_max: int = 800) -> Trajectory:
    """Helical reference: circle of radius 3 about (4, 0) rising by k/200."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k = np.arange(1, k_max + 1, dtype=float)
    return Trajectory(
        np.column_stack(
            [
                4.0 + 3.0 * np.sin(np.pi * k / 50.0),
                3.0 * np.cos(np.pi * k / 50.0),
                5.0 + k / 200.0,
            ]
        )
    )


def lspb(start, goal, steps: int, blend_fraction: float = 0.2) -> Trajectory:
    """Linear segment with parabolic blends, per coordinate.

    Parabolic acceleration over the first blend_fraction of the samples,
    constant velocity in the middle, symmetric deceleration at the end.
    Endpoints match start and goal exactly.
    """
    start = np.asarray(start, dtype=float).ravel()
    goal = np.asarray(goal, dtype=float).ravel()
    if start.shape != goal.shape:
        raise ValueError("start and goal must have the same dimension")
    if steps < 4:
        raise ValueError("need at least 4 samples")
    if not 0.0 < blend_fraction < 0.5:
        raise ValueError("blend_fraction must lie in (0, 0.5)")
    if blend_fraction * steps < 1:
        raise ValueError("blend region must cover at least one sample")

    tau = np.arange(steps, dtype=float) / (steps - 1)
    tb = blend_fraction
    v = 1.0 / (1.0 - tb)  # peak velocity for unit displacement
    s = np.empty_like(tau)
    accel = tau <= tb
    decel = tau >= 1.0 - tb
    cruise = ~accel & ~decel
    s[accel] = 0.5 * v / tb * tau[accel] ** 2
    s[cruise] = v * (tau[cruise] - 0.5 * tb)
    s[decel] = 1.0 - 0.5 * v / tb * (1.0 - tau[decel]) ** 2
    return Trajectory(start[None, :] + s[:, None] * (goal - start)[None, :])


def horizon_window(samples: Sequence, k: int, n: int) -> list:
    """Items k+1 .. k+n (1-based) of a sequence, repeating the last one past the end."""
    if not 0 <= k < len(samples):
        raise ValueError("k out of range")
    if n < 1:
        raise ValueError("horizon must be >= 1")
    return [samples[min(k + j, len(samples) - 1)] for j in range(n)]


def _write_csv(fh, header: Sequence[str], rows, footer=None) -> None:
    """The header, each row (a tuple of numbers) `%.17g` and an optional `# footer` line.

    Every CSV ikdamp writes comes from here: a float reads back bit for bit, and a count
    below 1e17 (k, iter, inner_iterations) prints as `%d` would.
    """
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    fh.write(",".join(header) + "\n")
    fh.writelines(fmt % row for row in rows)
    if footer is not None:
        fh.write(f"# {footer}\n")


def save_csv(traj: Trajectory, path) -> None:
    """Write columns: k, then the task components."""
    with open(path, "w", newline="") as fh:
        _write_csv(fh, ["k"] + [f"y{i + 1}" for i in range(traj.samples.shape[1])],
                   ((k, *row) for k, row in enumerate(traj.samples.tolist(), start=1)))


def load_csv(path: str) -> Trajectory:
    """Read the columns `save_csv` writes; the header row is optional.

    Every row must have the first row's width and numbers in every column
    after k, or a ValueError names the file and the line, which neither
    numpy nor float() would.
    """
    rows = []
    with open(path) as fh:
        reader = csv.reader(fh)
        for line in reader:
            if not line or (reader.line_num == 1 and line[0] == "k"):
                continue
            if rows and len(line) != len(rows[0]) + 1:
                raise ValueError(
                    f"{path} line {reader.line_num}: {len(line)} fields, "
                    f"the rows above have {len(rows[0]) + 1}"
                )
            try:
                rows.append([float(v) for v in line[1:]])
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    return Trajectory(np.asarray(rows, dtype=float))
