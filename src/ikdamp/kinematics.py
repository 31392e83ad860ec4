"""Manipulator models, forward kinematics, Jacobians and pose errors.

Two model families are provided: a closed-form three-link arm (3 joint
angles -> Cartesian position) and a generic serial chain described by
classic Denavit-Hartenberg rows (joint angles -> full 6-DOF pose).
Models are frozen values that compare and hash by their parameters. Only a
`DhChain` holds hidden state, its last walk of the rows (`_frames`): one
solver iterate's error and Jacobian read the same frames, so it walks once,
not twice. The three-link arm takes its trigonometry afresh on each call;
keeping it bought no measured speed.

Elementwise work on a handful of scalars (pose errors, the log map, the
three-link trigonometry) runs on Python floats: they round as numpy's
elementwise ufuncs do, neither fuses a multiply-add, and numpy's per-call
cost on a 3-vector is several times the arithmetic. Products stay in
numpy (the walk's `dot` chain, R_d R^T), as BLAS fixes their bits. The
square numpy takes of an array is a product, so its float form is x * x,
never x ** 2: Python's ** 2, like numpy's on a scalar, is libm pow, which
need not round as the product does.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .damping import _from_config


class KinematicsError(ValueError):
    """Contract violation in a kinematics operation."""


ROTATION_TOL = 1e-9
_EYE4 = np.eye(4)  # the base frame of every DH walk, copied in, never written
# a 3-vector taken at (1, 2, 0, 1) holds a_j at entries 0-2 and a_k at entries 1-3 of
# the components (a x b)_i = a_j b_k - a_k b_j, i = 0, 1, 2: one product forms all three
_CROSS = np.array([1, 2, 0, 1])


def _as_vector(q, length: int, name: str = "q") -> np.ndarray:
    try:
        q = np.asarray(q, dtype=float).ravel()
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. a JSON object, an int >= 2**1024
        raise KinematicsError(f"{name} must be a vector of numbers: {exc}") from exc
    if q.shape != (length,):
        raise KinematicsError(f"{name} must have length {length}, got {q.shape}")
    # a Python loop over a few floats costs less than numpy's reduction setup
    if not all(map(math.isfinite, q.tolist())):
        raise KinematicsError(f"{name} contains non-finite entries")
    return q


def check_rotation(R) -> np.ndarray:
    """Validate a 3x3 rotation matrix (orthonormal, det +1, each to ROTATION_TOL)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise KinematicsError(f"rotation must be 3x3, got {R.shape}")
    # fail closed: a NaN comparison is False, so NaN entries fail both tests
    if not (np.max(np.abs(R.T @ R - np.eye(3))) <= ROTATION_TOL):
        raise KinematicsError("rotation matrix is not orthonormal")
    if not (abs(np.linalg.det(R) - 1.0) <= ROTATION_TOL):
        raise KinematicsError("rotation matrix determinant is not +1")
    return R


@dataclass(frozen=True)
class Pose:
    """End-effector position (meters) and orientation (rotation matrix)."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vector(self.position, 3, "position"))
        object.__setattr__(self, "rotation", check_rotation(self.rotation))

    @classmethod
    def _trusted(cls, position: np.ndarray, rotation: np.ndarray) -> "Pose":
        """A Pose from a finite 3-vector and a rotation by construction, unchecked."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "position", position)
        object.__setattr__(pose, "rotation", rotation)
        return pose


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def euler_zyx_from_rotation(R) -> np.ndarray:
    """Extract intrinsic Z-Y-X Euler angles (alpha, beta, gamma) from R.

    R = rot_z(alpha) @ rot_y(beta) @ rot_x(gamma). The convention is a
    reporting choice only; error arithmetic works on rotation matrices.
    """
    R = np.asarray(R, dtype=float)
    beta = math.atan2(-R[2, 0], math.hypot(R[0, 0], R[1, 0]))
    if abs(math.cos(beta)) < 1e-12:
        # gimbal lock: fold gamma into alpha
        alpha = math.atan2(-R[0, 1], R[1, 1])
        gamma = 0.0
    else:
        alpha = math.atan2(R[1, 0], R[0, 0])
        gamma = math.atan2(R[2, 1], R[2, 2])
    return np.array([alpha, beta, gamma])


def rotation_from_euler_zyx(angles) -> np.ndarray:
    a, b, g = np.asarray(angles, dtype=float).ravel()
    return rot_z(a) @ rot_y(b) @ rot_x(g)


def axis_angle_to_rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix from a unit axis and an angle."""
    axis = np.asarray(axis, dtype=float).ravel()
    if axis.shape != (3,):
        raise KinematicsError("axis must be a 3-vector")
    if not abs(np.linalg.norm(axis) - 1.0) <= 1e-9:  # both checks fail a NaN, which compares False
        raise KinematicsError("axis must be a unit vector")
    if not abs(angle) < np.inf:
        raise KinematicsError("angle must be finite")
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _log_map(D) -> tuple:
    """The angle-axis vector of a 3x3 relative rotation D as three floats.

    The equivalent angle is theta = arccos((trace(D) - 1)/2). Near
    theta = 0 the error is taken as zero; near theta = pi the axis is
    recovered from the diagonal of D (the off-diagonal numerator vanishes).
    The generic case runs on the Python floats of D: they round as numpy's
    elementwise ufuncs do, and a 3-vector's ufunc calls cost several times more.
    """
    (d00, d01, d02), (d10, d11, d12), (d20, d21, d22) = D.tolist()
    # the value goes first in max and min, so a NaN is passed on, not clamped
    cos_theta = min(max((d00 + d11 + d22 - 1.0) / 2.0, -1.0), 1.0)
    theta = math.acos(cos_theta)
    if theta < 1e-9:
        return 0.0, 0.0, 0.0
    if abs(theta - math.pi) < 1e-6:
        # D ~ 2*k k^T - I: largest diagonal picks the dominant axis component
        diag = np.clip((np.diag(D) + 1.0) / 2.0, 0.0, None)
        i = int(np.argmax(diag))
        k = np.zeros(3)
        k[i] = math.sqrt(diag[i])
        for j in range(3):
            if j != i:
                k[j] = D[i, j] / (2.0 * k[i])
        k /= np.linalg.norm(k)
        return tuple((k * theta).tolist())
    c = 2.0 * math.sin(theta)
    return (d21 - d12) / c * theta, (d02 - d20) / c * theta, (d10 - d01) / c * theta


def orientation_error(desired, current) -> np.ndarray:
    """Angle-axis error between two rotation matrices, both validated; see `_log_map`."""
    return np.array(_log_map(check_rotation(desired) @ check_rotation(current).T))


def _pose_errors(targets, position, rotation) -> list:
    """The 6 error floats of each target Pose from the pose (position, rotation), in one list.

    Each is the position difference, then `_log_map` of target.rotation @ rotation.T,
    whose product stays in numpy: BLAS fixes its bits.
    """
    px, py, pz = position.tolist()
    rotation_t = rotation.T
    out = []
    for t in targets:
        tx, ty, tz = t.position.tolist()
        out += (tx - px, ty - py, tz - pz)
        out += _log_map(t.rotation.dot(rotation_t))
    return out


def pose_error(desired: Pose, current: Pose) -> np.ndarray:
    """6-vector task error: position difference, then angle-axis error."""
    # each Pose validated its rotation when it was built
    return np.array(_pose_errors([desired], current.position, current.rotation))


class KinematicModel:
    """Base interface: joint vector -> task vector and Jacobian."""

    m_u: int
    m_y: int

    def forward(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _target(self, sample) -> np.ndarray:
        """A sample as this model's target: a finite m_y-vector (a DhChain's is a Pose)."""
        if isinstance(sample, Pose):
            raise KinematicsError("Pose targets need a DhChain model")
        return _as_vector(sample, self.m_y, "target")

    def _targets(self, samples, n: int = 1):
        """The samples' targets, the last repeated n - 1 more times so that each horizon
        window of n is a slice: one array for a position model, so each window is a view.
        An (N, m_y) float64 array, such as `Trajectory.samples`, is checked in one pass."""
        if (type(samples) is np.ndarray and samples.dtype == np.float64
                and samples.ndim == 2 and samples.shape[1] == self.m_y and len(samples)):
            if not np.isfinite(samples).all():
                raise KinematicsError("target contains non-finite entries")
            return np.concatenate([samples] + [samples[-1:]] * (n - 1))
        targets = [self._target(s) for s in samples]
        return np.array(targets + targets[-1:] * (n - 1))

    def _errors(self, targets, q, y=None) -> np.ndarray:
        """Stacked errors of `_target`s from the output y, by default forward(q)."""
        return np.subtract(targets, self.forward(q) if y is None else y).ravel()


def _three_link_trig(q) -> tuple:
    """(cos q1, sin q1, sin q2, cos q2, sin(q2 + q3), cos(q2 + q3)) of a checked q."""
    q1, q2, q3 = q.tolist()
    return (math.cos(q1), math.sin(q1), math.sin(q2), math.cos(q2),
            math.sin(q2 + q3), math.cos(q2 + q3))


@dataclass(frozen=True)
class ThreeLink(KinematicModel):
    """Three-link arm with closed-form position kinematics.

    Joint 1 rotates the arm plane about the base z axis; joints 2 and 3
    are in-plane. Output is the Cartesian tip position (x, y, z).
    """

    l1: float = 5.0
    l2: float = 7.0
    l3: float = 7.0

    m_u = 3
    m_y = 3

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.l1, self.l2, self.l3)):
            raise KinematicsError("link lengths must be finite and strictly positive")

    def forward(self, q) -> np.ndarray:
        c1, s1, s2, c2, s23, c23 = _three_link_trig(_as_vector(q, 3))
        r = self.l2 * s2 + self.l3 * s23
        z = self.l1 + self.l2 * c2 + self.l3 * c23
        return np.array([r * c1, r * s1, z])

    def jacobian(self, q) -> np.ndarray:
        c1, s1, s2, c2, s23, c23 = _three_link_trig(_as_vector(q, 3))
        r = self.l2 * s2 + self.l3 * s23
        dr = self.l2 * c2 + self.l3 * c23
        return np.array(
            [
                [-r * s1, dr * c1, self.l3 * c23 * c1],
                [r * c1, dr * s1, self.l3 * c23 * s1],
                [0.0, -r, -self.l3 * s23],
            ]
        )


@dataclass(frozen=True)
class DhRow:
    alpha: float  # link twist, radians
    a: float      # link length, meters
    d: float      # link offset, meters
    theta_offset: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.alpha, self.a, self.d, self.theta_offset)):
            raise KinematicsError(f"DH parameters must be finite, got {self}")
        # the twist is constant, so every walk reads its cosine and sine from here
        object.__setattr__(self, "_cos_sin_alpha", (math.cos(self.alpha), math.sin(self.alpha)))

    def _entries(self, q: float) -> list:
        """The 16 row-major entries of the classic DH transform Rz(theta) Tz(d) Tx(a) Rx(alpha)."""
        th = q + self.theta_offset
        ct, st = math.cos(th), math.sin(th)
        ca, sa = self._cos_sin_alpha
        return [ct, -st * ca, st * sa, self.a * ct,
                st, ct * ca, -ct * sa, self.a * st,
                0.0, sa, ca, self.d,
                0.0, 0.0, 0.0, 1.0]


@dataclass(frozen=True)
class DhChain(KinematicModel):
    """Serial revolute chain from classic Denavit-Hartenberg rows.

    Task vector is (x, y, z, alpha, beta, gamma) with Z-Y-X Euler angles;
    error arithmetic goes through `pose_error` so the Euler choice only
    affects reporting.
    """

    rows: tuple

    m_y = 6

    def __post_init__(self):
        rows = tuple(
            r if isinstance(r, DhRow) else DhRow(*r) for r in self.rows
        )
        if not rows:
            raise KinematicsError("DH chain needs at least one row")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "m_u", len(rows))  # an attribute: the loop reads it per iterate
        object.__setattr__(self, "_last", (None, None))  # see `_frames`

    def _frames(self, q) -> np.ndarray:
        """The base frame and the frame after each row: (m_u + 1) x 4 x 4, read-only.

        The last walk is kept, so the pose, its error and the Jacobian at one q
        walk the rows once. The key is the bytes of a q that passed `_as_vector`,
        so a float64 array with the kept bytes needs no check. The (key, frames)
        tuple is replaced whole, so concurrent callers on one chain can miss but
        never read a key with another q's frames. Callers read the frames in
        place and hand out only new arrays.
        """
        last_key, last = self._last
        if type(q) is np.ndarray and q.dtype == np.float64 and q.tobytes() == last_key:
            return last
        q = _as_vector(q, self.m_u)
        key = q.tobytes()
        if key != last_key:
            last = self._walk(q)
            object.__setattr__(self, "_last", (key, last))
        return last

    def _walk(self, q) -> np.ndarray:
        """One array holds every row's `_entries`, and each frame is the previous
        one `dot` its row's transform, in place: the bits of the row transforms under `@`."""
        entries = []
        for row, qi in zip(self.rows, q.tolist()):
            entries += row._entries(qi)
        T = np.fromiter(entries, float, 16 * self.m_u).reshape(self.m_u, 4, 4)
        frames = np.empty((self.m_u + 1, 4, 4))
        frames[0] = _EYE4
        for i in range(self.m_u):
            frames[i].dot(T[i], out=frames[i + 1])
        frames.setflags(write=False)
        return frames

    def _target(self, sample) -> Pose:
        if isinstance(sample, Pose):
            return sample
        return pose_from_task(_as_vector(sample, self.m_y, "target"))

    def _targets(self, samples, n: int = 1) -> list:
        targets = [self._target(s) for s in samples]
        return targets + targets[-1:] * (n - 1)

    def _errors(self, targets, q, y=None) -> np.ndarray:
        # y is not read: the pose at q is the last frame of the walk already kept. Its rotation
        # is copied, as `forward_pose` holds it: the bits of R_d R^T may follow R's layout
        T = self._frames(q)[-1]
        return np.array(_pose_errors(targets, T[:3, 3], T[:3, :3].copy()))

    def forward_pose(self, q) -> Pose:
        T = self._frames(q)[-1]
        # a product of DH transforms of finite q and finite rows: its rotation block is one
        return Pose._trusted(T[:3, 3].copy(), T[:3, :3].copy())

    def forward(self, q) -> np.ndarray:
        T = self._frames(q)[-1]  # read in place: concatenate copies
        return np.concatenate([T[:3, 3], euler_zyx_from_rotation(T[:3, :3])])

    def jacobian(self, q) -> np.ndarray:
        """Geometric Jacobian: linear rows z_i x (p_e - p_i), angular rows z_i."""
        frames = self._frames(q)  # z_i and p_i from the one walk (Orin & Schrader 1984)
        z = frames[:-1, :3, 2]
        d = frames[-1, :3, 3] - frames[:-1, :3, 3]  # p_e - p_i
        J = np.empty((6, self.m_u))
        # the component products np.cross forms, without its dispatch cost
        zc, dc = z.T.take(_CROSS, axis=0), d.T.take(_CROSS, axis=0)
        J[:3] = zc[:3] * dc[1:] - zc[1:] * dc[:3]
        J[3:] = z.T
        return J


def forward(model: KinematicModel, q) -> np.ndarray:
    return model.forward(q)


def forward_pose(model: KinematicModel, q) -> Pose:
    if not isinstance(model, DhChain):
        raise KinematicsError("forward_pose requires a DhChain model")
    return model.forward_pose(q)


def jacobian(model: KinematicModel, q) -> np.ndarray:
    return model.jacobian(q)


def jacobian_fd(model: KinematicModel, q, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian oracle: minus the derivative of the model's own error.

    Column i is (e(q - h e_i) - e(q + h e_i)) / 2h, where e is the model's stacked error
    (`_errors`) against its output at q as the target: the error the loop drives to zero.
    """
    if not 0 < h < np.inf:  # so that a NaN, which compares False, fails it
        raise KinematicsError(f"step size h must be finite and positive, got {h}")
    q = np.asarray(q, dtype=float).ravel()
    t = model._targets([model.forward(q)])
    steps = h * np.eye(q.size)  # row i is h e_i; column i of J differences along it
    return np.column_stack(
        [(model._errors(t, q - dq) - model._errors(t, q + dq)) / (2.0 * h) for dq in steps])


def load_dh_chain(source) -> DhChain:
    """Build a DhChain from a JSON document, path, or parsed dict.

    Schema: {"rows": [{"alpha": ..., "a": ..., "d": ..., "theta_offset": ...}, ...]}
    Angles in radians, lengths in meters; theta_offset defaults to 0. A wrong, missing
    or mistyped key raises a KinematicsError naming it.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            source = json.load(fh)
    return _from_config(_dh_document, source, "DH document", KinematicsError)


def _dh_document(rows: Sequence[dict]) -> DhChain:
    """A DH document, read by `_from_config`: its one key, a list of row objects."""
    return DhChain([_from_config(DhRow, r, "DH row", KinematicsError) for r in rows])


# Documented default 6-DOF elbow manipulator (classic DH, meters/radians).
# Users override it with their own table via load_dh_chain.
DEFAULT_DH_ROWS = (
    DhRow(alpha=math.pi / 2, a=0.0, d=0.0, theta_offset=0.0),
    DhRow(alpha=0.0, a=0.4318, d=0.0, theta_offset=0.0),
    DhRow(alpha=-math.pi / 2, a=0.0203, d=0.15005, theta_offset=0.0),
    DhRow(alpha=math.pi / 2, a=0.0, d=0.4318, theta_offset=0.0),
    DhRow(alpha=-math.pi / 2, a=0.0, d=0.0, theta_offset=0.0),
    DhRow(alpha=0.0, a=0.0, d=0.0563, theta_offset=0.0),
)


def default_dh_chain() -> DhChain:
    return DhChain(DEFAULT_DH_ROWS)


def pose_from_task(task) -> Pose:
    """Interpret a 6-vector (x, y, z, alpha, beta, gamma) as a Pose."""
    task = _as_vector(task, 6, "task")
    # three elementary rotations of finite angles: a product within ulps of a rotation
    return Pose._trusted(task[:3], rotation_from_euler_zyx(task[3:]))
