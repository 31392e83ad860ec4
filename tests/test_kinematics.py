import dataclasses
import itertools
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingArm, angles, dh_rows, random_rotation
from ikdamp import kinematics
from ikdamp.kinematics import (
    DhChain,
    DhRow,
    KinematicModel,
    KinematicsError,
    Pose,
    ThreeLink,
    _log_map,
    axis_angle_to_rotation,
    check_rotation,
    default_dh_chain,
    forward,
    forward_pose,
    jacobian,
    jacobian_fd,
    load_dh_chain,
    orientation_error,
    pose_error,
    rot_z,
)
from ikdamp.mfac import task_error

ARM = ThreeLink(5.0, 7.0, 7.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# unit vectors from a longitude and a height on the sphere
unit_axes = st.tuples(angles, st.floats(-1.0, 1.0)).map(
    lambda t: np.array(
        [math.sqrt(1 - t[1] ** 2) * math.cos(t[0]),
         math.sqrt(1 - t[1] ** 2) * math.sin(t[0]),
         t[1]]
    )
)
# angles with the exact values whose sines, cosines and signed zeros a walk must carry bit for bit
exact_angles = st.one_of(angles, st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]))
poses = st.builds(
    lambda axis, angle, position: Pose(position, axis_angle_to_rotation(axis, angle)),
    unit_axes, exact_angles, st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
)


def dh_transform(row, q):
    """The classic DH transform Rz(theta) Tz(d) Tx(a) Rx(alpha) of one row at q: the oracle
    each frame of a walk is compared against."""
    ct, st = math.cos(q + row.theta_offset), math.sin(q + row.theta_offset)
    ca, sa = math.cos(row.alpha), math.sin(row.alpha)
    return np.array([[ct, -st * ca, st * sa, row.a * ct],
                     [st, ct * ca, -ct * sa, row.a * st],
                     [0.0, sa, ca, row.d],
                     [0.0, 0.0, 0.0, 1.0]])


class TestForward:
    def test_zero_configuration(self):
        np.testing.assert_allclose(forward(ARM, [0, 0, 0]), [0, 0, 19])

    def test_elbow_straight_out(self):
        # hand evaluation: q2 = pi/2 swings both distal links horizontal
        np.testing.assert_allclose(
            forward(ARM, [0, math.pi / 2, 0]), [14, 0, 5], atol=1e-12
        )

    def test_bent_pose(self):
        np.testing.assert_allclose(
            forward(ARM, [math.pi / 2, math.pi / 2, -math.pi / 2]),
            [0, 7, 12],
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(KinematicsError):
            forward(ARM, [0, 0])

    @given(q1=angles, q2=angles, q3=angles)
    @settings(max_examples=50, deadline=None)
    def test_workspace_bound(self, q1, q2, q3):
        x, y, z = forward(ARM, [q1, q2, q3])
        assert x**2 + y**2 <= (ARM.l2 + ARM.l3) ** 2 + 1e-9
        assert abs(z - ARM.l1) <= ARM.l2 + ARM.l3 + 1e-9

    @given(q1=angles, q2=angles, q3=angles, joint=st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_two_pi_invariance(self, q1, q2, q3, joint):
        q = np.array([q1, q2, q3])
        shifted = q.copy()
        shifted[joint] += 2 * math.pi
        np.testing.assert_allclose(forward(ARM, q), forward(ARM, shifted), atol=1e-9)


class TestForwardPose:
    def test_single_link_zero(self):
        chain = DhChain((DhRow(alpha=0, a=1, d=0),))
        pose = forward_pose(chain, [0.0])
        np.testing.assert_allclose(pose.position, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-15)

    def test_single_link_quarter_turn(self):
        chain = DhChain((DhRow(alpha=0, a=1, d=0),))
        pose = forward_pose(chain, [math.pi / 2])
        np.testing.assert_allclose(pose.position, [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(pose.rotation, rot_z(math.pi / 2), atol=1e-12)

    def test_two_row_zero_configuration(self):
        # hand-composed: Rz(0.2)Tx(1) then Rx(pi/2) twist, second row Tz/Tx
        rows = (DhRow(alpha=math.pi / 2, a=1.0, d=0.5, theta_offset=0.2),
                DhRow(alpha=0.0, a=0.7, d=0.3, theta_offset=-0.1))
        chain = DhChain(rows)
        T = dh_transform(rows[0], 0.0) @ dh_transform(rows[1], 0.0)
        pose = forward_pose(chain, [0.0, 0.0])
        np.testing.assert_allclose(pose.position, T[:3, 3], atol=1e-15)
        np.testing.assert_allclose(pose.rotation, T[:3, :3], atol=1e-15)

    def test_rejects_three_link(self):
        with pytest.raises(KinematicsError):
            forward_pose(ARM, [0, 0, 0])

    @given(
        rows=dh_rows,
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fk_pose_is_unchecked_and_would_pass_the_checks(self, rows, data):
        chain = DhChain(tuple(rows))
        q = np.array(data.draw(st.lists(angles, min_size=len(rows), max_size=len(rows))))
        checks = []
        real_check = kinematics.check_rotation

        def counted(R, *args):
            checks.append(R)
            return real_check(R, *args)

        kinematics.check_rotation = counted
        try:
            pose = forward_pose(chain, q)
        finally:
            kinematics.check_rotation = real_check
        assert checks == []
        checked = Pose(pose.position, pose.rotation)  # the user-facing constructor accepts it
        assert checked.position.dtype == checked.rotation.dtype == np.float64
        np.testing.assert_array_equal(checked.position, pose.position)
        np.testing.assert_array_equal(checked.rotation, pose.rotation)

    def test_user_pose_is_still_checked(self):
        with pytest.raises(KinematicsError, match="orthonormal"):
            Pose([0.0, 0.0, 0.0], np.eye(3) * 1.1)
        with pytest.raises(KinematicsError, match="non-finite"):
            Pose([0.0, math.nan, 0.0], np.eye(3))
        with pytest.raises(KinematicsError, match="length 3"):
            Pose([0.0, 0.0], np.eye(3))

    def test_forward_euler_round_trip(self, rng):
        chain = default_dh_chain()
        q = rng.uniform(-1.5, 1.5, 6)
        y = forward(chain, q)
        pose = forward_pose(chain, q)
        np.testing.assert_allclose(y[:3], pose.position)
        from ikdamp.kinematics import rotation_from_euler_zyx

        np.testing.assert_allclose(
            rotation_from_euler_zyx(y[3:]), pose.rotation, atol=1e-12
        )


class TestJacobian:
    def test_three_link_at_zero(self):
        J = jacobian(ARM, [0, 0, 0])
        assert J[0, 1] == pytest.approx(14.0)
        assert J[2, 1] == pytest.approx(0.0)
        assert np.linalg.matrix_rank(J) < 3  # upright pose is singular

    def test_matches_fd_three_link(self, rng):
        for _ in range(20):
            q = rng.uniform(-math.pi, math.pi, 3)
            J = jacobian(ARM, q)
            Jfd = jacobian_fd(ARM, q, 1e-6)
            np.testing.assert_allclose(J, Jfd, rtol=1e-4, atol=1e-6)

    def test_matches_fd_dh_chain(self, rng):
        chain = default_dh_chain()
        for _ in range(20):
            q = rng.uniform(-math.pi, math.pi, 6)
            J = jacobian(chain, q)
            Jfd = jacobian_fd(chain, q, 1e-6)
            np.testing.assert_allclose(J, Jfd, rtol=1e-4, atol=1e-6)

    @given(
        rows=dh_rows,
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dh_chain(self, rows, data):
        chain = DhChain(tuple(rows))
        q = np.array(data.draw(st.lists(exact_angles, min_size=len(rows), max_size=len(rows))))
        J = jacobian(chain, q)
        err = np.max(np.abs(J - jacobian_fd(chain, q, 1e-6)))
        assert err <= 1e-6 * np.max(np.abs(J))
        frames = list(itertools.accumulate(
            [dh_transform(row, qi) for row, qi in zip(chain.rows, q)], np.matmul, initial=np.eye(4)
        ))
        # the flat walk forms the same products; forward's atan2 tells a -0.0 from a 0.0
        np.testing.assert_array_equal(chain._frames(q), frames)
        np.testing.assert_array_equal(np.signbit(chain._frames(q)), np.signbit(frames))
        z = np.array([T[:3, 2] for T in frames[:-1]])
        p = np.array([T[:3, 3] for T in frames])
        np.testing.assert_array_equal(J, np.vstack([np.cross(z, p[-1] - p[:-1]).T, z.T]))
        pose = forward_pose(chain, q)
        np.testing.assert_array_equal(pose.position, frames[-1][:3, 3])
        np.testing.assert_array_equal(pose.rotation, frames[-1][:3, :3])

    def test_fd_linear_stub(self):
        class Linear(KinematicModel):
            m_u = 2
            m_y = 2

            def forward(self, q):
                return 2.0 * np.asarray(q, dtype=float)

        np.testing.assert_allclose(
            jacobian_fd(Linear(), [0.1, -0.2], 1e-6), 2 * np.eye(2), atol=1e-9
        )

    def test_fd_step_refinement(self):
        q = np.array([0.4, 1.1, -0.6])
        J = jacobian(ARM, q)
        coarse = np.max(np.abs(jacobian_fd(ARM, q, 1e-3) - J))
        fine = np.max(np.abs(jacobian_fd(ARM, q, 1e-5) - J))
        assert fine < coarse

    def test_fd_rejects_nonpositive_step(self):
        with pytest.raises(KinematicsError):
            jacobian_fd(ARM, [0, 0, 0], 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_fd_rejects_non_finite_step_by_name(self, h):
        with pytest.raises(KinematicsError, match="step size h"):
            jacobian_fd(ARM, [0, 0, 0], h)


class TestLastWalk:
    """DhChain keeps its last walk; every result must equal a fresh chain's."""

    QA = np.array([0.3, -0.4, 0.5, 0.2, -0.6, 0.1])
    QB = np.array([-1.2, 0.7, 0.1, -0.9, 1.4, 2.0])

    @staticmethod
    def fresh(method, q):
        return getattr(default_dh_chain(), method)(q)

    @staticmethod
    def assert_same(result, expected):
        if isinstance(expected, Pose):
            np.testing.assert_array_equal(result.position, expected.position)
            np.testing.assert_array_equal(result.rotation, expected.rotation)
        else:
            np.testing.assert_array_equal(result, expected)

    def test_alternating_configurations(self):
        chain = default_dh_chain()
        calls = itertools.chain(
            itertools.product([self.QA, self.QB, self.QA], ["forward_pose", "jacobian", "forward"]),
            [(self.QB, "jacobian"), (self.QA, "jacobian")],
        )
        for q, method in calls:
            self.assert_same(getattr(chain, method)(q), self.fresh(method, q))

    def test_results_do_not_alias_the_walk(self):
        chain = default_dh_chain()
        pose = chain.forward_pose(self.QA)
        J = chain.jacobian(self.QA)
        err = task_error(chain, [self.fresh("forward_pose", self.QB)] * 2, self.QA)
        assert not chain._frames(self.QA).flags.writeable
        for a in (pose.position, pose.rotation, J, err):
            assert a.flags.writeable
            a[...] = 0.0
        self.assert_same(chain.forward_pose(self.QA), self.fresh("forward_pose", self.QA))
        self.assert_same(chain.jacobian(self.QA), self.fresh("jacobian", self.QA))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_q_raises_after_a_cached_call(self, bad):
        chain = default_dh_chain()
        chain.forward_pose(self.QA)
        q = self.QA.copy()
        q[2] = bad
        for method in ("forward_pose", "jacobian"):
            with pytest.raises(KinematicsError, match="non-finite"):
                getattr(chain, method)(q)
        with pytest.raises(KinematicsError, match="length"):
            chain.jacobian(self.QA[:5])

    def test_list_and_array_agree(self):
        chain = default_dh_chain()
        strided = np.repeat(self.QB, 2)[::2]  # a non-contiguous view of the same values
        for q in (list(self.QB), self.QB, strided, tuple(self.QB)):
            self.assert_same(chain.forward_pose(q), self.fresh("forward_pose", self.QB))
            self.assert_same(chain.jacobian(q), self.fresh("jacobian", self.QB))

    def test_threads_sharing_a_chain(self):
        chain = default_dh_chain()
        qs = np.random.default_rng(7).uniform(-math.pi, math.pi, (8, chain.m_u))
        expected = [(self.fresh("forward_pose", q), self.fresh("jacobian", q)) for q in qs]
        mismatches = []

        def work(i):
            for _ in range(1500):
                pose, J = chain.forward_pose(qs[i]), chain.jacobian(qs[i])
                if not (np.array_equal(pose.position, expected[i][0].position)
                        and np.array_equal(pose.rotation, expected[i][0].rotation)
                        and np.array_equal(J, expected[i][1])):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(qs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestOrientationError:
    def test_identity(self):
        R = rot_z(0.4)
        np.testing.assert_allclose(orientation_error(R, R), np.zeros(3))

    def test_pure_z_rotation(self):
        np.testing.assert_allclose(
            orientation_error(rot_z(0.3), np.eye(3)), [0, 0, 0.3], atol=1e-12
        )

    def test_rodrigues_round_trip(self, rng):
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(0.01, math.pi - 0.01)
            D = axis_angle_to_rotation(axis, theta)
            current = random_rotation(rng)
            desired = D @ current
            v = orientation_error(desired, current)
            rebuilt = axis_angle_to_rotation(v / np.linalg.norm(v), np.linalg.norm(v))
            np.testing.assert_allclose(rebuilt, D, atol=1e-9)

    def test_near_pi_fallback(self):
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        D = axis_angle_to_rotation(axis, math.pi - 1e-8)
        v = orientation_error(D, np.eye(3))
        assert np.linalg.norm(v) == pytest.approx(math.pi, abs=1e-6)
        np.testing.assert_allclose(np.abs(v / np.linalg.norm(v)), np.abs(axis), atol=1e-4)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(KinematicsError):
            orientation_error(np.eye(3) * 1.1, np.eye(3))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rotation(self, bad):
        with pytest.raises(KinematicsError):
            check_rotation(np.full((3, 3), bad))
        R = np.eye(3)
        R[2, 2] = bad
        with pytest.raises(KinematicsError):
            Pose([0.0, 0.0, 0.0], R)

    def test_nan_passes_through_the_angle(self):
        assert np.all(np.isnan(np.array(_log_map(np.full((3, 3), math.nan)))))


@pytest.mark.parametrize("call, message", [
    (lambda: check_rotation(np.eye(2)), r"rotation must be 3x3, got \(2, 2\)"),
    (lambda: check_rotation(np.diag([1.0, 1.0, -1.0])), r"determinant is not \+1"),
    (lambda: axis_angle_to_rotation([1.0, 0.0], 0.1), "axis must be a 3-vector"),
    (lambda: DhChain(()), "DH chain needs at least one row"),
    (lambda: load_dh_chain({}), "missing DH document key 'rows'"),
    (lambda: load_dh_chain({"rows": 5}), r"DH document key 'rows' must be Sequence\[dict\], got 5"),
], ids=["rotation-shape", "reflection", "axis-shape", "no-rows", "no-rows-key", "rows-not-a-list"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(KinematicsError, match=message):
        call()


class TestPoseError:
    def test_identical_poses(self):
        p = Pose([1, 2, 3], rot_z(0.5))
        np.testing.assert_allclose(pose_error(p, p), np.zeros(6))

    def test_pure_translation(self):
        a = Pose([1, 2, 3], np.eye(3))
        b = Pose([0, 0, 0], np.eye(3))
        np.testing.assert_allclose(pose_error(a, b), [1, 2, 3, 0, 0, 0])

    def test_pure_rotation(self):
        a = Pose([0, 0, 0], rot_z(0.3))
        b = Pose([0, 0, 0], np.eye(3))
        np.testing.assert_allclose(pose_error(a, b), [0, 0, 0, 0, 0, 0.3], atol=1e-12)

    @given(
        axes=st.lists(unit_axes, min_size=2, max_size=2),
        theta=st.one_of(st.floats(0.0, math.pi), st.floats(math.pi - 1e-6, math.pi)),
        phi=angles,
        positions=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_position_and_orientation_error(self, axes, theta, phi, positions):
        current = axis_angle_to_rotation(axes[1], phi)
        desired = axis_angle_to_rotation(axes[0], theta) @ current
        a = Pose(positions[:3], desired)
        b = Pose(positions[3:], current)
        expected = np.concatenate(
            [a.position - b.position, orientation_error(desired, current)]
        )
        np.testing.assert_array_equal(pose_error(a, b), expected)

    @given(rows=dh_rows, targets=st.lists(poses, min_size=1, max_size=3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_task_error_equals_pose_errors(self, rows, targets, data):
        chain = DhChain(tuple(rows))
        q = data.draw(st.lists(exact_angles, min_size=len(rows), max_size=len(rows)))
        current = forward_pose(chain, q)
        if data.draw(st.booleans()):  # a target at the pose itself: every error entry a zero
            targets = targets[:-1] + [Pose(current.position, current.rotation)]
        err = task_error(chain, targets, q)
        expected = np.concatenate([pose_error(t, current) for t in targets])
        # pose_error is the difference of positions, then the angle-axis error
        formula = np.concatenate([np.concatenate(
            [t.position - current.position, orientation_error(t.rotation, current.rotation)]
        ) for t in targets])
        for a in (expected, formula):
            np.testing.assert_array_equal(err, a)
            np.testing.assert_array_equal(np.signbit(err), np.signbit(a))


class TestAxisAngle:
    def test_zero_angle(self):
        np.testing.assert_allclose(axis_angle_to_rotation([0, 0, 1], 0.0), np.eye(3))

    def test_quarter_turn_z(self):
        np.testing.assert_allclose(
            axis_angle_to_rotation([0, 0, 1], math.pi / 2),
            [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
            atol=1e-15,
        )

    def test_output_is_rotation(self, rng):
        for _ in range(20):
            R = random_rotation(rng)
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(KinematicsError):
            axis_angle_to_rotation([0, 0, 2], 0.3)

    @pytest.mark.parametrize("axis, angle, name", [
        ([0, math.nan, 1], 0.3, "axis"), ([0, 0, 1], math.nan, "angle"), ([0, 0, 1], math.inf, "angle"),
    ], ids=["nan-axis", "nan-angle", "inf-angle"])
    def test_rejects_non_finite_input(self, axis, angle, name):
        with pytest.raises(KinematicsError, match=name):
            axis_angle_to_rotation(axis, angle)


class TestDhLoading:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(
            '{"rows": [{"alpha": 0.0, "a": 1.0, "d": 0.0, "theta_offset": 0.0},'
            '{"alpha": 1.5707963267948966, "a": 0.5, "d": 0.2, "theta_offset": 0.1}]}'
        )
        chain = load_dh_chain(path)
        assert chain.m_u == 2
        assert chain.m_y == 6

    def test_malformed_document(self):
        with pytest.raises(KinematicsError):
            load_dh_chain({"rows": [{"alpha": 0.0}]})

    def test_default_document_is_valid(self):
        chain = load_dh_chain(CONFIG_DIR / "default_dh.json")
        assert chain.rows == default_dh_chain().rows

    @pytest.mark.parametrize(
        "where, key",
        [("row", "theta_ofset"), ("row", "alpha0"), ("document", "name"), ("document", "row")],
    )
    def test_unknown_key_named(self, where, key):
        doc = json.loads((CONFIG_DIR / "default_dh.json").read_text())
        (doc["rows"][2] if where == "row" else doc)[key] = 1.0
        with pytest.raises(KinematicsError, match=f"unknown DH {where} key.*'{key}'"):
            load_dh_chain(doc)

    @pytest.mark.parametrize("field", ["alpha", "a", "d", "theta_offset"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter(self, field, bad):
        row = {"alpha": 0.0, "a": 1.0, "d": 0.0, "theta_offset": 0.0, field: bad}
        with pytest.raises(KinematicsError, match="finite"):
            DhRow(**row)
        with pytest.raises(KinematicsError, match="finite"):
            load_dh_chain({"rows": [{"alpha": 0.0, "a": 1.0, "d": 0.0}, row]})

    def test_link_lengths_must_be_positive(self):
        with pytest.raises(KinematicsError):
            ThreeLink(5.0, 0.0, 7.0)

    def test_nan_link_length_rejected(self):
        # min() of a list holding NaN depends on where the NaN sits
        with pytest.raises(KinematicsError):
            ThreeLink(5.0, math.nan, 7.0)


# The numpy forms that the float forms replaced, kept as their oracles: each float form
# must give the same bytes, signs of zero included.

def angle_axis_numpy(D):
    cos_theta = min(max((D[0, 0] + D[1, 1] + D[2, 2] - 1.0) / 2.0, -1.0), 1.0)
    theta = math.acos(cos_theta)
    if theta < 1e-9:
        return np.zeros(3)
    if abs(theta - math.pi) < 1e-6:
        diag = np.clip((np.diag(D) + 1.0) / 2.0, 0.0, None)
        i = int(np.argmax(diag))
        k = np.zeros(3)
        k[i] = math.sqrt(diag[i])
        for j in range(3):
            if j != i:
                k[j] = D[i, j] / (2.0 * k[i])
        k /= np.linalg.norm(k)
        return k * theta
    k = np.array([D[2, 1] - D[1, 2], D[0, 2] - D[2, 0], D[1, 0] - D[0, 1]])
    return k / (2.0 * math.sin(theta)) * theta


def errors_numpy(chain, targets, q):
    """`DhChain._errors` as one (n, 6) buffer: a subtract into each row, then its angle-axis.

    The rotation is a copy of the walk's block, as `forward_pose` holds it."""
    T = chain._frames(q)[-1]
    position, rotation = T[:3, 3], T[:3, :3].copy()
    out = np.empty((len(targets), 6))
    for e, t in zip(out, targets):
        np.subtract(t.position, position, out=e[:3])
        e[3:] = angle_axis_numpy(t.rotation.dot(rotation.T))
    return out.ravel()


def three_link_numpy(arm, q):
    """`ThreeLink.forward` and `jacobian`, each checking q and taking its own trigonometry."""
    q1, q2, q3 = np.asarray(q, dtype=float).ravel()
    r = arm.l2 * math.sin(q2) + arm.l3 * math.sin(q2 + q3)
    z = arm.l1 + arm.l2 * math.cos(q2) + arm.l3 * math.cos(q2 + q3)
    y = np.array([r * math.cos(q1), r * math.sin(q1), z])
    s23, c23 = math.sin(q2 + q3), math.cos(q2 + q3)
    dr = arm.l2 * math.cos(q2) + arm.l3 * c23
    c1, s1 = math.cos(q1), math.sin(q1)
    J = np.array([[-r * s1, dr * c1, arm.l3 * c23 * c1],
                  [r * c1, dr * s1, arm.l3 * c23 * s1],
                  [0.0, -r, -arm.l3 * s23]])
    return y, J


# relative rotation angles: below the 1e-9 cutoff once the trace rounds to 3, within 1e-6
# of pi (the diagonal branch), and exact angles whose matrices hold exact signed zeros
log_map_angles = st.one_of(
    st.floats(0.0, 2e-8), st.floats(math.pi - 1e-6, math.pi), exact_angles, angles
)


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestFloatForms:
    @given(rows=dh_rows, data=st.data(), n=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_log_map_and_errors_on_random_chains(self, rows, data, n):
        chain = DhChain(tuple(rows))
        q = data.draw(st.lists(exact_angles, min_size=len(rows), max_size=len(rows)))
        current = chain.forward_pose(q)
        targets = [
            Pose(data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5]) | st.floats(-2.0, 2.0),
                                    min_size=3, max_size=3)),
                 axis_angle_to_rotation(data.draw(unit_axes), data.draw(log_map_angles))
                 @ current.rotation)
            for _ in range(n)
        ]
        for t in targets:
            D = t.rotation.dot(current.rotation.T)
            assert same_bytes(np.array(_log_map(D)), angle_axis_numpy(D))
            assert same_bytes(orientation_error(t.rotation, current.rotation),
                              angle_axis_numpy(t.rotation @ current.rotation.T))
        expected = errors_numpy(chain, targets, q)
        assert same_bytes(task_error(chain, targets, q), expected)
        assert same_bytes(np.concatenate([pose_error(t, current) for t in targets]), expected)

    def test_errors_read_the_rotation_as_forward_pose_holds_it(self):
        # R_d R^T of the walk's strided rotation block and of its copy once differed in the
        # sign of a zero here: entry 4 read -0.0 from the block and +0.0 from the Pose's copy
        chain = DhChain(((2.0, 0.0, 0.0, 2.2250738585072014e-308),))
        q = [0.0]
        current = chain.forward_pose(q)
        turn = axis_angle_to_rotation([1.0, 0.0, 0.0], 3.141591653589793)
        target = Pose([0.0, 0.0, 0.0], turn @ current.rotation)
        expected = pose_error(target, current)
        assert same_bytes(task_error(chain, [target], q), expected)
        assert same_bytes(errors_numpy(chain, [target], q), expected)

    @pytest.mark.parametrize("D", [
        np.eye(3), -np.eye(3), rot_z(0.0), rot_z(-0.0), rot_z(math.pi), rot_z(-math.pi / 2),
        np.full((3, 3), math.nan), np.diag([1.0, 1.0, math.inf]), np.diag([1.0, 1.0, -math.inf]),
    ], ids=["eye", "minus-eye", "zero", "minus-zero", "pi", "minus-half-pi", "nan", "inf",
            "minus-inf"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # -eye divides 0 by 0, as before
    def test_log_map_at_the_edges(self, D):
        assert same_bytes(np.array(_log_map(D)), angle_axis_numpy(D))

    @given(lengths=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
           qs=st.lists(st.lists(exact_angles, min_size=3, max_size=3), min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_three_link_matches_its_numpy_form(self, lengths, qs):
        arm = ThreeLink(*lengths)
        qa, qb = qs
        q = np.array(qa)
        for make in (list, tuple, np.array):
            y, J = arm.forward(make(qa)), arm.jacobian(make(qa))
            assert same_bytes(y, three_link_numpy(arm, qa)[0])
            assert same_bytes(J, three_link_numpy(arm, qa)[1])
        arm.forward(q)
        q[:] = qb  # the same array, changed in place: each call reads the q it is given
        assert same_bytes(arm.jacobian(q), three_link_numpy(arm, qb)[1])
        assert same_bytes(arm.forward(q), three_link_numpy(arm, qb)[0])


class TestKeptEntry:
    """Only a DhChain keeps its last q's walk; no model's check on q leans on it."""

    MODELS = {"three-link": lambda: ThreeLink(5.0, 7.0, 7.0), "dh-chain": default_dh_chain}
    QA = TestLastWalk.QA
    QB = TestLastWalk.QB

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bad_q_raises_after_a_hit_on_another_q(self, model, bad):
        model = self.MODELS[model]()
        qa, qb = self.QA[:model.m_u], self.QB[:model.m_u].copy()
        model.forward(qa)
        model.jacobian(qa)  # a hit
        qb[-1] = bad
        for method in (model.forward, model.jacobian):
            with pytest.raises(KinematicsError, match="non-finite"):
                method(qb)
            for wrong in (qa[:-1], np.append(qa, 0.0)):
                with pytest.raises(KinematicsError, match="length"):
                    method(wrong)

    @pytest.mark.parametrize("pair", [
        (default_dh_chain(), DhChain(tuple(reversed(kinematics.DEFAULT_DH_ROWS)))),
    ], ids=["dh-chain"])
    def test_models_never_share_a_kept_entry(self, monkeypatch, pair):
        computed = []
        trig, walk = kinematics._three_link_trig, DhChain._walk
        monkeypatch.setattr(kinematics, "_three_link_trig", lambda q: computed.append(1) or trig(q))
        monkeypatch.setattr(DhChain, "_walk", lambda chain, q: computed.append(1) or walk(chain, q))
        a, b = pair
        qa, qb = self.QA[:a.m_u], self.QB[:a.m_u]
        a.jacobian(qa)
        b.jacobian(qb)
        assert len(computed) == 2
        # each model still holds its own q: both forwards are hits
        for model, q in ((a, qa), (b, qb)):
            fresh = dataclasses.replace(model)
            assert same_bytes(model.forward(q), fresh.forward(q))
        assert len(computed) == 4  # the two fresh copies computed; a and b did not

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_models_are_plain_values(self, model):
        a, b = self.MODELS[model](), self.MODELS[model]()
        a.jacobian(self.QA[:a.m_u])  # a DhChain's kept walk is not part of its value
        assert a == b and hash(a) == hash(b)
        assert not hasattr(KinematicModel, "_kept")
        state = set(vars(a)) - {f.name for f in dataclasses.fields(a)}
        assert state == ({"_last", "m_u"} if isinstance(a, DhChain) else set())


def targets_per_sample(model, samples, n):
    """`KinematicModel._targets` as it was for every input: `_target` on each sample."""
    targets = [model._target(s) for s in samples]
    return np.array(targets + targets[-1:] * (n - 1))


def outcome(make):
    """The bytes, shape and dtype make() returns, or the type and message it raises."""
    try:
        a = make()
    except Exception as exc:  # noqa: BLE001  the exception is the outcome compared
        return type(exc), str(exc)
    return a.tobytes(), a.shape, a.dtype


class TestTargetsInOnePass:
    """A position model checks an (N, m_y) float64 array of samples in one pass; it returns
    the bytes, and raises the exception and message, of the per-sample path."""

    MODELS = {"three-link": ARM, "counting-arm": CountingArm()}

    @pytest.mark.parametrize("name", sorted(MODELS))
    @given(rows=st.lists(st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0]),
                                  min_size=3, max_size=3), min_size=1, max_size=12),
           n=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_array_and_per_sample_paths_agree(self, name, rows, n):
        model = self.MODELS[name]
        samples = np.array(rows)
        one_pass = outcome(lambda: model._targets(samples, n))
        assert one_pass == outcome(lambda: targets_per_sample(model, samples, n))
        # a plain list of samples, which takes the per-sample path, agrees too
        assert one_pass == outcome(lambda: model._targets(rows, n))

    @pytest.mark.parametrize("samples", [
        np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((0, 3)),
        np.array([[1.0, 2.0, 3.0], [0.0, math.nan, 0.0]]),
        np.array([[1.0, math.inf, 3.0]]), np.array([[-math.inf, 2.0, 3.0]]),
        [[1.0, 2.0, 3.0], [1.0, 2.0]], [[1.0, 2.0, 3.0], "abc"],
        [default_dh_chain().forward_pose(np.full(6, 0.2))],
        [[1.0, 2.0, 3.0], (4, 5, 6), np.array([7.0, 8.0, 9.0])],
        np.array([[1.0, 2.0, 3.0]], dtype=np.float32), np.array([1.0, 2.0, 3.0]),
    ], ids=["narrow", "wide", "empty", "nan", "inf", "minus-inf", "ragged", "string", "pose",
            "plain-list", "float32", "one-vector"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_each_input_has_the_per_sample_outcome(self, samples, n):
        expected = outcome(lambda: targets_per_sample(ARM, samples, n))
        assert outcome(lambda: ARM._targets(samples, n)) == expected

    def test_a_trajectory_is_checked_once_and_copied(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kinematics, "_as_vector",
                            lambda *a: calls.append(a) or pytest.fail("checked per sample"))
        samples = np.arange(12.0).reshape(4, 3)
        targets = ARM._targets(samples, 3)
        assert calls == [] and targets.shape == (6, 3)
        targets[0, 0] = -1.0
        assert samples[0, 0] == 0.0
