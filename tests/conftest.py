import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from ikdamp.kinematics import KinematicModel, ThreeLink, axis_angle_to_rotation


angles = st.floats(-math.pi, math.pi, allow_nan=False)
# (alpha, a, d, theta_offset) rows of a random chain of 1 to 7 joints
dh_rows = st.lists(
    st.tuples(angles, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), angles),
    min_size=1,
    max_size=7,
)


def seed() -> int:
    return int(os.environ.get("IKD_SEED", "0"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(seed())


class CountingArm(KinematicModel):
    """The three-link arm, counting its forward and Jacobian evaluations."""

    m_y = m_u = 3
    arm = ThreeLink(5.0, 7.0, 7.0)

    def __init__(self):
        self.forwards = 0
        self.jacobians = 0

    def forward(self, q):
        self.forwards += 1
        return self.arm.forward(q)

    def jacobian(self, q):
        self.jacobians += 1
        return self.arm.jacobian(q)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return axis_angle_to_rotation(axis, rng.uniform(-np.pi, np.pi))
