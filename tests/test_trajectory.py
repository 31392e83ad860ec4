import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikdamp.trajectory import Trajectory, helix, horizon_window, load_csv, lspb, save_csv


class TestHelix:
    def test_half_period(self):
        traj = helix(100)
        np.testing.assert_allclose(traj.samples[49], [4.0, -3.0, 5.25], atol=1e-12)

    def test_full_period(self):
        traj = helix(100)
        np.testing.assert_allclose(traj.samples[99], [4.0, 3.0, 5.5], atol=1e-12)

    def test_endpoint_height(self):
        traj = helix(800)
        assert traj.samples[-1][2] == pytest.approx(9.0)

    def test_default_length_is_the_config_default(self):
        assert helix().samples.tobytes() == helix(800).samples.tobytes()

    def test_circle_constraint(self):
        traj = helix(800)
        r2 = (traj.samples[:, 0] - 4.0) ** 2 + traj.samples[:, 1] ** 2
        np.testing.assert_allclose(r2, 9.0, atol=1e-12)


class TestLspb:
    def test_degenerate_constant(self):
        traj = lspb([1.0, 2.0], [1.0, 2.0], 50, 0.2)
        np.testing.assert_allclose(traj.samples, np.tile([1.0, 2.0], (50, 1)))

    def test_midpoint_symmetry(self):
        traj = lspb([0.0], [1.0], 101, 0.25)
        assert traj.samples[50, 0] == pytest.approx(0.5)

    def test_endpoints_exact(self):
        traj = lspb([0.0, -1.0], [2.0, 3.0], 64, 0.2)
        np.testing.assert_array_equal(traj.samples[0], [0.0, -1.0])
        np.testing.assert_allclose(traj.samples[-1], [2.0, 3.0], atol=1e-12)

    def test_piecewise_second_difference(self):
        n = 200
        tb = 0.2
        traj = lspb([0.0], [1.0], n, tb)
        s = traj.samples[:, 0]
        dd = np.diff(s, 2)
        idx = np.arange(1, n - 1) / (n - 1)
        linear = (idx > tb + 1.0 / n) & (idx < 1.0 - tb - 1.0 / n)
        # acceleration constant inside each blend, zero in the linear segment
        first_blend = dd[(idx > 1.0 / n) & (idx < tb - 2.0 / n)]
        assert np.ptp(first_blend) <= 1e-9
        assert np.max(np.abs(dd[linear])) <= 1e-9

    def test_velocity_continuous_at_joints(self):
        n = 500
        traj = lspb([0.0], [1.0], n, 0.2)
        v = np.diff(traj.samples[:, 0])
        # discrete velocity has no jumps larger than one acceleration quantum
        assert np.max(np.abs(np.diff(v))) <= 2.0 * (1.0 / (1 - 0.2)) / (0.2 * n)

    def test_monotone_per_coordinate(self):
        traj = lspb([0.0, 1.0], [1.0, 4.0], 80, 0.3)
        assert np.all(np.diff(traj.samples, axis=0) >= -1e-12)

    def test_steps_is_the_config_key(self):
        traj = lspb([0.0, 1.0], [1.0, 3.0], steps=10, blend_fraction=0.25)
        assert traj.samples.tobytes() == lspb([0.0, 1.0], [1.0, 3.0], 10, 0.25).samples.tobytes()

    def test_blend_fraction_validated(self):
        with pytest.raises(ValueError):
            lspb([0.0], [1.0], 50, 0.6)
        with pytest.raises(ValueError):
            lspb([0.0], [1.0], 50, 0.0)


class TestHorizonWindow:
    def test_single_step(self):
        traj = helix(10)
        window = horizon_window(traj, 3, 1)
        assert len(window) == 1
        np.testing.assert_array_equal(window[0], traj.samples[3])

    def test_tail_padding(self):
        traj = helix(10)
        window = horizon_window(traj, 9, 3)
        assert len(window) == 3
        for w in window:
            np.testing.assert_array_equal(w, traj.samples[9])

    def test_start_window(self):
        traj = helix(10)
        window = horizon_window(traj, 0, 2)
        np.testing.assert_array_equal(window[0], traj.samples[0])
        np.testing.assert_array_equal(window[1], traj.samples[1])

    def test_never_short(self):
        traj = helix(5)
        for k in range(5):
            for n in range(1, 8):
                assert len(horizon_window(traj, k, n)) == n

    def test_plain_list_windows_like_its_trajectory(self):
        traj = helix(5)
        rows = list(traj.samples)
        for k in range(5):
            for n in range(1, 8):
                window = horizon_window(rows, k, n)
                assert len(window) == n
                for w, expected in zip(window, horizon_window(traj, k, n)):
                    np.testing.assert_array_equal(w, expected)

    def test_trajectory_window_is_a_copy(self):
        traj = helix(10)
        horizon_window(traj, 3, 2)[0][:] = 0.0
        np.testing.assert_array_equal(traj.samples[3], helix(10).samples[3])


class TestCsv:
    def test_round_trip(self, tmp_path):
        traj = helix(25)
        path = tmp_path / "traj.csv"
        save_csv(traj, path)
        back = load_csv(path)
        np.testing.assert_allclose(back.samples, traj.samples)

    @given(st.integers(1, 4).flatmap(lambda dim: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
        min_size=1, max_size=5)))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_bit_exact(self, rows):
        traj = Trajectory(np.array(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.csv"
            save_csv(traj, path)
            back = load_csv(path)
        # compared as bytes, so -0.0 and each subnormal must come back exactly
        assert back.samples.tobytes() == traj.samples.tobytes()

    def test_non_empty_required(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("k,y1,y2,y3\n1,3,1,14\n2,3,1\n", 3),  # ragged
            ("k,y1,y2,y3\n1,3,1,14\n2,x,4,5\n", 3),  # not a number
            ("1,3,1,14\n2,3,1,14\n\n4,3,,14\n", 4),  # an empty entry, no header, a blank line
        ],
        ids=["ragged", "non-numeric", "empty-entry"],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{path} line {line}: "):
            load_csv(path)


@pytest.mark.parametrize("call, message", [
    (lambda: helix(0), "k_max must be >= 1"),
    (lambda: lspb([0.0, 0.0], [1.0], 10), "start and goal must have the same dimension"),
    (lambda: lspb([0.0], [1.0], 3), "need at least 4 samples"),
    (lambda: lspb([0.0], [1.0], 4, 0.2), "blend region must cover at least one sample"),
    (lambda: horizon_window([1, 2], 2, 1), "k out of range"),
    (lambda: horizon_window([1, 2], -1, 1), "k out of range"),
    (lambda: horizon_window([1, 2], 0, 0), "horizon must be >= 1"),
], ids=["helix-length", "end-dimensions", "lspb-length", "blend-region", "k-past-the-end",
        "k-negative", "horizon"])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
