import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iea_sim.geometry import (CameraModel, InvalidCameraError, PixelPoint,
                              WorldPoint, back_project_ground, camera_matrix,
                              project, wrap_angle)

from conftest import (DEFAULT_FY, back_project_depth,
                      depth_approximation_report, in_image, make_camera)

SQ2 = math.sqrt(2.0)


# --- independent oracle: explicit K [R | -R C] composition for the default
# camera (pitch 45 deg, yaw 0, altitude 9). Rows of R written out by hand:
# image-right = -world_y, image-down = (-s, 0, -c), optical axis = (c, 0, -s).
def _oracle_default_matrix(fx, fy, cx, cy, alt=9.0):
    c = s = SQ2 / 2.0
    K = np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]])
    R = np.array([[0.0, -1.0, 0.0],
                  [-s, 0.0, -c],
                  [c, 0.0, -s]])
    C = np.array([0.0, 0.0, alt])
    return K @ np.hstack([R, (-R @ C)[:, None]])


def _oracle_project(P, point):
    h = P @ np.array([point[0], point[1], point[2], 1.0])
    return h[0] / h[2], h[1] / h[2]


class TestCameraMatrix:
    def test_zero_rotation_is_axis_permutation(self):
        cam = make_camera(z=1.0, pitch=0.0, fx=1.0, fy=1.0, cx=1.0, cy=1.0,
                          width=2, height=2)
        P = np.array(camera_matrix(cam))
        K = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1.0]])
        perm = np.array([[0, -1, 0], [0, 0, -1], [1, 0, 0.0]])
        np.testing.assert_allclose(P[:, :3], K @ perm, atol=1e-12)
        np.testing.assert_allclose(P[:, 3], K @ perm @ [0, 0, -1.0], atol=1e-12)

    def test_default_camera_matches_composition_oracle(self, default_camera):
        expected = _oracle_default_matrix(DEFAULT_FY, DEFAULT_FY, 400, 300)
        np.testing.assert_allclose(np.array(camera_matrix(default_camera)),
                                   expected, atol=1e-9)

    def test_intrinsic_scaling_scales_top_rows_only(self):
        base = make_camera()
        scaled = make_camera(fx=0.5 * DEFAULT_FY, fy=0.5 * DEFAULT_FY,
                             cx=200.0, cy=150.0)
        Pb, Ps = np.array(camera_matrix(base)), np.array(camera_matrix(scaled))
        np.testing.assert_allclose(Ps[:2], 0.5 * Pb[:2], atol=1e-9)
        np.testing.assert_allclose(Ps[2], Pb[2], atol=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidCameraError):
            make_camera(fx=-1.0)
        with pytest.raises(InvalidCameraError):
            make_camera(z=0.0)
        with pytest.raises(InvalidCameraError):
            make_camera(cx=900.0)
        with pytest.raises(InvalidCameraError):
            make_camera(fx=1e-7, fy=1e-7)  # |det M| = fx * fy < 1e-12


class TestProject:
    def test_optical_axis_point_hits_principal_point(self, default_camera):
        px = project(default_camera, WorldPoint(9.0, 0.0, 0.0))
        assert px is not None
        assert px.u == pytest.approx(400.0, abs=1e-9)
        assert px.v == pytest.approx(300.0, abs=1e-9)

    def test_point_behind_horizontal_camera(self):
        cam = make_camera(z=1.5, pitch=0.0)
        assert project(cam, WorldPoint(-5.0, 0.0, 0.0)) is None

    def test_against_homogeneous_arithmetic_oracle(self, default_camera):
        P = _oracle_default_matrix(DEFAULT_FY, DEFAULT_FY, 400, 300)
        u_exp, v_exp = _oracle_project(P, (20.0, 2.0, 0.0))
        px = project(default_camera, WorldPoint(20.0, 2.0, 0.0))
        assert px.u == pytest.approx(u_exp, abs=1e-9)
        assert px.v == pytest.approx(v_exp, abs=1e-9)
        # value frozen from the oracle, run before the main build
        assert px.u == pytest.approx(359.16177729419564, abs=1e-9)
        assert px.v == pytest.approx(141.17658686215609, abs=1e-9)

    @given(st.floats(1e-6, 1e6))
    def test_homogeneous_scale_invariance(self, k):
        P = np.array(camera_matrix(make_camera()))
        h1 = P @ np.array([20.0, 2.0, 0.0, 1.0])
        h2 = P @ (k * np.array([20.0, 2.0, 0.0, 1.0]))
        assert h2[0] / h2[2] == pytest.approx(h1[0] / h1[2], rel=1e-9)
        assert h2[1] / h2[2] == pytest.approx(h1[1] / h1[2], rel=1e-9)


class TestBackProjectGround:
    def test_principal_point_inverts_axis_case(self, default_camera):
        p = back_project_ground(default_camera, PixelPoint(400.0, 300.0))
        assert p.x == pytest.approx(9.0, abs=1e-9)
        assert p.y == pytest.approx(0.0, abs=1e-9)
        assert p.z == 0.0

    def test_oracle_pixel_roundtrip(self, default_camera):
        p = back_project_ground(default_camera,
                                PixelPoint(359.16177729419564,
                                           141.17658686215609))
        assert p.x == pytest.approx(20.0, abs=1e-9)
        assert p.y == pytest.approx(2.0, abs=1e-9)

    def test_ray_away_from_plane(self):
        cam = make_camera(z=9.0, pitch=-math.pi / 4)  # pitched up
        assert back_project_ground(cam, PixelPoint(400.0, 100.0)) is None

    def test_roundtrip_property_1000_points(self, default_camera):
        rng = np.random.default_rng(7)
        n = 0
        while n < 1000:
            x = rng.uniform(2.0, 54.0)
            y = rng.uniform(-15.0, 15.0)
            px = project(default_camera, WorldPoint(x, y, 0.0))
            if px is None or not in_image(default_camera, px):
                continue
            n += 1
            p = back_project_ground(default_camera, px)
            assert math.hypot(p.x - x, p.y - y) < 1e-9


class TestBackProjectDepth:
    def test_axis_pixel_at_true_ground_depth(self, default_camera):
        # trig oracle: hypotenuse of 9 m altitude at 45 deg pitch
        p = back_project_depth(default_camera, PixelPoint(400.0, 300.0), 9 * SQ2)
        assert p.x == pytest.approx(9.0, abs=1e-9)
        assert p.y == pytest.approx(0.0, abs=1e-9)
        assert p.z == pytest.approx(0.0, abs=1e-9)

    def test_returned_point_has_requested_depth(self, default_camera):
        P = np.array(camera_matrix(default_camera))
        m3 = P[2, :3]
        for u, v, d in ((400, 300, 5.0), (123, 456, 17.0), (700, 40, 2.5)):
            p = back_project_depth(default_camera, PixelPoint(u, v), d)
            w = float(P @ np.array([p.x, p.y, p.z, 1.0]) @ np.array([0, 0, 1.0]))
            assert w == pytest.approx(d * np.linalg.norm(m3), rel=1e-9)
            assert w / np.linalg.norm(m3) == pytest.approx(d, rel=1e-9)

    def test_point_on_positive_ray(self, default_camera):
        pos = default_camera.position
        c = np.array([pos.x, pos.y, pos.z])
        p9 = back_project_depth(default_camera, PixelPoint(400.0, 300.0), 9.0)
        p18 = back_project_depth(default_camera, PixelPoint(400.0, 300.0), 18.0)
        v1 = np.array([p9.x, p9.y, p9.z]) - c
        v2 = np.array([p18.x, p18.y, p18.z]) - c
        np.testing.assert_allclose(v2, 2.0 * v1, atol=1e-9)

    def test_altitude_reading_falls_short_by_sqrt2(self, default_camera):
        # with d = altitude the axis point lands at fraction 1/sqrt(2) of the
        # way down the ray; shortfall per axis is 9*(1 - 1/sqrt(2))
        p = back_project_depth(default_camera, PixelPoint(400.0, 300.0), 9.0)
        short = 9.0 * (1.0 - 1.0 / SQ2)
        assert p.x == pytest.approx(9.0 - short, abs=1e-9)
        assert p.z == pytest.approx(short, abs=1e-9)
        dist = math.dist((p.x, p.y, p.z), (9.0, 0.0, 0.0))
        assert dist == pytest.approx(short * SQ2, abs=1e-9)

    def test_depth_approximation_report(self, default_camera):
        rep = depth_approximation_report(default_camera, 9.0)
        assert rep["on_axis_discrepancy_m"] == pytest.approx(
            9.0 * (SQ2 - 1.0), abs=1e-6)
        assert rep["max_discrepancy_m"] >= rep["mean_discrepancy_m"] > 0


class TestWrapAngle:
    def test_examples(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
        assert wrap_angle(-6.0) == pytest.approx(-6.0 + 2 * math.pi, abs=1e-12)

    def test_pi_boundary_maps_to_positive(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)

    @given(st.floats(-1e6, 1e6))
    def test_range_and_congruence(self, a):
        w = wrap_angle(a)
        assert -math.pi <= w <= math.pi
        assert math.remainder(w - a, 2 * math.pi) == pytest.approx(0.0, abs=1e-6)

    @given(st.floats(-50.0, 50.0))
    def test_idempotent(self, a):
        assert wrap_angle(wrap_angle(a)) == wrap_angle(a)

    @given(st.floats(-50.0, 50.0))
    def test_odd_away_from_boundary(self, a):
        w = wrap_angle(a)
        if abs(abs(w) - math.pi) > 1e-9:
            assert wrap_angle(-a) == pytest.approx(-w, abs=1e-12)
