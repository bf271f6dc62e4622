import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iea_sim import vision
from iea_sim.geometry import Pose2D, PixelPoint, WorldPoint, \
    back_project_ground, in_image, project
from iea_sim.vision import (BACKGROUND_INTENSITY, EMPTY_BOX, SEARCHING,
                            TRACKING, VEHICLE_INTENSITY, TrackerState,
                            detect_by_subtraction, render_frame, track_step,
                            write_pgm)

from conftest import make_camera

DIMS = (4.5, 2.0)

# poses around the default camera (x = 0, looking along +x): in view, partly
# off-image, behind the camera, or no vehicle at all
poses = st.one_of(st.none(), st.builds(
    Pose2D, st.floats(-10.0, 70.0), st.floats(-20.0, 20.0),
    st.floats(-math.pi, math.pi)))


def _blank(width, height, t=0.0):
    """A rendered frame with no vehicle in it."""
    camera = make_camera(cx=width / 2, cy=height / 2, width=width,
                         height=height)
    return render_frame(camera, None, DIMS, t)


def _frame_from_array(arr, t=0.0):
    px = np.asarray(arr, dtype=np.uint8)
    px.setflags(write=False)
    return vision.Frame(px, t)


class TestRenderFrame:
    def test_vehicle_outside_view_is_pure_background(self, default_camera):
        fr = render_frame(default_camera, Pose2D(500.0, 0.0, 0.0), DIMS, 0.0)
        assert (fr.pixels == BACKGROUND_INTENSITY).all()

    def test_no_pose_is_pure_background(self, default_camera):
        fr = render_frame(default_camera, None, DIMS, 0.0)
        assert (fr.pixels == BACKGROUND_INTENSITY).all()

    def test_blob_extent_matches_projected_corners(self, default_camera):
        # oracle: project the four rectangle corners independently and
        # compare the painted-pixel bounding box against their extremes
        fr = render_frame(default_camera, Pose2D(9.0, 0.0, 0.0), DIMS, 0.0)
        vs, us = (fr.pixels == VEHICLE_INTENSITY).nonzero()
        assert len(us) > 0
        corners = [project(default_camera, WorldPoint(9.0 + dx, dy, 0.0))
                   for dx in (2.25, -2.25) for dy in (1.0, -1.0)]
        cu = [c.u for c in corners]
        cv = [c.v for c in corners]
        assert abs(us.min() - min(cu)) <= 1.0 and abs(us.max() - max(cu)) <= 1.0
        assert abs(vs.min() - min(cv)) <= 1.0 and abs(vs.max() - max(cv)) <= 1.0

    def test_deterministic(self, default_camera):
        a = render_frame(default_camera, Pose2D(20.0, 1.0, 0.3), DIMS, 1.0)
        b = render_frame(default_camera, Pose2D(20.0, 1.0, 0.3), DIMS, 1.0)
        assert (a.pixels == b.pixels).all()

    @settings(max_examples=60, deadline=None)
    @given(poses)
    def test_outside_painted_box_is_background(self, default_camera, pose):
        fr = render_frame(default_camera, pose, DIMS, 0.0)
        v0, v1, u0, u1 = fr.painted
        assert 0 <= v0 <= v1 <= fr.height and 0 <= u0 <= u1 <= fr.width
        outside = np.ones(fr.pixels.shape, dtype=bool)
        outside[v0:v1, u0:u1] = False
        assert (fr.pixels[outside] == BACKGROUND_INTENSITY).all()

    def test_only_noise_free_frames_carry_a_box(self, default_camera):
        assert _blank(80, 60).painted == EMPTY_BOX
        assert render_frame(default_camera, None, DIMS, 0.0).painted == EMPTY_BOX
        noisy = render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.0,
                             noise_sigma=2.0, rng=np.random.default_rng(3))
        assert noisy.painted is None
        assert vision.Frame(noisy.pixels, 0.0).painted is None

    def test_noise_requires_rng_and_is_seed_stable(self, default_camera):
        with pytest.raises(ValueError):
            render_frame(default_camera, None, DIMS, 0.0, noise_sigma=2.0)
        a = render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.0,
                         noise_sigma=2.0, rng=np.random.default_rng(3))
        b = render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.0,
                         noise_sigma=2.0, rng=np.random.default_rng(3))
        assert (a.pixels == b.pixels).all()


class TestDetectBySubtraction:
    def test_identical_frames_yield_none(self, default_camera):
        bg = _blank(80, 60)
        assert detect_by_subtraction(bg, bg) is None

    def test_box_is_exactly_the_painted_rectangle(self, default_camera):
        bg = render_frame(default_camera, None, DIMS, 0.0)
        fr = render_frame(default_camera, Pose2D(20.0, 0.0, 0.0), DIMS, 0.05)
        box = detect_by_subtraction(bg, fr)
        vs, us = (fr.pixels == VEHICLE_INTENSITY).nonzero()
        assert (box.u_min, box.v_min, box.u_max, box.v_max) == \
            (us.min(), vs.min(), us.max(), vs.max())

    def test_larger_of_two_blobs_wins(self):
        bg = _blank(60, 60)
        cur = np.full((60, 60), BACKGROUND_INTENSITY, dtype=np.uint8)
        cur[10:20, 10:20] = 220      # 100 px blob
        cur[40:43, 40:43] = 220      # 9 px noise patch
        box = detect_by_subtraction(bg, _frame_from_array(cur))
        assert (box.u_min, box.v_min, box.u_max, box.v_max) == (10, 10, 19, 19)

    def test_small_blob_below_min_area_ignored(self):
        bg = _blank(60, 60)
        cur = np.full((60, 60), BACKGROUND_INTENSITY, dtype=np.uint8)
        cur[5:8, 5:8] = 220  # 9 px < min_area 25
        assert detect_by_subtraction(bg, _frame_from_array(cur)) is None

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            detect_by_subtraction(_blank(10, 10),
                                  _blank(11, 10))

    def test_negative_threshold_raises(self):
        bg = _blank(10, 10)
        with pytest.raises(ValueError, match="threshold"):
            detect_by_subtraction(bg, bg, threshold=-1)
        # the shape check comes first
        with pytest.raises(ValueError, match="dimensions"):
            detect_by_subtraction(bg, _blank(11, 10), threshold=-1)

    @settings(max_examples=60, deadline=None)
    @given(poses, poses, st.integers(0, 255), st.integers(1, 60))
    def test_sparse_path_matches_dense(self, default_camera, bg_pose, cur_pose,
                                       threshold, min_area):
        # the background may hold the vehicle's ghost, as after a tracker
        # loss; rebuilt frames carry no box and take the dense path
        bg = render_frame(default_camera, bg_pose, DIMS, 0.0)
        cur = render_frame(default_camera, cur_pose, DIMS, 0.05)
        sparse = vision._foreground_components(bg, cur, threshold, min_area)
        dense = vision._foreground_components(
            vision.Frame(bg.pixels, 0.0), vision.Frame(cur.pixels, 0.05),
            threshold, min_area)
        assert sparse == dense

    @given(st.integers(0, 40), st.integers(0, 40),
           st.integers(5, 19), st.integers(5, 19))
    def test_box_tightness(self, u0, v0, w, h):
        bg = _blank(64, 64)
        cur = np.full((64, 64), BACKGROUND_INTENSITY, dtype=np.uint8)
        u1, v1 = min(63, u0 + w), min(63, v0 + h)
        cur[v0:v1 + 1, u0:u1 + 1] = 220
        box = detect_by_subtraction(bg, _frame_from_array(cur))
        mask = cur > BACKGROUND_INTENSITY + 30
        vs, us = mask.nonzero()
        # contains every foreground pixel and has no margin
        assert box.u_min == us.min() and box.u_max == us.max()
        assert box.v_min == vs.min() and box.v_max == vs.max()


def _drive_through(camera, x_start, x_end, v=3.0, fps=20.0, y=0.0):
    """Yield (t, pose, frame) for a constant-speed traversal."""
    t, x = 0.0, x_start
    while x <= x_end:
        yield t, Pose2D(x, y, 0.0), render_frame(camera, Pose2D(x, y, 0.0),
                                                 DIMS, t)
        t += 1.0 / fps
        x = x_start + v * t


class TestTrackStep:
    def test_empty_scene_never_detects(self, default_camera):
        state = TrackerState()
        for i in range(20):
            state, det = track_step(state, _blank(80, 60, i * 0.05))
            assert det is None
        assert state.mode == SEARCHING

    def test_drive_through_tracks_with_subpixel_centers(self, default_camera):
        # center of each detection within 1 px of the projected-rectangle
        # centroid computed by the projection oracle
        state = TrackerState()
        state, _ = track_step(state, render_frame(default_camera, None, DIMS, 0.0))
        n_checked = 0
        for t, pose, frame in _drive_through(default_camera, 4.0, 52.0):
            state, det = track_step(state, frame)
            painted = (frame.pixels == VEHICLE_INTENSITY)
            fully_visible = all(
                (p := project(default_camera, WorldPoint(pose.x + dx, pose.y + dy, 0)))
                and in_image(default_camera, p, margin=2)
                for dx, dy in ((2.25, 1), (2.25, -1), (-2.25, -1), (-2.25, 1)))
            if not fully_visible:
                continue
            assert det is not None
            vs, us = painted.nonzero()
            exp_u = (us.min() + us.max()) / 2.0
            exp_v = (vs.min() + vs.max()) / 2.0
            assert abs(det.center_u - exp_u) <= 1.0
            assert abs(det.center_v - exp_v) <= 1.0
            assert 0 <= det.center_u < frame.width
            assert 0 <= det.center_v < frame.height
            n_checked += 1
        assert n_checked > 100

    def test_loss_returns_to_searching(self, default_camera):
        state = TrackerState()
        state, _ = track_step(state, render_frame(default_camera, None, DIMS, 0.0))
        state, det = track_step(
            state, render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.05))
        assert state.mode == TRACKING and det is not None
        for i in range(6):
            state, det = track_step(
                state, render_frame(default_camera, None, DIMS, 0.1 + i * 0.05))
            assert det is None
        assert state.mode == SEARCHING

    def test_pipeline_consistency_back_projection(self, default_camera):
        # noise-free detections back-project within 0.5 m of the true
        # center across the footprint; record the achieved maximum
        state = TrackerState()
        state, _ = track_step(state, render_frame(default_camera, None, DIMS, 0.0))
        worst = 0.0
        for t, pose, frame in _drive_through(default_camera, 4.0, 50.0):
            state, det = track_step(state, frame)
            if det is None or det.box.touches_border(frame.width, frame.height):
                continue
            g = back_project_ground(default_camera,
                                    PixelPoint(det.center_u, det.center_v))
            worst = max(worst, math.hypot(g.x - pose.x, g.y - pose.y))
        assert worst > 0
        assert worst < 0.5, f"pipeline bias regression: {worst:.3f} m"


class TestPgmDump:
    def test_p5_header_and_payload(self, tmp_path, default_camera):
        fr = render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.0)
        path = tmp_path / "mssp1_f0.pgm"
        write_pgm(fr, path)
        data = path.read_bytes()
        header = b"P5\n800 600\n255\n"
        assert data.startswith(header)
        assert data[len(header):] == fr.pixels.tobytes()
