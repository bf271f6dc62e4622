import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iea_sim.control import ControllerParams, WaypointPlan
from iea_sim.dynamics import VehicleParams, VehicleState
from iea_sim.geometry import Pose2D, WorldPoint, project
from iea_sim.netbus import EstimateMessage, PoseMessage
from iea_sim.nodes import (BORDER_MARGIN_PX, CELL_SCAN_RESOLUTION, CELL_SCAN_Y,
                           DEFAULT_FRAME_PERIOD, DEFAULT_VEHICLE_DIMS, DRIVING,
                           STOPPED, WAITING_FOR_FIRST_FIX, CellLayout,
                           MsspNode, VehicleNode)

from conftest import in_image, make_camera

DT = 0.02


def pose_msg(x, y=0.0, psi=0.0, seq=1, t=0.0):
    return PoseMessage(sender="veh", seq=seq, t=t, x=x, y=y, psi=psi, v=3.0)


def vehicle_fully_visible(camera, x, y, vehicle_dims=DEFAULT_VEHICLE_DIMS):
    """Scalar reference of the cell scan: all four corners of the
    (axis-aligned) vehicle rectangle project in-image."""
    hl, hw = vehicle_dims[0] / 2.0, vehicle_dims[1] / 2.0
    for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
        px = project(camera, WorldPoint(x + dx, y + dy, 0.0))
        if px is None or not in_image(camera, px, margin=BORDER_MARGIN_PX):
            return False
    return True


class TestVehicleFullyVisible:
    def test_center_of_footprint(self, default_camera):
        assert vehicle_fully_visible(default_camera, 20.0, 0.0)

    def test_far_outside(self, default_camera):
        assert not vehicle_fully_visible(default_camera, 500.0, 0.0)

    def test_partially_cut_at_near_edge(self, default_camera):
        # footprint starts ~1.5 m ahead; a vehicle centered at 2.5 m hangs out
        assert not vehicle_fully_visible(default_camera, 2.5, 0.0)


def _full_scan(cam, dims):
    """Reference cell scan: test every grid position along the corridor."""
    xs = np.arange(cam.position.x, cam.position.x + 20.0 * cam.position.z,
                   CELL_SCAN_RESOLUTION)
    vis = [i for i, x in enumerate(xs)
           if vehicle_fully_visible(cam, float(x), CELL_SCAN_Y, dims)]
    if not vis:
        return None
    return float(xs[vis[0]]), float(xs[vis[-1]])


class TestCellLayout:
    def test_consecutive_cells_must_overlap(self):
        with pytest.raises(ValueError):
            CellLayout(intervals=((0.0, 10.0), (10.0, 20.0)))
        with pytest.raises(ValueError):
            CellLayout(intervals=((0.0, 10.0), (12.0, 20.0)))

    def test_from_cameras_three_unit_spacing(self):
        cams = [make_camera(x=x) for x in (30.0, 70.0, 110.0)]
        layout = CellLayout.from_cameras(cams)
        assert len(layout.intervals) == 3
        for (a0, a1), (b0, b1) in zip(layout.intervals, layout.intervals[1:]):
            assert b0 < a1, "adjacent cells should overlap"
        lo, hi = layout.intervals[0]
        # full-visibility interval sits inside the ground footprint, narrowed
        # by half a vehicle length plus the pixel margin at each end; at the
        # grazing far edge one pixel of margin is worth roughly half a meter
        assert 30.0 + 1.4 < lo < 30.0 + 1.5 + 2.25 + 0.2
        assert 30.0 + 54.5 - 2.25 - 1.0 < hi < 30.0 + 54.5 - 2.25 + 0.1

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(-12.0, 12.0), st.floats(3.0, 15.0),
           st.floats(0.2, 1.4), st.floats(-0.4, 0.4), st.floats(1.0, 8.0),
           st.floats(0.5, 3.0))
    def test_matches_full_scan(self, x, y, z, pitch, yaw, length, width):
        cam = make_camera(x=x, y=y, z=z, pitch=pitch, yaw=yaw)
        expected = _full_scan(cam, (length, width))
        if expected is None:
            with pytest.raises(ValueError, match="sees no cell"):
                CellLayout.from_cameras([cam], (length, width))
        else:
            layout = CellLayout.from_cameras([cam], (length, width))
            assert layout.intervals == (expected,)

    def test_off_center_camera_takes_the_full_scan(self):
        # the scan line crosses the view off its center, yet some positions
        # along it are visible
        cam = make_camera(y=10.0)
        expected = _full_scan(cam, DEFAULT_VEHICLE_DIMS)
        assert expected is not None
        assert CellLayout.from_cameras([cam]).intervals == (expected,)


class TestMsspNode:
    def _warmed(self, camera=None):
        """Node that has already captured an empty background frame."""
        node = MsspNode("mssp1", camera or make_camera())
        assert node.step(0.0, []) == []
        return node

    def test_no_pose_never_emits(self):
        node = self._warmed()
        for i in range(1, 20):
            assert node.step(i * 0.05, []) == []

    def test_estimate_near_optical_axis_is_accurate(self):
        node = self._warmed()
        out = node.step(0.05, [pose_msg(9.0)])
        assert len(out) == 1
        est = out[0]
        assert est.mssp_id == "mssp1"
        assert math.hypot(est.x - 9.0, est.y - 0.0) < 0.5
        assert est.t_capture == 0.05
        assert est.t == 0.05

    def test_frozen_pose_persists_until_replaced(self):
        node = self._warmed()
        node.step(0.05, [pose_msg(20.0, seq=1)])
        # no further pose traffic: the node keeps seeing the frozen scene
        out = node.step(0.10, [])
        assert len(out) == 1
        assert abs(out[0].x - 20.0) < 0.5
        out = node.step(0.15, [pose_msg(21.0, seq=2)])
        assert abs(out[0].x - 21.0) < 0.5

    def test_stale_pose_seq_ignored(self):
        node = self._warmed()
        node.step(0.05, [pose_msg(20.0, seq=5)])
        out = node.step(0.10, [pose_msg(10.0, seq=3)])  # out of order
        assert abs(out[0].x - 20.0) < 0.5

    def test_vehicle_outside_footprint_emits_nothing(self):
        node = self._warmed()
        for i in range(1, 10):
            assert node.step(i * 0.05, [pose_msg(500.0, seq=i)]) == []

    def test_partially_visible_vehicle_gated(self):
        # vehicle straddles the near footprint edge: detected blob touches
        # the image border, so no estimate may be published
        node = self._warmed()
        assert node.step(0.05, [pose_msg(2.5)]) == []

    def test_sequence_numbers_increase(self):
        node = self._warmed()
        seqs = []
        for i in range(1, 6):
            for est in node.step(i * 0.05, [pose_msg(20.0 + i * 0.15, seq=i)]):
                seqs.append(est.seq)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_backlog_beyond_latest_due_frame_is_skipped(self):
        node = self._warmed()
        out = node.step(0.25, [pose_msg(20.0)])  # frames due at .05..+.25
        assert [est.t_capture for est in out] == [0.25]
        assert node.frame_seq == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_a_stall_renders_exactly_the_latest_due_frame(self, seed):
        # a stall of k periods, from frame_clock = 0 and from random clock
        # offsets; 0.3 / 0.05 is 5.999999999999999, so a skip by the
        # rounded-down quotient alone leaves two frames due at now = 0.3
        rng = np.random.default_rng(seed)
        period = DEFAULT_FRAME_PERIOD
        for k in range(2, 400):
            start = 0.0 if seed == 0 else float(rng.uniform(0.0, 100.0))
            # k * 0.05 rounded once (k / 20) and twice (k * period)
            for now in (start + k / 20, start + k * period):
                node = MsspNode("mssp1", make_camera(), frame_period=period)
                node.frame_clock = start
                node.step(now, [])
                assert node.frame_seq == 1, (start, now)
                t_frame = node.tracker.background.capture_time
                assert t_frame <= now + 1e-12 < node.frame_clock
                assert node.frame_clock == t_frame + period


def make_vehicle(x0=0.0, y0=0.0, psi0=0.0, v0=3.0, waypoints=((0, 0), (300, 0)),
                 cells=((0.0, 400.0),), position_source="cameras", **kw):
    return VehicleNode(
        initial_state=VehicleState(Pose2D(x0, y0, psi0), v0, 0.0, 0.0),
        plan=WaypointPlan(waypoints=waypoints),
        cparams=ControllerParams(),
        cells=CellLayout(intervals=cells),
        position_source=position_source, **kw)


def est_msg(x, y, t, seq, mssp_id="mssp1"):
    return EstimateMessage(sender=mssp_id, seq=seq, t=t, mssp_id=mssp_id,
                           x=x, y=y, t_capture=t)


class TestVehicleNode:
    def test_waiting_phase_drives_straight_with_lag_oracle(self):
        # no estimates at all: the vehicle cruises straight from rest;
        # closed form of the discrete first-order speed lag
        veh = make_vehicle(v0=0.0)
        n = 50
        for i in range(n):
            res = veh.step(i * DT, [], DT)
            assert res.phase == WAITING_FOR_FIRST_FIX
            assert res.fused is None
        tau = VehicleParams().tau_v
        a = 1.0 - DT / tau
        v_cruise = ControllerParams().v_cruise
        v_expect = v_cruise * (1.0 - a ** n)
        x_expect = v_cruise * DT * (n - a * (1.0 - a ** n) / (1.0 - a))
        assert veh.state.v == pytest.approx(v_expect, abs=1e-12)
        assert veh.state.pose.x == pytest.approx(x_expect, abs=1e-9)
        assert veh.state.pose.y == 0.0

    def test_pose_broadcast_timestamps_and_seq(self):
        veh = make_vehicle()
        r1 = veh.step(0.0, [], DT)
        r2 = veh.step(DT, [], DT)
        assert r1.pose_msg.seq == 1 and r2.pose_msg.seq == 2
        assert r1.pose_msg.t == pytest.approx(DT)
        assert r2.pose_msg.t == pytest.approx(2 * DT)
        assert r2.pose_msg.x == veh.state.pose.x

    def test_perfect_estimates_reproduce_truth_fed_run(self):
        # feeding the camera-fed vehicle its own exact position every step
        # must replicate the truth-fed baseline bit for bit
        cam = make_vehicle(waypoints=((0, 0), (60, 0)))
        tru = make_vehicle(waypoints=((0, 0), (60, 0)), position_source="truth")
        for i in range(1500):
            t = i * DT
            inbox = [est_msg(cam.state.pose.x, cam.state.pose.y, t, seq=i + 1)]
            rc = cam.step(t, inbox, DT)
            rt = tru.step(t, [], DT)
            assert cam.state.pose == tru.state.pose
            assert cam.state.v == tru.state.v
            if rc.phase == STOPPED and rt.phase == STOPPED:
                break
        assert cam.phase == STOPPED and tru.phase == STOPPED

    def test_first_fix_transitions_to_driving(self):
        veh = make_vehicle()
        assert veh.step(0.0, [], DT).phase == WAITING_FOR_FIRST_FIX
        res = veh.step(DT, [est_msg(veh.state.pose.x, 0.0, DT, seq=1)], DT)
        assert res.phase == DRIVING
        assert res.fused is not None

    def test_stops_after_estimates_cease_past_last_cell(self):
        # cells end at x=20; the plan keeps going, so the stop must come
        # from the coverage-exhausted grace period, not path completion
        veh = make_vehicle(cells=((0.0, 20.0),), waypoints=((0, 0), (200, 0)))
        i = 0
        stop_t = None
        last_est_t = None
        while i * DT < 30.0:
            t = i * DT
            inbox = []
            if veh.state.pose.x < 20.0:
                inbox = [est_msg(veh.state.pose.x, veh.state.pose.y, t, seq=i + 1)]
                last_est_t = t
            res = veh.step(t, inbox, DT)
            if res.phase == STOPPED and stop_t is None:
                stop_t = t
            i += 1
        assert stop_t is not None
        # the fix stays live for one staleness timeout past the last estimate
        slack = veh.fusion.staleness_timeout + 3 * DT
        assert stop_t - last_est_t <= veh.grace_period + slack
        assert veh.state.v < 0.2

    def test_truth_fed_vehicle_drives_on_past_its_last_cell(self):
        # the same early end of coverage as above, but fed the truth: the
        # grace stop is for lost camera feedback, which the baseline never has
        veh = make_vehicle(cells=((0.0, 20.0),), waypoints=((0, 0), (200, 0)),
                           position_source="truth")
        for i in range(1500):
            t = i * DT
            inbox = []
            if veh.state.pose.x < 20.0:
                inbox = [est_msg(veh.state.pose.x, veh.state.pose.y, t,
                                 seq=i + 1)]
            res = veh.step(t, inbox, DT)
            assert res.phase == DRIVING
        assert veh.been_in_last_cell
        assert veh.state.pose.x > 80.0
        assert veh.state.v == pytest.approx(ControllerParams().v_cruise)

    def test_control_follows_estimates_not_truth(self):
        # estimates biased +0.5 m in y: steering the estimate onto the
        # centerline parks the true vehicle at y = -0.5
        veh = make_vehicle()
        for i in range(2000):
            t = i * DT
            inbox = [est_msg(veh.state.pose.x, veh.state.pose.y + 0.5, t,
                             seq=i + 1)]
            veh.step(t, inbox, DT)
        assert veh.state.pose.y == pytest.approx(-0.5, abs=0.1)

    def test_overlap_fuses_both_cells(self):
        veh = make_vehicle()
        veh.step(0.0, [est_msg(10.0, 0.2, 0.0, 1, "mssp1"),
                       est_msg(12.0, -0.2, 0.0, 1, "mssp2")], DT)
        res = veh.step(DT, [], DT)
        assert res.fused == (pytest.approx(11.0), pytest.approx(0.0))
        assert sorted(veh.fusion.latest) == ["mssp1", "mssp2"]

    def test_rejects_unknown_position_source(self):
        with pytest.raises(ValueError):
            make_vehicle(position_source="gps")

    def test_stopped_vehicle_decelerates_to_rest(self):
        veh = make_vehicle(waypoints=((0, 0), (20, 0)))
        for i in range(3000):
            t = i * DT
            veh.step(t, [est_msg(veh.state.pose.x, veh.state.pose.y, t,
                                 seq=i + 1)], DT)
            if veh.phase == STOPPED and veh.state.v < 1e-3:
                break
        assert veh.phase == STOPPED
        assert veh.state.v < 1e-3
        # no overshoot beyond the lookahead-completion point plus stop distance
        assert veh.state.pose.x < 25.0
