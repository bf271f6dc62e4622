import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iea_sim import dynamics
from iea_sim.control import (ControllerParams, ControllerState, WaypointPlan,
                             filter_step, heading_control, interpolate_path,
                             select_target, suffix_boxes)
from iea_sim.dynamics import VehicleState
from iea_sim.geometry import Pose2D


class TestWaypointPlan:
    def test_rejects_short_or_degenerate_plans(self):
        with pytest.raises(ValueError):
            WaypointPlan(waypoints=((0, 0),))
        with pytest.raises(ValueError):
            WaypointPlan(waypoints=((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            WaypointPlan(waypoints=((0, 0), (1, 0)), interp_spacing=-1)


class TestInterpolatePath:
    def test_uniform_subdivision(self):
        plan = WaypointPlan(waypoints=((0, 0), (10, 0)), interp_spacing=2.0)
        assert interpolate_path(plan) == [(0, 0), (2, 0), (4, 0), (6, 0),
                                          (8, 0), (10, 0)]

    def test_segment_shorter_than_spacing(self):
        plan = WaypointPlan(waypoints=((0, 0), (1, 0)), interp_spacing=5.0)
        assert interpolate_path(plan) == [(0, 0), (1, 0)]

    def test_l_path_against_arc_length_oracle(self):
        plan = WaypointPlan(waypoints=((0, 0), (10, 0), (10, 10)),
                            interp_spacing=3.0)
        path = interpolate_path(plan)
        # brute-force oracle: every original waypoint present, in order,
        # consecutive spacing <= interp_spacing, no duplicates
        for w in plan.waypoints:
            assert w in path
        assert path == sorted(set(path), key=path.index)
        for a, b in zip(path, path[1:]):
            assert 0 < math.dist(a, b) <= plan.interp_spacing + 1e-12
        total = sum(math.dist(a, b) for a, b in zip(path, path[1:]))
        assert total == pytest.approx(20.0)


class TestSelectTarget:
    def _straight(self):
        return interpolate_path(
            WaypointPlan(waypoints=((0, 0), (40, 0)), interp_spacing=2.0))

    def test_from_origin(self):
        path = self._straight()
        tgt, cs = select_target(path, suffix_boxes(path),
                                ControllerState(), Pose2D(0, 0, 0), 10.0)
        assert tgt == (10.0, 0.0)
        assert not cs.path_complete

    def test_mid_path_scan_oracle(self):
        path = self._straight()
        tgt, _ = select_target(path, suffix_boxes(path),
                               ControllerState(), Pose2D(6, 0, 0), 10.0)
        # brute-force scan: first point at distance >= 10 ahead of (6, 0)
        assert tgt == (16.0, 0.0)

    def test_past_all_points_sets_complete(self):
        path = self._straight()
        tgt, cs = select_target(path, suffix_boxes(path),
                                ControllerState(), Pose2D(45, 0, 0), 10.0)
        assert tgt == (40.0, 0.0)
        assert cs.path_complete

    def test_points_behind_are_never_retargeted(self):
        path = self._straight()
        tgt, _ = select_target(path, suffix_boxes(path),
                               ControllerState(), Pose2D(20, 0, 0), 10.0)
        assert tgt == (30.0, 0.0)

    def test_index_monotonic_over_run(self):
        path = self._straight()
        cs = ControllerState()
        prev = 0
        for x in [0, 5, 3, 12, 11, 20, 35, 45]:  # includes backward motion
            _, cs = select_target(path, suffix_boxes(path), cs,
                                  Pose2D(x, 0.5, 0), 10.0)
            assert cs.target_index >= prev
            prev = cs.target_index


def _exhaustive_select_target(path, cstate, pose, lookahead_m):
    """The reference: `select_target` as it was when it measured every
    remaining path point on each call."""
    here = (pose.x, pose.y)
    start = cstate.target_index
    dist = [math.dist(p, here) for p in path[start:]]
    i = start + dist.index(min(dist))
    while i < len(path) - 1 and dist[i - start] < lookahead_m:
        i += 1
    complete = i == len(path) - 1 and dist[i - start] < lookahead_m
    return path[i], ControllerState(cstate.y_prev, i,
                                    cstate.path_complete or complete)


@st.composite
def target_searches(draw):
    """A path, a pose on it or far off it, and a lookahead from below the
    interpolation spacing to beyond the path's length. Integer corners make
    points that repeat along the path and poses at equal distance from
    several points, so the first of the nearest points matters."""
    shape = draw(st.sampled_from(("random", "u_turn", "back_past_start",
                                  "retrace")))
    a = draw(st.integers(1, 25))
    b = draw(st.integers(1, 10))
    if shape == "random":
        corners = draw(st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            min_size=2, max_size=5).filter(
                lambda c: all(p != q for p, q in zip(c, c[1:]))))
    elif shape == "u_turn":
        corners = [(0, 0), (a, 0), (a, b), (0, b)]
    elif shape == "back_past_start":
        corners = [(0, 0), (a, 0), (a, b), (-b, b), (-b, 0), (-a - b, 0)]
    else:
        corners = [(0, 0), (a, 0), (0, 0)]
    spacing = draw(st.sampled_from((0.5, 1.0, 2.5)) | st.floats(0.3, 4.0))
    path = interpolate_path(WaypointPlan(corners, spacing))
    length = sum(math.dist(p, q) for p, q in zip(path, path[1:]))
    lookahead = draw(st.floats(0.05, 1.0).map(lambda f: f * spacing)
                     | st.floats(0.05, 2.0).map(lambda f: f * length + 0.1))
    if draw(st.booleans()):
        px, py = draw(st.sampled_from(path))
        jitter = st.sampled_from((0.0, 0.5)) | st.floats(-2.0, 2.0)
        x, y = px + draw(jitter), py + draw(jitter)
    else:
        far = st.floats(-1000.0, 1000.0)
        x, y = draw(far), draw(far)
    return path, Pose2D(x, y, 0.0), lookahead


class TestBoundedSearch:
    @settings(max_examples=150, deadline=None)
    @given(target_searches(), st.booleans())
    def test_matches_exhaustive_scan(self, case, complete):
        # from every target index, the search bounded by the suffix boxes
        # takes the target, index and completion of the exhaustive scan
        path, pose, lookahead = case
        boxes = suffix_boxes(path)
        for index in range(len(path)):
            cstate = ControllerState(0.1, index, complete)
            assert (select_target(path, boxes, cstate, pose, lookahead)
                    == _exhaustive_select_target(path, cstate, pose,
                                                 lookahead))

    def test_suffix_boxes(self):
        path = [(0.0, 1.0), (3.0, -2.0), (1.0, 0.5)]
        assert suffix_boxes(path) == [(0.0, 3.0, -2.0, 1.0),
                                      (1.0, 3.0, -2.0, 0.5),
                                      (1.0, 1.0, 0.5, 0.5),
                                      (math.inf, -math.inf, math.inf,
                                       -math.inf)]


class TestFilterStep:
    def test_passthrough_at_alpha_one(self):
        assert filter_step(0.3, 1.0, 1.0) == 1.0

    def test_step_response_recurrence(self):
        # recurrence unrolled by hand: 0.2, 0.36, 0.488, ...
        y = 0.0
        expected = [0.2, 0.36, 0.488]
        for e in expected:
            y = filter_step(y, 1.0, 0.2)
            assert y == pytest.approx(e, abs=1e-12)

    def test_constant_input_fixed_point(self):
        y = 0.0
        for _ in range(200):
            y = filter_step(y, 0.7, 0.2)
        assert y == pytest.approx(0.7, abs=1e-12)


class TestHeadingControl:
    PARAMS = ControllerParams(kp=1.0, u_max=0.5, alpha=1.0, v_cruise=3.0)

    def test_on_axis_target_zero_command(self):
        cmd, cs = heading_control(Pose2D(0, 0, 0), (10.0, 0.0), self.PARAMS,
                                  ControllerState())
        assert cmd.yaw_rate_cmd == 0.0
        assert cmd.v_cmd == 3.0

    def test_saturation(self):
        cmd, _ = heading_control(Pose2D(0, 0, 0), (0.0, 10.0), self.PARAMS,
                                 ControllerState())
        # e = pi/2 ~ 1.5708, raw 1.5708, saturated to 0.5
        assert cmd.yaw_rate_cmd == pytest.approx(0.5)

    def test_wraps_heading_error_short_way(self):
        # pose heading 3.0, desired heading -3.0: e = wrap(-6.0) ~ +0.28319
        target = (math.cos(-3.0), math.sin(-3.0))
        cmd, _ = heading_control(Pose2D(0, 0, 3.0), target, self.PARAMS,
                                 ControllerState())
        assert cmd.yaw_rate_cmd == pytest.approx(-6.0 + 2 * math.pi, abs=1e-9)

    def test_coincident_target_reissues_previous(self):
        cs = ControllerState(y_prev=0.25)
        cmd, cs2 = heading_control(Pose2D(1, 1, 0), (1.0, 1.0), self.PARAMS, cs)
        assert cmd.yaw_rate_cmd == 0.25
        assert cs2 == cs

    @given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20),
                              st.floats(-math.pi, math.pi)),
                    min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_output_always_saturated(self, moves):
        params = ControllerParams(kp=3.0, u_max=0.5, alpha=0.2, v_cruise=3.0)
        cs = ControllerState()
        for x, y, psi in moves:
            tx, ty = x + 1.0, y - 2.0
            cmd, cs = heading_control(Pose2D(x, y, psi), (tx, ty), params, cs)
            assert abs(cmd.yaw_rate_cmd) <= params.u_max + 1e-12
            assert abs(cs.y_prev) <= params.u_max + 1e-12


class TestStraightPathConvergence:
    @pytest.mark.parametrize("y0,psi0", [(2.0, 0.0), (-2.0, 0.5),
                                         (1.0, -math.pi / 4), (0.5, 0.7)])
    def test_converges_to_centerline(self, y0, psi0):
        plan = WaypointPlan(waypoints=((0, 0), (400, 0)), interp_spacing=1.0,
                            lookahead_m=10.0)
        path = interpolate_path(plan)
        boxes = suffix_boxes(path)
        params = ControllerParams()
        cs = ControllerState()
        state = VehicleState(Pose2D(0.0, y0, psi0), 3.0, 0.0, 0.0)
        tail = []
        for i in range(3000):  # 60 s at 50 Hz
            tgt, cs = select_target(path, boxes, cs, state.pose,
                                     plan.lookahead_m)
            cmd, cs = heading_control(state.pose, tgt, params, cs)
            state = dynamics.step(state, cmd, 0.02)
            if i >= 2500:
                tail.append(abs(state.pose.y))
        # steady state: the last 10 s stay inside the band
        assert max(tail) < 0.3
