"""Lookahead waypoint targeting and the heading controller.

The plan is a coarse waypoint list linearly interpolated into a finer
path; at each control step the target is the first path point at least
lookahead_m ahead of the current position. The controller is a
proportional heading law followed by saturation and a first-order
exponential output filter (y_k = alpha * u_k + (1 - alpha) * y_{k-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import DbwCommand
from .geometry import Pose2D, wrap_angle


@dataclass(frozen=True)
class WaypointPlan:
    waypoints: tuple[tuple[float, float], ...]
    interp_spacing: float = 1.0
    lookahead_m: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "waypoints",
                           tuple((float(x), float(y)) for x, y in self.waypoints))
        if len(self.waypoints) < 2:
            raise ValueError("plan needs at least two waypoints")
        if self.interp_spacing <= 0 or self.lookahead_m <= 0:
            raise ValueError("interp_spacing and lookahead_m must be positive")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if math.dist(a, b) < 1e-12:
                raise ValueError("consecutive waypoints must not coincide")


@dataclass(frozen=True)
class ControllerParams:
    kp: float = 1.0          # [1/s]
    u_max: float = 0.5       # yaw-rate saturation [rad/s]
    alpha: float = 0.2       # output filter weight
    v_cruise: float = 3.0    # [m/s]

    def __post_init__(self):
        if self.kp <= 0 or self.u_max <= 0 or self.v_cruise <= 0:
            raise ValueError("kp, u_max, v_cruise must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")


@dataclass(frozen=True)
class ControllerState:
    y_prev: float = 0.0
    target_index: int = 0
    path_complete: bool = False


def interpolate_path(plan: WaypointPlan) -> list[tuple[float, float]]:
    """Subdivide each segment at spacing <= interp_spacing, keeping all waypoints."""
    path: list[tuple[float, float]] = [plan.waypoints[0]]
    for (x0, y0), (x1, y1) in zip(plan.waypoints, plan.waypoints[1:]):
        n = max(1, math.ceil(math.dist((x0, y0), (x1, y1)) / plan.interp_spacing))
        for i in range(1, n + 1):
            f = i / n
            path.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0)))
    return path


def suffix_boxes(path: list[tuple[float, float]]
                 ) -> list[tuple[float, float, float, float]]:
    """The bounding box (x_min, x_max, y_min, y_max) of each suffix
    path[i:], for i = 0 .. len(path); the last, of no point, is empty
    (inf, -inf, inf, -inf), so that every pose lies infinitely far from it.
    """
    inf = math.inf
    boxes = [(inf, -inf, inf, -inf)]
    for x, y in reversed(path):
        x0, x1, y0, y1 = boxes[-1]
        boxes.append((min(x, x0), max(x, x1), min(y, y0), max(y, y1)))
    boxes.reverse()
    return boxes


def select_target(path: list[tuple[float, float]],
                  boxes: list[tuple[float, float, float, float]],
                  cstate: ControllerState, pose: Pose2D, lookahead_m: float
                  ) -> tuple[tuple[float, float], ControllerState]:
    """First path point at least lookahead_m ahead of the pose, never regressing.

    The index first advances (forward only) to the first of the remaining
    path points nearest the pose, then on to the first point at least
    lookahead_m away; this keeps points behind the vehicle from being
    re-targeted. When even the final point is closer than the lookahead,
    returns the final point with path_complete set. `boxes` are the
    path's `suffix_boxes`.

    The search for the nearest point walks forward from the target index
    and stops once the box of the points after it lies farther from the
    pose than the nearest point so far: none of them can be nearer. The
    box's distance and each point's `math.dist` round independently, so
    it must be farther by a relative margin far above their rounding.
    """
    if not path:
        raise ValueError("empty path")
    x, y = here = pose.x, pose.y
    start = i = cstate.target_index
    dist = []  # math.dist of path[start:], as far as the search needs
    best = math.inf
    for j in range(start, len(path)):
        d = math.dist(path[j], here)
        dist.append(d)
        if d < best:
            best, i = d, j
        x0, x1, y0, y1 = boxes[j + 1]
        if math.hypot(max(x0 - x, x - x1, 0.0),
                      max(y0 - y, y - y1, 0.0)) > best * (1.0 + 1e-9):
            break
    last = len(path) - 1
    while True:
        k = i - start
        if k == len(dist):
            dist.append(math.dist(path[i], here))
        if i == last or not dist[k] < lookahead_m:
            break
        i += 1
    complete = i == last and dist[i - start] < lookahead_m
    return path[i], ControllerState(cstate.y_prev, i,
                                    cstate.path_complete or complete)


def filter_step(y_prev: float, u_new: float, alpha: float) -> float:
    """First-order exponential smoothing; small alpha weights history."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    return alpha * u_new + (1.0 - alpha) * y_prev


def heading_control(pose: Pose2D, target: tuple[float, float],
                    params: ControllerParams, cstate: ControllerState
                    ) -> tuple[DbwCommand, ControllerState]:
    """Proportional heading law -> saturation -> output filter.

    A target coincident with the pose position reissues the previous
    filtered command and leaves the state unchanged.
    """
    dx, dy = target[0] - pose.x, target[1] - pose.y
    if math.hypot(dx, dy) < 1e-12:
        return DbwCommand(params.v_cruise, cstate.y_prev), cstate
    e = wrap_angle(math.atan2(dy, dx) - pose.psi)
    u_sat = min(max(params.kp * e, -params.u_max), params.u_max)
    y = filter_step(cstate.y_prev, u_sat, params.alpha)
    return (DbwCommand(params.v_cruise, y),
            ControllerState(y, cstate.target_index, cstate.path_complete))
