"""Node state machines: roadside camera unit (MSSP) and vehicle.

An MSSP node replays the last received ground-truth pose into its own
rendered scene, runs the tracker, back-projects detections to the road
plane and publishes position estimates — but only while tracking and only
for detections fully inside the image. The vehicle node fuses incoming
estimates, steers toward the lookahead target and broadcasts its true
pose every dynamics step.

The vehicle's control path never sees the vehicle's true position: the
controller receives the fused camera estimate plus the true heading (an
IMU stand-in). A separate truth-fed mode exists only as the explicit
baseline for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import control, dynamics, vision
from .control import ControllerParams, ControllerState, WaypointPlan
from .dynamics import DbwCommand, VehicleParams, VehicleState
from .fusion import FusionState, PositionEstimate
from .geometry import CameraModel, Pose2D, PixelPoint, WorldPoint, \
    back_project_ground, in_image, project
from .netbus import EstimateMessage, PoseMessage

WAITING_FOR_FIRST_FIX = "waiting_for_first_fix"
DRIVING = "driving"
STOPPED = "stopped"

DEFAULT_FRAME_PERIOD = 0.05   # 20 fps
DEFAULT_GRACE_PERIOD = 2.0    # s without estimates after the last cell
DEFAULT_VEHICLE_DIMS = (4.5, 2.0)
BORDER_MARGIN_PX = 1
CELL_SCAN_Y = 0.0           # lateral position of the cell scan [m]
CELL_SCAN_RESOLUTION = 0.1  # step of the cell scan along the corridor [m]


def vehicle_fully_visible(camera: CameraModel, x: float, y: float,
                          vehicle_dims: tuple[float, float] = DEFAULT_VEHICLE_DIMS
                          ) -> bool:
    """All four corners of the (axis-aligned) vehicle rectangle project in-image."""
    hl, hw = vehicle_dims[0] / 2.0, vehicle_dims[1] / 2.0
    for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
        px = project(camera, WorldPoint(x + dx, y + dy, 0.0))
        if px is None or not in_image(camera, px, margin=BORDER_MARGIN_PX):
            return False
    return True


@dataclass(frozen=True)
class CellLayout:
    """Per-MSSP ground footprint x-intervals along the corridor."""
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for (a0, a1), (b0, b1) in zip(self.intervals, self.intervals[1:]):
            if b0 >= a1:
                raise ValueError("consecutive camera cells must overlap")

    @classmethod
    def from_cameras(cls, cameras: list[CameraModel],
                     vehicle_dims: tuple[float, float] = DEFAULT_VEHICLE_DIMS
                     ) -> "CellLayout":
        """Scan the corridor for each camera's full-vehicle-visible x-interval.

        Along the scan line each corner's visible set is the line's crossing
        of a convex ground region, so the fully visible grid indices form
        one run. From the index under the image center, bisect for its first
        and last index; if that index is not visible, test every one.
        """
        intervals = []
        for cam in cameras:
            lo = cam.position.x
            hi = cam.position.x + 20.0 * cam.position.z  # generous far bound
            xs = np.arange(lo, hi, CELL_SCAN_RESOLUTION)

            def visible(i):
                return vehicle_fully_visible(cam, float(xs[i]), CELL_SCAN_Y,
                                             vehicle_dims)

            center = _center_index(cam, xs)
            if center is not None and visible(center):
                first = _bisect(visible, center, -1)
                last = _bisect(visible, center, len(xs))
            else:
                vis = [i for i in range(len(xs)) if visible(i)]
                if not vis:
                    raise ValueError(f"camera at x={cam.position.x} sees no cell")
                first, last = vis[0], vis[-1]
            intervals.append((float(xs[first]), float(xs[last])))
        return cls(tuple(intervals))


def _center_index(camera: CameraModel, xs: np.ndarray) -> Optional[int]:
    """Scan index nearest the ground point under the image center, or None."""
    ground = back_project_ground(camera, PixelPoint(camera.cx, camera.cy))
    if ground is None:
        return None
    i = round((ground.x - xs[0]) / CELL_SCAN_RESOLUTION)
    return i if 0 <= i < len(xs) else None


def _bisect(visible, inside: int, outside: int) -> int:
    """The visible index nearest `outside` in a run holding `inside`.

    `outside` lies beyond the run (it may be one past either end of the
    scan); every index between `inside` and the run's end is visible.
    """
    while abs(outside - inside) > 1:
        mid = (inside + outside) // 2
        if visible(mid):
            inside = mid
        else:
            outside = mid
    return inside


class MsspNode:
    """Roadside camera node: render -> track -> back-project -> publish."""

    def __init__(self, node_id: str, camera: CameraModel,
                 frame_period: float = DEFAULT_FRAME_PERIOD,
                 vehicle_dims: tuple[float, float] = DEFAULT_VEHICLE_DIMS,
                 noise_sigma: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 dump_dir: Optional[Path] = None):
        self.id = node_id
        self.camera = camera
        self.frame_period = frame_period
        self.vehicle_dims = vehicle_dims
        self.noise_sigma = noise_sigma
        self.rng = rng
        self.dump_dir = Path(dump_dir) if dump_dir else None
        self.tracker = vision.TrackerState()
        self.last_pose: Optional[PoseMessage] = None
        self.frame_clock = 0.0
        self.frame_seq = 0
        self.est_seq = 0

    def step(self, now: float, inbox: list) -> list[EstimateMessage]:
        """Consume pose messages, process any due camera frames, emit estimates."""
        for msg in inbox:
            if isinstance(msg, PoseMessage):
                if self.last_pose is None or msg.seq > self.last_pose.seq:
                    self.last_pose = msg
        out = []
        while self.frame_clock <= now + 1e-12:
            t_frame = self.frame_clock
            self.frame_clock += self.frame_period
            pose = None
            if self.last_pose is not None:
                # the scene replays the last synchronized pose (it lags the
                # truth by the network + tick latency, as in a live system)
                pose = Pose2D(self.last_pose.x, self.last_pose.y,
                              self.last_pose.psi)
            frame = vision.render_frame(self.camera, pose, self.vehicle_dims,
                                        t_frame, self.noise_sigma, self.rng)
            if self.dump_dir is not None:
                vision.write_pgm(frame,
                                 self.dump_dir / f"{self.id}_f{self.frame_seq}.pgm")
            self.frame_seq += 1
            self.tracker, det = vision.track_step(self.tracker, frame)
            if det is None:
                continue
            # publish only while tracking and only fully-visible detections;
            # a box touching the border back-projects with a large bias
            if det.box.touches_border(self.camera.width, self.camera.height):
                continue
            ground = back_project_ground(self.camera,
                                         PixelPoint(det.center_u, det.center_v))
            if ground is None:
                continue
            self.est_seq += 1
            out.append(EstimateMessage(sender=self.id, seq=self.est_seq, t=now,
                                       mssp_id=self.id, x=ground.x, y=ground.y,
                                       t_capture=det.capture_time))
        return out


@dataclass
class VehicleStepResult:
    pose_msg: PoseMessage
    cmd: DbwCommand
    fused: Optional[tuple[float, float]]
    phase: str


class VehicleNode:
    """Vehicle node: fuse estimates -> steer to lookahead target -> broadcast truth."""

    def __init__(self, initial_state: VehicleState, plan: WaypointPlan,
                 cparams: ControllerParams, cells: CellLayout,
                 vparams: VehicleParams = VehicleParams(),
                 fusion: Optional[FusionState] = None,
                 grace_period: float = DEFAULT_GRACE_PERIOD,
                 position_source: str = "cameras"):
        if position_source not in ("cameras", "truth"):
            raise ValueError(f"unknown position source {position_source!r}")
        self.state = initial_state
        self.plan = plan
        self.path = control.interpolate_path(plan)
        self.cparams = cparams
        self.cells = cells
        self.vparams = vparams
        self.fusion = fusion if fusion is not None else FusionState()
        self.grace_period = grace_period
        self.position_source = position_source
        self.cstate = ControllerState()
        self.phase = DRIVING if position_source == "truth" else WAITING_FOR_FIRST_FIX
        self.pose_seq = 0
        self.last_fix_time: Optional[float] = None
        self.been_in_last_cell = False
        self.last_cmd = DbwCommand(cparams.v_cruise, 0.0)

    def step(self, now: float, inbox: list, dt: float) -> VehicleStepResult:
        for msg in inbox:
            if isinstance(msg, EstimateMessage):
                self.fusion.ingest(PositionEstimate(
                    mssp_id=msg.mssp_id, x=msg.x, y=msg.y,
                    t_capture=msg.t_capture, t_received=now, seq=msg.seq))
        fused = self.fusion.fuse(now)
        if fused is not None:
            self.last_fix_time = now
            if fused[0] >= self.cells.intervals[-1][0]:
                self.been_in_last_cell = True

        if self.phase == WAITING_FOR_FIRST_FIX:
            if fused is not None:
                self.phase = DRIVING
            else:
                self.last_cmd = DbwCommand(self.cparams.v_cruise, 0.0)

        if self.phase == DRIVING:
            if self.position_source == "truth":
                feedback = (self.state.pose.x, self.state.pose.y)
            else:
                feedback = fused
            if (self.position_source == "cameras" and fused is None
                    and self.been_in_last_cell
                    and now - self.last_fix_time > self.grace_period):
                self.phase = STOPPED
            elif feedback is not None:
                # fused position + true heading (IMU); true position never
                # enters the control path in camera mode
                ctrl_pose = Pose2D(feedback[0], feedback[1], self.state.pose.psi)
                target, self.cstate = control.select_target(
                    self.path, self.cstate, ctrl_pose, self.plan.lookahead_m)
                cmd, self.cstate = control.heading_control(
                    ctrl_pose, target, self.cparams, self.cstate)
                self.last_cmd = cmd
                if self.cstate.path_complete:
                    self.phase = STOPPED
            # feedback None without stop condition: hold the last command

        if self.phase == STOPPED:
            self.last_cmd = DbwCommand(0.0, 0.0)

        self.state = dynamics.step(self.state, self.last_cmd, dt, self.vparams)
        self.pose_seq += 1
        pose_msg = PoseMessage(sender="veh", seq=self.pose_seq, t=now + dt,
                               x=self.state.pose.x, y=self.state.pose.y,
                               psi=self.state.pose.psi, v=self.state.v)
        return VehicleStepResult(pose_msg=pose_msg, cmd=self.last_cmd,
                                 fused=fused, phase=self.phase)
