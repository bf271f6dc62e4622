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
from .geometry import CameraModel, Pose2D, PixelPoint, back_project_ground, \
    camera_matrix
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

        Every grid position along the scan line is tested in one numpy pass
        per camera: the (axis-aligned) vehicle rectangle centred there is
        fully visible when each of its four corners lies in front of the
        camera and inside the image, BORDER_MARGIN_PX clear of its edges.
        The cell runs from the first visible position to the last.
        """
        hl, hw = vehicle_dims[0] / 2.0, vehicle_dims[1] / 2.0
        m = BORDER_MARGIN_PX
        intervals = []
        for cam in cameras:
            lo = cam.position.x
            hi = cam.position.x + 20.0 * cam.position.z  # generous far bound
            xs = np.arange(lo, hi, CELL_SCAN_RESOLUTION)
            P = camera_matrix(cam)
            visible = np.ones(len(xs), dtype=bool)
            for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
                h = P @ np.stack([xs + dx, np.full_like(xs, CELL_SCAN_Y + dy),
                                  np.zeros_like(xs), np.ones_like(xs)])
                # a corner behind the camera (h[2] <= 0) is not visible; its
                # division below may give inf or nan, which every test fails
                with np.errstate(divide="ignore", invalid="ignore"):
                    u, v = h[0] / h[2], h[1] / h[2]
                visible &= ((h[2] > 0.0)
                            & (m <= u) & (u <= cam.width - 1 - m)
                            & (m <= v) & (v <= cam.height - 1 - m))
            kept = np.flatnonzero(visible)
            if not kept.size:
                raise ValueError(f"camera at x={cam.position.x} sees no cell")
            intervals.append((float(xs[kept[0]]), float(xs[kept[-1]])))
        return cls(tuple(intervals))


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
        """Consume pose messages, process the most recent due camera frame
        (skipping any older backlog), emit estimates."""
        for msg in inbox:
            if isinstance(msg, PoseMessage):
                if self.last_pose is None or msg.seq > self.last_pose.seq:
                    self.last_pose = msg
        # a camera drops frames when processing stalls: skip any backlog
        # beyond the most recent due frame instead of bursting through it.
        # Jump to a period short of it (the division may round either way),
        # then step on with the due test and the arithmetic used below.
        behind = now - self.frame_clock
        if behind > self.frame_period:
            self.frame_clock += ((int(behind / self.frame_period) - 1)
                                 * self.frame_period)
        while self.frame_clock + self.frame_period <= now + 1e-12:
            self.frame_clock += self.frame_period
        if self.frame_clock > now + 1e-12:
            return []
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
        # publish only while tracking and only fully-visible detections;
        # a box touching the border back-projects with a large bias
        if det is None or det.box.touches_border(self.camera.width,
                                                 self.camera.height):
            return []
        ground = back_project_ground(self.camera,
                                     PixelPoint(det.center_u, det.center_v))
        if ground is None:
            return []
        self.est_seq += 1
        return [EstimateMessage(sender=self.id, seq=self.est_seq, t=now,
                                mssp_id=self.id, x=ground.x, y=ground.y,
                                t_capture=det.capture_time)]


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
        self.phase = WAITING_FOR_FIRST_FIX
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

        # the truth-fed baseline feeds back the true position, every other
        # run the fused fix; either goes with the true heading (IMU), and
        # the true position never enters the control path in camera mode
        feedback = ((self.state.pose.x, self.state.pose.y)
                    if self.position_source == "truth" else fused)
        if self.phase == WAITING_FOR_FIRST_FIX and feedback is not None:
            self.phase = DRIVING

        if self.phase == DRIVING:
            if feedback is not None:
                ctrl_pose = Pose2D(feedback[0], feedback[1], self.state.pose.psi)
                target, self.cstate = control.select_target(
                    self.path, self.cstate, ctrl_pose, self.plan.lookahead_m)
                cmd, self.cstate = control.heading_control(
                    ctrl_pose, target, self.cparams, self.cstate)
                self.last_cmd = cmd
                if self.cstate.path_complete:
                    self.phase = STOPPED
            elif (self.been_in_last_cell
                  and now - self.last_fix_time > self.grace_period):
                # no cell lies ahead to give a fix; truth feedback is never
                # None, so the baseline never takes this stop
                self.phase = STOPPED
            # no feedback before the grace stop: hold the last command

        if self.phase == STOPPED:
            self.last_cmd = DbwCommand(0.0, 0.0)

        self.state = dynamics.step(self.state, self.last_cmd, dt, self.vparams)
        self.pose_seq += 1
        pose_msg = PoseMessage(sender="veh", seq=self.pose_seq, t=now + dt,
                               x=self.state.pose.x, y=self.state.pose.y,
                               psi=self.state.pose.psi, v=self.state.v)
        return VehicleStepResult(pose_msg=pose_msg, cmd=self.last_cmd,
                                 fused=fused, phase=self.phase)
