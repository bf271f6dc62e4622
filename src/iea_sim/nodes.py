"""Node state machines, each built from the scenario: roadside camera unit
(MSSP) and vehicle.

An MSSP node replays the last received ground-truth pose into its own
rendered scene (its first frame, the tracker's background, is the empty
road), runs the tracker, back-projects detections to the road plane and
publishes position estimates — but only while tracking and only for
detections fully inside the image. The vehicle node fuses incoming
estimates, steers toward the lookahead target, broadcasts its true pose
every dynamics step, logs the run's rows and decides when the run ends.

One loop (`harness._serve`) drives either node, in both modes, through
one contract: `step(now, inbox)` returns the messages for the node's
`peers` (the vehicle for a camera, the cameras for the vehicle),
`next_due` is the time of its next step on its own schedule, and `done`
says it has finished.

The vehicle's control path never sees the vehicle's true position: the
controller receives the fused camera estimate plus the true heading (an
IMU stand-in). A separate truth-fed mode exists only as the explicit
baseline for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import control, dynamics, vision
from .control import ControllerState
from .dynamics import DbwCommand, VehicleState
from .fusion import FusionState, PositionEstimate
from .geometry import CameraModel, Pose2D, PixelPoint, back_project_ground
from .netbus import EstimateMessage, PoseMessage

if TYPE_CHECKING:  # scenario imports this module
    from .scenario import ScenarioConfig

WAITING_FOR_FIRST_FIX = "waiting_for_first_fix"
DRIVING = "driving"
STOPPED = "stopped"

VEHICLE_ID = "veh"  # the vehicle's node id; cameras are mssp1, mssp2, ...
STOP_TAIL_S = 2.0  # keep logging this long after the stop is commanded
DUE_EPS_S = 1e-12  # a step is due once `now` is this close to its time
DEFAULT_VEHICLE_DIMS = (4.5, 2.0)
BORDER_MARGIN_PX = 1
CELL_SCAN_Y = 0.0           # lateral position of the cell scan [m]
CELL_SCAN_RESOLUTION = 0.1  # step of the cell scan along the corridor [m]


@dataclass(frozen=True)
class CellLayout:
    """Per-MSSP ground footprint x-intervals along the corridor, in road
    order: each starts no earlier than, and overlaps, the one before."""
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for (a0, a1), (b0, b1) in zip(self.intervals, self.intervals[1:]):
            if b0 < a0:
                raise ValueError("cameras must be listed in road order")
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
            p1, p2, p3 = cam.matrix_rows
            visible = np.ones(len(xs), dtype=bool)
            for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
                # `geometry.project_xyz`'s row sums, elementwise (at z = 0
                # its r[2] * z term adds a zero, which moves no nonzero sum)
                x, y = xs + dx, CELL_SCAN_Y + dy
                w = p3[0] * x + p3[1] * y + p3[3]
                # a corner behind the camera (w <= 0) is not visible; its
                # division below may give inf or nan, which every test fails
                with np.errstate(divide="ignore", invalid="ignore"):
                    u = (p1[0] * x + p1[1] * y + p1[3]) / w
                    v = (p2[0] * x + p2[1] * y + p2[3]) / w
                visible &= ((w > 0.0)
                            & (m <= u) & (u <= cam.width - 1 - m)
                            & (m <= v) & (v <= cam.height - 1 - m))
            kept = np.flatnonzero(visible)
            if not kept.size:
                raise ValueError(f"camera at x={cam.position.x} sees no cell")
            intervals.append((float(xs[kept[0]]), float(xs[kept[-1]])))
        return cls(tuple(intervals))


class MsspNode:
    """Roadside camera node: render -> track -> back-project -> publish."""

    def __init__(self, cfg: ScenarioConfig, node_id: str,
                 dump_dir: Optional[Path] = None):
        """Camera `node_id` of the scenario; it dumps its frames as PGM into
        `dump_dir`, created here, if one is given."""
        idx = cfg.mssp_ids().index(node_id)
        self.id = node_id
        self.peers = [VEHICLE_ID]
        self.t_end = cfg.duration_cap_s + STOP_TAIL_S  # past the run's end
        self.camera = cfg.cameras[idx]
        self.frame_period = cfg.frame_period
        self.vehicle_dims = cfg.vehicle_dims
        self.noise_sigma = cfg.noise_sigma
        self.rng = (np.random.default_rng(cfg.seed * 1000 + idx)
                    if cfg.noise_sigma > 0 else None)
        self.dump_dir = dump_dir
        if dump_dir is not None:
            dump_dir.mkdir(parents=True, exist_ok=True)
        self.tracker = vision.TrackerState()
        self.last_pose: Optional[PoseMessage] = None
        self.frame_clock = 0.0
        self.frame_seq = 0
        self.est_seq = 0

    @property
    def next_due(self) -> float:
        return self.frame_clock

    @property
    def done(self) -> bool:
        return self.frame_clock >= self.t_end

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
        # Neither moves the clock past `now`, so the due test gives the
        # same answer before them as after.
        behind = now - self.frame_clock
        if behind > self.frame_period:
            self.frame_clock += ((int(behind / self.frame_period) - 1)
                                 * self.frame_period)
        while self.frame_clock + self.frame_period <= now + DUE_EPS_S:
            self.frame_clock += self.frame_period
        if self.frame_clock > now + DUE_EPS_S:  # no frame due at `now`
            return []
        t_frame = self.frame_clock
        self.frame_clock += self.frame_period
        pose = None
        # frame 0 is the tracker's background, the empty road, whatever
        # pose has arrived; it draws the same noise slots either way
        if self.last_pose is not None and self.frame_seq:
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


class VehicleNode:
    """Vehicle node: fuse estimates -> steer to lookahead target -> broadcast
    truth; each control step is logged, and the node ends the run."""

    def __init__(self, cfg: ScenarioConfig):
        x0, y0, psi0 = cfg.vehicle_start
        self.state = VehicleState(Pose2D(x0, y0, psi0),
                                  v=cfg.controller.v_cruise, yaw_rate=0.0,
                                  t=0.0)
        self.plan = cfg.plan
        self.path = control.interpolate_path(cfg.plan)
        self.path_boxes = control.suffix_boxes(self.path)
        self.cparams = cfg.controller
        self.cells = cfg.cells()
        self.vparams = cfg.vehicle_params
        self.fusion = FusionState(cfg.staleness_timeout_s)
        self.grace_period = cfg.grace_period_s
        self.position_source = cfg.position_source
        self.dt = cfg.dt
        self.t_last = (math.ceil(cfg.duration_cap_s / self.dt) - 1) * self.dt
        self.mssp_ids = cfg.mssp_ids()
        # each camera's run.csv columns, named once
        self.est_columns = [(mid, f"{mid}_x", f"{mid}_y")
                            for mid in self.mssp_ids]
        self.id = VEHICLE_ID
        self.peers = [n for n in cfg.nodes() if n != VEHICLE_ID]
        self.steps = 0  # control steps on the schedule so far, see `step`
        self.done = False
        self.cstate = ControllerState()
        self.phase = WAITING_FOR_FIRST_FIX
        self.pose_seq = 0
        self.last_fix_time: Optional[float] = None
        self.been_in_last_cell = False
        self.last_cmd = DbwCommand(cfg.controller.v_cruise, 0.0)
        self.rows: list[dict] = []
        self.est_records: list[tuple] = []
        self.rejected = 0  # estimates dropped unlogged, see `step`
        self.t_stop: Optional[float] = None

    @property
    def next_due(self) -> float:
        return self.steps * self.dt

    def step(self, now: float, inbox: list) -> list[PoseMessage]:
        """Step at time `now`: fuse the inbox, steer, log the row.

        An estimate that names no camera of the scenario, or was captured
        after `now`, is counted in `rejected` and neither logged nor fused.
        The first would be fused as one more cell; fusion refuses the second
        with a ValueError, which would end the node.

        Returns the pose to broadcast, stamped `now + dt`. Sets `done` once
        the run is over: STOP_TAIL_S after the stop, or earlier once the
        vehicle stands, and at the latest at `t_last`, the last `i * dt`
        before duration_cap_s. A step over 10 dt behind its place on the
        schedule, `steps * dt` (a processing stall), moves the next one to
        the first place after `now` instead of bursting through the missed
        steps; in lockstep `now` is its place.
        """
        dt = self.dt
        i = self.steps
        if now > (i + 10) * dt:
            i = int(now / dt)
        self.steps = i + 1
        for msg in inbox:
            if isinstance(msg, EstimateMessage):
                if msg.mssp_id not in self.mssp_ids or msg.t_capture > now:
                    self.rejected += 1
                    continue
                self.est_records.append((msg.mssp_id, msg.seq, msg.t_capture,
                                         now, msg.x, msg.y))
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
        state = self.state
        feedback = ((state.pose.x, state.pose.y)
                    if self.position_source == "truth" else fused)
        if self.phase == WAITING_FOR_FIRST_FIX and feedback is not None:
            self.phase = DRIVING

        if self.phase == DRIVING:
            if feedback is not None:
                ctrl_pose = Pose2D(feedback[0], feedback[1], state.pose.psi)
                target, self.cstate = control.select_target(
                    self.path, self.path_boxes, self.cstate, ctrl_pose,
                    self.plan.lookahead_m)
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
        cmd = self.last_cmd

        self.state = dynamics.step(state, cmd, dt, self.vparams)
        self.pose_seq += 1
        pose_msg = PoseMessage(sender=self.id, seq=self.pose_seq, t=now + dt,
                               x=self.state.pose.x, y=self.state.pose.y,
                               psi=self.state.pose.psi, v=self.state.v)

        # the row holds the state the step started from
        row = {"t": now, "true_x": state.pose.x, "true_y": state.pose.y,
               "true_psi": state.pose.psi, "true_v": state.v,
               "fused_x": None if fused is None else fused[0],
               "fused_y": None if fused is None else fused[1],
               "yaw_rate_cmd": cmd.yaw_rate_cmd, "v_cmd": cmd.v_cmd,
               "phase": self.phase}
        latest = self.fusion.latest
        for mid, col_x, col_y in self.est_columns:
            est = latest.get(mid)
            row[col_x] = None if est is None else est.x
            row[col_y] = None if est is None else est.y
        self.rows.append(row)
        if self.phase == STOPPED and self.t_stop is None:
            self.t_stop = now
        self.done = now >= self.t_last or (self.t_stop is not None and (
            now - self.t_stop >= STOP_TAIL_S or self.state.v < 1e-3))
        return [pose_msg]
