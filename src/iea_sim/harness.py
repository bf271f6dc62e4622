"""Scenario configuration, experiment orchestration, logs and summaries.

A scenario is one JSON document (cameras, waypoint plan, controller and
link parameters, mode, seed). Reading and writing it are both derived from
the key table `SCENARIO_KEYS`; defaults come from the dataclass fields,
each value must fit its field's annotation (numbers finite), and unknown
keys are rejected.

Runs execute either in single-process lockstep (deterministic:
byte-identical CSVs for identical scenario+seed) or distributed, with one
OS process per node talking UDP on loopback. Both modes build the nodes
with `make_mssp` and `VehicleRun`, which also logs each control step,
applies the stop rule and writes the outputs. The mode loops differ only
in their clock (simulated `i * dt`, or the paced wall clock) and transport.

Outputs per run directory (`read_run` loads them back):
  scenario.json    resolved copy of the scenario actually run
  run.csv          one row per control step (truth, fused, per-MSSP estimates)
  estimates.csv    every estimate received by the vehicle
  net_metrics.csv  every datagram delivery (bytes, one-way latency)
  summary.json     statistics recomputable from the CSVs alone
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import select
import subprocess
import sys
import time
import typing
from dataclasses import dataclass, replace
from pathlib import Path
from subprocess import PIPE
from typing import Optional

import numpy as np

from .control import ControllerParams, WaypointPlan
from .dynamics import MAX_STEP_S, VehicleParams, VehicleState
from .fusion import DEFAULT_STALENESS_TIMEOUT, FusionState
from .geometry import Pose2D, CameraModel
from .netbus import (EstimateMessage, LinkConfig, LockstepNetwork,
                     UdpTransport, latency_percentiles)
from .nodes import (DEFAULT_FRAME_PERIOD, DEFAULT_GRACE_PERIOD,
                    DEFAULT_VEHICLE_DIMS, CellLayout, MsspNode, VehicleNode,
                    STOPPED)

SCHEMA_VERSION = 1
STOP_TAIL_S = 2.0  # keep logging this long after the stop is commanded
SETTLE_AFTER_S = 10.0  # score cross-track error from first fix + this
READY = "ready"  # a distributed node's line once it is set up
READY_TIMEOUT_S = 60.0  # longest wait for every node to say READY
START_MARGIN_S = 0.1  # t = 0 this long after the epoch is sent, so every
                      # node has read it before its first step is due


class ScenarioError(ValueError):
    """Scenario fails validation."""


@dataclass
class ScenarioConfig:
    name: str
    cameras: list[CameraModel]
    plan: WaypointPlan
    controller: ControllerParams
    vehicle_params: VehicleParams
    link: LinkConfig
    mode: str = "lockstep"
    seed: int = 0
    duration_cap_s: float = 90.0
    control_rate_hz: float = 50.0
    frame_rate_hz: float = 1.0 / DEFAULT_FRAME_PERIOD
    position_source: str = "cameras"
    vehicle_start: tuple[float, float, float] = (0.0, 0.0, 0.0)
    vehicle_dims: tuple[float, float] = DEFAULT_VEHICLE_DIMS
    staleness_timeout_s: float = DEFAULT_STALENESS_TIMEOUT
    grace_period_s: float = DEFAULT_GRACE_PERIOD
    noise_sigma: float = 0.0
    host: str = "127.0.0.1"
    base_port: int = 47800
    camera_spacing_m: Optional[float] = None

    def __post_init__(self):
        # the name goes unquoted into the run logs' `# … name=…` line
        if not self.name or any(c.isspace() or not c.isprintable()
                                for c in self.name):
            raise ScenarioError(f"scenario name {self.name!r} must be "
                                "non-empty, without whitespace or control "
                                "characters")
        if not self.cameras:
            raise ScenarioError("scenario needs at least one camera")
        # the seed enters np.random.default_rng, which refuses a negative one
        if (not isinstance(self.seed, int) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise ScenarioError("seed must be a non-negative integer, "
                                f"not {self.seed!r}")
        if not self.noise_sigma >= 0:
            raise ScenarioError("noise_sigma must be non-negative, "
                                f"not {self.noise_sigma!r}")
        if not min(self.vehicle_dims) > 0:
            raise ScenarioError("vehicle.dims must be two positive numbers "
                                f"[length, width], not {self.vehicle_dims!r}")
        if not self.duration_cap_s > 0:
            raise ScenarioError("duration_cap_s must be positive, "
                                f"not {self.duration_cap_s!r}")
        if self.mode not in ("lockstep", "distributed"):
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if self.position_source not in ("cameras", "truth"):
            raise ScenarioError(f"unknown position source {self.position_source!r}")
        # a control step longer than dynamics.MAX_STEP_S fails at the first step
        if not self.control_rate_hz >= 1.0 / MAX_STEP_S:
            raise ScenarioError(f"control_rate_hz must be at least "
                                f"{1.0 / MAX_STEP_S!r}, not "
                                f"{self.control_rate_hz!r}")
        if not self.frame_rate_hz > 0:
            raise ScenarioError("frame_rate_hz must be positive, "
                                f"not {self.frame_rate_hz!r}")
        if not 1024 <= self.base_port <= 65535 - len(self.cameras):
            raise ScenarioError("base_port leaves no room for distinct node ports")
        if self.camera_spacing_m is not None and len(self.cameras) > 1:
            for a, b in zip(self.cameras, self.cameras[1:]):
                if abs((b.position.x - a.position.x) - self.camera_spacing_m) > 1e-6:
                    raise ScenarioError("camera positions contradict camera_spacing_m")

    @property
    def dt(self) -> float:
        return 1.0 / self.control_rate_hz

    @property
    def frame_period(self) -> float:
        return 1.0 / self.frame_rate_hz

    def mssp_ids(self) -> list[str]:
        return [f"mssp{i + 1}" for i in range(len(self.cameras))]

    def node_addr(self, node_id: str) -> tuple[str, int]:
        if node_id == "veh":
            return (self.host, self.base_port)
        idx = self.mssp_ids().index(node_id)
        return (self.host, self.base_port + idx + 1)

    def plan_hash(self) -> str:
        blob = json.dumps({"waypoints": self.plan.waypoints,
                           "interp_spacing": self.plan.interp_spacing,
                           "lookahead_m": self.plan.lookahead_m},
                          sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]

    def cells(self) -> CellLayout:
        return CellLayout.from_cameras(self.cameras, self.vehicle_dims)

    def to_json_obj(self) -> dict:
        return _to_doc(self, SCENARIO_KEYS)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScenarioConfig":
        return _from_doc(cls, obj, SCENARIO_KEYS, "scenario")


# scenario.json key path -> attribute path, in file order. An (attribute,
# table) pair is a list whose entries the nested table lays out. Defaults,
# and which keys are required, come from the dataclass fields alone; any
# other key is rejected.
CAMERA_KEYS = {
    "x": "position.x", "y": "position.y", "z": "position.z",
    "roll_rad": "roll", "pitch_rad": "pitch", "yaw_rad": "yaw",
    "fx": "fx", "fy": "fy", "cx": "cx", "cy": "cy",
    "width": "width", "height": "height",
}
SCENARIO_KEYS = {
    "name": "name",
    "mode": "mode",
    "seed": "seed",
    "duration_cap_s": "duration_cap_s",
    "control_rate_hz": "control_rate_hz",
    "frame_rate_hz": "frame_rate_hz",
    "position_source": "position_source",
    "noise_sigma": "noise_sigma",
    "camera_spacing_m": "camera_spacing_m",
    "vehicle.start": "vehicle_start",
    "vehicle.dims": "vehicle_dims",
    "vehicle.tau_v": "vehicle_params.tau_v",
    "vehicle.tau_w": "vehicle_params.tau_w",
    "vehicle.yaw_rate_limit": "vehicle_params.yaw_rate_limit",
    "controller.kp": "controller.kp",
    "controller.u_max": "controller.u_max",
    "controller.alpha": "controller.alpha",
    "controller.v_cruise": "controller.v_cruise",
    "plan.waypoints": "plan.waypoints",
    "plan.interp_spacing": "plan.interp_spacing",
    "plan.lookahead_m": "plan.lookahead_m",
    "fusion.staleness_timeout_s": "staleness_timeout_s",
    "fusion.grace_period_s": "grace_period_s",
    "link.latency_min_s": "link.latency_min",
    "link.latency_max_s": "link.latency_max",
    "link.drop_probability": "link.drop_probability",
    "net.host": "host",
    "net.base_port": "base_port",
    "cameras": ("cameras", CAMERA_KEYS),
}


def _to_doc(obj, keys: dict) -> dict:
    doc: dict = {}
    for path, attr in keys.items():
        attr, entry_keys = attr if isinstance(attr, tuple) else (attr, None)
        value = obj
        for name in attr.split("."):
            value = getattr(value, name)
        section, _, leaf = path.rpartition(".")
        node = doc.setdefault(section, {}) if section else doc
        node[leaf] = ([_to_doc(v, entry_keys) for v in value] if entry_keys
                      else _thawed(value))
    return doc


def _thawed(value):
    return [_thawed(v) for v in value] if isinstance(value, tuple) else value


def _frozen(value):
    return tuple(_frozen(v) for v in value) if isinstance(value, list) else value


def _from_doc(cls, doc, keys: dict, where: str):
    """Build `cls` from a JSON object laid out by `keys`."""
    # every nested object is built, from its defaults if none of its keys is set
    kwargs: dict = {attr.split(".")[0]: {} for attr in keys.values()
                    if isinstance(attr, str) and "." in attr}
    for path, value in _flatten(doc, keys, where).items():
        attr = keys[path]
        if isinstance(attr, str):
            value = _frozen(value)
            hint = cls
            for name in attr.split("."):
                hint = _hints(hint)[name]
            if not _fits(value, hint):
                raise ScenarioError(f"{where}.{path} must be {_kind(hint)}, "
                                    f"not {_thawed(value)!r}")
        elif isinstance(value, list):
            attr, entry_keys = attr
            entry_cls = typing.get_args(_hints(cls)[attr])[0]
            value = [_from_doc(entry_cls, e, entry_keys, f"{where}.{path}[{i}]")
                     for i, e in enumerate(value)]
        else:
            raise ScenarioError(f"{where}.{path} must be a list")
        owner, _, leaf = attr.rpartition(".")
        (kwargs[owner] if owner else kwargs)[leaf] = value
    return _construct(cls, kwargs)


def _fits(value, hint) -> bool:
    """`value` has the type `hint`: a number is finite and not a bool (by
    abs, not math.isfinite, which overflows on an int beyond float range)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if origin is typing.Union:
        return any(_fits(value, a) for a in args)
    return isinstance(value, hint)


def _kind(hint) -> str:
    """How a scenario document writes a value of type `hint`."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return f"[{_kind(args[0])}, ...]"
        return f"[{', '.join(map(_kind, args))}]"
    if origin is typing.Union:
        return " or ".join(map(_kind, args))
    return {float: "a finite number", int: "an integer", str: "a string",
            type(None): "null"}[hint]


def _flatten(doc, keys: dict, where: str, section: str = "") -> dict:
    """Values of `doc` by key path, descending into the table's sections."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}{'.' if section else ''}{section} "
                            "must be a JSON object")
    flat = {}
    for key, value in doc.items():
        path = f"{section}.{key}" if section else key
        if path in keys:
            flat[path] = value
        elif any(p.startswith(path + ".") for p in keys):
            flat.update(_flatten(value, keys, where, path))
        else:
            raise ScenarioError(f"unknown key {path!r} in {where}")
    return flat


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _construct(cls, kwargs: dict):
    """`cls(**kwargs)` with nested dicts built into the field's dataclass; a
    missing required key fails here."""
    try:
        return cls(**{name: _construct(_hints(cls)[name], v)
                      if isinstance(v, dict) else v
                      for name, v in kwargs.items()})
    except TypeError as exc:
        raise ScenarioError(f"bad scenario document: {exc}") from exc


def load_scenario(source: str | Path) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(source)
    if not path.is_file():
        from importlib import resources
        candidate = resources.files("iea_sim") / "scenarios" / f"{source}.json"
        if not candidate.is_file():
            raise ScenarioError(f"no such scenario file or bundled name: {source}")
        return ScenarioConfig.from_json_obj(json.loads(candidate.read_text()))
    return ScenarioConfig.from_json_obj(json.loads(path.read_text()))


# ---------------------------------------------------------------------------
# logging

RowList = list[dict]


def _write_csv(path: Path, cols: list[str], records,
               comment: Optional[str] = None) -> None:
    """The one CSV writer of the run logs and their exports.

    Writes an optional `# comment` line, the header and one row per record
    (a sequence in `cols` order). `csv` writes a float as its `repr`, so it
    parses back bit-identically, and None as an empty field.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        out = csv.writer(f, lineterminator="\n")
        out.writerow(cols)
        out.writerows(records)


def run_columns(mssp_ids: list[str]) -> list[str]:
    cols = ["t", "true_x", "true_y", "true_psi", "true_v", "fused_x", "fused_y"]
    for mid in mssp_ids:
        cols += [f"{mid}_x", f"{mid}_y"]
    cols += ["yaw_rate_cmd", "v_cmd", "phase"]
    return cols


def write_run_csv(path: Path, rows: RowList, cfg: ScenarioConfig) -> None:
    cols = run_columns(cfg.mssp_ids())
    _write_csv(path, cols, ([r.get(c) for c in cols] for r in rows),
               comment=f"schema={SCHEMA_VERSION} name={cfg.name} "
                       f"plan={cfg.plan_hash()} mssps={','.join(cfg.mssp_ids())} "
                       f"dt={cfg.dt!r} v_cruise={cfg.controller.v_cruise!r}")


def write_estimates_csv(path: Path, records: list[tuple]) -> None:
    _write_csv(path, ["mssp_id", "seq", "t_capture", "t_received", "x", "y"],
               records, comment=f"schema={SCHEMA_VERSION}")


def write_net_csv(path: Path, records: list[tuple]) -> None:
    _write_csv(path, ["t_received", "sender", "receiver", "bytes", "latency"],
               records, comment=f"schema={SCHEMA_VERSION}")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _parse_value(col: str, v: str):
    if v == "":
        return None
    if col in ("phase", "mssp_id", "sender", "receiver"):
        return v
    if col == "seq" or col == "bytes":
        return int(v)
    return float(v)


def read_run_csv(path: Path) -> tuple[dict, list[str], list[dict]]:
    """Comment-line metadata, header and parsed rows of a run-log CSV.

    Fields are split by `csv`, the mirror of `_write_csv`, so a quoted
    field that holds a comma stays one field. A row whose field count
    differs from the header's (a torn write, say) raises ValueError naming
    the file and the line.
    """
    meta: dict = {}
    rows: list[dict] = []
    with open(path, encoding="utf-8", newline="") as f:
        first = f.readline()
        comment = first.startswith("#")
        if comment:
            for part in first[1:].split():
                if "=" in part:
                    k, v = part.split("=", 1)
                    meta[k] = v
        else:
            f.seek(0)
        reader = csv.reader(f)
        cols = next(reader, [""])
        for vals in reader:
            if not vals:
                continue
            if len(vals) != len(cols):
                raise ValueError(f"{path}, line {reader.line_num + comment}: "
                                 f"{len(vals)} fields under a "
                                 f"{len(cols)}-column header")
            rows.append({c: _parse_value(c, v) for c, v in zip(cols, vals)})
    return meta, cols, rows


# ---------------------------------------------------------------------------
# summary statistics

def point_to_polyline(x: float, y: float,
                      waypoints) -> tuple[float, tuple[float, float]]:
    """Min distance from (x, y) to the waypoint polyline and the foot point."""
    best = math.inf
    best_pt = waypoints[0]
    for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:]):
        dx, dy = x1 - x0, y1 - y0
        L2 = dx * dx + dy * dy
        s = 0.0 if L2 == 0 else max(0.0, min(1.0, ((x - x0) * dx + (y - y0) * dy) / L2))
        px, py = x0 + s * dx, y0 + s * dy
        d = math.hypot(x - px, y - py)
        if d < best:
            best, best_pt = d, (px, py)
    return best, best_pt


def summarize(rows: RowList, est_records: list[tuple], net_records: list[tuple],
              cfg: ScenarioConfig) -> dict:
    """Run statistics; a pure function of the logged data and the scenario."""
    waypoints = cfg.plan.waypoints
    mssp_ids = cfg.mssp_ids()

    first_fix_t = None
    for r in rows:
        if r["fused_x"] is not None:
            first_fix_t = r["t"]
            break

    cross = [(r["t"], point_to_polyline(r["true_x"], r["true_y"], waypoints)[0])
             for r in rows]
    settle_t = None if first_fix_t is None else first_fix_t + SETTLE_AFTER_S
    settled = [c for t, c in cross if settle_t is not None and t >= settle_t]

    # truth at each estimate's capture time; estimates captured outside
    # the logged time range are not scored
    ts = [r["t"] for r in rows]
    scored = [rec for rec in est_records if ts and ts[0] <= rec[2] <= ts[-1]]
    t_cap = [rec[2] for rec in scored]
    true_x = np.interp(t_cap, ts, [r["true_x"] for r in rows]).tolist() if scored else []
    true_y = np.interp(t_cap, ts, [r["true_y"] for r in rows]).tolist() if scored else []
    per_mssp = {}
    for mid in mssp_ids:
        errs = [math.hypot(rec[4] - x, rec[5] - y)
                for rec, x, y in zip(scored, true_x, true_y) if rec[0] == mid]
        per_mssp[mid] = {
            "n": len(errs),
            "rms_m": math.sqrt(sum(e * e for e in errs) / len(errs)) if errs else None,
            "max_m": max(errs) if errs else None,
        }

    y_end = waypoints[-1][1]
    overshoot = max((r["true_y"] - y_end for r in rows), default=0.0)

    jumps = []
    prev = None
    for r in rows:
        if r["fused_x"] is None:
            prev = None
            continue
        cur = (r["fused_x"], r["fused_y"])
        if prev is not None:
            jumps.append(math.hypot(cur[0] - prev[0], cur[1] - prev[1]))
        prev = cur

    t_stop = None
    stop_reason = None
    for r in rows:
        if r["phase"] == STOPPED:
            t_stop = r["t"]
            stop_reason = "stopped"
            break

    end_t = rows[-1]["t"] if rows else 0.0
    window = max(end_t, 1e-9)
    by_link: dict[str, dict] = {}
    latencies = []
    for t, snd, rcv, nb, lat in net_records:
        latencies.append(lat)
        d = by_link.setdefault(f"{snd}->{rcv}", {"packets": 0, "bytes": 0})
        d["packets"] += 1
        d["bytes"] += nb
    net = {
        "per_link": {
            k: {"packets_per_s": d["packets"] / window,
                "bytes_per_s": d["bytes"] / window}
            for k, d in sorted(by_link.items())
        },
        "latency": latency_percentiles(latencies),
        "latency_min": min(latencies) if latencies else None,
    }

    return {
        "schema": SCHEMA_VERSION,
        "scenario": cfg.name,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "end_t": end_t,
        "first_fix_t": first_fix_t,
        "settle_t": settle_t,
        "t_stop": t_stop,
        "stop_reason": stop_reason,
        "final_speed": rows[-1]["true_v"] if rows else None,
        "cross_track": {
            "rms_after_settle_m":
                math.sqrt(sum(c * c for c in settled) / len(settled))
                if settled else None,
            "max_after_settle_m": max(settled) if settled else None,
            "max_m": max((c for _, c in cross), default=None),
        },
        "per_mssp_error": per_mssp,
        "overshoot_peak_m": overshoot,
        "handover_jump_max_m": max(jumps) if jumps else None,
        "net": net,
    }


# ---------------------------------------------------------------------------
# run execution

@dataclass
class RunResult:
    rows: RowList
    est_records: list[tuple]
    net_records: list[tuple]
    summary: dict
    out_dir: Path
    cfg: ScenarioConfig


def read_run(out_dir: Path) -> RunResult:
    """Load the scenario, the logs and the stored summary of a run directory."""
    out_dir = Path(out_dir)
    _meta, _cols, rows = read_run_csv(out_dir / "run.csv")
    est_records, net_records = (
        [tuple(r.values()) for r in read_run_csv(out_dir / name)[2]]
        for name in ("estimates.csv", "net_metrics.csv"))
    summary = json.loads((out_dir / "summary.json").read_text())
    return RunResult(rows, est_records, net_records, summary, out_dir,
                     load_scenario(out_dir / "scenario.json"))


def make_mssp(cfg: ScenarioConfig, node_id: str, out_dir: Path,
              dump_frames: bool = False) -> MsspNode:
    idx = cfg.mssp_ids().index(node_id)
    dump_dir = out_dir / "frames" if dump_frames else None
    if dump_dir:
        dump_dir.mkdir(parents=True, exist_ok=True)
    rng = (np.random.default_rng(cfg.seed * 1000 + idx)
           if cfg.noise_sigma > 0 else None)
    return MsspNode(node_id, cfg.cameras[idx], cfg.frame_period,
                    cfg.vehicle_dims, cfg.noise_sigma, rng, dump_dir)


class VehicleRun:
    """The vehicle node and its logs, driven by one `step` per control step."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        x0, y0, psi0 = cfg.vehicle_start
        self.node = VehicleNode(
            initial_state=VehicleState(Pose2D(x0, y0, psi0),
                                       v=cfg.controller.v_cruise, yaw_rate=0.0,
                                       t=0.0),
            plan=cfg.plan, cparams=cfg.controller, cells=cfg.cells(),
            vparams=cfg.vehicle_params,
            fusion=FusionState(cfg.staleness_timeout_s),
            grace_period=cfg.grace_period_s,
            position_source=cfg.position_source)
        self.dt = cfg.dt
        self.mssp_ids = cfg.mssp_ids()
        self.rows: RowList = []
        self.est_records: list[tuple] = []
        self.rejected = 0  # estimates dropped unlogged, see `step`
        self.t_stop: Optional[float] = None

    def step(self, t: float, inbox: list):
        """Step the node at time t and log the inbox and the row.

        An estimate that names no camera of the scenario, or was captured
        after t, is counted in `rejected` and neither logged nor fused. The
        first would be fused as one more cell; fusion refuses the second
        with a ValueError, which would end the node.

        Returns the pose to broadcast and whether the run is over: it ends
        STOP_TAIL_S after the stop, or earlier once the vehicle stands.
        """
        accepted = []
        for msg in inbox:
            if isinstance(msg, EstimateMessage):
                if msg.mssp_id not in self.mssp_ids or msg.t_capture > t:
                    self.rejected += 1
                    continue
                self.est_records.append((msg.mssp_id, msg.seq, msg.t_capture,
                                         t, msg.x, msg.y))
            accepted.append(msg)
        state = self.node.state
        res = self.node.step(t, accepted, self.dt)
        row = {"t": t, "true_x": state.pose.x, "true_y": state.pose.y,
               "true_psi": state.pose.psi, "true_v": state.v,
               "fused_x": None if res.fused is None else res.fused[0],
               "fused_y": None if res.fused is None else res.fused[1],
               "yaw_rate_cmd": res.cmd.yaw_rate_cmd, "v_cmd": res.cmd.v_cmd,
               "phase": res.phase}
        for mid in self.mssp_ids:
            est = self.node.fusion.latest.get(mid)
            row[f"{mid}_x"] = None if est is None else est.x
            row[f"{mid}_y"] = None if est is None else est.y
        self.rows.append(row)
        if res.phase == STOPPED and self.t_stop is None:
            self.t_stop = t
        done = self.t_stop is not None and (t - self.t_stop >= STOP_TAIL_S
                                            or self.node.state.v < 1e-3)
        return res.pose_msg, done

    def write(self, out_dir: Path, net_records: list[tuple]) -> RunResult:
        """Write the run directory from the logs and the given deliveries."""
        cfg, rows, est_records = self.cfg, self.rows, self.est_records
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "scenario.json", cfg.to_json_obj())
        write_run_csv(out_dir / "run.csv", rows, cfg)
        write_estimates_csv(out_dir / "estimates.csv", est_records)
        write_net_csv(out_dir / "net_metrics.csv", net_records)
        summary = summarize(rows, est_records, net_records, cfg)
        _write_json(out_dir / "summary.json", summary)
        return RunResult(rows, est_records, net_records, summary, out_dir, cfg)


def run_lockstep(cfg: ScenarioConfig, out_dir: Path,
                 dump_frames: bool = False) -> RunResult:
    dt = cfg.dt
    net = LockstepNetwork(cfg.link, cfg.seed)
    for node_id in ["veh"] + cfg.mssp_ids():
        net.register(node_id)
    mssps = ([make_mssp(cfg, mid, out_dir, dump_frames)
              for mid in cfg.mssp_ids()]
             if cfg.position_source == "cameras" else [])
    mssp_ids = [m.id for m in mssps]
    vehicle = VehicleRun(cfg)
    for i in range(int(math.ceil(cfg.duration_cap_s / dt))):
        t = i * dt
        for m in mssps:
            for est in m.step(t, net.deliver(m.id, t)):
                net.send(est, ["veh"], t)
        pose_msg, done = vehicle.step(t, net.deliver("veh", t))
        if mssp_ids:  # the truth-fed baseline runs no camera
            net.send(pose_msg, mssp_ids, t + dt)
        if done:
            break

    return vehicle.write(out_dir, sorted(net.records))


def run_distributed(cfg: ScenarioConfig, out_dir: Path,
                    dump_frames: bool = False) -> RunResult:
    """Spawn one OS process per node, start their clocks together, wait,
    aggregate the vehicle's logs.

    Each node sets up (scenario, node, socket bind), prints READY and reads
    the shared epoch, the `time.time()` of t = 0, from its stdin. The epoch
    is sent once every node is ready. A node that ends first, or is not
    ready within READY_TIMEOUT_S, stops the run before t = 0.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario_path = out_dir / "scenario.json"
    _write_json(scenario_path, cfg.to_json_obj())
    common = (["--scenario", str(scenario_path), "--out", str(out_dir)]
              + (["--dump-frames"] if dump_frames else []))
    timeout = cfg.duration_cap_s + 30.0
    procs = {}
    try:
        for node_id in [*cfg.mssp_ids(), "veh"]:
            procs[node_id] = subprocess.Popen(
                [sys.executable, "-m", "iea_sim.cli", "node",
                 "--id", node_id, *common],
                stdin=PIPE, stdout=PIPE, text=True)
        _start_nodes(procs)
        try:
            rc = procs["veh"].wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"vehicle node still running after {timeout} s; "
                               f"partial logs in {out_dir}") from None
        # camera nodes outlive the vehicle; one that has already exited
        # with an error crashed during the run
        for mid in cfg.mssp_ids():
            if procs[mid].poll():
                raise RuntimeError(f"camera node {mid} exited with status "
                                   f"{procs[mid].returncode}; partial logs "
                                   f"in {out_dir}")
    finally:
        for p in procs.values():
            p.terminate()
        for p in procs.values():
            try:
                p.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdin.close()
            p.stdout.close()
    if rc != 0:
        raise RuntimeError(f"vehicle node exited with status {rc}; "
                           f"partial logs in {out_dir}")
    return read_run(out_dir)


def _start_nodes(procs: dict) -> None:
    """Wait until every node process has said READY, then send each the
    same epoch: START_MARGIN_S from now."""
    waiting = {p.stdout: node_id for node_id, p in procs.items()}
    deadline = time.time() + READY_TIMEOUT_S
    while waiting:
        readable, _, _ = select.select(list(waiting), [], [],
                                       max(0.0, deadline - time.time()))
        if not readable:
            raise RuntimeError(f"node {', '.join(waiting.values())} not "
                               f"ready after {READY_TIMEOUT_S} s")
        for f in readable:
            node_id = waiting.pop(f)
            if f.readline() != READY + "\n":
                raise RuntimeError(f"node {node_id} exited before it was "
                                   "ready; the run was not started")
    epoch = time.time() + START_MARGIN_S
    for node_id, p in procs.items():
        try:
            p.stdin.write(f"{epoch!r}\n")
            p.stdin.close()
        except BrokenPipeError:
            raise RuntimeError(f"node {node_id} exited before the start; "
                               "the run was not started") from None


def run_scenario(cfg: ScenarioConfig, out_dir: Path,
                 dump_frames: bool = False) -> RunResult:
    if cfg.mode == "distributed":
        return run_distributed(cfg, out_dir, dump_frames)
    return run_lockstep(cfg, out_dir, dump_frames)


# ---------------------------------------------------------------------------
# distributed node mains (invoked by the CLI in each spawned process)

def _await_epoch() -> float:
    """Tell the parent this node is set up; return the epoch it sends."""
    print(READY, flush=True)
    line = sys.stdin.readline()
    if not line:
        raise RuntimeError("input closed before the epoch was sent")
    return float(line)


def _close(transport: UdpTransport) -> None:
    """Close a node's socket; report the datagrams it could not decode."""
    transport.close()
    if transport.rejected:
        print(f"{transport.node_id}: ignored {transport.rejected} "
              "undecodable datagram(s)", file=sys.stderr)


def mssp_node_main(cfg: ScenarioConfig, node_id: str, out_dir: Path,
                   dump_frames: bool = False) -> int:
    node = make_mssp(cfg, node_id, out_dir, dump_frames)
    transport = UdpTransport(node_id, cfg.node_addr(node_id))
    veh_addr = cfg.node_addr("veh")
    t_end = cfg.duration_cap_s + STOP_TAIL_S
    try:
        transport.epoch = _await_epoch()
        while transport.wait(min(node.frame_clock, t_end)) < t_end:
            for est in node.step(transport.now(), transport.drain()):
                # stamp the send time right before the socket write so the
                # logged one-way latency excludes frame-processing time
                transport.send(replace(est, t=transport.now()), veh_addr)
        return 0
    finally:
        _close(transport)


def vehicle_node_main(cfg: ScenarioConfig, out_dir: Path) -> int:
    dt = cfg.dt
    vehicle = VehicleRun(cfg)
    transport = UdpTransport("veh", cfg.node_addr("veh"))
    mssp_addrs = [cfg.node_addr(mid) for mid in cfg.mssp_ids()]
    step_i = 0
    try:
        transport.epoch = _await_epoch()
        while True:
            now = transport.wait(step_i * dt)
            if now - step_i * dt > 10 * dt:
                # processing stall: rejoin the schedule instead of bursting
                # through the missed control steps
                step_i = int(now / dt)
            step_i += 1
            inbox = transport.drain()
            # timestamp after the drain so no drained message postdates t
            t = transport.now()
            pose_msg, done = vehicle.step(t, inbox)
            for addr in mssp_addrs:
                transport.send(pose_msg, addr)
            if done or t >= cfg.duration_cap_s:
                break
        vehicle.write(out_dir, transport.records)
        return 0
    finally:
        _close(transport)
        if vehicle.rejected:
            print(f"veh: ignored {vehicle.rejected} estimate(s) from no camera "
                  "of the scenario or captured after their reception",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# run comparison and plot-data export

def compare_runs(run_a: Path, run_b: Path) -> dict:
    """Pointwise trajectory difference between two runs of the same plan."""
    meta_a, _ca, rows_a = read_run_csv(Path(run_a))
    meta_b, _cb, rows_b = read_run_csv(Path(run_b))
    if meta_a.get("plan") != meta_b.get("plan"):
        raise ValueError("runs use different waypoint plans; not comparable")
    if not rows_a or not rows_b:
        raise ValueError("empty run log")
    t0 = max(rows_a[0]["t"], rows_b[0]["t"])
    t1 = min(rows_a[-1]["t"], rows_b[-1]["t"])
    if t1 <= t0:
        raise ValueError("run logs cover disjoint time ranges")
    inside = [r for r in rows_a if t0 <= r["t"] <= t1]
    ta = [r["t"] for r in inside]
    tb = [r["t"] for r in rows_b]
    xb = np.interp(ta, tb, [r["true_x"] for r in rows_b]).tolist()
    yb = np.interp(ta, tb, [r["true_y"] for r in rows_b]).tolist()
    diffs = [math.hypot(r["true_x"] - x, r["true_y"] - y)
             for r, x, y in zip(inside, xb, yb)]
    return {
        "t_start": t0,
        "t_end": t1,
        "n": len(diffs),
        "max_m": max(diffs),
        "rms_m": math.sqrt(sum(d * d for d in diffs) / len(diffs)),
    }


def export_plot_data(run_csv: Path, out_dir: Path) -> list[Path]:
    """Write plot-ready series: truth vs estimates and the closed-loop path.

    truth_vs_estimates.csv columns:
        t, true_x, true_y, true_psi, <mssp>_x, <mssp>_y ..., fused_x, fused_y
    closed_loop.csv columns:
        t, actual_x, actual_y, desired_x, desired_y, cross_track
    """
    run_csv = Path(run_csv)
    meta, _cols, rows = read_run_csv(run_csv)
    mssp_ids = meta.get("mssps", "").split(",") if meta.get("mssps") else []
    scen_path = run_csv.parent / "scenario.json"
    waypoints = (load_scenario(scen_path).plan.waypoints
                 if scen_path.exists() else None)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    est_path = out_dir / "truth_vs_estimates.csv"
    cols = ["t", "true_x", "true_y", "true_psi"]
    for mid in mssp_ids:
        cols += [f"{mid}_x", f"{mid}_y"]
    cols += ["fused_x", "fused_y"]
    _write_csv(est_path, cols, ([r.get(c) for c in cols] for r in rows))

    cl_path = out_dir / "closed_loop.csv"
    cl_rows = []
    for r in rows:
        d, (px, py) = (point_to_polyline(r["true_x"], r["true_y"], waypoints)
                       if waypoints else (None, (None, None)))
        cl_rows.append((r["t"], r["true_x"], r["true_y"], px, py, d))
    _write_csv(cl_path, ["t", "actual_x", "actual_y", "desired_x", "desired_y",
                         "cross_track"], cl_rows)
    return [est_path, cl_path]
