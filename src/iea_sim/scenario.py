"""Scenario configuration and its JSON document.

A scenario is one JSON document (cameras, waypoint plan, controller and
link parameters, mode, seed). Reading and writing it are both derived from
the key table `SCENARIO_KEYS`; defaults come from the dataclass fields,
each value must fit its field's annotation (numbers finite), and unknown
keys are rejected. `load_scenario` reads a file or a bundled name.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .control import ControllerParams, WaypointPlan
from .dynamics import MAX_STEP_S, VehicleParams
from .fusion import DEFAULT_STALENESS_TIMEOUT
from .geometry import CameraModel
from .netbus import LinkConfig
from .nodes import DEFAULT_VEHICLE_DIMS, CellLayout

# a camera's frame clock stops once the frame period is under half its ulp;
# at 1 ns that is after 2**24 s (194 days) of simulated time
MAX_FRAME_RATE_HZ = 1e9


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
    frame_rate_hz: float = 20.0
    position_source: str = "cameras"
    vehicle_start: tuple[float, float, float] = (0.0, 0.0, 0.0)
    vehicle_dims: tuple[float, float] = DEFAULT_VEHICLE_DIMS
    staleness_timeout_s: float = DEFAULT_STALENESS_TIMEOUT
    grace_period_s: float = 2.0  # s without estimates after the last cell
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
        # refused here, not once a run has started: a negative seed by
        # np.random.default_rng, a timeout <= 0 by FusionState and a step
        # above dynamics.MAX_STEP_S by the first dynamics step
        for key, ok, rule in (
                ("seed", isinstance(self.seed, int)
                 and not isinstance(self.seed, bool) and self.seed >= 0,
                 "a non-negative integer"),
                ("noise_sigma", self.noise_sigma >= 0, "non-negative"),
                ("vehicle.dims", min(self.vehicle_dims) > 0,
                 "two positive numbers [length, width]"),
                ("fusion.staleness_timeout_s", self.staleness_timeout_s > 0,
                 "positive"),
                ("fusion.grace_period_s", self.grace_period_s >= 0,
                 "non-negative"),
                ("duration_cap_s", self.duration_cap_s > 0, "positive"),
                ("control_rate_hz", self.control_rate_hz >= 1.0 / MAX_STEP_S,
                 f"at least {1.0 / MAX_STEP_S!r}"),
                ("frame_rate_hz", 0 < self.frame_rate_hz <= MAX_FRAME_RATE_HZ,
                 f"positive and at most {MAX_FRAME_RATE_HZ!r}")):
            if not ok:
                value = getattr(self, SCENARIO_KEYS[key])
                raise ScenarioError(f"{key} must be {rule}, not {value!r}")
        if self.mode not in ("lockstep", "distributed"):
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if self.position_source not in ("cameras", "truth"):
            raise ScenarioError(f"unknown position source {self.position_source!r}")
        if not 1024 <= self.base_port <= 65535 - len(self.cameras):
            raise ScenarioError("base_port leaves no room for distinct node ports")
        if self.camera_spacing_m is not None and len(self.cameras) > 1:
            for a, b in zip(self.cameras, self.cameras[1:]):
                if abs((b.position.x - a.position.x) - self.camera_spacing_m) > 1e-6:
                    raise ScenarioError("camera positions contradict camera_spacing_m")
        # scanned once, here: a camera without a cell fails before any run
        try:
            self._cells = CellLayout.from_cameras(self.cameras,
                                                  self.vehicle_dims)
        except ValueError as exc:
            raise ScenarioError(f"cameras: {exc}") from exc

    @property
    def dt(self) -> float:
        return 1.0 / self.control_rate_hz

    @property
    def frame_period(self) -> float:
        return 1.0 / self.frame_rate_hz

    def mssp_ids(self) -> list[str]:
        return [f"mssp{i + 1}" for i in range(len(self.cameras))]

    def nodes(self) -> dict[str, tuple[str, int]]:
        """The nodes a run starts, by id, with their UDP addresses: `veh` at
        `base_port`, camera k at `base_port + k`, none if truth-fed."""
        cameras = self.mssp_ids() if self.position_source == "cameras" else []
        return {node_id: (self.host, self.base_port + k)
                for k, node_id in enumerate(["veh", *cameras])}

    def plan_hash(self) -> str:
        blob = json.dumps({"waypoints": self.plan.waypoints,
                           "interp_spacing": self.plan.interp_spacing,
                           "lookahead_m": self.plan.lookahead_m},
                          sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]

    def cells(self) -> CellLayout:
        return self._cells

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
        path = resources.files("iea_sim") / "scenarios" / f"{source}.json"
        if not path.is_file():
            raise ScenarioError(f"no such scenario file or bundled name: {source}")
    return ScenarioConfig.from_json_obj(json.loads(path.read_text()))
