"""Per-layer tracing of iea_sim, installed from outside the package.

`Tracer.install()` replaces the public entry points of each module with
timing wrappers. A function imported by name into another module (for
example `nodes.project` or `vision.project`) is replaced wherever it is
bound, so every call site is covered. Spans stay in memory: for each entry
point the tracer keeps every call's duration and its self time (duration
minus the time covered by nested traced calls), plus a few counters taken
at the same boundaries. `Tracer.dump()` returns them as plain JSON data.
"""

from __future__ import annotations

import importlib
import threading
import time
import types

MODULES = ("geometry", "vision", "nodes", "fusion", "control", "dynamics",
           "netbus", "harness", "cli")

# metric prefix -> (module, attribute path) of every function it covers
ENTRY_POINTS = {
    "geometry.project": [("geometry", "project")],
    "geometry.back_project_ground": [("geometry", "back_project_ground")],
    "vision.render_frame": [("vision", "render_frame")],
    "vision.track_step": [("vision", "track_step")],
    "vision.detect_by_subtraction": [("vision", "detect_by_subtraction")],
    "nodes.CellLayout.from_cameras": [("nodes", "CellLayout.from_cameras")],
    "nodes.MsspNode.step": [("nodes", "MsspNode.step")],
    "nodes.VehicleNode.step": [("nodes", "VehicleNode.step")],
    "fusion.ingest": [("fusion", "FusionState.ingest")],
    "fusion.fuse": [("fusion", "FusionState.fuse")],
    "control.select_target": [("control", "select_target")],
    "control.heading_control": [("control", "heading_control")],
    "dynamics.step": [("dynamics", "step")],
    "netbus.encode": [("netbus", "encode")],
    "netbus.decode": [("netbus", "decode")],
    "netbus.send": [("netbus", "LockstepNetwork.send"),
                    ("netbus", "UdpTransport.send")],
    "netbus.deliver": [("netbus", "LockstepNetwork.deliver"),
                       ("netbus", "UdpTransport.drain")],
    "harness.summarize": [("harness", "summarize")],
    "harness.write_csv": [("harness", "write_run_csv"),
                          ("harness", "write_estimates_csv"),
                          ("harness", "write_net_csv")],
    "harness.loop": [("harness", "run_lockstep"),
                     ("harness", "vehicle_node_main"),
                     ("harness", "mssp_node_main")],
}

# counters taken at the boundaries above
COUNTERS = ("frames", "detections", "datagrams_encoded", "bytes_encoded",
            "lockstep_sent", "lockstep_dropped", "out_of_order_drops",
            "fuse_calls", "live_sum")


class Tracer:
    def __init__(self):
        self.durations = {name: [] for name in ENTRY_POINTS}
        self.self_ns = {name: 0 for name in ENTRY_POINTS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.sleep_ns = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, after=None):
        durations = self.durations[name]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0)
            before = after[0](args) if after is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                durations.append(dt)
                self.self_ns[name] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after[1](self.counters, args, result, before)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _sleep(self, seconds):
        """time.sleep for the node loops; counted as a child span so that a
        paced loop's self time is its work, not its waiting."""
        stack = self._stack()
        t0 = time.perf_counter_ns()
        time.sleep(seconds)
        dt = time.perf_counter_ns() - t0
        self.sleep_ns += dt
        if stack:
            stack[-1] += dt

    def install(self) -> None:
        mods = {m: importlib.import_module(f"iea_sim.{m}") for m in MODULES}
        for name, targets in ENTRY_POINTS.items():
            for mod_name, path in targets:
                owner = mods[mod_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if cls_path else getattr(owner, attr)
                after = _AFTER.get(path)
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self._span(name, raw.__func__, after)))
                    continue
                wrapped = self._span(name, raw, after)
                if cls_path:
                    setattr(owner, attr, wrapped)
                    continue
                # rebind in every module that imported the function by name
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            setattr(mod, key, wrapped)
        mods["harness"].time = types.SimpleNamespace(time=time.time,
                                                     sleep=self._sleep)

    def dump(self) -> dict:
        return {"durations": self.durations, "self_ns": self.self_ns,
                "counters": self.counters, "sleep_ns": self.sleep_ns}


def merge(dumps: list[dict]) -> dict:
    """Combine the dumps of several processes of one run."""
    out = Tracer().dump()
    for d in dumps:
        for name in ENTRY_POINTS:
            out["durations"][name].extend(d["durations"][name])
            out["self_ns"][name] += d["self_ns"][name]
        for key in COUNTERS:
            out["counters"][key] += d["counters"][key]
        out["sleep_ns"] += d["sleep_ns"]
    return out


def _count_frame(c, args, result, before):
    c["frames"] += 1
    c["detections"] += result[1] is not None


def _count_bytes(c, args, result, before):
    c["datagrams_encoded"] += 1
    c["bytes_encoded"] += len(result)


def _count_lockstep_send(c, args, result, before):
    c["lockstep_sent"] += 1
    c["lockstep_dropped"] += args[0].dropped - before


def _count_ingest(c, args, result, before):
    c["out_of_order_drops"] += args[0].drops - before


def _count_fuse(c, args, result, before):
    c["fuse_calls"] += 1
    c["live_sum"] += len(args[0].latest)


def _nothing(args):
    return None


# attribute path -> (snapshot taken before the call, counter update after it)
_AFTER = {
    "track_step": (_nothing, _count_frame),
    "encode": (_nothing, _count_bytes),
    "LockstepNetwork.send": (lambda args: args[0].dropped, _count_lockstep_send),
    "FusionState.ingest": (lambda args: args[0].drops, _count_ingest),
    "FusionState.fuse": (_nothing, _count_fuse),
}
