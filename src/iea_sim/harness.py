"""Run execution in both modes, and the node mains of a distributed run.

Runs execute either in single-process lockstep (deterministic:
byte-identical CSVs for identical scenario+seed) or distributed, with one
OS process per node talking UDP on loopback. Both build the nodes of
`ScenarioConfig.nodes` from the scenario; the vehicle node logs each step
and alone ends a run, and `write_run` then writes the run logs (`runlog`).
The loops differ only in their clock (simulated `i * dt`, or the paced
wall clock) and transport. `run_scenario` writes `scenario.json` before
either starts.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from subprocess import PIPE

from .netbus import LockstepNetwork, UdpTransport
from .nodes import STOP_TAIL_S, MsspNode, VehicleNode
from .runlog import (RowList, read_run_csv, summarize, write_estimates_csv,
                     write_json, write_net_csv, write_run_csv)
from .scenario import ScenarioConfig, load_scenario

READY = "ready"  # a distributed node's line once it is set up
READY_TIMEOUT_S = 60.0  # longest wait for every node to say READY
START_MARGIN_S = 0.1  # t = 0 this long after the epoch is sent, so every
                      # node has read it before its first step is due


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


def write_run(out_dir: Path, vehicle: VehicleNode, cfg: ScenarioConfig,
              net_records: list[tuple]) -> RunResult:
    """Write the vehicle's run logs and `summary.json` into `out_dir`."""
    rows, est_records = vehicle.rows, vehicle.est_records
    out_dir.mkdir(parents=True, exist_ok=True)
    write_run_csv(out_dir / "run.csv", rows, cfg)
    write_estimates_csv(out_dir / "estimates.csv", est_records)
    write_net_csv(out_dir / "net_metrics.csv", net_records)
    summary = summarize(rows, est_records, net_records, cfg)
    write_json(out_dir / "summary.json", summary)
    return RunResult(rows, est_records, net_records, summary, out_dir, cfg)


def run_lockstep(cfg: ScenarioConfig, out_dir: Path,
                 dump_frames: bool = False) -> RunResult:
    dt = cfg.dt
    net = LockstepNetwork(cfg.link, cfg.seed)
    for node_id in cfg.nodes():
        net.register(node_id)
    vehicle = VehicleNode(cfg)
    frames = out_dir / "frames" if dump_frames else None
    mssps = [MsspNode(cfg, mid, frames) for mid in vehicle.cameras]
    i, done = 0, False
    while not done:
        t = i * dt
        for m in mssps:
            for est in m.step(t, net.deliver(m.id, t)):
                net.send(est, ["veh"], t)
        pose_msg, done = vehicle.step(t, net.deliver("veh", t))
        net.send(pose_msg, vehicle.cameras, t + dt)
        i += 1

    return write_run(out_dir, vehicle, cfg, sorted(net.records))


def run_distributed(cfg: ScenarioConfig, out_dir: Path,
                    dump_frames: bool = False) -> RunResult:
    """Spawn one OS process per node, start their clocks together, wait,
    aggregate the vehicle's logs.

    Each node sets up (the `scenario.json` in `out_dir`, node, socket
    bind), prints READY and reads the shared epoch, the `time.time()` of
    t = 0, from its stdin. The epoch is sent once every node is ready. A
    node that ends first, or is not ready within READY_TIMEOUT_S, stops the
    run before t = 0.
    """
    common = (["--scenario", str(out_dir / "scenario.json"),
               "--out", str(out_dir)]
              + (["--dump-frames"] if dump_frames else []))
    timeout = cfg.duration_cap_s + 30.0
    procs = {}
    try:
        for node_id in cfg.nodes():
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
        for mid, p in procs.items():
            if mid != "veh" and p.poll():
                raise RuntimeError(f"camera node {mid} exited with status "
                                   f"{p.returncode}; partial logs "
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
    """Write `scenario.json` into `out_dir`, then run in the cfg's mode."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "scenario.json", cfg.to_json_obj())
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
    node = MsspNode(cfg, node_id, out_dir / "frames" if dump_frames else None)
    transport = UdpTransport(node_id, cfg.nodes())
    t_end = cfg.duration_cap_s + STOP_TAIL_S
    try:
        transport.epoch = _await_epoch()
        while transport.wait(min(node.frame_clock, t_end)) < t_end:
            for est in node.step(transport.now(), transport.drain()):
                # stamp the send time right before the socket write so the
                # logged one-way latency excludes frame-processing time
                transport.send(replace(est, t=transport.now()), ["veh"])
        return 0
    finally:
        _close(transport)


def vehicle_node_main(cfg: ScenarioConfig, out_dir: Path) -> int:
    dt = cfg.dt
    vehicle = VehicleNode(cfg)
    transport = UdpTransport("veh", cfg.nodes())
    step_i, done = 0, False
    try:
        transport.epoch = _await_epoch()
        while not done:
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
            transport.send(pose_msg, vehicle.cameras)
        write_run(out_dir, vehicle, cfg, transport.records)
        return 0
    finally:
        _close(transport)
        if vehicle.rejected:
            print(f"veh: ignored {vehicle.rejected} estimate(s) from no camera "
                  "of the scenario or captured after their reception",
                  file=sys.stderr)
