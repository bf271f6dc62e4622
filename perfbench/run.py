#!/usr/bin/env python3
"""Benchmark of the iea-sim closed loop: three workloads, end-to-end metrics
and a separate traced run with per-layer metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`. Each program run is a fresh interpreter (`perfbench/worker.py`) fed
only the scenario JSON generated here from the seed. The last line of
standard output is the result object; the line before it is the full
report (samples, tails, digests, environment), also written to
`.perfbench/<workload>/report.json`. Lockstep timings are given in
reference seconds, host seconds divided by a host-speed probe timed
around each run (`probed_worker`). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from tracer import ENTRY_POINTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "iea_sim" / "scenarios"
RECOMPUTE = ROOT / "scripts" / "recompute_summary.py"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

LOOPBACK = "127.0.0.1"
OUTPUT_FILES = ("scenario.json", "run.csv", "estimates.csv",
                "net_metrics.csv", "summary.json")
SETUP_REPEATS = 1          # extra set-up-only interpreters per untraced lockstep invocation
MICRO_BUDGET_S = 2.0
RUN_TIMEOUT_S = 60.0       # hard limit of one program run
HARD_STOP_S = 90.0         # start no run after this, whatever --seconds says
PROBE_REF_S = 0.40         # probe time that defines one reference second

# name -> (bundled scenario, overrides as dotted keys, why)
WORKLOADS = {
    "corridor_3cam": ("straight_3ms", {},
                      "the paper's headline loop: 3 cameras, noise-free sparse "
                      "vision path, summarize and JSON codec visible"),
    "noisy_1cam": ("distributed_smoke",
                   {"mode": "lockstep", "noise_sigma": 8.0,
                    "link.drop_probability": 0.05},
                   "dense vision path (whole-frame labelling, noise "
                   "generation), lockstep drops and fusion staleness"),
    "udp_1cam": ("distributed_smoke", {},
                 "process spawn, UdpTransport and wall-clock pacing"),
}

END_TO_END = {"wall_s": "s", "sim_rtf": "s/s", "setup_s": "s",
              "peak_rss_mb": "MB", "node_cpu_s_per_sim_s": "s/s",
              "estimates_per_sim_s": "1/s", "estimate_err_rms_m": "m"}


# ---------------------------------------------------------------------------
# inputs

def make_scenario(workload: str, seed: int) -> dict:
    """The scenario document a run receives; a pure function of the seed,
    except the UDP base port, which is a free one at run time."""
    bundled, overrides, _why = WORKLOADS[workload]
    obj = json.loads((SCENARIOS / f"{bundled}.json").read_text())
    for key, value in overrides.items():
        *parents, leaf = key.split(".")
        node = obj
        for p in parents:
            node = node[p]
        node[leaf] = value
    # the seed drives the scenario and the simulated link alike
    obj["seed"] = seed
    obj["net"]["host"] = LOOPBACK
    if obj["mode"] == "distributed":
        obj["net"]["base_port"] = free_base_port(len(obj["cameras"]) + 1)
    return obj


def ports_free(base: int, n: int) -> bool:
    socks = []
    try:
        for port in range(base, base + n):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            socks.append(s)
            s.bind((LOOPBACK, port))
        return True
    except OSError:
        return False
    finally:
        for s in socks:
            s.close()


def free_base_port(n: int) -> int:
    for _ in range(100):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            s.bind((LOOPBACK, 0))
            base = s.getsockname()[1]
        if base + n <= 65535 and ports_free(base, n):
            return base
    raise RuntimeError("no run of free UDP ports on loopback")


# ---------------------------------------------------------------------------
# statistics

def pct(samples, p: float):
    """Nearest-rank percentile, as the program's own summaries take it."""
    s = sorted(samples)
    return s[min(len(s) - 1, int(p / 100.0 * len(s)))] if s else None


def tail(samples) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples) if samples else None,
           "n": n, "tail_p": None, "tail": None}
    for p in (99.9, 99.0, 97.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            out["tail_p"], out["tail"] = p, pct(samples, p)
            break
    return out


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# host speed

def probe() -> float:
    """Seconds taken by a fixed mix of numpy and interpreter work that uses
    no iea_sim code: frame-sized noise generation, as on the dense vision
    path, and a dict/float loop, as on the sparse one. It measures how fast
    the host runs at the moment, not how fast the program is."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(20):
        frame = (np.full((600, 800), 40, np.uint8).astype(np.float64)
                 + rng.normal(0.0, 8.0, (600, 800)))
        np.clip(np.rint(frame), 0, 255).astype(np.uint8)
    acc, table = 0.0, {}
    for i in range(600_000):
        x = (i * 0.5) % 7.0
        table[i % 1000] = x
        acc += x * x
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# processes

def stop_group(pgid: int) -> bool:
    """Kill whatever is left in a worker's process group and wait until it
    is gone; True when anything was left."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return True


def run_worker(args: list[str], env: dict, timeout: float) -> tuple:
    """(exit code or None on timeout, processes were left behind)."""
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], env=env,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        rc = None
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return rc, stop_group(proc.pid)


# ---------------------------------------------------------------------------
# one invocation

class Bench:
    def __init__(self, workload: str, seed: int, out: Path, env: dict):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.env = env
        self.mode = make_scenario(workload, seed)["mode"]
        self.lockstep = self.mode == "lockstep"
        self.reference: dict | None = None   # digests of the first good run
        self.runs: list[dict] = []
        self.last_probe: float | None = None

    def probed_worker(self, args: list[str], timeout: float) -> tuple:
        """(exit code, processes were left behind, probe times, scale).

        The host's speed drifts by tens of percent within minutes. A
        lockstep worker runs between two probes on the same CPU (see
        main), which drift with it; back-to-back workers share the probe
        between them. scale = PROBE_REF_S / mean probe time is the number
        of reference seconds in one second of this host now. A distributed
        run sleeps to its schedule and its nodes need every CPU, so it is
        not probed and its scale is 1."""
        if not self.lockstep:
            return (*run_worker(args, self.env, timeout), [], 1.0)
        before = self.last_probe if self.last_probe is not None else probe()
        rc, leaked = run_worker(args, self.env, timeout)
        self.last_probe = probe()
        probes = [before, self.last_probe]
        return rc, leaked, probes, PROBE_REF_S / statistics.fmean(probes)

    def setup_only(self) -> float:
        """Set-up time in reference seconds."""
        path = self.out / "setup_input.json"
        path.write_text(json.dumps(make_scenario(self.workload, self.seed)))
        result = self.out / "setup_result.json"
        rc, _, _, scale = self.probed_worker(
            ["setup", str(path), str(result)], 60.0)
        if rc != 0:
            raise RuntimeError(f"set-up worker exited with {rc}")
        return json.loads(result.read_text())["setup_s"] * scale

    def micro(self, budget_s: float) -> dict:
        result = self.out / "micro.json"
        rc, _ = run_worker(["micro", str(result), repr(budget_s)], self.env, 60.0)
        if rc != 0:
            raise RuntimeError(f"micro-benchmark worker exited with {rc}")
        return json.loads(result.read_text())

    def run(self, traced: bool) -> dict:
        idx = len(self.runs)
        run_dir = self.out / f"run{idx}"
        scenario = make_scenario(self.workload, self.seed)
        scen_path = self.out / f"input{idx}.json"
        scen_path.write_text(json.dumps(scenario, indent=2))
        result_path = self.out / f"result{idx}.json"
        args = ["run", str(scen_path), str(run_dir), str(result_path)]
        t0 = time.monotonic()
        rc, leaked, probes, scale = self.probed_worker(
            args + (["--trace"] if traced else []), RUN_TIMEOUT_S)
        rec = {"index": idx, "traced": traced, "elapsed_s": time.monotonic() - t0,
               "timed_out": rc is None, "probe_s": probes, "scale": scale,
               "errors": []}
        self.runs.append(rec)
        if rc != 0:
            rec["errors"].append("timed out" if rc is None else f"exit status {rc}")
        if leaked:
            rec["errors"].append("process left running after the run")
        if not self.lockstep:
            n = len(scenario["cameras"]) + 1
            if not ports_free(scenario["net"]["base_port"], n):
                rec["errors"].append("UDP port still bound after the run")
        if rc == 0:
            try:
                self._check_outputs(rec, run_dir, result_path)
            except (OSError, ValueError, KeyError, TypeError,
                    ZeroDivisionError, subprocess.TimeoutExpired) as exc:
                rec["errors"].append(f"unreadable outputs: {exc!r}")
        rec["ok"] = not rec["errors"]
        return rec

    def _check_outputs(self, rec: dict, run_dir: Path, result_path: Path):
        res = json.loads(result_path.read_text())
        rec["result"] = {k: v for k, v in res.items() if k != "trace"}
        rec["trace"] = res.get("trace")
        summary = json.loads((run_dir / "summary.json").read_text())
        if summary.get("stop_reason") != "stopped":
            rec["errors"].append(f"stop_reason {summary.get('stop_reason')!r}")
        digests = {f: sha256(run_dir / f) for f in OUTPUT_FILES}
        if self.lockstep:
            rec["sha256"] = digests
        if self.lockstep and self.reference is not None:
            if digests != self.reference:
                rec["errors"].append("outputs differ from the first run "
                                     "with the same seed")
        else:
            chk = subprocess.run([sys.executable, str(RECOMPUTE), str(run_dir)],
                                 env=self.env, capture_output=True, text=True,
                                 timeout=60.0)
            if chk.returncode != 0:
                rec["errors"].append("summary.json does not re-derive from the "
                                     "CSVs: " + chk.stderr.strip()[-500:])
            elif self.lockstep and not rec["errors"]:
                self.reference = digests
        rec["e2e_host"] = self._end_to_end(res, summary, run_dir)
        rec["e2e"] = self._to_reference(rec["e2e_host"], rec["scale"])
        rec["logs"] = self._from_logs(summary, run_dir)

    def _end_to_end(self, res: dict, summary: dict, run_dir: Path) -> dict:
        sim_s = summary["end_t"]
        errs = [m["rms_m"] for m in summary["per_mssp_error"].values()
                if m["rms_m"] is not None]
        n_est = len(read_csv(run_dir / "estimates.csv"))
        if self.lockstep:
            cpu, rss, setup = res["cpu_s"], res["maxrss_mb"], res["setup_s"]
        else:
            rows = read_csv(run_dir / "run.csv")
            span = float(rows[-1]["t"]) - float(rows[0]["t"])
            cpu, rss = res["children_cpu_s"], res["children_maxrss_mb"]
            setup = res["wall_s"] - span
        return {"wall_s": res["wall_s"], "sim_rtf": sim_s / res["wall_s"],
                "setup_s": setup, "peak_rss_mb": rss,
                "node_cpu_s_per_sim_s": cpu / sim_s,
                "estimates_per_sim_s": n_est / sim_s,
                "estimate_err_rms_m": statistics.fmean(errs)}

    @staticmethod
    def _to_reference(e2e: dict, scale: float) -> dict:
        """Host seconds in reference seconds (see probed_worker)."""
        ref = dict(e2e)
        for name in ("wall_s", "setup_s", "node_cpu_s_per_sim_s"):
            ref[name] = e2e[name] * scale
        ref["sim_rtf"] = e2e["sim_rtf"] / scale
        return ref

    def _from_logs(self, summary: dict, run_dir: Path) -> dict:
        """Per-layer numbers read from the run's own logs, in the run's
        clock: simulated time in lockstep, wall-clock time over UDP."""
        scenario = json.loads((run_dir / "scenario.json").read_text())
        dt = 1.0 / scenario["control_rate_hz"]
        ts = [float(r["t"]) for r in read_csv(run_dir / "run.csv")]
        late, step = [], 0
        for t in ts:
            # the node's schedule: step k is due at k*dt, and a stall of more
            # than ten periods rejoins the schedule at the current period
            due = step * dt
            if t - due > 10 * dt:
                step = int(t / dt)
                due = step * dt
            late.append(t - due)
            step += 1
        ages = [float(r["t_received"]) - float(r["t_capture"])
                for r in read_csv(run_dir / "estimates.csv")]
        lat = [float(r["latency"]) for r in read_csv(run_dir / "net_metrics.csv")]
        return {"netbus.link_latency_ms": [x * 1e3 for x in lat],
                "harness.estimate_age_ms": [x * 1e3 for x in ages],
                "harness.control_late_ms": [x * 1e3 for x in late],
                "harness.deadline_miss_ratio":
                    sum(x >= dt for x in late) / len(late),
                "harness.cross_track_max_m": summary["cross_track"]["max_m"]}


# ---------------------------------------------------------------------------
# reporting

def end_to_end_metrics(good: list[dict], setup_samples: list[float]) -> tuple:
    samples = {name: [r["e2e"][name] for r in good] for name in END_TO_END}
    if setup_samples:
        samples["setup_s"] = samples["setup_s"] + setup_samples
    detail = {name: tail(v) for name, v in samples.items()}
    metrics = {name: {"value": detail[name]["median"], "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, detail


def per_layer_metrics(untraced: list[dict], traced: list[dict],
                      micro: dict) -> tuple:
    med = statistics.median
    # detail: median, tail and sample count of each timing (first run)
    m, detail = {}, {}
    for name in ENTRY_POINTS:
        durs = [r["trace"]["durations"][name] for r in traced]
        m[f"{name}.calls"] = (med([len(d) for d in durs]), "count")
        m[f"{name}.busy_s"] = (med([sum(d) / 1e9 for d in durs]), "s")
        m[f"{name}.self_s"] = (med([r["trace"]["self_ns"][name] / 1e9
                                    for r in traced]), "s")
        m[f"{name}.us_p50"] = (med([statistics.median(d) / 1e3 if d else 0.0
                                    for d in durs]), "us")
        detail[name] = tail([x / 1e3 for x in durs[0]])
    c = [r["trace"]["counters"] for r in traced]

    def ratio(num, den):
        return med([x[num] / x[den] if x[den] else 0.0 for x in c])

    m["vision.detect_ratio"] = (ratio("detections", "frames"), "ratio")
    m["netbus.bytes_per_datagram"] = (ratio("bytes_encoded",
                                            "datagrams_encoded"), "B")
    m["netbus.lockstep_drop_ratio"] = (ratio("lockstep_dropped",
                                             "lockstep_sent"), "ratio")
    m["fusion.out_of_order_drops"] = (med([x["out_of_order_drops"] for x in c]),
                                      "count")
    m["fusion.live_per_step_mean"] = (ratio("live_sum", "fuse_calls"), "count")

    def cpu(r):
        return r["result"]["cpu_s"] + r["result"]["children_cpu_s"]
    m["trace.overhead_ratio"] = (med([cpu(r) for r in traced])
                                 / med([cpu(r) for r in untraced]), "ratio")

    # read from the run logs, on the run's clock (see _from_logs)
    logs = [r["logs"] for r in untraced]
    for key, ps in (("netbus.link_latency_ms", (50, 90)),
                    ("harness.estimate_age_ms", (50, 90)),
                    ("harness.control_late_ms", (50, 97))):
        for p in ps:
            m[f"{key}.p{p}"] = (med([pct(x[key], p) for x in logs]), "sim_ms")
        detail[key] = tail(logs[0][key])
    m["harness.estimate_age_ms.mean"] = (
        med([statistics.fmean(x["harness.estimate_age_ms"]) for x in logs]),
        "sim_ms")
    m["harness.deadline_miss_ratio"] = (
        med([x["harness.deadline_miss_ratio"] for x in logs]), "ratio")
    m["harness.cross_track_max_m"] = (
        med([x["harness.cross_track_max_m"] for x in logs]), "m")

    for case, v in micro.items():
        m[f"micro.{case}.us_p50"] = (v["us_p50"], "us")
        detail[f"micro.{case}"] = {"median": v["us_p50"], "n": v["n"]}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return metrics, detail


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform(),
            "network": f"UDP datagrams only between nodes on {LOOPBACK} "
                       "(loopback); lockstep workloads send none"}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "iea_sim" / "harness.py").is_file() or not RECOMPUTE.is_file():
        print(f"error: no iea_sim source checkout around {HERE}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    load_before = os.getloadavg()
    t_start = time.monotonic()
    deadline = t_start + args.seconds
    bench = Bench(args.workload, args.seed, out, env)
    if bench.lockstep:
        # workers and probes share one CPU; the seed picks which
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[args.seed % len(cpus)]})
    setup_samples, micro = [], {}
    if args.trace:
        micro = bench.micro(MICRO_BUDGET_S)
    elif bench.lockstep:
        setup_samples = [bench.setup_only() for _ in range(SETUP_REPEATS)]

    durations = []
    while True:
        traced = bool(args.trace) and len(bench.runs) % 2 == 1
        rec = bench.run(traced)
        durations.append(rec["elapsed_s"])
        now = time.monotonic()
        if rec["timed_out"] or now - t_start > HARD_STOP_S:
            break
        # start another run only if it should end within half a run of
        # the deadline, so that an invocation lasts about --seconds
        if len(bench.runs) >= 2 and now + statistics.median(durations) / 2 > deadline:
            break
    load_after = os.getloadavg()

    good = [r for r in bench.runs if r["ok"]]
    failed = len(bench.runs) - len(good)
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    report = {"workload": args.workload, "why": WORKLOADS[args.workload][2],
              "seed": args.seed, "mode": bench.mode, "trace": args.trace,
              "measured_s": time.monotonic() - t_start,
              "run_fail_ratio": failed / len(bench.runs),
              "environment": environment(),
              "loadavg_before": load_before, "loadavg_after": load_after,
              "runs": [{k: v for k, v in r.items() if k not in ("trace", "logs")}
                       for r in bench.runs]}
    if not untraced or (args.trace and not traced):
        report["error"] = "no run passed its checks"
        (out / "report.json").write_text(json.dumps(report, indent=1))
        print(json.dumps(report))
        return 1
    if bench.lockstep:
        report["sha256"] = bench.reference
    if args.trace:
        metrics, report["per_layer"] = per_layer_metrics(untraced, traced, micro)
        # share of the loops' working time (paced loops also sleep)
        sleep_s = statistics.median(r["trace"]["sleep_ns"] / 1e9 for r in traced)
        report["vision_share_of_loop"] = (
            (metrics["vision.track_step.busy_s"]["value"]
             + metrics["vision.render_frame.busy_s"]["value"])
            / (metrics["harness.loop.busy_s"]["value"] - sleep_s))
    else:
        metrics, detail = end_to_end_metrics(untraced, setup_samples)
        report["end_to_end"] = detail
        report["end_to_end_host_median"] = {
            name: statistics.median(r["e2e_host"][name] for r in untraced)
            for name in END_TO_END}
    report["metrics"] = metrics
    (out / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
