"""Run logs: their CSV and JSON files, the summary statistics computed from
them, run comparison and plot-data export.

Outputs per run directory (`harness.read_run` loads them back):
  scenario.json    resolved copy of the scenario actually run
  run.csv          one row per control step (truth, fused, per-MSSP estimates)
  estimates.csv    every estimate received by the vehicle
  net_metrics.csv  every datagram delivery (bytes, one-way latency)
  summary.json     statistics recomputable from the CSVs alone
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from pathlib import Path
from typing import Optional

import numpy as np

from .nodes import STOPPED
from .scenario import ScenarioConfig, load_scenario

SCHEMA_VERSION = 1
SETTLE_AFTER_S = 10.0  # score cross-track error from first fix + this

RowList = list[dict]


# the columns that hold names; every other one holds numbers or None
_NAME_COLUMNS = frozenset(("phase", "mssp_id", "sender", "receiver"))
_NEEDS_QUOTES = re.compile('[,"\n\r]').search
_NONE_EMPTY = {"None": ""}.get  # no float's or int's repr reads "None"
_CHUNK = 512  # records formatted and written at a time


class _CsvNames(dict):
    """Each name as `_write_csv` writes it, kept for the file it writes.

    A name is written as `csv` writes a string at its minimal quoting:
    between double quotes, each doubled, when it holds a comma, a double
    quote or a line end. Unlike `csv`, which takes only "\n" for a line end
    here, it also quotes a carriage return, which a reader would otherwise
    take as the end of the line. None is an empty field.
    """

    def __missing__(self, name):
        text = ("" if name is None
                else '"' + name.replace('"', '""') + '"' if _NEEDS_QUOTES(name)
                else name)
        self[name] = text
        return text


def _write_csv(path: Path, cols: list[str], records,
               comment: Optional[str] = None) -> None:
    """The one CSV writer of the run logs and their exports.

    Writes an optional `# comment` line, the header and one line per
    record, a sequence in `cols` order. A field of a name column
    (`_NAME_COLUMNS`) is a string, written as `_CsvNames` says; any other
    is a number, written as its `repr`, so that a float parses back
    bit-identically and an int reads as its `str`, or None, written as an
    empty field. The bytes are `csv.writer`'s but for a carriage return in
    a name. The records are formatted _CHUNK at a time, column by column,
    so that each field costs one conversion called from C, and each
    chunk's lines are written at once; a record whose length differs from
    the header's raises ValueError.
    """
    names = _CsvNames()
    records = iter(records)
    with open(path, "w", encoding="utf-8", newline="") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write(",".join(map(names.__getitem__, cols)) + "\n")
        while chunk := list(itertools.islice(records, _CHUNK)):
            fields = []
            for col, values in zip(cols, zip(*chunk, strict=True),
                                   strict=True):
                if col in _NAME_COLUMNS:
                    fields.append(map(names.__getitem__, values))
                else:
                    texts = list(map(repr, values))
                    fields.append(map(_NONE_EMPTY, texts, texts))
            f.write("\n".join(map(",".join, zip(*fields))) + "\n")


def run_columns(mssp_ids: list[str]) -> list[str]:
    cols = ["t", "true_x", "true_y", "true_psi", "true_v", "fused_x", "fused_y"]
    for mid in mssp_ids:
        cols += [f"{mid}_x", f"{mid}_y"]
    cols += ["yaw_rate_cmd", "v_cmd", "phase"]
    return cols


def write_run_csv(path: Path, rows: RowList, cfg: ScenarioConfig) -> None:
    cols = run_columns(cfg.mssp_ids())
    _write_csv(path, cols, (map(r.get, cols) for r in rows),
               comment=f"schema={SCHEMA_VERSION} name={cfg.name} "
                       f"plan={cfg.plan_hash()} mssps={','.join(cfg.mssp_ids())} "
                       f"dt={cfg.dt!r} v_cruise={cfg.controller.v_cruise!r}")


def write_estimates_csv(path: Path, records: list[tuple]) -> None:
    _write_csv(path, ["mssp_id", "seq", "t_capture", "t_received", "x", "y"],
               records, comment=f"schema={SCHEMA_VERSION}")


def write_net_csv(path: Path, records: list[tuple]) -> None:
    _write_csv(path, ["t_received", "sender", "receiver", "bytes", "latency"],
               records, comment=f"schema={SCHEMA_VERSION}")


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _parse_value(col: str, v: str):
    if col in _NAME_COLUMNS:
        return v  # an empty name stays one
    if v == "":
        return None
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

def polyline_segments(waypoints) -> list[tuple[float, ...]]:
    """Each segment (x0, y0, dx, dy, L2) of a waypoint polyline: its start,
    its direction and its squared length, for `point_to_polyline`."""
    segments = []
    for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:]):
        dx, dy = x1 - x0, y1 - y0
        segments.append((x0, y0, dx, dy, dx * dx + dy * dy))
    return segments


def point_to_polyline(x: float, y: float,
                      segments) -> tuple[float, tuple[float, float]]:
    """Min distance from (x, y) to a polyline, given by its
    `polyline_segments`, and the foot point."""
    best = math.inf
    best_pt = segments[0][:2]
    for x0, y0, dx, dy, L2 in segments:
        s = 0.0 if L2 == 0 else max(0.0, min(1.0, ((x - x0) * dx + (y - y0) * dy) / L2))
        px, py = x0 + s * dx, y0 + s * dy
        d = math.hypot(x - px, y - py)
        if d < best:
            best, best_pt = d, (px, py)
    return best, best_pt


def latency_percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"p50": None, "p95": None, "max": None, "n": 0}
    s = sorted(samples)
    def pct(p):
        return s[min(len(s) - 1, int(p * len(s)))]
    return {"p50": pct(0.50), "p95": pct(0.95), "max": s[-1], "n": len(s)}


def _truth_at(times: list[float], rows: RowList) -> tuple[list, list]:
    """The logged true x and y at `times`, interpolated between rows."""
    ts = [r["t"] for r in rows]
    return (np.interp(times, ts, [r["true_x"] for r in rows]).tolist(),
            np.interp(times, ts, [r["true_y"] for r in rows]).tolist())


def summarize(rows: RowList, est_records: list[tuple], net_records: list[tuple],
              cfg: ScenarioConfig) -> dict:
    """Run statistics; a pure function of the logged data and the scenario."""
    waypoints = cfg.plan.waypoints

    first_fix_t = next((r["t"] for r in rows if r["fused_x"] is not None),
                       None)

    segments = polyline_segments(waypoints)
    cross = [(r["t"], point_to_polyline(r["true_x"], r["true_y"], segments)[0])
             for r in rows]
    settle_t = None if first_fix_t is None else first_fix_t + SETTLE_AFTER_S
    settled = [c for t, c in cross if settle_t is not None and t >= settle_t]

    # truth at each estimate's capture time; estimates captured outside
    # the logged time range are not scored
    scored = [rec for rec in est_records
              if rows and rows[0]["t"] <= rec[2] <= rows[-1]["t"]]
    true_x, true_y = (_truth_at([rec[2] for rec in scored], rows)
                      if scored else ([], []))
    per_mssp = {}
    for mid in cfg.mssp_ids():
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

    t_stop = next((r["t"] for r in rows if r["phase"] == STOPPED), None)
    stop_reason = None if t_stop is None else "stopped"

    end_t = rows[-1]["t"] if rows else 0.0
    window = max(end_t, 1e-9)
    # [packets, bytes] per (sender, receiver), each link named once after;
    # pairs whose names collide, such as ("a->b", "c") and ("a", "b->c"),
    # are one link
    by_pair: dict[tuple[str, str], list[int]] = {}
    latencies = []
    for t, snd, rcv, nb, lat in net_records:
        latencies.append(lat)
        d = by_pair.get((snd, rcv))
        if d is None:
            by_pair[snd, rcv] = d = [0, 0]
        d[0] += 1
        d[1] += nb
    by_link: dict[str, list[int]] = {}
    for (snd, rcv), (packets, nbytes) in by_pair.items():
        d = by_link.setdefault(f"{snd}->{rcv}", [0, 0])
        d[0] += packets
        d[1] += nbytes
    net = {
        "per_link": {
            k: {"packets_per_s": packets / window,
                "bytes_per_s": nbytes / window}
            for k, (packets, nbytes) in sorted(by_link.items())
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
    if not inside:
        raise ValueError(f"run A has no row in the time range "
                         f"[{t0}, {t1}] that both runs cover")
    xb, yb = _truth_at([r["t"] for r in inside], rows_b)
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
    segments = (polyline_segments(load_scenario(scen_path).plan.waypoints)
                if scen_path.exists() else None)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    est_path = out_dir / "truth_vs_estimates.csv"
    cols = ["t", "true_x", "true_y", "true_psi"]
    for mid in mssp_ids:
        cols += [f"{mid}_x", f"{mid}_y"]
    cols += ["fused_x", "fused_y"]
    _write_csv(est_path, cols, (map(r.get, cols) for r in rows))

    cl_path = out_dir / "closed_loop.csv"
    cl_rows = []
    for r in rows:
        d, (px, py) = (point_to_polyline(r["true_x"], r["true_y"], segments)
                       if segments else (None, (None, None)))
        cl_rows.append((r["t"], r["true_x"], r["true_y"], px, py, d))
    _write_csv(cl_path, ["t", "actual_x", "actual_y", "desired_x", "desired_y",
                         "cross_track"], cl_rows)
    return [est_path, cl_path]
