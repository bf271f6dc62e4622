import dataclasses
import json
import math
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
import types
from importlib import resources
from pathlib import Path

import pytest

from iea_sim import cli, harness, netbus, runlog, scenario
from iea_sim.harness import read_run, run_scenario
from iea_sim.runlog import (compare_runs, export_plot_data, point_to_polyline,
                            read_run_csv, run_columns, summarize,
                            write_net_csv, write_run_csv)
from iea_sim.netbus import EstimateMessage, PoseMessage, UdpTransport
from iea_sim.nodes import DRIVING, WAITING_FOR_FIRST_FIX, VehicleNode
from iea_sim.scenario import ScenarioConfig, ScenarioError, load_scenario

from conftest import make_camera

ROOT = Path(__file__).resolve().parent.parent


def _src_env() -> dict:
    """The environment of a child interpreter that imports iea_sim from src."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def small_cfg(**kw):
    base = load_scenario("straight_3ms")
    return dataclasses.replace(base, **kw)


class TestScenarioConfig:
    def test_zero_cameras_rejected(self):
        with pytest.raises(ScenarioError):
            small_cfg(cameras=[])

    def test_bad_mode_rejected(self):
        with pytest.raises(ScenarioError):
            small_cfg(mode="networked")

    @pytest.mark.parametrize("name", ["", "a\nb", "two words", "tab\there",
                                      "bell\x07"])
    def test_name_that_would_break_the_run_logs_rejected(self, name, tmp_path,
                                                         capsys):
        with pytest.raises(ScenarioError, match="scenario name"):
            small_cfg(name=name)
        obj = load_scenario("straight_3ms").to_json_obj()
        obj["name"] = name
        path = tmp_path / "named.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["run", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        assert "scenario name" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_rate_rejected(self):
        with pytest.raises(ScenarioError):
            small_cfg(control_rate_hz=0.0)

    def test_spacing_contradiction_rejected(self):
        cams = [make_camera(x=0.0), make_camera(x=41.0)]
        with pytest.raises(ScenarioError):
            small_cfg(cameras=cams, camera_spacing_m=40.0)

    @pytest.mark.parametrize("mode", ["lockstep", "distributed"])
    @pytest.mark.parametrize("layout, error", [("gap", "cells must overlap"),
                                               ("blind", "sees no cell")],
                             ids=["gap", "blind"])
    def test_camera_layout_without_cells_rejected(self, layout, error, mode,
                                                  tmp_path, capsys):
        # mssp2 200 m and mssp3 a further 400 m on leave gaps between the
        # cells, and mssp3 turned to face back sees no cell; either is
        # refused at load, in both modes, before a run writes anything
        obj = load_scenario("straight_3ms").to_json_obj()
        if layout == "gap":
            obj["camera_spacing_m"] = None
            for cam, x in zip(obj["cameras"], (30.0, 230.0, 630.0)):
                cam["x"] = x
        else:
            obj["cameras"][2]["yaw_rad"] = math.pi
        with pytest.raises(ScenarioError, match=f"cameras: .*{error}"):
            ScenarioConfig.from_json_obj(obj)
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["run", "--scenario", str(path), "--mode", mode,
                         "--out", str(tmp_path / "out")]) == 1
        assert error in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_json_roundtrip_is_identity(self):
        cfg = load_scenario("straight_3ms")
        obj = cfg.to_json_obj()
        assert ScenarioConfig.from_json_obj(obj).to_json_obj() == obj

    @pytest.mark.parametrize("name", ["straight_3ms", "straight_6ms",
                                      "baseline_truth_3ms",
                                      "distributed_smoke"])
    def test_bundled_scenarios_load_unchanged(self, name):
        path = resources.files("iea_sim") / "scenarios" / f"{name}.json"
        assert (load_scenario(name).to_json_obj()
                == json.loads(path.read_text()))

    @pytest.mark.parametrize("section", [None, "vehicle", "controller", "plan",
                                         "fusion", "link", "net", "camera"])
    def test_unknown_key_rejected(self, section, tmp_path, capsys):
        obj = load_scenario("distributed_smoke").to_json_obj()
        if section is None:
            node = obj
        elif section == "camera":
            node = obj["cameras"][0]
        else:
            node = obj[section]
        node["typo_key"] = 1.0
        with pytest.raises(ScenarioError, match="typo_key"):
            ScenarioConfig.from_json_obj(obj)
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["run", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        assert "typo_key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("noise_sigma", -8), ("noise_sigma", "8"), ("noise_sigma", math.nan),
        ("seed", "x"), ("seed", 1.5), ("seed", True),
        ("vehicle.dims", [4.5]), ("vehicle.dims", [4.5, 0.0]),
        ("vehicle.start", "abc"), ("vehicle.start", [0.0, 0.0, None]),
        ("vehicle.start", [10**400, 0.0, 0.0]),
        # every number finite, every field of its type, each error naming
        # its key; and what would fail only once the run is under way
        ("duration_cap_s", math.nan), ("vehicle.tau_v", math.nan),
        ("fusion.staleness_timeout_s", math.inf), ("controller.kp", "x"),
        ("frame_rate_hz", math.inf), ("plan.waypoints", [[0, 0], [1, math.nan]]),
        ("seed", -1), ("control_rate_hz", 5),
        ("fusion.staleness_timeout_s", 0.0), ("fusion.grace_period_s", -5.0)])
    def test_malformed_value_rejected(self, key, value, tmp_path, capsys):
        obj = load_scenario("straight_3ms").to_json_obj()
        section, _, leaf = key.rpartition(".")
        (obj[section] if section else obj)[leaf] = value
        with pytest.raises(ScenarioError, match=re.escape(key)):
            ScenarioConfig.from_json_obj(obj)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["run", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_frame_rate_above_the_ceiling_rejected(self, tmp_path):
        # a frame period under half an ulp of the frame clock never advances
        # it, so the camera's due loop would never end
        obj = load_scenario("distributed_smoke").to_json_obj()
        obj.update(mode="lockstep", duration_cap_s=1.0, frame_rate_hz=1e19)
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(obj))
        proc = subprocess.run(
            [sys.executable, "-m", "iea_sim.cli", "run", "--scenario",
             str(path), "--out", str(tmp_path / "out")],
            env=_src_env(), capture_output=True, text=True, timeout=20)
        assert proc.returncode == 1
        assert "frame_rate_hz" in proc.stderr and "1e+19" in proc.stderr
        assert not (tmp_path / "out").exists()
        with pytest.raises(ScenarioError, match="frame_rate_hz"):
            small_cfg(frame_rate_hz=scenario.MAX_FRAME_RATE_HZ * 1.5)
        small_cfg(frame_rate_hz=scenario.MAX_FRAME_RATE_HZ)

    def test_readme_tables_list_every_key(self):
        # the README's scenario and camera-entry tables are kept by hand:
        # each lists every key once, with the default that a scenario of
        # the required keys alone resolves to, and "required" exactly
        # where the key has no default
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("## Scenario files")[1].split("\n## ")[0]
        listed = [[(key, row.split("|")[2].strip())
                   for row in part.splitlines() if row.startswith("| `")
                   for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
                  for part in section.split("| key | default | meaning |")[1:]]
        assert len(listed) == 2
        for rows, table in zip(listed, (scenario.SCENARIO_KEYS,
                                        scenario.CAMERA_KEYS)):
            keys = [key for key, _default in rows]
            assert len(keys) == len(set(keys))
            assert set(keys) == set(table)
        top, camera = map(dict, listed)
        required = [key for rows in (top, camera)
                    for key, default in rows.items() if default == "required"]
        bundled = load_scenario("straight_3ms").to_json_obj()

        def value(doc, path):
            for name in path.split("."):
                doc = doc[name]
            return doc

        def minimal(skip=None):
            """The required keys but `skip`, valued as in a bundled
            scenario."""
            doc = {}
            for path in required:
                section, _, leaf = path.rpartition(".")
                if path in top and path != skip:
                    node = doc.setdefault(section, {}) if section else doc
                    node[leaf] = value(bundled, path)
            if "cameras" in doc:
                doc["cameras"] = [{key: v for key, v in doc["cameras"][0].items()
                                   if key in required and key != skip}]
            return doc

        resolved = ScenarioConfig.from_json_obj(minimal()).to_json_obj()
        for rows, doc in ((top, resolved), (camera, resolved["cameras"][0])):
            for path, default in rows.items():
                if default != "required":
                    assert re.fullmatch("`[^`]+`", default), path
                    # compared as JSON text, so that 0 and 0.0 differ
                    assert (json.dumps(value(doc, path))
                            == json.dumps(json.loads(default[1:-1]))), path
        for path in required:
            # a ScenarioError, or for a camera's z the InvalidCameraError of
            # its default height 0, which is no camera above the road
            with pytest.raises(ValueError):
                ScenarioConfig.from_json_obj(minimal(skip=path))

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError):
            load_scenario("no_such_scenario")

    def test_plan_hash_tracks_waypoints(self):
        a = load_scenario("straight_3ms")
        b = dataclasses.replace(
            a, plan=dataclasses.replace(
                a.plan, waypoints=a.plan.waypoints[:-1] + ((165.0, 4.0),)))
        assert a.plan_hash() == load_scenario("straight_3ms").plan_hash()
        assert a.plan_hash() != b.plan_hash()

    def test_node_addresses_distinct(self):
        cfg = load_scenario("straight_3ms")
        nodes = cfg.nodes()
        assert list(nodes) == ["veh", "mssp1", "mssp2", "mssp3"]
        assert [nodes[n] for n in ("veh", "mssp3")] == [
            (cfg.host, cfg.base_port), (cfg.host, cfg.base_port + 3)]
        assert len(set(nodes.values())) == len(nodes)
        # the truth-fed baseline starts no camera
        truth = load_scenario("baseline_truth_3ms")
        assert truth.nodes() == {"veh": (truth.host, truth.base_port)}


class TestVehicleRun:
    def test_unusable_estimates_are_dropped_and_counted(self):
        # one captured after its reception (fusion would raise), one from a
        # camera the scenario does not have (it would be fused)
        veh = VehicleNode(load_scenario("distributed_smoke"))
        future = EstimateMessage(sender="mssp1", seq=1, t=1.0, mssp_id="mssp1",
                                 x=10.0, y=0.0, t_capture=1.5)
        stranger = EstimateMessage(sender="mssp9", seq=1, t=1.0,
                                   mssp_id="mssp9", x=500.0, y=40.0,
                                   t_capture=1.0)
        veh.step(1.0, [future, stranger])
        assert veh.rejected == 2
        assert veh.est_records == []
        assert veh.rows[-1]["fused_x"] is None
        assert veh.rows[-1]["phase"] == WAITING_FOR_FIRST_FIX
        good = dataclasses.replace(future, seq=2, t_capture=1.0)
        veh.step(1.02, [good])
        assert veh.rejected == 2
        assert veh.est_records == [("mssp1", 2, 1.0, 1.02, 10.0, 0.0)]
        assert veh.rows[-1]["phase"] == DRIVING

    def test_scenario_json_is_written_once_before_the_run(self, tmp_path,
                                                          monkeypatch):
        written = []

        def write_json(path, obj):
            written.append(path.name)
            runlog.write_json(path, obj)

        monkeypatch.setattr(harness, "write_json", write_json)
        cfg = dataclasses.replace(load_scenario("distributed_smoke"),
                                  mode="lockstep", duration_cap_s=1.0)
        run_scenario(cfg, tmp_path / "run")
        assert written == ["scenario.json", "summary.json"]


    @pytest.mark.parametrize("cap", [0.3, 0.5, 0.51, 1.0])
    def test_the_vehicle_ends_the_run_at_its_duration_cap(self, cap):
        # the vehicle waits for a first fix that never comes, so only the
        # cap ends the run: at the last step of the lockstep schedule
        # i * dt before the cap, and at any later wall-clock step
        cfg = dataclasses.replace(load_scenario("distributed_smoke"),
                                  duration_cap_s=cap)
        veh = VehicleNode(cfg)
        n = math.ceil(cap / cfg.dt)
        assert [veh.step(i * cfg.dt, [])[1] for i in range(n)] == (
            [False] * (n - 1) + [True])
        assert veh.t_last == (n - 1) * cfg.dt < cap
        assert veh.step(veh.t_last + 0.3 * cfg.dt, [])[1]


class TestReplay:
    OUTPUTS = ("scenario.json", "run.csv", "estimates.csv", "net_metrics.csv",
               "summary.json")

    def test_reseeded_run_replays_from_its_own_scenario(self, tmp_path):
        cfg = dataclasses.replace(load_scenario("distributed_smoke"),
                                  mode="lockstep", seed=5)
        first = run_scenario(cfg, tmp_path / "first")
        again = run_scenario(load_scenario(first.out_dir / "scenario.json"),
                             tmp_path / "again")
        for name in self.OUTPUTS:
            assert ((first.out_dir / name).read_bytes()
                    == (again.out_dir / name).read_bytes()), name

    def test_dumped_frames_leave_the_outputs_unchanged(self, tmp_path):
        # every frame of the one camera as PGM, and the same five outputs
        # as a run without the flag
        obj = load_scenario("distributed_smoke").to_json_obj()
        obj.update(mode="lockstep", duration_cap_s=1.0)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(obj))
        for name, flags in (("plain", []), ("dumped", ["--dump-frames"])):
            assert cli.main(["run", "--scenario", str(path), "--out",
                             str(tmp_path / name), *flags]) == 0
        frames = tmp_path / "dumped" / "frames"
        assert sorted(p.name for p in frames.iterdir()) == sorted(
            f"mssp1_f{k}.pgm" for k in range(20))
        for pgm in frames.iterdir():
            data = pgm.read_bytes()
            assert data.startswith(b"P5\n800 600\n255\n"), pgm.name
            assert len(data) == len(b"P5\n800 600\n255\n") + 800 * 600
        assert not (tmp_path / "plain" / "frames").exists()
        for name in self.OUTPUTS:
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "dumped" / name).read_bytes()), name

    def test_huge_frame_rate_renders_one_frame_per_step(self, tmp_path):
        # 2e7 frames fall due per control step; only the latest is rendered
        cfg = dataclasses.replace(load_scenario("distributed_smoke"),
                                  mode="lockstep", duration_cap_s=1.0,
                                  frame_rate_hz=1e9)
        start = time.perf_counter()
        run_scenario(cfg, tmp_path / "run")
        assert time.perf_counter() - start < 5.0

    def test_each_datagram_is_encoded_and_decoded_once(self, tmp_path,
                                                       monkeypatch):
        calls = {"encode": 0, "decode": 0, PoseMessage: 0, EstimateMessage: 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(netbus, "encode", counted("encode", netbus.encode))
        monkeypatch.setattr(netbus, "decode", counted("decode", netbus.decode))
        send = netbus.LockstepNetwork.send

        def counted_send(net, msg, dests, now):
            calls[type(msg)] += 1
            return send(net, msg, dests, now)

        monkeypatch.setattr(netbus.LockstepNetwork, "send", counted_send)
        run = run_scenario(small_cfg(duration_cap_s=15.0), tmp_path / "run")
        poses, estimates = calls[PoseMessage], calls[EstimateMessage]
        assert poses == len(run.rows) and estimates > 0
        assert calls["encode"] == calls["decode"] == poses + estimates
        # each pose reaches all three cameras: deliveries outnumber datagrams
        assert len(run.net_records) > 2 * poses

    def test_lockstep_drop_injection(self, tmp_path):
        base = load_scenario("distributed_smoke")
        cfg = dataclasses.replace(
            base, mode="lockstep", duration_cap_s=4.0,
            link=dataclasses.replace(base.link, drop_probability=0.3))
        first = run_scenario(cfg, tmp_path / "first")
        again = run_scenario(cfg, tmp_path / "again")
        for name in self.OUTPUTS:
            assert ((first.out_dir / name).read_bytes()
                    == (again.out_dir / name).read_bytes()), name
        run = read_run(first.out_dir)
        # the loop sends one pose per control step to each camera
        sent = len(run.rows) * len(cfg.mssp_ids())
        delivered = sum(1 for rec in run.net_records if rec[1] == "veh")
        assert 0 < delivered < 0.85 * sent
        assert run.est_records
        _assert_json_close(summarize(run.rows, run.est_records,
                                     run.net_records, run.cfg), run.summary)


class TestPointToPolyline:
    def test_perpendicular_foot(self):
        d, pt = point_to_polyline(5.0, 3.0, [(0, 0), (10, 0)])
        assert d == pytest.approx(3.0)
        assert pt == (pytest.approx(5.0), pytest.approx(0.0))

    def test_beyond_endpoint_clamps(self):
        d, pt = point_to_polyline(14.0, 3.0, [(0, 0), (10, 0)])
        assert d == pytest.approx(5.0)
        assert pt == (pytest.approx(10.0), pytest.approx(0.0))

    def test_picks_nearest_segment(self):
        d, _ = point_to_polyline(10.0, 9.0, [(0, 0), (10, 0), (10, 10)])
        assert d == pytest.approx(0.0, abs=1e-12)


class TestRunCsvRoundtrip:
    def test_values_roundtrip_exactly(self, tmp_path):
        cfg = small_cfg()
        mids = cfg.mssp_ids()
        rows = []
        for i in range(5):
            r = {"t": i * 0.02, "true_x": 1.0 / 3.0 + i, "true_y": -0.1 * i,
                 "true_psi": 0.123456789012345678, "true_v": 3.0,
                 "fused_x": None if i == 0 else 1.5 + i, "fused_y": 0.25,
                 "yaw_rate_cmd": 0.1, "v_cmd": 3.0, "phase": "driving"}
            for m in mids:
                r[f"{m}_x"], r[f"{m}_y"] = (None, None) if i < 2 else (40.0, 0.5)
            rows.append(r)
        path = tmp_path / "run.csv"
        write_run_csv(path, rows, cfg)
        meta, cols, back = read_run_csv(path)
        assert meta["plan"] == cfg.plan_hash()
        assert meta["mssps"].split(",") == mids
        assert cols == run_columns(mids)
        assert back == rows  # repr-format floats parse back bit-identically

    def test_field_with_a_comma_roundtrips(self, tmp_path):
        # any process on loopback can send a well-formed datagram whose
        # sender holds a comma; the node logs it as received
        records = [(0.5, "a,b", "veh", 120, 0.001),
                   (0.52, "mssp1", "veh", 118, 0.0015)]
        path = tmp_path / "net_metrics.csv"
        write_net_csv(path, records)
        _meta, _cols, back = read_run_csv(path)
        assert [tuple(r.values()) for r in back] == records


def _assert_json_close(a, b, path="$"):
    if isinstance(a, dict):
        assert isinstance(b, dict) and set(a) == set(b), path
        for k in a:
            _assert_json_close(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_json_close(x, y, f"{path}[{i}]")
    elif isinstance(a, float) or isinstance(b, float):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9), path
    else:
        assert a == b, path


class TestSummary:
    def test_summary_recomputable_from_csvs(self, run_3ms):
        # rebuild every statistic from the logged CSVs alone and match the
        # summary.json the run wrote
        run = read_run(run_3ms.out_dir)
        assert run.rows == run_3ms.rows
        assert run.est_records == run_3ms.est_records
        assert run.net_records == run_3ms.net_records
        recomputed = summarize(run.rows, run.est_records, run.net_records,
                               run.cfg)
        _assert_json_close(recomputed, run.summary)

    def test_recompute_script_agrees(self, run_3ms):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "recompute_summary.py"),
             str(run_3ms.out_dir)], env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_net_per_link_rate_arithmetic(self):
        rows = [{"t": t, "true_x": 0.0, "true_y": 0.0, "true_v": 3.0,
                 "fused_x": None, "fused_y": None, "phase": "driving"}
                for t in (0.0, 1.0)]
        net = [(0.5 + i * 0.005, "veh", "mssp1", 120, 0.0017)
               for i in range(100)]
        rep = summarize(rows, [], net, small_cfg())["net"]
        link = rep["per_link"]["veh->mssp1"]
        assert link["packets_per_s"] == pytest.approx(100.0)
        assert link["bytes_per_s"] == pytest.approx(12000.0)
        assert 0.0015 <= rep["latency"]["p50"] <= 0.0020


class TestCompareRuns:
    def test_self_compare_is_zero(self, run_3ms):
        rep = compare_runs(run_3ms.out_dir / "run.csv",
                           run_3ms.out_dir / "run.csv")
        assert rep["max_m"] == 0.0
        assert rep["rms_m"] == 0.0
        assert rep["n"] > 100

    def test_mismatched_plans_rejected(self, run_3ms, tmp_path):
        cfg = small_cfg(plan=dataclasses.replace(
            small_cfg().plan, waypoints=((0.0, 0.0), (10.0, 0.0))))
        other = tmp_path / "run.csv"
        write_run_csv(other, [{"t": 0.0, "true_x": 0.0, "true_y": 0.0}], cfg)
        with pytest.raises(ValueError, match="different waypoint plans"):
            compare_runs(run_3ms.out_dir / "run.csv", other)

    def test_disjoint_time_ranges_rejected(self, tmp_path):
        cfg = small_cfg()
        def mk(name, t0):
            rows = [{"t": t0 + i * 0.02, "true_x": 0.0, "true_y": 0.0}
                    for i in range(5)]
            p = tmp_path / name
            write_run_csv(p, rows, cfg)
            return p
        with pytest.raises(ValueError, match="disjoint"):
            compare_runs(mk("a.csv", 0.0), mk("b.csv", 100.0))

    def test_no_row_of_a_in_the_common_range_rejected(self, tmp_path,
                                                      capsys):
        # A's rows straddle B's range without falling inside it
        cfg = small_cfg()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(a, [{"t": t, "true_x": 0.0, "true_y": 0.0}
                          for t in (0.0, 1.0)], cfg)
        write_run_csv(b, [{"t": 0.2 + 0.2 * i, "true_x": 0.0, "true_y": 0.0}
                          for i in range(4)], cfg)
        with pytest.raises(ValueError, match="run A has no row"):
            compare_runs(a, b)
        assert cli.main(["compare", str(a), str(b)]) == 1
        assert "run A has no row" in capsys.readouterr().err

    def test_torn_row_rejected(self, run_3ms, tmp_path, capsys):
        # a write cut mid-row leaves a last row shorter than the header
        log = run_3ms.out_dir / "run.csv"
        torn = tmp_path / "torn.csv"
        torn.write_bytes(log.read_bytes()[:5000])
        assert not torn.read_bytes().endswith(b"\n")
        n_lines = len(torn.read_text().splitlines())
        with pytest.raises(ValueError, match=f"line {n_lines}: "):
            read_run_csv(torn)
        assert cli.main(["compare", str(log), str(torn)]) == 1
        assert "torn.csv" in capsys.readouterr().err


class TestExportPlotData:
    def test_column_layout(self, run_3ms, tmp_path):
        est_path, cl_path = export_plot_data(run_3ms.out_dir / "run.csv",
                                             tmp_path)
        n = len(run_3ms.cfg.mssp_ids())
        header = est_path.read_text().splitlines()[0].split(",")
        assert len(header) == 4 + 2 * n + 2
        assert header[:4] == ["t", "true_x", "true_y", "true_psi"]
        assert header[-2:] == ["fused_x", "fused_y"]
        cl_header = cl_path.read_text().splitlines()[0]
        assert cl_header == "t,actual_x,actual_y,desired_x,desired_y,cross_track"

    def test_row_counts_match_log(self, run_3ms, tmp_path):
        est_path, cl_path = export_plot_data(run_3ms.out_dir / "run.csv",
                                             tmp_path)
        n_rows = len(run_3ms.rows)
        assert len(est_path.read_text().splitlines()) == n_rows + 1
        assert len(cl_path.read_text().splitlines()) == n_rows + 1

    def test_bad_scenario_next_to_log_exit_1(self, run_3ms, tmp_path, capsys):
        (tmp_path / "run.csv").write_bytes(
            (run_3ms.out_dir / "run.csv").read_bytes())
        doc = json.loads((run_3ms.out_dir / "scenario.json").read_text())
        del doc["plan"]
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        assert cli.main(["export", str(tmp_path / "run.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_log_gives_headers_only(self, tmp_path):
        cfg = small_cfg()
        log = tmp_path / "run.csv"
        write_run_csv(log, [], cfg)
        est_path, cl_path = export_plot_data(log, tmp_path / "plots")
        assert len(est_path.read_text().splitlines()) == 1
        assert len(cl_path.read_text().splitlines()) == 1


class FakeNode:
    """A node process behind stdin/stdout pipes, in place of `Popen`.

    `start` says ready at once; `events` logs each ("ready", node id,
    time.time()) and each ("epoch", node id, time.time(), line written to
    the node's stdin). Subclasses change when it is ready and how it ends.
    """

    children: list = []
    events: list = []

    def __init__(self, args, stdin=None, stdout=None, text=False):
        assert stdin == stdout == subprocess.PIPE and text
        self.args = args
        self.node_id = args[args.index("--id") + 1] if "--id" in args else "veh"
        self.terminated = False
        read_fd, self._write_fd = os.pipe()
        self.stdout = open(read_fd)
        self.stdin = types.SimpleNamespace(write=self._receive,
                                           close=lambda: None)
        self.children.append(self)
        self.start()

    def start(self):
        self.say_ready()

    def say_ready(self):
        self.events.append(("ready", self.node_id, time.time()))
        os.write(self._write_fd, f"{harness.READY}\n".encode())

    def _receive(self, line):
        self.events.append(("epoch", self.node_id, time.time(), line))

    def poll(self):
        return None

    def wait(self, timeout=None):
        return 0

    def terminate(self):
        self.terminated = True
        if self._write_fd is not None:
            os.close(self._write_fd)
            self._write_fd = None


def install_fake_nodes(monkeypatch, cls) -> list:
    """Make run_distributed start `cls` nodes; returns the list of them."""
    FakeNode.children, FakeNode.events = [], []
    monkeypatch.setattr(harness, "subprocess", types.SimpleNamespace(
        Popen=cls, TimeoutExpired=subprocess.TimeoutExpired))
    return FakeNode.children


class TestCli:
    def test_run_short_scenario(self, tmp_path, capsys):
        scen = {
            "name": "cli_smoke",
            "duration_cap_s": 1.0,
            "plan": {"waypoints": [[0, 0], [30, 0]]},
            "vehicle": {"start": [2.0, 0.0, 0.0]},
            "cameras": [{"x": 6.0, "y": 0.0, "z": 9.0,
                         "pitch_rad": math.pi / 4,
                         "fx": 418.7162709997704, "fy": 418.7162709997704,
                         "cx": 400.0, "cy": 300.0,
                         "width": 800, "height": 600}],
        }
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scen))
        rc = cli.main(["run", "--scenario", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario"] == "cli_smoke"
        assert (tmp_path / "out" / "run.csv").exists()

    def test_distributed_start_waits_for_every_node(self, tmp_path,
                                                    monkeypatch, capsys):
        class LateVehicle(FakeNode):
            def start(self):
                # the cameras say ready at once, the vehicle 0.2 s later
                if self.node_id == "veh":
                    threading.Timer(0.2, self.say_ready).start()
                else:
                    self.say_ready()

            def wait(self, timeout=None):
                # the vehicle leaves the logs of a short lockstep run
                if self.node_id == "veh":
                    out = Path(self.args[self.args.index("--out") + 1])
                    for f in logs.iterdir():
                        shutil.copy(f, out / f.name)
                return 0

        cfg = load_scenario("straight_3ms")
        logs = tmp_path / "lockstep"
        run_scenario(dataclasses.replace(cfg, duration_cap_s=2.0), logs)
        children = install_fake_nodes(monkeypatch, LateVehicle)
        rc = cli.main(["run", "--scenario", "straight_3ms", "--mode",
                       "distributed", "--out", str(tmp_path / "out")])
        assert rc == 0
        node_ids = ["veh", *cfg.mssp_ids()]
        assert sorted(c.node_id for c in children) == sorted(node_ids)
        assert all("--epoch" not in c.args for c in children)
        events = FakeNode.events
        said_ready = [e for e in events if e[0] == "ready"]
        epochs = [e for e in events if e[0] == "epoch"]
        assert events == said_ready + epochs
        assert sorted(e[1] for e in said_ready) == sorted(node_ids)
        assert sorted(e[1] for e in epochs) == sorted(node_ids)
        [line] = {e[3] for e in epochs}
        assert line.endswith("\n")
        assert float(line) > max(e[2] for e in said_ready)
        assert all(c.terminated for c in children)

    def test_truth_fed_distributed_run_starts_only_the_vehicle(
            self, tmp_path, monkeypatch, capsys):
        class Vehicle(FakeNode):
            def wait(self, timeout=None):
                # leaves the logs of a short lockstep run
                out = Path(self.args[self.args.index("--out") + 1])
                for f in logs.iterdir():
                    shutil.copy(f, out / f.name)
                return 0

        cfg = load_scenario("baseline_truth_3ms")
        logs = tmp_path / "lockstep"
        run_scenario(dataclasses.replace(cfg, duration_cap_s=1.0), logs)
        children = install_fake_nodes(monkeypatch, Vehicle)
        rc = cli.main(["run", "--scenario", "baseline_truth_3ms", "--mode",
                       "distributed", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert [c.node_id for c in children] == ["veh"]
        assert [e[1] for e in FakeNode.events if e[0] == "epoch"] == ["veh"]
        # and no camera node of it can be started by hand
        assert cli.main(["node", "--id", "mssp1", "--scenario",
                         "baseline_truth_3ms", "--out", str(tmp_path)]) == 1
        assert "valid ids: veh\n" in capsys.readouterr().err

    def test_distributed_node_never_ready_is_reported(self, tmp_path,
                                                      monkeypatch, capsys):
        class SilentVehicle(FakeNode):
            def start(self):
                if self.node_id != "veh":
                    self.say_ready()

        monkeypatch.setattr(harness, "READY_TIMEOUT_S", 0.3)
        children = install_fake_nodes(monkeypatch, SilentVehicle)
        t0 = time.monotonic()
        rc = cli.main(["run", "--scenario", "distributed_smoke",
                       "--out", str(tmp_path)])
        assert time.monotonic() - t0 < 5.0
        assert rc == 2
        assert "node veh not ready" in capsys.readouterr().err
        assert len(children) == 2
        assert all(c.terminated for c in children)
        assert not [e for e in FakeNode.events if e[0] == "epoch"]
        assert not (tmp_path / "run.csv").exists()

    def test_distributed_camera_port_taken_is_reported(self, tmp_path, capsys):
        cfg = load_scenario("distributed_smoke")
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
            taken.bind(cfg.nodes()["mssp1"])
            rc = cli.main(["run", "--scenario", "distributed_smoke",
                           "--out", str(tmp_path)])
        assert rc == 2
        assert ("node mssp1 exited before it was ready"
                in capsys.readouterr().err)
        assert not (tmp_path / "run.csv").exists()
        # the vehicle, ready and waiting for the epoch, was ended too
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as veh_port:
            veh_port.bind(cfg.nodes()["veh"])

    def test_distributed_timeout_terminates_every_child(self, tmp_path,
                                                        monkeypatch, capsys):
        class HangingPopen(FakeNode):
            def wait(self, timeout=None):
                if not self.terminated:
                    raise subprocess.TimeoutExpired(self.args, timeout)
                return -15

        children = install_fake_nodes(monkeypatch, HangingPopen)
        rc = cli.main(["run", "--scenario", "distributed_smoke",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "runtime failure" in capsys.readouterr().err
        assert len(children) == 2
        assert all(c.terminated for c in children)

    def test_distributed_camera_crash_is_reported(self, tmp_path,
                                                  monkeypatch, capsys):
        class CrashedCameraPopen(FakeNode):
            def start(self):
                # the camera dies once started; the vehicle runs to completion
                self.returncode = 1 if self.node_id != "veh" else None
                self.say_ready()

            def poll(self):
                return self.returncode

            def wait(self, timeout=None):
                return 0 if self.returncode is None else self.returncode

        children = install_fake_nodes(monkeypatch, CrashedCameraPopen)
        rc = cli.main(["run", "--scenario", "distributed_smoke",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "camera node mssp1 exited with status 1" in capsys.readouterr().err
        assert len(children) == 2
        assert all(c.terminated for c in children)

    def test_node_reports_undecodable_datagrams_at_exit(self, capsys):
        quiet = UdpTransport("veh", {"veh": ("127.0.0.1", 0)})
        harness._close(quiet)
        cam = UdpTransport("mssp1", {"mssp1": ("127.0.0.1", 0)})
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as junk:
            junk.sendto(b"not a wire message", cam._sock.getsockname())
        cam.wait(cam.now() + 0.05)
        assert cam.drain() == []
        harness._close(cam)
        assert capsys.readouterr().err == ("mssp1: ignored 1 undecodable "
                                           "datagram(s)\n")

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable the
        # CLI loads and a noisy run, which labels whole frames, completes
        doc = json.loads((resources.files("iea_sim") / "scenarios"
                          / "distributed_smoke.json").read_text())
        doc.update(mode="lockstep", duration_cap_s=2.0, noise_sigma=8.0)
        scenario = tmp_path / "noisy.json"
        scenario.write_text(json.dumps(doc))
        code = ("import sys; sys.modules['scipy'] = None; "
                "from iea_sim import cli; sys.exit(cli.main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", "--scenario", str(scenario),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run.csv").exists()

    def test_node_takes_its_role_from_its_id(self, tmp_path, capsys):
        args = ["--scenario", "distributed_smoke", "--out", str(tmp_path)]
        assert cli.main(["node", "--id", "mssp9", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --id 'mssp9'")
        assert "valid ids: veh, mssp1" in err
        with pytest.raises(SystemExit):
            cli.main(["node", "--role", "mssp", "--id", "mssp1", *args])

    def test_run_unknown_scenario_exit_1(self, capsys):
        assert cli.main(["run", "--scenario", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_exit_codes(self, run_3ms, tmp_path, capsys):
        a = str(run_3ms.out_dir / "run.csv")
        assert cli.main(["compare", a, a]) == 0
        missing = str(tmp_path / "absent.csv")
        assert cli.main(["compare", a, missing]) == 1

    def test_export_cli(self, run_3ms, tmp_path, capsys):
        rc = cli.main(["export", str(run_3ms.out_dir / "run.csv"),
                       "--out", str(tmp_path / "plots")])
        assert rc == 0
        assert (tmp_path / "plots" / "closed_loop.csv").exists()


def test_scenario_runlog_harness_layering():
    # scenario knows no run log, and neither knows the runtimes
    code = ("import sys\n"
            "import iea_sim.scenario\n"
            "assert not {'iea_sim.runlog', 'iea_sim.harness'}"
            " & set(sys.modules)\n"
            "import iea_sim.runlog\n"
            "assert 'iea_sim.harness' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert not hasattr(netbus, "latency_percentiles")
