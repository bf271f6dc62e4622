import dataclasses
import json
import math
import os
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

from iea_sim import cli, harness
from iea_sim.harness import (ScenarioConfig, ScenarioError, compare_runs,
                             export_plot_data, load_scenario,
                             point_to_polyline, read_run, read_run_csv,
                             run_columns, run_scenario, summarize,
                             write_run_csv)
from iea_sim.netbus import UdpTransport

from conftest import make_camera

ROOT = Path(__file__).resolve().parent.parent


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
        addrs = [cfg.node_addr(n) for n in ["veh"] + cfg.mssp_ids()]
        assert len(set(addrs)) == len(addrs)


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
            taken.bind(cfg.node_addr("mssp1"))
            rc = cli.main(["run", "--scenario", "distributed_smoke",
                           "--out", str(tmp_path)])
        assert rc == 2
        assert ("node mssp1 exited before it was ready"
                in capsys.readouterr().err)
        assert not (tmp_path / "run.csv").exists()
        # the vehicle, ready and waiting for the epoch, was ended too
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as veh_port:
            veh_port.bind(cfg.node_addr("veh"))

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
                self.returncode = 1 if "mssp" in self.args else None
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
        quiet = UdpTransport("veh", ("127.0.0.1", 0))
        harness._close(quiet)
        cam = UdpTransport("mssp1", ("127.0.0.1", 0))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as junk:
            junk.sendto(b"not a wire message", cam._sock.getsockname())
        cam.wait(cam.now() + 0.05)
        assert cam.drain() == []
        harness._close(cam)
        assert capsys.readouterr().err == ("mssp1: ignored 1 undecodable "
                                           "datagram(s)\n")

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
