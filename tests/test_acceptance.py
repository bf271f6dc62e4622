"""End-to-end acceptance suite.

Each test exercises one headline requirement at its stated tolerance and
prints a single PASS/FAIL line with the achieved value (run with -s to see
them on success; pytest shows them automatically on failure).
"""

import math
import time

import numpy as np

from iea_sim.geometry import (PixelPoint, Pose2D, WorldPoint,
                              back_project_ground, project)
from iea_sim.harness import run_scenario
from iea_sim.runlog import compare_runs
from iea_sim.scenario import load_scenario
from iea_sim.vision import TrackerState, render_frame, track_step

from conftest import (back_project_depth, depth_approximation_report,
                      in_image, make_camera)

VEHICLE_DIMS = (4.5, 2.0)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPT {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_geometry_roundtrip_accuracy():
    # 1000 random ground points per camera survive project -> back-project
    # with < 1e-9 m error, in under a second
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for cam_x in (30.0, 70.0, 110.0):
        cam = make_camera(x=cam_x)
        xs = rng.uniform(cam_x + 2.0, cam_x + 54.0, 1000)
        ys = rng.uniform(-3.0, 3.0, 1000)
        for x, y in zip(xs, ys):
            px = project(cam, WorldPoint(float(x), float(y), 0.0))
            g = back_project_ground(cam, px)
            worst = max(worst, math.dist((g.x, g.y), (x, y)))
    elapsed = time.perf_counter() - t0
    _report("geometry-roundtrip", worst < 1e-9 and elapsed < 1.0,
            f"max err {worst:.3e} m in {elapsed:.2f} s")


def test_pipeline_estimate_accuracy(run_3ms):
    # noise-free corridor run: per-camera estimate error vs interpolated truth
    worst_rms, worst_max = 0.0, 0.0
    for mid, stats in run_3ms.summary["per_mssp_error"].items():
        assert stats["n"] > 0, f"{mid} produced no estimates"
        worst_rms = max(worst_rms, stats["rms_m"])
        worst_max = max(worst_max, stats["max_m"])
    _report("pipeline-accuracy", worst_rms < 0.5 and worst_max < 1.0,
            f"worst RMS {worst_rms:.3f} m, worst max {worst_max:.3f} m")


def test_closed_loop_tracking(run_3ms, run_baseline_3ms):
    # settled cross-track error stays in the lane, and the camera-fed
    # trajectory stays close to the truth-fed baseline
    ct = run_3ms.summary["cross_track"]["max_after_settle_m"]
    diff = compare_runs(run_3ms.out_dir / "run.csv",
                        run_baseline_3ms.out_dir / "run.csv")
    _report("closed-loop-tracking", ct < 0.3 and diff["max_m"] < 1.0,
            f"settled cross-track max {ct:.3f} m, "
            f"baseline diff max {diff['max_m']:.3f} m")


def test_oscillation_grows_with_speed(run_3ms, run_6ms):
    o3 = run_3ms.summary["overshoot_peak_m"]
    o6 = run_6ms.summary["overshoot_peak_m"]
    _report("oscillation-ordering", o6 >= o3,
            f"overshoot 6 m/s {o6:.3f} m >= 3 m/s {o3:.3f} m")


def test_handover_continuity(run_3ms):
    # past the first fix the fused output never disappears while the vehicle
    # is inside camera coverage, and never jumps more than one step + margin
    cfg = run_3ms.cfg
    cells = cfg.cells()
    first_fix = run_3ms.summary["first_fix_t"]
    margin = 0.3  # one camera frame of travel at cell entry
    shrunk = [(a + margin, b - margin) for a, b in cells.intervals]
    gaps = 0
    covered = 0
    for r in run_3ms.rows:
        if r["t"] < first_fix:
            continue
        if any(a <= r["true_x"] <= b for a, b in shrunk):
            covered += 1
            if r["fused_x"] is None:
                gaps += 1
    jump = run_3ms.summary["handover_jump_max_m"]
    bound = cfg.controller.v_cruise * cfg.dt + 0.5
    _report("handover-continuity",
            covered > 0 and gaps == 0 and jump < bound,
            f"{gaps}/{covered} coverage gaps, "
            f"max fused jump {jump:.3f} m < {bound:.3f} m")


def test_latency_envelope_lockstep(run_3ms):
    lats = [rec[4] for rec in run_3ms.net_records]
    rates = run_3ms.summary["net"]["per_link"]
    ok = (len(lats) > 0
          and all(0.0015 <= l <= 0.0020 for l in lats)
          and len(rates) > 0
          and all(v["packets_per_s"] > 0 for v in rates.values()))
    _report("latency-envelope-lockstep", ok,
            f"{len(lats)} samples in [{min(lats):.4f}, {max(lats):.4f}] s, "
            f"{len(rates)} active links")


def test_latency_distributed_loopback(tmp_path):
    cfg = load_scenario("distributed_smoke")
    result = run_scenario(cfg, tmp_path / "dist")
    p95 = result.summary["net"]["latency"]["p95"]
    ok = result.summary["end_t"] > 0 and p95 is not None and p95 < 0.05
    _report("latency-distributed", ok,
            f"completed at t={result.summary['end_t']:.2f} s, "
            f"latency p95 {p95 if p95 is None else round(p95, 4)} s")


def test_determinism_byte_identical(run_3ms, run_3ms_repeat):
    names = ["run.csv", "estimates.csv", "net_metrics.csv", "summary.json"]
    same = {n: (run_3ms.out_dir / n).read_bytes()
               == (run_3ms_repeat.out_dir / n).read_bytes() for n in names}
    _report("determinism", all(same.values()),
            ", ".join(f"{n} {'ok' if v else 'DIFFERS'}"
                      for n, v in same.items()))


def test_vision_center_accuracy():
    # detection centers within 1 px of the projected-rectangle centroid
    # across a full footprint traversal
    cam = make_camera()
    state = TrackerState()
    state, _ = track_step(state, render_frame(cam, None, VEHICLE_DIMS, 0.0))
    worst = 0.0
    n = 0
    t, x = 0.05, 4.0
    while x <= 52.0:
        pose = Pose2D(x, 0.0, 0.0)
        frame = render_frame(cam, pose, VEHICLE_DIMS, t)
        state, det = track_step(state, frame)
        corners_visible = all(
            (p := project(cam, WorldPoint(x + dx, dy, 0.0))) is not None
            and in_image(cam, p, margin=2)
            for dx in (2.25, -2.25) for dy in (1.0, -1.0))
        if corners_visible and det is not None:
            vs, us = (frame.pixels == 220).nonzero()
            worst = max(worst,
                        abs(det.center_u - (us.min() + us.max()) / 2.0),
                        abs(det.center_v - (vs.min() + vs.max()) / 2.0))
            n += 1
        t += 0.05
        x = 4.0 + 3.0 * (t - 0.05)
    _report("vision-centers", n > 100 and worst <= 1.0,
            f"{n} frames, worst center offset {worst:.3f} px")


def test_depth_approximation_report():
    # fixed-depth back-projection at d = altitude lands short of the ground
    # intersection; on the optical axis the 3D gap is exactly
    # sqrt(2) * 9 * (1 - 1/sqrt(2)) = 9 * (sqrt(2) - 1)
    cam = make_camera()
    rep = depth_approximation_report(cam, d=9.0)
    predicted = 9.0 * (math.sqrt(2.0) - 1.0)
    err = abs(rep["on_axis_discrepancy_m"] - predicted)
    per_axis = 9.0 * (1.0 - 1.0 / math.sqrt(2.0))
    g = back_project_ground(cam, PixelPoint(cam.cx, cam.cy))
    f = back_project_depth(cam, PixelPoint(cam.cx, cam.cy), 9.0)
    axis_err = abs(abs(g.x - f.x) - per_axis)
    ok = err < 1e-6 and axis_err < 1e-6 and rep["max_discrepancy_m"] > 0
    _report("depth-approximation", ok,
            f"on-axis gap {rep['on_axis_discrepancy_m']:.6f} m "
            f"(analytic {predicted:.6f}), grid max "
            f"{rep['max_discrepancy_m']:.3f} m over {rep['n_samples']} samples")
