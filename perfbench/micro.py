"""Fixed-input timings of the hot public functions of iea_sim.

Every input is built here from constants and the bundled `straight_3ms`
scenario, so the numbers depend only on the code under test. Each function
is called repeatedly for a share of the time budget (at least MIN_CALLS
times) and the median call time is reported with the number of calls.
"""

from __future__ import annotations

import math
import time

import numpy as np

from iea_sim.geometry import PixelPoint, Pose2D, back_project_ground
from iea_sim.harness import load_scenario, summarize
from iea_sim.netbus import EstimateMessage, decode, encode
from iea_sim.vision import detect_by_subtraction, render_frame

MIN_CALLS = 3
NOISE_SIGMA = 8.0
DIMS = (4.5, 2.0)


def _corridor_log(cfg):
    """A log shaped like one corridor_3cam run: 2 691 control rows at
    50 Hz along the plan, 964 estimates and 9 000 datagram records."""
    mssp_ids = cfg.mssp_ids()
    x0 = cfg.plan.waypoints[0][0]
    xs = [x for x, _ in cfg.plan.waypoints]
    ys = [y for _, y in cfg.plan.waypoints]
    rows = []
    for i in range(2691):
        t = i * 0.02
        x = x0 + 3.0 * t
        y = float(np.interp(x, xs, ys))
        row = {"t": t, "true_x": x, "true_y": y, "true_psi": 0.0,
               "true_v": 3.0, "fused_x": x - 0.2, "fused_y": y + 0.01,
               "yaw_rate_cmd": 0.0, "v_cmd": 3.0,
               "phase": "driving" if i < 2591 else "stopped"}
        for mid in mssp_ids:
            row[f"{mid}_x"] = row[f"{mid}_y"] = None
        rows.append(row)
    est = []
    for k in range(964):
        t_cap = 0.05 * k
        x = x0 + 3.0 * t_cap
        est.append((mssp_ids[k % len(mssp_ids)], k + 1, t_cap, t_cap + 0.02,
                    x - 0.2, float(np.interp(x, xs, ys)) + 0.01))
    net = [(0.02 * (k // 3), "veh", mssp_ids[k % len(mssp_ids)], 81,
            0.0015 + 0.0005 * ((k * 7919) % 1000) / 1000) for k in range(9000)]
    return rows, est, net


def _time(fn, budget_s: float) -> dict:
    samples = []
    t_end = time.perf_counter() + budget_s
    while len(samples) < MIN_CALLS or time.perf_counter() < t_end:
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    samples.sort()
    return {"us_p50": samples[len(samples) // 2] / 1e3, "n": len(samples)}


def micro_timings(budget_s: float) -> dict:
    cfg = load_scenario("straight_3ms")
    cam = cfg.cameras[0]
    pose = Pose2D(cam.position.x + 12.0, 0.3, 0.05)
    rng = np.random.default_rng(0)
    background = render_frame(cam, None, DIMS, 0.0)
    clean = render_frame(cam, pose, DIMS, 0.05)
    noisy_background = render_frame(cam, None, DIMS, 0.0, NOISE_SIGMA, rng)
    noisy = render_frame(cam, pose, DIMS, 0.05, NOISE_SIGMA, rng)
    if detect_by_subtraction(background, clean) is None \
            or detect_by_subtraction(noisy_background, noisy) is None:
        raise RuntimeError("fixed micro-benchmark frame shows no vehicle")
    pixel = PixelPoint(412.5, 318.0)
    msg = EstimateMessage(sender="mssp2", seq=4711, t=23.46, mssp_id="mssp2",
                          x=70.83183487561317, y=math.pi / 10, t_capture=23.45)
    datagram = encode(msg)
    rows, est, net = _corridor_log(cfg)

    cases = {
        "render_frame_clean": lambda: render_frame(cam, pose, DIMS, 0.05),
        "render_frame_noisy": lambda: render_frame(cam, pose, DIMS, 0.05,
                                                   NOISE_SIGMA, rng),
        "detect_sparse": lambda: detect_by_subtraction(background, clean),
        "detect_dense": lambda: detect_by_subtraction(noisy_background, noisy),
        "back_project_ground": lambda: back_project_ground(cam, pixel),
        "encode": lambda: encode(msg),
        "decode": lambda: decode(datagram),
        "summarize": lambda: summarize(rows, est, net, cfg),
    }
    share = budget_s / len(cases)
    return {name: _time(fn, share) for name, fn in cases.items()}

