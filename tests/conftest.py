import dataclasses
import math

import numpy as np
import pytest

from iea_sim.geometry import (CameraModel, PixelPoint, WorldPoint,
                              back_project_ground, camera_matrix)
from iea_sim.harness import run_scenario
from iea_sim.scenario import load_scenario
from iea_sim.vision import Frame

# intrinsics realizing a 53 m ground footprint at 9 m altitude, 45 deg pitch
DEFAULT_FY = 418.7162709997704


def make_camera(x=0.0, y=0.0, z=9.0, pitch=math.pi / 4, yaw=0.0, roll=0.0,
                fx=DEFAULT_FY, fy=DEFAULT_FY, cx=400.0, cy=300.0,
                width=800, height=600) -> CameraModel:
    return CameraModel(position=WorldPoint(x, y, z), roll=roll, pitch=pitch,
                       yaw=yaw, fx=fx, fy=fy, cx=cx, cy=cy,
                       width=width, height=height)


def in_image(camera: CameraModel, px: PixelPoint, margin: float = 0.0) -> bool:
    """Whether a pixel lies at least `margin` inside the image bounds."""
    return (margin <= px.u <= camera.width - 1 - margin
            and margin <= px.v <= camera.height - 1 - margin)


def back_project_depth(camera: CameraModel, p: PixelPoint, d: float) -> WorldPoint:
    """Back-project a pixel to exact camera-frame depth d, via lam = d * ||m3||."""
    if d <= 0:
        raise ValueError("depth must be positive")
    M = np.array(camera_matrix(camera))[:, :3]
    lam = d * np.linalg.norm(M[2])
    ray = np.linalg.inv(M) @ np.array([p.u, p.v, 1.0])
    pos = camera.position
    c = np.array([pos.x, pos.y, pos.z]) + lam * ray
    return WorldPoint(float(c[0]), float(c[1]), float(c[2]))


def depth_approximation_report(camera: CameraModel, d: float,
                               n_samples: int = 21) -> dict:
    """Compare fixed-depth back-projection against ground-plane intersection.

    Samples a pixel grid, back-projects each pixel both ways (depth d vs.
    ray/ground intersection) and reports the max and mean 3D discrepancy,
    plus the discrepancy at the principal point.
    """
    diffs = []
    us = np.linspace(camera.width * 0.1, camera.width * 0.9, n_samples)
    vs = np.linspace(camera.height * 0.1, camera.height * 0.9, n_samples)
    for u in us:
        for v in vs:
            px = PixelPoint(float(u), float(v))
            g = back_project_ground(camera, px)
            if g is None:
                continue
            f = back_project_depth(camera, px, d)
            diffs.append(math.dist((g.x, g.y, g.z), (f.x, f.y, f.z)))
    axis_px = PixelPoint(camera.cx, camera.cy)
    g0 = back_project_ground(camera, axis_px)
    f0 = back_project_depth(camera, axis_px, d)
    on_axis = math.dist((g0.x, g0.y, g0.z), (f0.x, f0.y, f0.z)) if g0 else math.nan
    return {
        "depth_m": d,
        "max_discrepancy_m": max(diffs) if diffs else math.nan,
        "mean_discrepancy_m": sum(diffs) / len(diffs) if diffs else math.nan,
        "on_axis_discrepancy_m": on_axis,
        "n_samples": len(diffs),
    }


def whole_image(frame: Frame) -> Frame:
    """A noise-free frame with the pixels of noise-free `frame`, painted
    over its whole image: its runs, and an empty run on every other row."""
    spans = np.zeros((frame.height, 2), dtype=np.int64)
    v0, v1 = frame.painted[:2]
    spans[v0:v1] = frame.spans
    return Frame(spans, frame.capture_time, (0, frame.height, 0, frame.width),
                 frame.height, frame.width)


@pytest.fixture(scope="session")
def default_camera():
    return make_camera()


def _run(name, tmp_path_factory, label):
    cfg = load_scenario(name)
    return run_scenario(cfg, tmp_path_factory.mktemp(label))


@pytest.fixture(scope="session")
def run_3ms(tmp_path_factory):
    return _run("straight_3ms", tmp_path_factory, "run3")


@pytest.fixture(scope="session")
def run_3ms_repeat(tmp_path_factory):
    return _run("straight_3ms", tmp_path_factory, "run3b")


@pytest.fixture(scope="session")
def run_6ms(tmp_path_factory):
    return _run("straight_6ms", tmp_path_factory, "run6")


@pytest.fixture(scope="session")
def run_baseline_3ms(tmp_path_factory):
    return _run("baseline_truth_3ms", tmp_path_factory, "baseline3")


@pytest.fixture(scope="session")
def run_noisy_smoke(tmp_path_factory):
    """A short lockstep distributed_smoke run with pixel noise and drops:
    the noisy render and the dense detector path."""
    base = load_scenario("distributed_smoke")
    cfg = dataclasses.replace(
        base, mode="lockstep", seed=17, duration_cap_s=4.0, noise_sigma=8.0,
        link=dataclasses.replace(base.link, drop_probability=0.05))
    return run_scenario(cfg, tmp_path_factory.mktemp("noisy"))


@pytest.fixture(scope="session")
def run_noisy_smoke_24(tmp_path_factory):
    """A 3 s lockstep distributed_smoke run at sigma 24, whose link drops
    nothing: noisy vehicle pixels that may not differ from the road, so
    detection tests each painted pixel (`vision._vehicle_stands_out`)."""
    base = load_scenario("distributed_smoke")
    cfg = dataclasses.replace(base, mode="lockstep", seed=17,
                              duration_cap_s=3.0, noise_sigma=24.0)
    return run_scenario(cfg, tmp_path_factory.mktemp("noisy24"))
