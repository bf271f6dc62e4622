import dataclasses
import math

import pytest

from iea_sim.geometry import CameraModel, WorldPoint
from iea_sim.harness import run_scenario
from iea_sim.scenario import load_scenario

# intrinsics realizing a 53 m ground footprint at 9 m altitude, 45 deg pitch
DEFAULT_FY = 418.7162709997704


def make_camera(x=0.0, y=0.0, z=9.0, pitch=math.pi / 4, yaw=0.0, roll=0.0,
                fx=DEFAULT_FY, fy=DEFAULT_FY, cx=400.0, cy=300.0,
                width=800, height=600) -> CameraModel:
    return CameraModel(position=WorldPoint(x, y, z), roll=roll, pitch=pitch,
                       yaw=yaw, fx=fx, fy=fy, cx=cx, cy=cy,
                       width=width, height=height)


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
