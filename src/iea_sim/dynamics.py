"""Planar kinematic vehicle model with a drive-by-wire command interface.

Yaw-rate-input unicycle with first-order actuator lag on both channels;
the pose update integrates the exact circular arc per step, so halving the
step changes nothing once the lag is disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Pose2D

MAX_STEP_S = 0.1
_STRAIGHT_EPS = 1e-9


@dataclass(frozen=True)
class DbwCommand:
    v_cmd: float
    yaw_rate_cmd: float

    def __post_init__(self):
        if not (math.isfinite(self.v_cmd) and math.isfinite(self.yaw_rate_cmd)):
            raise ValueError("non-finite drive-by-wire command")


@dataclass(frozen=True)
class VehicleParams:
    tau_v: float = 0.5       # speed actuator lag [s]; <= 0 disables the lag
    tau_w: float = 0.2       # yaw-rate actuator lag [s]; <= 0 disables the lag
    yaw_rate_limit: float = 1.0  # hard DBW saturation [rad/s]

    def __post_init__(self):
        if not self.yaw_rate_limit > 0:
            raise ValueError("yaw_rate_limit must be positive")


@dataclass(frozen=True)
class VehicleState:
    pose: Pose2D
    v: float
    yaw_rate: float
    t: float

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("forward speed must be non-negative")


def step(state: VehicleState, cmd: DbwCommand, dt: float,
         params: VehicleParams = VehicleParams()) -> VehicleState:
    """Advance the vehicle by dt under one DBW command."""
    if not 0.0 < dt <= MAX_STEP_S:
        raise ValueError(f"dt must be in (0, {MAX_STEP_S}], got {dt}")
    w_cmd = min(max(cmd.yaw_rate_cmd, -params.yaw_rate_limit), params.yaw_rate_limit)
    v_cmd = max(cmd.v_cmd, 0.0)

    if params.tau_v > 0:
        v = state.v + (v_cmd - state.v) * dt / params.tau_v
    else:
        v = v_cmd
    v = max(v, 0.0)
    if params.tau_w > 0:
        w = state.yaw_rate + (w_cmd - state.yaw_rate) * dt / params.tau_w
    else:
        w = w_cmd

    x, y, psi = state.pose.x, state.pose.y, state.pose.psi
    if abs(w) < _STRAIGHT_EPS:
        x += v * dt * math.cos(psi)
        y += v * dt * math.sin(psi)
        psi_new = psi + w * dt
    else:
        psi_new = psi + w * dt
        r = v / w
        x += r * (math.sin(psi_new) - math.sin(psi))
        y += r * (math.cos(psi) - math.cos(psi_new))
    return VehicleState(Pose2D(x, y, psi_new), v, w, state.t + dt)
