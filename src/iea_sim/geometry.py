"""Reference frames, pinhole camera projection and ground-plane back-projection.

Coordinate conventions used throughout the simulator:

World frame (right-handed):
  - x, y: road plane, z up; the road surface is the plane z = 0.
  - Vehicle heading psi is measured about +z from the +x axis.

Camera body frame at zero rotation: optical axis along world +x, y left,
z up. Orientation is intrinsic yaw (about world z), then pitch (about the
body y axis, positive pitches the axis *down* from horizontal), then roll
(about the forward axis).

Optical/image frame (standard computer vision): x right, y down, z forward
along the optical axis. Pixel u grows right (columns), v grows down (rows).

A camera is summarized by the 3x4 matrix [M p4] = K [R t] mapping
homogeneous world points to homogeneous pixels. Back-projection of a pixel
p follows the ray P(lam) = C + lam * M^-1 [u v 1]^T, where C is the camera
center and lam equals the camera-frame depth of P(lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi

# Fixed permutation from the camera body frame (x fwd, y left, z up) into
# the optical frame (x right, y down, z fwd).
_BODY_TO_OPTICAL = np.array([[0.0, -1.0, 0.0],
                             [0.0, 0.0, -1.0],
                             [1.0, 0.0, 0.0]])


class InvalidCameraError(ValueError):
    """Camera parameters violate the model invariants (e.g. singular M)."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi]; values congruent to pi map to +pi."""
    if not math.isfinite(a):
        raise ValueError(f"non-finite angle: {a}")
    w = math.remainder(a, TWO_PI)
    if w == -math.pi:
        w = math.pi
    return w


@dataclass(frozen=True)
class WorldPoint:
    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("WorldPoint components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class PixelPoint:
    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("PixelPoint components must be finite")


@dataclass(frozen=True)
class Pose2D:
    x: float
    y: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "psi", wrap_angle(self.psi))


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: position, roll/pitch/yaw (radians), intrinsics, image size.

    Pitch is measured down from horizontal; a camera with pitch pi/4 at
    altitude 9 m has its optical axis hit the ground 9 m ahead.

    The constants that rendering and back-projection use (`matrix`,
    `matrix_rows`, `inverse`) are derived once per camera and kept on it as
    cached properties, so that no frame or back-projection hashes the
    camera to look them up; they are not fields, so equality, hashing and
    repr ignore them.
    """

    position: WorldPoint
    roll: float = field(default=0.0, kw_only=True)
    pitch: float
    yaw: float = field(default=0.0, kw_only=True)
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidCameraError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise InvalidCameraError("principal point must lie inside the image")
        if self.position.z <= 0:
            raise InvalidCameraError("camera must sit above the road plane (z > 0)")
        if abs(np.linalg.det(self.matrix[:, :3])) < 1e-12:
            raise InvalidCameraError("degenerate orientation: M is singular")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The read-only `camera_matrix`."""
        return camera_matrix(self)

    @cached_property
    def matrix_rows(self) -> tuple[tuple[float, ...], ...]:
        """The camera matrix's rows as tuples of Python floats."""
        return tuple(map(tuple, self.matrix.tolist()))

    @cached_property
    def inverse(self) -> np.ndarray:
        """The read-only inverse of M, the matrix's left 3x3 block."""
        Minv = np.linalg.inv(self.matrix[:, :3])
        Minv.setflags(write=False)
        return Minv


def _intrinsic_matrix(camera: CameraModel) -> np.ndarray:
    return np.array([[camera.fx, 0.0, camera.cx],
                     [0.0, camera.fy, camera.cy],
                     [0.0, 0.0, 1.0]])


def _rotation_world_to_optical(roll: float, pitch: float, yaw: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    Rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    Ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    body_to_world = Rz @ Ry @ Rx
    return _BODY_TO_OPTICAL @ body_to_world.T


def camera_matrix(camera: CameraModel) -> np.ndarray:
    """3x4 matrix [M p4] = K [R t] mapping world points into pixels; a
    camera keeps its own as `CameraModel.matrix`."""
    K = _intrinsic_matrix(camera)
    R = _rotation_world_to_optical(camera.roll, camera.pitch, camera.yaw)
    t = -R @ camera.position.as_array()
    P = K @ np.hstack([R, t[:, None]])
    P.setflags(write=False)
    return P


def project_xyz(P: np.ndarray, x: float, y: float, z: float = 0.0
                ) -> Optional[tuple[float, float]]:
    """(u, v) of the world point (x, y, z) under the camera matrix P; None
    when the point is behind the camera (w <= 0)."""
    h = P @ np.array([x, y, z, 1.0])
    if h[2] <= 0.0:
        return None
    return float(h[0] / h[2]), float(h[1] / h[2])


def project(camera: CameraModel, p: WorldPoint) -> Optional[PixelPoint]:
    """Project a world point; None when the point is behind the camera (w <= 0).

    A point outside the image bounds still projects to its pixel.
    """
    uv = project_xyz(camera.matrix, p.x, p.y, p.z)
    return None if uv is None else PixelPoint(*uv)


def back_project_ground(camera: CameraModel, p: PixelPoint) -> Optional[WorldPoint]:
    """Intersect the pixel's viewing ray with the road plane z = 0.

    Returns None when the ray is parallel to the plane or the intersection
    lies behind the camera.
    """
    d = camera.inverse @ np.array([p.u, p.v, 1.0])
    if abs(d[2]) < 1e-15:
        return None
    lam = -camera.position.z / d[2]
    if lam <= 0.0:
        return None
    c = camera.position
    return WorldPoint(float(c.x + lam * d[0]), float(c.y + lam * d[1]), 0.0)
