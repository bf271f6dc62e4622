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

A camera is summarized by the 3x4 matrix P = K [R t] with rows P1, P2, P3,
mapping homogeneous world points to homogeneous pixels. Back-projection of
a pixel (u, v) to the road solves the two plane equations
(u P3 - P1) . (x, y, 0, 1) = 0 and (v P3 - P2) . (x, y, 0, 1) = 0 for
(x, y) by Cramer's rule, with no inverse of P's left 3x3 block.

The matrix, projection and back-projection are plain Python float sums in
a fixed order, with no BLAS call, so their bits do not depend on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

TWO_PI = 2.0 * math.pi

Rows = tuple[tuple[float, float, float, float], ...]


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

    `matrix_rows`, the camera matrix that projection and back-projection
    use, is derived once per camera and kept on it as a cached property,
    so that no frame or back-projection hashes the camera to look it up;
    it is not a field, so equality, hashing and repr ignore it.
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
        (a0, a1, a2, _), (b0, b1, b2, _), (c0, c1, c2, _) = self.matrix_rows
        det = (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
               + a2 * (b0 * c1 - b1 * c0))
        if abs(det) < 1e-12:
            raise InvalidCameraError("degenerate orientation: M is singular")

    @cached_property
    def matrix_rows(self) -> Rows:
        """This camera's `camera_matrix`."""
        return camera_matrix(self)


def camera_matrix(camera: CameraModel) -> Rows:
    """The rows of the 3x4 matrix K [R t] mapping world points into pixels,
    as tuples of floats; a camera keeps its own as `CameraModel.matrix_rows`.

    The body axes (forward, left, up) in world coordinates are the columns
    of Rz Ry Rx. The optical axes are right = -left, down = -up and
    forward, so R's rows are those, and K adds cx and cy times the forward
    row to the two top rows. The last column, K t with t = -R C for the
    camera center C, is taken as -M C for M = K R, the left 3x3 block.
    """
    cy, sy = math.cos(camera.yaw), math.sin(camera.yaw)
    cp, sp = math.cos(camera.pitch), math.sin(camera.pitch)
    cr, sr = math.cos(camera.roll), math.sin(camera.roll)
    fwd = (cy * cp, sy * cp, -sp)
    left = (cy * sp * sr - sy * cr, sy * sp * sr + cy * cr, cp * sr)
    up = (cy * sp * cr + sy * sr, sy * sp * cr - cy * sr, cp * cr)
    m = (tuple(camera.cx * f - camera.fx * l for f, l in zip(fwd, left)),
         tuple(camera.cy * f - camera.fy * u for f, u in zip(fwd, up)),
         fwd)
    c = camera.position
    return tuple((m0, m1, m2, -(m0 * c.x + m1 * c.y + m2 * c.z))
                 for m0, m1, m2 in m)


def project_xyz(rows: Rows, x: float, y: float, z: float = 0.0
                ) -> Optional[tuple[float, float]]:
    """(u, v) of the world point (x, y, z) under the camera matrix given by
    its rows; None when the point is behind the camera (w <= 0). Each row
    is summed left to right: r[0] * x + r[1] * y + r[2] * z + r[3]."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
    w = c0 * x + c1 * y + c2 * z + c3
    if w <= 0.0:
        return None
    return ((a0 * x + a1 * y + a2 * z + a3) / w,
            (b0 * x + b1 * y + b2 * z + b3) / w)


def project(camera: CameraModel, p: WorldPoint) -> Optional[PixelPoint]:
    """Project a world point; None when the point is behind the camera (w <= 0).

    A point outside the image bounds still projects to its pixel.
    """
    uv = project_xyz(camera.matrix_rows, p.x, p.y, p.z)
    return None if uv is None else PixelPoint(*uv)


def back_project_ground(camera: CameraModel, p: PixelPoint) -> Optional[WorldPoint]:
    """Intersect the pixel's viewing ray with the road plane z = 0.

    Returns None when the ray is parallel to the plane or the intersection
    lies behind the camera (w <= 0).
    """
    (a0, a1, _, a3), (b0, b1, _, b3), (c0, c1, _, c3) = camera.matrix_rows
    # (u P3 - P1) . (x, y, 0, 1) = 0 and (v P3 - P2) . (x, y, 0, 1) = 0
    e0, e1, e3 = p.u * c0 - a0, p.u * c1 - a1, p.u * c3 - a3
    f0, f1, f3 = p.v * c0 - b0, p.v * c1 - b1, p.v * c3 - b3
    det = e0 * f1 - f0 * e1
    if det == 0.0:
        return None
    x = (e1 * f3 - f1 * e3) / det
    y = (f0 * e3 - e0 * f3) / det
    if c0 * x + c1 * y + c3 <= 0.0:
        return None
    return WorldPoint(x, y, 0.0)
