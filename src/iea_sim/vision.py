"""Synthetic overhead frames, background-subtraction detection, blob tracking.

Stands in for a real roadside camera feed: the renderer paints the
vehicle's ground rectangle into a flat grayscale frame, the detector
differences against a stored background, and the tracker runs a
Searching / Tracking state machine with gated nearest-centroid
re-association and background re-acquisition on loss.

A noise-free rendered frame records the box it painted; outside it every
pixel is background. When both frames of a difference carry such a box,
the detector examines only their union, so its cost scales with the
vehicle's footprint instead of the frame. Noisy and hand-built frames
carry no box and are differenced over the whole frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import ndimage

from .geometry import CameraModel, Pose2D, WorldPoint, project

BACKGROUND_INTENSITY = 40
VEHICLE_INTENSITY = 220
DEFAULT_THRESHOLD = 30
DEFAULT_MIN_AREA = 25
GATE_PX = 80.0
LOSS_LIMIT = 5

SEARCHING = "searching"
TRACKING = "tracking"

EMPTY_BOX = (0, 0, 0, 0)  # a painted box that holds no pixel


@dataclass(frozen=True)
class Frame:
    pixels: np.ndarray  # (height, width) uint8, read-only
    capture_time: float
    # half-open (v0, v1, u0, u1) box outside which every pixel equals
    # BACKGROUND_INTENSITY; None when unknown
    painted: Optional[tuple[int, int, int, int]] = None

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class BoundingBox:
    """Tight pixel box, inclusive corners."""
    u_min: int
    v_min: int
    u_max: int
    v_max: int

    def __post_init__(self):
        if self.u_min > self.u_max or self.v_min > self.v_max:
            raise ValueError("degenerate bounding box")

    def center(self) -> tuple[float, float]:
        return (self.u_min + self.u_max) / 2.0, (self.v_min + self.v_max) / 2.0

    def touches_border(self, width: int, height: int) -> bool:
        return (self.u_min <= 0 or self.v_min <= 0
                or self.u_max >= width - 1 or self.v_max >= height - 1)


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    center_u: float
    center_v: float
    capture_time: float


@dataclass(frozen=True)
class TrackerState:
    mode: str = SEARCHING
    last_box: Optional[BoundingBox] = None
    background: Optional[Frame] = None
    frames_lost: int = 0


def _vehicle_corners(pose: Pose2D, length: float, width: float):
    c, s = math.cos(pose.psi), math.sin(pose.psi)
    hl, hw = length / 2.0, width / 2.0
    corners = []
    for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw)):
        corners.append(WorldPoint(pose.x + dx * c - dy * s,
                                  pose.y + dx * s + dy * c, 0.0))
    return corners


def render_frame(camera: CameraModel, vehicle: Optional[Pose2D],
                 vehicle_dims: tuple[float, float], t: float,
                 noise_sigma: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Frame:
    """Render the vehicle's ground rectangle into a flat background frame.

    Deterministic for identical inputs (noise only when noise_sigma > 0 and
    an rng is supplied). A vehicle behind the camera or fully outside the
    image yields a pure background frame. A noise-free frame records the
    clipped bounding box of the painted quad (empty if nothing was
    painted); a noisy frame records none.
    """
    px = np.full((camera.height, camera.width), BACKGROUND_INTENSITY, dtype=np.uint8)
    painted = EMPTY_BOX
    quad = None
    if vehicle is not None:
        pts = [project(camera, c) for c in _vehicle_corners(vehicle, *vehicle_dims)]
        if all(p is not None for p in pts):
            quad = np.array([[p.u, p.v] for p in pts])
    if quad is not None:
        u0 = max(0, math.ceil(quad[:, 0].min()))
        u1 = min(camera.width - 1, math.floor(quad[:, 0].max()))
        v0 = max(0, math.ceil(quad[:, 1].min()))
        v1 = min(camera.height - 1, math.floor(quad[:, 1].max()))
        if u0 <= u1 and v0 <= v1:
            uu, vv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
            inside = np.ones(uu.shape, dtype=bool)
            # convex quad: consistent sign of the edge cross products
            area = 0.0
            for i in range(4):
                x1, y1 = quad[i]
                x2, y2 = quad[(i + 1) % 4]
                area += x1 * y2 - x2 * y1
            sign = 1.0 if area >= 0 else -1.0
            for i in range(4):
                x1, y1 = quad[i]
                x2, y2 = quad[(i + 1) % 4]
                cross = (x2 - x1) * (vv - y1) - (y2 - y1) * (uu - x1)
                inside &= sign * cross >= 0
            px[v0:v1 + 1, u0:u1 + 1][inside] = VEHICLE_INTENSITY
            painted = (v0, v1 + 1, u0, u1 + 1)
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        noisy = px.astype(np.float64) + rng.normal(0.0, noise_sigma, px.shape)
        px = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
        painted = None
    px.setflags(write=False)
    return Frame(px, t, painted)


def _box_union(a, b):
    """Smallest half-open box holding two (v0, v1, u0, u1) boxes."""
    if a[0] >= a[1] or a[2] >= a[3]:
        return b
    if b[0] >= b[1] or b[2] >= b[3]:
        return a
    return min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3])


def _foreground_components(background: Frame, current: Frame,
                           threshold: int, min_area: int):
    """4-connected foreground components as (area, bbox, centroid) tuples.

    When both frames carry a painted box, only the union of the two boxes
    is differenced: outside it both frames are background, which a
    non-negative threshold never counts as foreground.
    """
    if background.pixels.shape != current.pixels.shape:
        raise ValueError("frame dimensions differ between background and current")
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    a, b = background.pixels, current.pixels
    v_box = u_box = 0
    if background.painted is not None and current.painted is not None:
        v_box, v1, u_box, u1 = _box_union(background.painted, current.painted)
        if v_box >= v1 or u_box >= u1:
            return []
        a, b = a[v_box:v1, u_box:u1], b[v_box:v1, u_box:u1]
    # |a - b| in uint8 without widening casts
    mask = np.maximum(a, b) - np.minimum(a, b) > threshold
    if np.count_nonzero(mask) < min_area:
        return []
    rows = np.any(mask, axis=1).nonzero()[0]
    cols = np.any(mask, axis=0).nonzero()[0]
    r0, r1, c0, c1 = rows[0], rows[-1], cols[0], cols[-1]
    sub = mask[r0:r1 + 1, c0:c1 + 1]
    labels, n = ndimage.label(sub)  # default structure = 4-connectivity
    out = []
    for idx, sl in enumerate(ndimage.find_objects(labels), start=1):
        comp = labels[sl] == idx
        area = int(comp.sum())
        if area < min_area:
            continue
        vs, us = comp.nonzero()
        v_off, u_off = sl[0].start + r0 + v_box, sl[1].start + c0 + u_box
        box = BoundingBox(int(us.min() + u_off), int(vs.min() + v_off),
                          int(us.max() + u_off), int(vs.max() + v_off))
        centroid = (float(us.mean() + u_off), float(vs.mean() + v_off))
        out.append((area, box, centroid))
    return out


def detect_by_subtraction(background: Frame, current: Frame,
                          threshold: int = DEFAULT_THRESHOLD,
                          min_area: int = DEFAULT_MIN_AREA) -> Optional[BoundingBox]:
    """Tight box of the largest foreground component, or None."""
    comps = _foreground_components(background, current, threshold, min_area)
    if not comps:
        return None
    return max(comps, key=lambda c: c[0])[1]


def track_step(state: TrackerState, frame: Frame
               ) -> tuple[TrackerState, Optional[Detection]]:
    """Advance the Searching/Tracking state machine by one frame.

    Searching: the first frame seen becomes the background; afterwards the
    largest foreground blob starts a track. Tracking: the blob whose
    centroid is nearest the previous box center (within GATE_PX) continues
    the track; after LOSS_LIMIT consecutive misses the tracker drops back
    to Searching and will take a fresh background.
    """
    if state.background is None:
        return replace(state, mode=SEARCHING, background=frame, frames_lost=0), None

    if state.mode == SEARCHING:
        box = detect_by_subtraction(state.background, frame)
        if box is None:
            return state, None
        new = replace(state, mode=TRACKING, last_box=box, frames_lost=0)
        cu, cv = box.center()
        return new, Detection(box, cu, cv, frame.capture_time)

    # Tracking: gate on distance from the previous box center
    comps = _foreground_components(state.background, frame,
                                   DEFAULT_THRESHOLD, DEFAULT_MIN_AREA)
    prev_u, prev_v = state.last_box.center()
    best = None
    best_d = GATE_PX
    for _, box, (cu, cv) in comps:
        d = math.hypot(cu - prev_u, cv - prev_v)
        if d <= best_d:
            best_d = d
            best = box
    if best is None:
        lost = state.frames_lost + 1
        if lost > LOSS_LIMIT:
            return TrackerState(), None  # re-acquire background next frame
        return replace(state, frames_lost=lost), None
    new = replace(state, last_box=best, frames_lost=0)
    cu, cv = best.center()
    return new, Detection(best, cu, cv, frame.capture_time)


def write_pgm(frame: Frame, path) -> None:
    """Dump a frame as binary PGM (P5)."""
    with open(path, "wb") as f:
        f.write(f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii"))
        f.write(frame.pixels.tobytes())
