"""Synthetic overhead frames, background-subtraction detection, blob tracking.

Stands in for a real roadside camera feed: the renderer paints the
vehicle's ground rectangle into a flat grayscale frame, the detector
differences against a stored background and labels the 4-connected
foreground components from the mask's row runs, and the tracker searches
the whole frame for the largest component and then follows it by gated
nearest-centroid re-association in a window around its last box, against
one background per camera, kept from its first frame (the empty road).
The detector has one fixed tuning: a pixel is foreground where it differs
from the background by more than THRESHOLD (30), and a component counts
from MIN_AREA (25) pixels.

Every frame carries the box it painted the vehicle into and, for each
row of the box, the run of columns it painted; outside the box every
pixel is background. The renderer projects the rectangle's corners with
`geometry.project_xyz`, the camera model's one projection, in plain
float sums, and finds each row's run by bisection, so a noise-free frame
costs what the box's rows cost and holds no pixels. A noisy frame holds
no noise either: it keeps its camera generator's PCG64 state at its
first word and moves the generator past its words, and draws the 16-bit
noise slots of the rows that are read, and no others, when they are
read. A frame's pixels on any box of its image, of either kind, come
from one function, `_box_pixels`, only when asked for. The detector
takes two frames at one sigma whose background paints nothing, as a
camera's tracker makes them, and refuses any other pair. A noise-free
frame's foreground is then its own row runs as the renderer made them,
with no pixel made. A noisy frame's slots are tested against per-pixel
slot limits, built once per background, one uint16 subtraction and one
comparison per pixel, which decide every pixel the frame does not paint
exactly. Its painted pixels are foreground outright at a sigma whose
noise keeps every vehicle pixel more than THRESHOLD from every road
pixel (sigma <= 17.22), and above it each is differenced from both
frames' `_box_pixels` on the painted box. A tracking frame draws, tests
and labels only its search window. Its mask is packed 64 pixels to a
word, where one-pixel specks are cleared and run ends found a word at a
time. A stack of row runs, one per row, such as a noise-free frame's
vehicle, is one component and is summed without labelling; any other set
of runs, such as a noisy frame's mask, is labelled by array union-find,
and only the components kept are summed.

Pixel noise is rint(N(0, sigma)) at 2**-16 resolution: each pixel takes
one 16-bit slot i, four to a 64-bit draw, and its offset is the inverse
CDF of the rounded normal at (i + 1/2) / 2**16, so each offset's
probability is within 2**-16 of the exact one and offsets end at about
+-4.3 sigma. The pixel is clip(painted + offset, 0, 255).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import CameraModel, Pose2D, project_xyz

BACKGROUND_INTENSITY = 40
VEHICLE_INTENSITY = 220
THRESHOLD = 30  # a pixel is foreground if it differs by more than this
MIN_AREA = 25  # the fewest pixels a component needs to be kept
GATE_PX = 80.0
LOSS_LIMIT = 5
BORDER_MARGIN_PX = 1  # a detection must keep this clear of the image edges
NOISE_SLOTS = 1 << 16  # one 16-bit slot per noisy pixel
NOISE_OFFSET_CAP = 256  # an offset this large saturates any pixel

EMPTY_BOX = (0, 0, 0, 0)  # a painted box that holds no pixel
_NO_SPANS = np.zeros((0, 2), dtype=np.int64)  # the runs of EMPTY_BOX
_NO_SPANS.setflags(write=False)


class Frame:
    """One grayscale (height, width) uint8 frame taken at `capture_time`.

    `painted` is a half-open (v0, v1, u0, u1) box and every pixel outside
    it is background. Row v0 + r of the box is painted VEHICLE_INTENSITY on
    the columns [spans[r, 0], spans[r, 1]) (an empty run has equal ends)
    and background elsewhere. A frame holds no pixels; `_box_pixels` makes
    them. A noisy frame (`sigma` > 0) holds `noise`, the PCG64 state its
    camera's generator had at the frame's first 64-bit word, from which it
    draws its uint16 noise slots, one per pixel, on demand (`slot_rows`),
    and `limits` caches its `_slot_limits`, the two arrays (lo, span): a
    tracker's background builds them once per run.
    """

    __slots__ = ("capture_time", "painted", "spans", "height", "width",
                 "noise", "sigma", "limits", "_rows")

    def __init__(self, spans: np.ndarray, capture_time: float,
                 painted: tuple[int, int, int, int], height: int, width: int,
                 noise: Optional[dict] = None, sigma: float = 0.0):
        self.capture_time = capture_time
        self.painted = painted
        self.spans = spans
        self.height, self.width = height, width
        self.noise, self.sigma, self.limits = noise, sigma, None
        self._rows = None  # (first row, slots) of the rows drawn last

    def slot_rows(self, v0: int, v1: int) -> np.ndarray:
        """The read-only uint16 noise slots of a noisy frame's rows [v0,
        v1), a (v1 - v0, width) array.

        Pixel k of the frame, in raster order, takes the k % 4-th
        little-endian 16-bit quarter of the frame's word k // 4, so the
        rows take the words floor(v0 * width / 4) to ceil(v1 * width / 4)
        and drop the leading (v0 * width) % 4 quarters. Those words come
        from the module's one replay PCG64 (`_replay_generator`), whose
        whole state is set to `noise` under its lock and advanced to the
        first of them; the camera's generator is not touched. The rows
        drawn last are kept, and rows among them are read from them, so the
        whole frame's slots are drawn at most once.
        """
        if self._rows is not None:
            r0, kept = self._rows
            if r0 <= v0 and v1 <= r0 + len(kept):
                return kept[v0 - r0:v1 - r0]
        w = self.width
        first = v0 * w // 4
        bitgen = _replay_generator()
        with bitgen.lock:
            bitgen.state = self.noise
            bitgen.advance(first)
            words = bitgen.random_raw(-(-v1 * w // 4) - first)
        skip = v0 * w - 4 * first
        slots = words.astype("<u8", copy=False).view("<u2")[
            skip:skip + (v1 - v0) * w].reshape(v1 - v0, w)
        slots.setflags(write=False)
        self._rows = v0, slots
        return slots

    @property
    def pixels(self) -> np.ndarray:
        """The whole frame, `_box_pixels` on its image, built on each
        call."""
        return _box_pixels(self, 0, self.height, 0, self.width)


@functools.cache
def _replay_generator() -> np.random.PCG64:
    """The PCG64 that replays every noisy frame's rows, made on first use,
    so that a noise-free run never imports numpy.random. Each read sets
    its whole state first, under its lock, so no read sees another's."""
    return np.random.PCG64(0)  # any seed: every read sets the state


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
        m = BORDER_MARGIN_PX
        return (self.u_min < m or self.v_min < m
                or self.u_max > width - 1 - m or self.v_max > height - 1 - m)


@dataclass(frozen=True)
class Detection:
    box: BoundingBox
    center_u: float
    center_v: float
    capture_time: float


@dataclass(frozen=True)
class TrackerState:
    """A camera's tracker: searching while `last_box` is None."""
    last_box: Optional[BoundingBox] = None
    background: Optional[Frame] = None
    frames_lost: int = 0


def _vehicle_corners(pose: Pose2D, length: float, width: float):
    """The (x, y) ground corners of the vehicle's rectangle, in order."""
    c, s = math.cos(pose.psi), math.sin(pose.psi)
    hl, hw = length / 2.0, width / 2.0
    return [(pose.x + dx * c - dy * s, pose.y + dx * s + dy * c)
            for dx, dy in ((hl, hw), (hl, -hw), (-hl, -hw), (-hl, hw))]


@functools.lru_cache(maxsize=16)
def _noise_tables(sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each noise slot's offset, and the background and vehicle pixels it
    makes.

    Slot i's offset is the smallest k with
    NOISE_SLOTS * Phi((k + 1/2) / sigma) >= i + 1/2, the inverse CDF of
    rint(N(0, sigma)), capped at +-NOISE_OFFSET_CAP; its background pixel
    is clip(BACKGROUND_INTENSITY + k, 0, 255) and its vehicle pixel
    clip(VEHICLE_INTENSITY + k, 0, 255). The int16 table and the two uint8
    ones are read-only and built once per sigma (for the last 16 sigmas
    used).
    """
    # no slot maps beyond 4.5 sigma; cap before rounding, so that a huge
    # sigma does not overflow
    k_max = math.ceil(min(4.5 * sigma, NOISE_OFFSET_CAP))
    scale = sigma * math.sqrt(2.0)
    # NOISE_SLOTS * Phi((k + 1/2) / sigma) for k = -k_max .. -1, from the
    # lower tail's erfc; the upper half of the table mirrors the lower one
    cdf = [NOISE_SLOTS / 2 * math.erfc((m - 0.5) / scale)
           for m in range(k_max, 0, -1)]
    lower = np.searchsorted(cdf, np.arange(NOISE_SLOTS // 2) + 0.5) - k_max
    offsets = np.concatenate([lower, -lower[::-1]]).astype(np.int16)
    background, vehicle = (
        np.clip(painted + offsets, 0, 255).astype(np.uint8)
        for painted in (BACKGROUND_INTENSITY, VEHICLE_INTENSITY))
    for table in (offsets, background, vehicle):
        table.setflags(write=False)
    return offsets, background, vehicle


def _vehicle_stands_out(sigma: float) -> bool:
    """Whether at `sigma` every noisy vehicle pixel differs by more than
    THRESHOLD from every noisy background pixel: the least vehicle pixel
    less the greatest background pixel (both tables are non-decreasing).
    With the bundled intensities it holds up to sigma 17.22. Read from the
    cached tables on each call, so it follows THRESHOLD."""
    _, background, vehicle = _noise_tables(sigma)
    return int(vehicle[0]) - int(background[-1]) > THRESHOLD


def _painted_part(frame: Frame, v0: int, v1: int, u0: int, u1: int):
    """The part (top, bottom, left, right) of a frame's painted box inside
    the half-open box (v0, v1, u0, u1), and whether each of its pixels is
    painted, or None where the boxes do not meet. Compared in int32, which
    holds any column of a frame that fits in memory, at half int64's
    traffic."""
    pv0, pv1, pu0, pu1 = frame.painted
    top, bottom = max(pv0, v0), min(pv1, v1)
    left, right = max(pu0, u0), min(pu1, u1)
    if top >= bottom or left >= right:
        return None
    cols = np.arange(left, right, dtype=np.int32)
    ends = frame.spans[top - pv0:bottom - pv0].astype(np.int32)
    return ((top, bottom, left, right),
            (ends[:, :1] <= cols) & (cols < ends[:, 1:]))


def _box_pixels(frame: Frame, v0: int, v1: int, u0: int, u1: int
                ) -> np.ndarray:
    """A frame's pixels on the half-open box (v0, v1, u0, u1) of its image,
    as a new read-only uint8 array.

    A pixel is painted VEHICLE_INTENSITY on the frame's runs and
    BACKGROUND_INTENSITY elsewhere. In a noisy frame it is its slot's entry
    of the painted value's table (`_noise_tables`), and only the box's rows
    of slots are drawn (`Frame.slot_rows`).
    """
    if frame.noise is None:
        px = np.full((v1 - v0, u1 - u0), BACKGROUND_INTENSITY, dtype=np.uint8)
    else:
        _, road, vehicle = _noise_tables(frame.sigma)
        slots = frame.slot_rows(v0, v1)[:, u0:u1]
        # a uint16 slot always indexes inside a NOISE_SLOTS-entry table, so
        # "wrap" never wraps; it only skips the per-index bounds check
        px = np.take(road, slots, mode="wrap")
    part = _painted_part(frame, v0, v1, u0, u1)
    if part is not None:
        (top, bottom, left, right), painted = part
        box = np.s_[top - v0:bottom - v0, left - u0:right - u0]
        np.copyto(px[box], np.uint8(VEHICLE_INTENSITY) if frame.noise is None
                  else np.take(vehicle, slots[box], mode="wrap"),
                  where=painted)
    px.setflags(write=False)
    return px


def render_frame(camera: CameraModel, vehicle: Optional[Pose2D],
                 vehicle_dims: tuple[float, float], t: float,
                 noise_sigma: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Frame:
    """Render the vehicle's ground rectangle into a flat background frame.

    Deterministic for identical inputs. Both `vehicle_dims` (length,
    width) must be positive. A vehicle behind the camera or fully outside
    the image yields a pure background frame. A frame records the clipped
    bounding box of the painted quad (empty if nothing was painted) and,
    for each row of it, the run of painted columns.

    A pixel (u, v) is painted when, for each quad edge (x1, y1) -> (x2,
    y2), dx * (v - y1) >= dy * (u - x1): a camera above the road sees every
    quad in front of it in one winding, the one this test asks. Along a row
    the second term rounds monotonically in u, so the columns that pass an
    edge are a prefix or a suffix of the row, which one `np.searchsorted`
    per edge finds with the same floats; the row's run is what all four
    edges pass.

    With noise_sigma > 0 (which requires an rng on numpy's PCG64) the
    frame is noisy; its box and runs are still the painted ones. For N =
    height * width pixels its noise is the ceil(N / 4) words of
    `rng.integers(0, 1 << 64, ceil(N / 4), dtype=np.uint64)`, which give
    each pixel a slot: the little-endian 16-bit quarters of the words, in
    raster order, with the spare bits of the last word dropped, so no bits
    carry over to the next frame. When N % 4 == 0 these are the slots of
    `rng.integers(0, NOISE_SLOTS, (height, width), dtype=np.uint16)`. The
    pixel is clip(painted + T[slot], 0, 255), where T is the inverse CDF of
    rint(N(0, noise_sigma)) at 2**-16 resolution (offsets end at about
    +-4.3 sigma; see `_noise_tables`), looked up in one uint8 table for
    each painted value. No word is drawn here: the frame keeps the
    generator's state and the generator is advanced past the words, which
    leaves it exactly where the draw would, so the frame draws only the
    rows that are read (`Frame.slot_rows`). A generator of another kind is
    refused, since its rows could not be replayed.
    """
    if not (vehicle_dims[0] > 0.0 and vehicle_dims[1] > 0.0):
        raise ValueError(f"vehicle_dims {vehicle_dims!r} must be positive")
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noise_sigma > 0 requires an rng")
        # only PCG64's advance counts the words a frame's rows replay
        if type(rng.bit_generator) is not np.random.PCG64:
            raise ValueError("noise_sigma > 0 requires an rng on PCG64, not "
                             f"{type(rng.bit_generator).__name__}")
    painted = EMPTY_BOX
    spans = _NO_SPANS
    quad = None
    if vehicle is not None:
        quad = [project_xyz(camera.matrix_rows, x, y)
                for x, y in _vehicle_corners(vehicle, *vehicle_dims)]
        if None in quad:
            quad = None
    if quad is not None:
        us, vs = zip(*quad)
        u0 = max(0, math.ceil(min(us)))
        u1 = min(camera.width - 1, math.floor(max(us)))
        v0 = max(0, math.ceil(min(vs)))
        v1 = min(camera.height - 1, math.floor(max(vs)))
        if u0 <= u1 and v0 <= v1:
            uu = np.arange(u0, u1 + 1)
            vv = np.arange(v0, v1 + 1)
            edges = list(zip(quad, quad[1:] + quad[:1]))
            # convex quad: every edge's cross product (x2 - x1)(v - y1) -
            # (y2 - y1)(u - x1) is >= 0 inside it. The ground-to-image map
            # K [r1 r2 -RC] has determinant -fx * fy * C_z < 0, which turns
            # the corners' clockwise ground order counter-clockwise for any
            # camera above the road, so no quad has the other winding.
            # Compare the product's two terms instead: for finite doubles
            # fl(a - b) >= 0 exactly when a >= b. Both terms of the four
            # edges are one (4, rows) and one (4, columns) broadcast
            x1, y1, dx, dy = np.array(
                [(x1, y1, x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in edges]
            ).T[:, :, None]
            rows = dx * (vv - y1)
            cols = dy * (uu - x1)
            # each edge's cols rises with u where dy >= 0 and falls where
            # dy < 0, so the columns with cols <= rows are a prefix or a
            # suffix of the box's row: the run's end or its start
            n = len(uu)
            spans = np.empty((len(vv), 2), dtype=np.int64)
            spans[:] = 0, n
            lo, hi = spans[:, 0], spans[:, 1]
            for r, c, rising in zip(rows, cols, (dy[:, 0] >= 0).tolist()):
                if rising:
                    np.minimum(hi, np.searchsorted(c, r, "right"), out=hi)
                else:
                    np.maximum(lo, n - np.searchsorted(c[::-1], r, "right"),
                               out=lo)
            np.maximum(hi, lo, out=hi)  # an empty run is [lo, lo)
            spans += u0
            spans.setflags(write=False)
            painted = (v0, v1 + 1, u0, u1 + 1)
    if not noise_sigma > 0.0:
        return Frame(spans, t, painted, camera.height, camera.width)
    bitgen = rng.bit_generator
    noise = bitgen.state
    bitgen.advance(-(-camera.height * camera.width // 4))
    # advance drops a buffered 32-bit half, which a 64-bit draw keeps
    if noise["has_uint32"]:
        bitgen.state = {**bitgen.state, "has_uint32": 1,
                        "uinteger": noise["uinteger"]}
    return Frame(spans, t, painted, camera.height, camera.width, noise,
                 noise_sigma)


def _slot_limits(frame: Frame):
    """Per-pixel slot limits (lo, span) of a noisy frame's background.

    The background table is non-decreasing in the slot, so the slots whose
    background differs from a background pixel b by more than THRESHOLD
    are those below lo, the first slot with a value >= b - THRESHOLD, and
    those above hi = lo + span, the last slot with a value <= b +
    THRESHOLD. Since b is a table value, lo <= hi and both fit uint16; in
    uint16 a slot s below lo wraps to s - lo > span, so s lies outside the
    limits exactly when s - lo > span. They are exact wherever the frame
    paints nothing. Built on the first call and kept in `frame.limits`.
    """
    if frame.limits is None:
        table = _noise_tables(frame.sigma)[1]
        values = np.arange(256)
        lo = np.searchsorted(table, values - THRESHOLD)
        hi = np.searchsorted(table, values + THRESHOLD, side="right") - 1
        frame.limits = tuple(
            np.take(lim.astype(np.uint16)[table],
                    frame.slot_rows(0, frame.height), mode="wrap")
            for lim in (lo, hi - lo))
    return frame.limits


def _foreground_components(background: Frame, current: Frame,
                           window: Optional[tuple[int, int, int, int]] = None):
    """4-connected foreground components of MIN_AREA or more pixels as
    (area, bbox, centroid) tuples, in raster order of their first pixel.

    Both frames must have one size and one sigma, and the background must
    paint no pixel: a tracker's background is its own camera's empty road,
    at its sigma. A noise-free frame then differs from it exactly where the
    frame is painted, by VEHICLE_INTENSITY - BACKGROUND_INTENSITY, which
    is more than THRESHOLD, so the foreground is the frame's rows that have
    a run. Against a noisy background the current frame's slot is
    foreground where it lies outside the background's slot limits
    (`_slot_limits`), one uint16 subtraction and comparison per pixel,
    which is exact wherever the frame paints nothing. A painted pixel is
    foreground outright when the sigma keeps every vehicle pixel more
    than THRESHOLD from every background pixel (`_vehicle_stands_out`),
    and otherwise where the two frames' `_box_pixels` on the painted box
    differ by more than THRESHOLD; a painted box outside the window costs
    nothing. Only that mask goes through `_components`, which drops its
    many one-pixel specks before labelling.

    A `window`, a half-open (v0, v1, u0, u1) box of the image (None: the
    whole image), is all a noisy pair is differenced and labelled on, in
    image coordinates, so boxes and centroids keep their bits; the current
    frame draws the slots of the window's rows only. A component
    that reaches a window edge inside the image may go on beyond it, and
    is left out, from either frame kind.
    """
    if (background.height, background.width) != (current.height, current.width):
        raise ValueError("frame dimensions differ between background and current")
    if background.sigma != current.sigma:
        raise ValueError("noise sigma differs between background and current")
    # an empty box has no runs; any other box may still have none
    if (background.painted[0] < background.painted[1]
            and (background.spans[:, 0] < background.spans[:, 1]).any()):
        raise ValueError("background paints the vehicle")
    h, w = current.height, current.width
    wv0, wv1, wu0, wu1 = window or (0, h, 0, w)
    v0, v1 = current.painted[:2]
    if background.noise is not None:
        lo, span = _slot_limits(background)
        win = np.s_[wv0:wv1, wu0:wu1]
        slots = current.slot_rows(wv0, wv1)
        mask = slots[:, wu0:wu1] - lo[win] > span[win]
        part = _painted_part(current, wv0, wv1, wu0, wu1)
        if part is not None:
            (pv0, pv1, pu0, pu1), painted = part
            box = mask[pv0 - wv0:pv1 - wv0, pu0 - wu0:pu1 - wu0]
            if _vehicle_stands_out(current.sigma):
                box |= painted
            else:
                a, b = (_box_pixels(f, pv0, pv1, pu0, pu1)
                        for f in (background, current))
                # |a - b| in uint8 without widening casts
                np.copyto(box, np.maximum(a, b) - np.minimum(a, b) > THRESHOLD,
                          where=painted)
        comps = _components(mask, wv0, wu0)
    elif v0 >= v1:
        return []
    else:
        col0, col1 = current.spans[:, 0], current.spans[:, 1]
        rows = np.flatnonzero(col0 < col1)  # an empty run is no run
        comps = _labelled(rows + v0, col0[rows], col1[rows])
    # a component at a window edge inside the image may go on beyond it
    v_lo, v_hi = wv0 + (wv0 > 0), wv1 - 1 - (wv1 < h)
    u_lo, u_hi = wu0 + (wu0 > 0), wu1 - 1 - (wu1 < w)
    return [c for c in comps if v_lo <= c[1].v_min and c[1].v_max <= v_hi
            and u_lo <= c[1].u_min and c[1].u_max <= u_hi]


def _components(mask: np.ndarray, v0: int = 0, u0: int = 0):
    """4-connected components of MIN_AREA or more pixels of a boolean
    mask, whose first pixel is the image's (v0, u0), as (area, bbox,
    centroid) in image coordinates; its runs are labelled by `_labelled`.

    The mask is packed eight pixels to a byte, little-endian, into uint64
    words: row r takes the words [(r + 1) * n, (r + 2) * n), pixel (r, c)
    is bit c of them, and n = w // 64 + 1 leaves at least one zero bit
    after each row's last pixel; a zero row lies above and below. Pixel
    (r, c) is then bit p = (r + 1) * 64 * n + c of the words, and its
    left and right neighbours are bits p -+ 1: the word shifted by one,
    with the bit that crosses from the word before or after.

    Pixels with no foreground 4-neighbour are cleared before the run scan,
    in six word operations. Each is a one-pixel component, which MIN_AREA
    (above 1) leaves out anyway, so the output is the same; on a noisy
    mask this removes nearly every run. A run starts or ends at each bit
    that differs from the bit before it, read from the few non-zero bytes
    in raster order.
    """
    h, w = mask.shape
    n = w // 64 + 1
    packed = np.zeros((h + 2, 8 * n), dtype=np.uint8)
    packed[1:-1, :-(-w // 8)] = np.packbits(mask, axis=1, bitorder="little")
    words = packed.view("<u8").reshape(-1)
    end = len(words) - n
    body = words[n:end]
    # each body word's left neighbours, the bit before bit 0 included
    left = (body << 1) | (words[n - 1:end - 1] >> 63)
    body &= (left | (body >> 1) | (words[n + 1:end + 1] << 63)
             | words[:end - n] | words[2 * n:])
    left = (body << 1) | (words[n - 1:end - 1] >> 63)
    edges = (body ^ left).view(np.uint8)
    at = np.flatnonzero(edges != 0)
    # unpacked 0/1 bytes are valid bools, whose nonzero is the fast one
    bits = np.flatnonzero(np.unpackbits(edges[at], bitorder="little")
                          .view(bool))
    # half-open, as row * 64 * n + col
    pos = at[bits >> 3] * 8 + (bits & 7)
    row, col0 = np.divmod(pos[0::2], 64 * n)
    return _labelled(row + v0, col0 + u0, pos[1::2] - row * (64 * n) + u0)


def _labelled(row: np.ndarray, col0: np.ndarray, col1: np.ndarray):
    """The 4-connected components of row runs as (area, bbox, centroid).

    Run i lies on frame row row[i] on the columns [col0[i], col1[i]), the
    runs in raster order, with no two on one row touching. Components come
    in raster order of their first pixel and those under MIN_AREA are left
    out. A run joins each run of the row above that shares a column with
    it, and each component is labelled by its first run. A stack of runs,
    one per row on consecutive rows, each sharing a column with the next,
    is one component and is summed without labelling (`_stack_runs`): a
    noise-free frame's vehicle is one. Any other set of runs, such as a
    noisy mask's, is labelled by array union-find (`_array_runs`).
    """
    n = len(row)
    rows = None
    # n runs on n consecutive rows, in raster order, are one per row
    # unless two share a row, and then some pair of neighbours does
    if n and row[-1] - row[0] == n - 1:
        rows = _stack_runs(int(row[0]), col0, col1)
    if rows is None:
        rows = _array_runs(row, col0, col1)
    return [(n_px, BoundingBox(u0, v0, u1, v1), (x, y))
            for n_px, u0, v0, u1, v1, x, y in rows]


def _stack_runs(v_min: int, col0: np.ndarray, col1: np.ndarray):
    """`_array_runs`' rows when the runs [col0[i], col1[i]) on the rows
    v_min + i are one stack, else None.

    They are a stack exactly when each run shares a column with the next;
    two runs taken to be on consecutive rows that in fact share one do
    not. The sums are exact ints, and the centroid is `_array_runs`'
    expression, so its bits are the same.
    """
    if not ((col0[1:] < col1[:-1]) & (col0[:-1] < col1[1:])).all():
        return None
    length = col1 - col0
    area = int(length.sum())
    if area < MIN_AREA:
        return []
    v_max = v_min + len(col0) - 1
    u_min = int(col0.min())
    u_sum = int((col0 + col1 - 1) @ length) // 2
    v_sum = int(np.arange(v_min, v_max + 1) @ length)
    return [(area, u_min, v_min, int(col1.max()) - 1, v_max,
             (u_sum - area * u_min) / area + u_min,
             (v_sum - area * v_min) / area + v_min)]


def _array_runs(row: np.ndarray, col0: np.ndarray, col1: np.ndarray):
    """`_labelled`'s rows (area, u_min, v_min, u_max, v_max, cu, cv) from
    its runs, by array union-find. The sums are exact, so each centroid,
    the mean of the offsets from the box corner plus the corner, has the
    bits that the golden digests pin.
    """
    n = len(row)
    # each run at row * stride + col: a row's runs lie below the next
    # row's, and runs of two adjacent rows overlap where their columns do
    stride = int(col1.max(initial=0)) + 1
    starts = row * stride + col0
    ends = row * stride + col1
    # the runs of the row above that overlap run i are the count[i] runs
    # from lo[i] on; pair each with run i
    lo = np.searchsorted(ends, starts - stride, side="right")
    count = np.maximum(np.searchsorted(starts, ends - stride) - lo, 0)
    below = np.repeat(np.arange(n), count)
    above = np.arange(len(below)) - np.repeat(np.cumsum(count) - count - lo,
                                              count)
    # every label is a run of the same component, no later than its own;
    # hook the later root of each split pair onto the earlier, then jump
    # every label to its root
    label = np.arange(n)
    while True:
        while ((root := label[label]) != label).any():
            label = root
        a, b = label[below], label[above]
        split = a != b
        if not split.any():
            break
        np.minimum.at(label, np.maximum(a[split], b[split]),
                      np.minimum(a[split], b[split]))
    # the roots, in order, are the components; only those of MIN_AREA or
    # more are summed, from their own runs
    length = col1 - col0
    area = np.bincount(label, length, minlength=n).astype(np.int64)
    keep = (label == np.arange(n)) & (area >= MIN_AREA)
    first = np.flatnonzero(keep)
    if not len(first):
        return []
    runs = np.flatnonzero(keep[label])
    comp = np.searchsorted(first, label[runs])
    area, v_min = area[first], row[first]
    row, col0, col1, length = row[runs], col0[runs], col1[runs], length[runs]
    u_min = np.full(len(first), stride)
    np.minimum.at(u_min, comp, col0)
    u_max = np.zeros(len(first), dtype=np.int64)
    np.maximum.at(u_max, comp, col1 - 1)
    v_max = np.zeros(len(first), dtype=np.int64)
    np.maximum.at(v_max, comp, row)
    u_sum = np.bincount(comp, (col0 + col1 - 1) * length // 2)
    v_sum = np.bincount(comp, row * length)
    cu = (u_sum - area * u_min) / area + u_min
    cv = (v_sum - area * v_min) / area + v_min
    columns = (area, u_min, v_min, u_max, v_max, cu, cv)
    return zip(*(col.tolist() for col in columns))


def detect_by_subtraction(background: Frame,
                          current: Frame) -> Optional[BoundingBox]:
    """Tight box of the largest foreground component, or None."""
    comps = _foreground_components(background, current)
    if not comps:
        return None
    return max(comps, key=lambda c: c[0])[1]


def track_step(state: TrackerState, frame: Frame
               ) -> tuple[TrackerState, Optional[Detection]]:
    """Advance the tracker by one frame.

    The first frame seen becomes the background, kept for the whole run,
    and must paint no vehicle. Searching (no `last_box`), the largest
    blob of the whole frame starts a track. Tracking, the blob of the
    search window (the previous box grown by GATE_PX on every side and
    clipped to the image; see `_foreground_components`) whose centroid is
    nearest the previous box center, within GATE_PX, continues it; after
    LOSS_LIMIT consecutive misses the tracker searches again, against the
    same background.
    """
    if state.background is None:
        return TrackerState(background=frame), None
    if state.last_box is None:
        box = detect_by_subtraction(state.background, frame)
        if box is None:
            return state, None
    else:  # gate on distance from the previous box center, in its window
        b, g = state.last_box, int(GATE_PX)
        prev_u, prev_v = b.center()
        window = (max(0, b.v_min - g), min(frame.height, b.v_max + 1 + g),
                  max(0, b.u_min - g), min(frame.width, b.u_max + 1 + g))
        box, best_d = None, GATE_PX
        for _, blob, (cu, cv) in _foreground_components(state.background,
                                                        frame, window):
            d = math.hypot(cu - prev_u, cv - prev_v)
            if d <= best_d:
                box, best_d = blob, d
        if box is None:
            lost = state.frames_lost + 1
            if lost > LOSS_LIMIT:
                return TrackerState(background=state.background), None
            return TrackerState(state.last_box, state.background, lost), None
    cu, cv = box.center()
    return (TrackerState(box, state.background),
            Detection(box, cu, cv, frame.capture_time))


def write_pgm(frame: Frame, path) -> None:
    """Dump a frame as binary PGM (P5)."""
    with open(path, "wb") as f:
        f.write(f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii"))
        f.write(frame.pixels.tobytes())
