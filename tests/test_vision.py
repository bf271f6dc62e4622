import dataclasses
import functools
import hashlib
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iea_sim import vision
from iea_sim.geometry import Pose2D, PixelPoint, WorldPoint, \
    back_project_ground, camera_matrix, project, project_xyz
from iea_sim.harness import run_scenario
from iea_sim.scenario import load_scenario
from iea_sim.vision import (BACKGROUND_INTENSITY, EMPTY_BOX,
                            NOISE_OFFSET_CAP, NOISE_SLOTS, THRESHOLD,
                            VEHICLE_INTENSITY, Frame, TrackerState,
                            detect_by_subtraction, render_frame, track_step,
                            write_pgm)

from conftest import DEFAULT_FY, in_image, make_camera, whole_image

DIMS = (4.5, 2.0)
SIGMAS = (1e-6, 0.3, 8.0, 1e4, 1e308)

# poses around the default camera (x = 0, looking along +x): in view, partly
# off-image, behind the camera, or no vehicle at all
poses = st.one_of(st.none(), st.builds(
    Pose2D, st.floats(-10.0, 70.0), st.floats(-20.0, 20.0),
    st.floats(-math.pi, math.pi)))


def _blank(width, height, t=0.0):
    """A rendered frame with no vehicle in it."""
    camera = make_camera(cx=width / 2, cy=height / 2, width=width,
                         height=height)
    return render_frame(camera, None, DIMS, t)


def _rect_frame(width, height, *rects, t=0.0):
    """A noise-free frame painted on (v0, v1, u0, u1) rectangles that share
    no row: one run on each of their rows, an empty run between them."""
    v0, u0 = min(r[0] for r in rects), min(r[2] for r in rects)
    v1, u1 = max(r[1] for r in rects), max(r[3] for r in rects)
    spans = np.full((v1 - v0, 2), u0, dtype=np.int64)
    for a, b, c, d in rects:
        spans[a - v0:b - v0] = c, d
    return Frame(spans, t, (v0, v1, u0, u1), height, width)


class TestRenderFrame:
    def test_vehicle_outside_view_is_pure_background(self, default_camera):
        fr = render_frame(default_camera, Pose2D(500.0, 0.0, 0.0), DIMS, 0.0)
        assert (fr.pixels == BACKGROUND_INTENSITY).all()

    def test_no_pose_is_pure_background(self, default_camera):
        fr = render_frame(default_camera, None, DIMS, 0.0)
        assert (fr.pixels == BACKGROUND_INTENSITY).all()

    def test_blob_extent_matches_projected_corners(self, default_camera):
        # oracle: project the four rectangle corners independently and
        # compare the painted-pixel bounding box against their extremes
        fr = render_frame(default_camera, Pose2D(9.0, 0.0, 0.0), DIMS, 0.0)
        vs, us = (fr.pixels == VEHICLE_INTENSITY).nonzero()
        assert len(us) > 0
        corners = [project(default_camera, WorldPoint(9.0 + dx, dy, 0.0))
                   for dx in (2.25, -2.25) for dy in (1.0, -1.0)]
        cu = [c.u for c in corners]
        cv = [c.v for c in corners]
        assert abs(us.min() - min(cu)) <= 1.0 and abs(us.max() - max(cu)) <= 1.0
        assert abs(vs.min() - min(cv)) <= 1.0 and abs(vs.max() - max(cv)) <= 1.0

    def test_deterministic(self, default_camera):
        a = render_frame(default_camera, Pose2D(20.0, 1.0, 0.3), DIMS, 1.0)
        b = render_frame(default_camera, Pose2D(20.0, 1.0, 0.3), DIMS, 1.0)
        assert (a.pixels == b.pixels).all()

    @settings(max_examples=60, deadline=None)
    @given(poses)
    def test_outside_painted_box_is_background(self, default_camera, pose):
        fr = render_frame(default_camera, pose, DIMS, 0.0)
        v0, v1, u0, u1 = fr.painted
        assert 0 <= v0 <= v1 <= fr.height and 0 <= u0 <= u1 <= fr.width
        outside = np.ones(fr.pixels.shape, dtype=bool)
        outside[v0:v1, u0:u1] = False
        assert (fr.pixels[outside] == BACKGROUND_INTENSITY).all()

    def test_every_frame_carries_a_box(self, default_camera):
        # blank frames paint nothing; a noisy frame's box and runs are the
        # noise-free ones, and outside its box each pixel is its slot's
        # background; a noise-free frame holds runs, no pixels, and the
        # same runs on a whole-image box make the same pixels
        assert _blank(80, 60).painted == EMPTY_BOX
        assert render_frame(default_camera, None, DIMS, 0.0).painted == EMPTY_BOX
        for pose in (None, Pose2D(20, 0, 0)):
            clean = render_frame(default_camera, pose, DIMS, 0.0)
            noisy = render_frame(default_camera, pose, DIMS, 0.0,
                                 noise_sigma=2.0, rng=np.random.default_rng(3))
            assert noisy.painted == clean.painted
            assert (noisy.spans == clean.spans).all()
            assert clean.noise is None and not clean.spans.flags.writeable
            _assert_background_outside_box(noisy)
            whole = whole_image(clean)
            assert whole.painted == (0, 600, 0, 800)
            assert (whole.pixels == clean.pixels).all()
            assert not whole.pixels.flags.writeable

    def test_noise_requires_rng_and_is_seed_stable(self, default_camera):
        with pytest.raises(ValueError):
            render_frame(default_camera, None, DIMS, 0.0, noise_sigma=2.0)
        a = render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.0,
                         noise_sigma=2.0, rng=np.random.default_rng(3))
        b = render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.0,
                         noise_sigma=2.0, rng=np.random.default_rng(3))
        assert (a.pixels == b.pixels).all()


def _assert_background_outside_box(noisy):
    """A noisy frame's pixels are its slots' background outside its runs
    and their vehicle pixel on them."""
    v0 = noisy.painted[0]
    _, background, vehicle = vision._noise_tables(noisy.sigma)
    expected = background[noisy.slots]
    for r, (c0, c1) in enumerate(noisy.spans):
        expected[v0 + r, c0:c1] = vehicle[noisy.slots[v0 + r, c0:c1]]
    assert (noisy.pixels == expected).all()


def _reference_render(camera, vehicle, dims, t, noise_sigma=0.0, rng=None):
    """Reference renderer: paints a full frame through a coordinate grid
    over the quad's box; returns (pixels, painted)."""
    px = np.full((camera.height, camera.width), BACKGROUND_INTENSITY,
                 dtype=np.uint8)
    painted = EMPTY_BOX
    quad = None
    if vehicle is not None:
        pts = [project(camera, WorldPoint(x, y))
               for x, y in vision._vehicle_corners(vehicle, *dims)]
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
        # the same one uint16 slot per pixel
        slots = rng.integers(0, 1 << 16, px.shape, dtype=np.uint16)
        px = np.clip(px + _reference_offsets(noise_sigma)[slots], 0, 255)
        px = px.astype(np.uint8)
    return px, painted


@functools.lru_cache(maxsize=None)
def _reference_offsets(sigma):
    """Each uint16 slot's offset, the inverse CDF of rint(N(0, sigma)): the
    smallest k with Phi((k + 1/2) / sigma) >= (slot + 1/2) / 2**16. An
    offset beyond +-NOISE_OFFSET_CAP saturates any pixel, as the cap does,
    and the clamp keeps a huge sigma's infinite quantiles out of ceil."""
    normal = NormalDist(0.0, sigma)
    return np.array([
        math.ceil(min(max(normal.inv_cdf((i + 0.5) / 65536),
                          -NOISE_OFFSET_CAP), NOISE_OFFSET_CAP) - 0.5)
        for i in range(1 << 16)])


def _turned(pose, yaw):
    """A pose around the default camera, turned with the camera's yaw."""
    c, s = math.cos(yaw), math.sin(yaw)
    return Pose2D(pose.x * c - pose.y * s, pose.x * s + pose.y * c,
                  pose.psi + yaw)


# a ground point whose camera-frame depth is `depth`, `side` metres to the
# side of the optical axis, for a camera at (0, 0, z): a vehicle there has
# corners near the camera's horizon plane, some of them behind it, or all
# in front and some projected thousands of pixels outside the image
near_horizon = st.tuples(st.floats(0.05, 4.0), st.floats(-3.0, 3.0),
                         st.floats(-math.pi, math.pi))


def _near_horizon_pose(depth, side, psi, pitch, yaw, z):
    ahead = (depth - z * math.sin(pitch)) / math.cos(pitch)
    return _turned(Pose2D(ahead, side, psi), yaw)


class TestRenderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(poses, near_horizon), st.floats(1.0, 8.0),
           st.floats(0.5, 3.0), st.floats(0.3, 1.4), st.floats(3.0, 15.0),
           st.floats(-math.pi, math.pi), st.floats(-0.5, 0.5))
    def test_noise_free(self, pose, length, width, pitch, z, yaw, roll):
        camera = make_camera(z=z, pitch=pitch, yaw=yaw, roll=roll)
        if isinstance(pose, tuple):
            pose = _near_horizon_pose(*pose, pitch, yaw, z)
        elif pose is not None:
            pose = _turned(pose, yaw)
        fr = render_frame(camera, pose, (length, width), 0.5)
        px, painted = _reference_render(camera, pose, (length, width), 0.5)
        assert fr.painted == painted and fr.noise is None
        v0, v1, u0, u1 = painted
        # one run per row, inside the box, with equal ends when empty
        lo, hi = fr.spans.T
        assert fr.spans.shape == (v1 - v0, 2)
        assert ((u0 <= lo) & (lo <= hi) & (hi <= u1)).all()
        assert (vision._span_patch(painted, fr.spans)
                == px[v0:v1, u0:u1]).all()
        assert fr.pixels.dtype == np.uint8 and not fr.pixels.flags.writeable
        assert (fr.pixels == px).all()
        assert (fr.height, fr.width) == px.shape

    @settings(max_examples=100, deadline=None)
    @given(poses, st.floats(1.0, 8.0), st.floats(0.5, 3.0))
    def test_clockwise_quad(self, default_camera, pose, length, width):
        # a negative length lists the same rectangle's corners in the other
        # winding, which the renderer tests with each edge's terms negated
        fr = render_frame(default_camera, pose, (-length, width), 0.5)
        px, painted = _reference_render(default_camera, pose,
                                        (-length, width), 0.5)
        assert fr.painted == painted
        assert (fr.pixels == px).all()

    def test_pixels_on_an_edge_are_painted(self, default_camera):
        # the near edge of this pose projects exactly onto pixel row 400,
        # where the edge's cross product is exactly zero
        pose = Pose2D(7.7798948565259165, 0.0, 0.0)
        assert all(project(default_camera, WorldPoint(pose.x - 2.25, dy)).v
                   == 400.0 for dy in (1.0, -1.0))
        fr = render_frame(default_camera, pose, DIMS, 0.0)
        px, painted = _reference_render(default_camera, pose, DIMS, 0.0)
        assert fr.painted == painted and painted[1] == 401
        assert (fr.pixels == px).all()
        assert (fr.pixels[400] == VEHICLE_INTENSITY).any()

    @settings(max_examples=10, deadline=None)
    @given(poses, st.integers(0, 2**32 - 1))
    def test_noisy(self, default_camera, pose, seed):
        # every sigma, from offsets that never saturate a pixel to ones
        # that saturate all
        for sigma in SIGMAS:
            fr = render_frame(default_camera, pose, DIMS, 0.5, sigma,
                              np.random.default_rng(seed))
            px, painted = _reference_render(default_camera, pose, DIMS, 0.5,
                                            sigma, np.random.default_rng(seed))
            assert fr.painted == painted == render_frame(
                default_camera, pose, DIMS, 0.5).painted
            v0, v1, u0, u1 = painted
            assert (vision._noisy_patch(sigma, painted, fr.spans,
                                        fr.slots[v0:v1, u0:u1])
                    == px[v0:v1, u0:u1]).all()
            assert (fr.pixels == px).all()
            _assert_background_outside_box(fr)


# the rows of each bundled camera's matrix (x = 6, 30, 70 and 110 m, 9 m up,
# pitched 45 degrees down, 800 x 600 pixels), and the (u, v) or None that
# `geometry.project_xyz` gives from those rows for the ground point
# (x + dx, y) of each CORNER_POINTS entry
BUNDLED_CAMERAS = {camera.position.x: camera
                   for name in ("straight_3ms", "distributed_smoke")
                   for camera in load_scenario(name).cameras}
CORNER_POINTS = [(-30.0, 0.0), (-9.5, 2.0), (-9.0, 0.0), (-8.5, -1.0),
                 (-5.0, 12.0), (0.0, 0.0), (3.7, 1.0), (4.5, -1.0), (9.0, 0.0),
                 (12.25, 0.5), (17.75, -0.75), (20.0, 17.5), (24.0, -3.0),
                 (33.3, 4.0), (51.0, 0.0), (56.0, -26.0), (80.0, 2.5),
                 (120.0, 0.0), (2.0, 40.0), (1e-3, -1e-3)]
PINNED_CORNERS = {
    6.0: (
        ((282.842712474619, -418.7162709997704, -282.84271247461896, 848.5281374238566),
         (-83.94508026111748, 0.0, -508.209148973046, 5077.55282232412),
         (0.7071067811865476, 0.0, -0.7071067811865475, 2.121320343559642)),
        [None,
         None,
         None,
         (1584.3084584683288, 14955.069484991995),
         (-1376.4626877024912, 1765.506948499197),
         (399.99999999999994, 718.7162709997705),
         (353.37368273746733, 474.7398611258885),
         (443.86327623956777, 439.5720903332569),
         (399.99999999999994, 300.00000000000006),
         (386.0669593121373, 235.96104090591754),
         (416.6024550252569, 163.0367337851219),
         (42.665551324211634, 141.1765868621561),
         (453.83220265765124, 109.6744222728317),
         (344.0043282048072, 59.46086559587666),
         (399.99999999999994, 6.898610300160793),
         (636.8616916936654, -2.764072876757001),
         (383.36645423499544, -34.03208135936734),
         (399.99999999999994, -60.29074481375586),
         (-1753.2881063060495, 566.4558088180358),
         (400.0657876046255, 718.623233277073)]),
    30.0: (
        ((282.842712474619, -418.7162709997704, -282.84271247461896, -5939.696961966999),
         (-83.94508026111748, 0.0, -508.209148973046, 7092.2347485909395),
         (0.7071067811865476, 0.0, -0.7071067811865475, -14.849242404917499)),
        [None,
         None,
         None,
         (1584.3084584683302, 14955.069484991993),
         (-1376.4626877024907, 1765.5069484991968),
         (399.99999999999994, 718.7162709997705),
         (353.37368273746756, 474.7398611258884),
         (443.8632762395676, 439.57209033325694),
         (399.99999999999994, 300.00000000000006),
         (386.06695931213727, 235.9610409059175),
         (416.6024550252569, 163.03673378512187),
         (42.66555132421173, 141.17658686215614),
         (453.83220265765124, 109.67442227283168),
         (344.00432820480717, 59.460865595876655),
         (400.00000000000006, 6.898610300160793),
         (636.8616916936654, -2.764072876757001),
         (383.3664542349954, -34.03208135936734),
         (400.00000000000006, -60.290744813755865),
         (-1753.288106306049, 566.4558088180357),
         (400.0657876046255, 718.6232332770727)]),
    70.0: (
        ((282.842712474619, -418.7162709997704, -282.84271247461896, -17253.40546095176),
         (-83.94508026111748, 0.0, -508.209148973046, 10450.037959035639),
         (0.7071067811865476, 0.0, -0.7071067811865475, -43.1335136523794)),
        [None,
         None,
         None,
         (1584.3084584683245, 14955.069484991845),
         (-1376.4626877024893, 1765.5069484991957),
         (400.0, 718.7162709997702),
         (353.3736827374673, 474.7398611258881),
         (443.86327623956765, 439.5720903332566),
         (400.0, 300.0),
         (386.06695931213727, 235.9610409059175),
         (416.60245502525686, 163.03673378512187),
         (42.66555132421186, 141.17658686215614),
         (453.8322026576511, 109.67442227283163),
         (344.0043282048073, 59.460865595876655),
         (400.0, 6.898610300160792),
         (636.8616916936654, -2.7640728767570004),
         (383.36645423499544, -34.03208135936734),
         (400.00000000000006, -60.290744813755865),
         (-1753.288106306048, 566.4558088180354),
         (400.0657876046256, 718.6232332770721)]),
    110.0: (
        ((282.842712474619, -418.7162709997704, -282.84271247461896, -28567.11395993652),
         (-83.94508026111748, 0.0, -508.209148973046, 13807.841169480338),
         (0.7071067811865476, 0.0, -0.7071067811865475, -71.41778489984131)),
        [None,
         None,
         None,
         (1584.3084584683245, 14955.069484991842),
         (-1376.462687702493, 1765.5069484992),
         (400.00000000000045, 718.716270999771),
         (353.37368273746785, 474.7398611258889),
         (443.86327623956794, 439.57209033325734),
         (400.0, 300.0),
         (386.0669593121379, 235.96104090591768),
         (416.6024550252572, 163.03673378512192),
         (42.6655513242117, 141.1765868621562),
         (453.83220265765124, 109.67442227283168),
         (344.00432820480734, 59.46086559587658),
         (399.99999999999994, 6.898610300160793),
         (636.8616916936656, -2.764072876757001),
         (383.36645423499544, -34.03208135936734),
         (400.00000000000006, -60.29074481375585),
         (-1753.288106306051, 566.4558088180364),
         (400.06578760462605, 718.6232332770729)]),
}


class TestCorners:
    @pytest.mark.parametrize("x", sorted(PINNED_CORNERS))
    def test_pinned_bits(self, x):
        # the camera's rows, and its pixels of points in view, outside the
        # image, on the camera's horizon plane and behind it: every bit,
        # which plain float sums in a fixed order make on every CPU
        rows, expected = PINNED_CORNERS[x]
        assert camera_matrix(BUNDLED_CAMERAS[x]) == rows
        assert [project_xyz(rows, x + dx, y)
                for dx, y in CORNER_POINTS] == expected


def _offset_pmf(offsets):
    """Share of slots per offset, for offsets -NOISE_OFFSET_CAP .. +CAP."""
    return np.bincount(offsets + NOISE_OFFSET_CAP,
                       minlength=2 * NOISE_OFFSET_CAP + 1) / NOISE_SLOTS


class TestNoiseTable:
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_pmf_within_one_slot_of_the_rounded_normal(self, sigma):
        offsets, _, _ = vision._noise_tables(sigma)
        assert offsets.shape == (NOISE_SLOTS,) and offsets.dtype == np.int16
        # P(clip(rint(N(0, sigma)), -CAP, CAP) = k): an offset beyond the
        # cap saturates any pixel just as the cap does
        cdf = NormalDist(0.0, sigma).cdf
        exact = np.diff([0.0] + [cdf(k + 0.5) for k in range(
            -NOISE_OFFSET_CAP, NOISE_OFFSET_CAP)] + [1.0])
        assert np.abs(_offset_pmf(offsets) - exact).max() <= 2.0 ** -16
        # each CDF entry the table can be built from, NOISE_SLOTS *
        # Phi(-(m - 1/2) / sigma) for m = 1 .. NOISE_OFFSET_CAP, lies at
        # least 1e6 ulps from its nearest slot boundary i + 1/2, so the last
        # bit of the C library's erfc cannot move any slot's offset
        scale = sigma * math.sqrt(2.0)
        for m in range(1, NOISE_OFFSET_CAP + 1):
            c = NOISE_SLOTS / 2 * math.erfc((m - 0.5) / scale)
            assert abs(c - (math.floor(c) + 0.5)) >= 1e6 * math.ulp(c)

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_symmetric_monotone_read_only_and_built_once(self, sigma):
        offsets, background, vehicle = vision._noise_tables(sigma)
        assert (offsets == -offsets[::-1]).all()
        assert (np.diff(offsets) >= 0).all()
        assert background.dtype == np.uint8
        assert (background
                == np.clip(BACKGROUND_INTENSITY + offsets, 0, 255)).all()
        assert vehicle.dtype == np.uint8
        assert (vehicle == np.clip(VEHICLE_INTENSITY + offsets, 0, 255)).all()
        assert not offsets.flags.writeable and not background.flags.writeable
        assert not vehicle.flags.writeable
        again = vision._noise_tables(sigma)
        assert (again[0] is offsets and again[1] is background
                and again[2] is vehicle)


class TestNoisyFrames:
    SIGMA = 8.0
    POSE = Pose2D(20.0, 0.0, 0.0)

    def _background_pixels(self, camera, seed):
        """The noisy pixels outside the noise-free frame's painted box."""
        v0, v1, u0, u1 = render_frame(camera, self.POSE, DIMS, 0.0).painted
        assert v0 < v1 and u0 < u1
        px = render_frame(camera, self.POSE, DIMS, 0.0, self.SIGMA,
                          np.random.default_rng(seed)).pixels
        outside = np.ones(px.shape, dtype=bool)
        outside[v0:v1, u0:u1] = False
        return px[outside].astype(np.int64)

    def test_background_mean_and_std(self, default_camera):
        bg = self._background_pixels(default_camera, 11)
        # rint(N(0, sigma)) has variance sigma**2 + 1/12 (Sheppard)
        std = math.sqrt(self.SIGMA ** 2 + 1 / 12)
        standard_error = std / math.sqrt(bg.size)
        assert abs(bg.mean() - BACKGROUND_INTENSITY) <= 4 * standard_error
        assert abs(bg.std() / std - 1) <= 0.01

    def test_share_over_threshold_between_two_frames(self, default_camera):
        a = self._background_pixels(default_camera, 12)
        b = self._background_pixels(default_camera, 13)
        share = (np.abs(a - b) > THRESHOLD).mean()
        # the difference of two offsets drawn from the table's pmf
        pmf = _offset_pmf(vision._noise_tables(self.SIGMA)[0])
        diff = np.convolve(pmf, pmf[::-1])
        lag = np.arange(len(diff)) - 2 * NOISE_OFFSET_CAP
        p = diff[np.abs(lag) > THRESHOLD].sum()
        assert 0.005 < p < 0.01
        assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / a.size)

    def test_huge_sigma_saturates_every_pixel(self, default_camera):
        fr = render_frame(default_camera, self.POSE, DIMS, 0.0, 1e308,
                          np.random.default_rng(14))
        assert set(np.unique(fr.pixels).tolist()) == {0, 255}

    def test_one_uint16_draw_per_frame(self, default_camera):
        rng, twin = np.random.default_rng(15), np.random.default_rng(15)
        render_frame(default_camera, self.POSE, DIMS, 0.0, self.SIGMA, rng)
        # four uint16 slots per 64-bit word
        twin.integers(0, 1 << 64, default_camera.height
                      * default_camera.width // 4, dtype=np.uint64)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("width", [5, 6, 7])
    def test_each_frame_draws_whole_words(self, width):
        # 5 x 5, 6 x 5 and 7 x 5 pixels: N % 4 is 1, 2 and 3. Each frame
        # takes ceil(N / 4) words and leaves no spare bits to the next
        camera = make_camera(cx=width / 2, cy=2.5, width=width, height=5)
        words = -(-width * 5 // 4)
        rng = np.random.default_rng(16)
        for k in range(3):
            px = render_frame(camera, None, DIMS, 0.0, self.SIGMA, rng).pixels
            twin = np.random.default_rng(16)
            twin.integers(0, 1 << 64, k * words, dtype=np.uint64)
            assert (render_frame(camera, None, DIMS, 0.0, self.SIGMA,
                                 twin).pixels == px).all()
            assert rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([5, 6, 7, 8, 9, 40]), st.integers(1, 12),
           st.booleans(), st.data())
    def test_lazy_rows_are_the_eager_draws_rows(self, width, height,
                                                buffered, data):
        # N % 4 != 0 for most sizes, so rows start mid-word; a uint32 drawn
        # before the frames leaves a buffered half, which must survive too
        camera = make_camera(cx=width / 2, cy=height / 2, width=width,
                             height=height)
        n, words = width * height, -(-width * height // 4)
        rng, twin = np.random.default_rng(17), np.random.default_rng(17)
        if buffered:
            rng.integers(0, 1 << 32, dtype=np.uint32)
            twin.integers(0, 1 << 32, dtype=np.uint32)
        frames = [render_frame(camera, None, DIMS, 0.0, self.SIGMA, rng)
                  for _ in range(3)]
        eager = [twin.integers(0, 1 << 64, words, dtype=np.uint64)
                 .astype("<u8").view("<u2")[:n].reshape(height, width)
                 for _ in range(3)]
        state = rng.bit_generator.state
        assert state == twin.bit_generator.state
        v0 = data.draw(st.integers(0, height - 1), "v0")
        v1 = data.draw(st.integers(v0, height), "v1")
        ranges = [(0, 1), (height - 1, height), (v0, v0 + 1), (v0, v1),
                  (0, height)]
        # the newest frame first, then the older ones, whole frames last
        for k in (2, 0, 1):
            for a, b in ranges:
                rows = frames[k].slot_rows(a, b)
                assert rows.shape == (b - a, width)
                assert not rows.flags.writeable
                assert (rows == eager[k][a:b]).all(), (k, a, b)
            assert (frames[k].slots == eager[k]).all()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bit_generator",
                             [np.random.MT19937, np.random.Philox,
                              np.random.SFC64])
    def test_refuses_a_generator_it_cannot_replay(self, default_camera,
                                                  bit_generator):
        # MT19937 and SFC64 have no advance, and Philox's counts other
        # units: refused before anything is drawn
        rng = np.random.Generator(bit_generator(18))
        twin = np.random.Generator(bit_generator(18))
        with pytest.raises(ValueError, match="PCG64"):
            render_frame(default_camera, self.POSE, DIMS, 0.0, self.SIGMA,
                         rng)
        assert (rng.integers(0, 1 << 64, 8, dtype=np.uint64)
                == twin.integers(0, 1 << 64, 8, dtype=np.uint64)).all()


class TestDetectBySubtraction:
    def test_identical_frames_yield_none(self, default_camera):
        bg = _blank(80, 60)
        assert detect_by_subtraction(bg, bg) is None

    def test_box_is_exactly_the_painted_rectangle(self, default_camera):
        bg = render_frame(default_camera, None, DIMS, 0.0)
        fr = render_frame(default_camera, Pose2D(20.0, 0.0, 0.0), DIMS, 0.05)
        box = detect_by_subtraction(bg, fr)
        vs, us = (fr.pixels == VEHICLE_INTENSITY).nonzero()
        assert (box.u_min, box.v_min, box.u_max, box.v_max) == \
            (us.min(), vs.min(), us.max(), vs.max())

    def test_larger_of_two_blobs_wins(self):
        bg = _blank(60, 60)
        # a 100 px blob and a 9 px noise patch
        cur = _rect_frame(60, 60, (10, 20, 10, 20), (40, 43, 40, 43))
        box = detect_by_subtraction(bg, cur)
        assert (box.u_min, box.v_min, box.u_max, box.v_max) == (10, 10, 19, 19)

    def test_small_blob_below_min_area_ignored(self):
        bg = _blank(60, 60)
        cur = _rect_frame(60, 60, (5, 8, 5, 8))  # 9 px < min_area 25
        assert detect_by_subtraction(bg, cur) is None

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimensions"):
            detect_by_subtraction(_blank(10, 10),
                                  _blank(11, 10))
        # the shape check comes before the painted-background check
        painted = _rect_frame(10, 10, (2, 4, 2, 4))
        with pytest.raises(ValueError, match="dimensions"):
            detect_by_subtraction(painted, _blank(11, 10))

    def test_painted_background_is_refused(self, default_camera):
        # a tracker's background is the empty road: one that paints a run,
        # noise-free or noisy, is refused by the detector and the tracker
        # alike; a whole-image box with no run paints nothing
        pose = Pose2D(20.0, 0.0, 0.0)
        rng = np.random.default_rng(24)
        for sigma in (0.0, 8.0):
            bg = render_frame(default_camera, pose, DIMS, 0.0, sigma, rng)
            cur = render_frame(default_camera, None, DIMS, 0.05, sigma, rng)
            with pytest.raises(ValueError, match="background paints"):
                detect_by_subtraction(bg, cur)
            tracking = TrackerState(last_box=vision.BoundingBox(0, 0, 1, 1),
                                    background=bg)
            for state in (TrackerState(background=bg), tracking):
                with pytest.raises(ValueError, match="background paints"):
                    track_step(state, cur)
        empty = whole_image(render_frame(default_camera, None, DIMS, 0.0))
        assert empty.painted == (0, 600, 0, 800)
        fr = render_frame(default_camera, pose, DIMS, 0.05)
        assert detect_by_subtraction(empty, fr) == detect_by_subtraction(
            render_frame(default_camera, None, DIMS, 0.0), fr) is not None
        state, det = track_step(TrackerState(background=empty), fr)
        assert state.last_box is not None and det is not None

    @settings(max_examples=60, deadline=None)
    @given(poses,
           st.integers(0, VEHICLE_INTENSITY - BACKGROUND_INTENSITY - 1),
           st.integers(2, 60))
    def test_sparse_path_matches_dense(self, default_camera, cur_pose,
                                       threshold, min_area):
        # against the empty road, the runs' components are the flood fill
        # of the pixel difference, which is empty outside the current
        # frame's box, at any THRESHOLD below the vehicle's contrast; the
        # same frames on whole-image boxes, alone or against a frame on
        # its own box, give the same
        bg = render_frame(default_camera, None, DIMS, 0.0)
        cur = render_frame(default_camera, cur_pose, DIMS, 0.05)
        mask = np.abs(bg.pixels.astype(np.int16) - cur.pixels) > threshold
        v0, v1, u0, u1 = cur.painted
        box_mask = mask[v0:v1, u0:u1].copy()
        mask[v0:v1, u0:u1] = False
        assert not mask.any()
        full_bg, full_cur = whole_image(bg), whole_image(cur)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(vision, "THRESHOLD", threshold)
            monkeypatch.setattr(vision, "MIN_AREA", min_area)
            sparse = vision._foreground_components(bg, cur)
            assert repr(sparse) == repr(_flood_fill_components(
                box_mask, min_area, v0, u0) if box_mask.size else [])
            for a, b in ((full_bg, full_cur), (bg, full_cur), (full_bg, cur)):
                assert vision._foreground_components(a, b) == sparse

    @given(st.integers(0, 40), st.integers(0, 40),
           st.integers(5, 19), st.integers(5, 19))
    def test_box_tightness(self, u0, v0, w, h):
        bg = _blank(64, 64)
        u1, v1 = min(63, u0 + w), min(63, v0 + h)
        cur = _rect_frame(64, 64, (v0, v1 + 1, u0, u1 + 1))
        box = detect_by_subtraction(bg, cur)
        mask = cur.pixels > BACKGROUND_INTENSITY + 30
        vs, us = mask.nonzero()
        # contains every foreground pixel and has no margin
        assert box.u_min == us.min() and box.u_max == us.max()
        assert box.v_min == vs.min() and box.v_max == vs.max()


# a 40 x 30 camera that sees a quarter of the default camera's footprint,
# and poses that put the vehicle in its view, partly out of it or beside it
SMALL_CAMERA = make_camera(fx=DEFAULT_FY / 5, fy=DEFAULT_FY / 5, cx=20.0,
                           cy=15.0, width=40, height=30)
small_poses = st.one_of(st.none(), st.builds(
    Pose2D, st.floats(5.0, 16.0), st.floats(-4.0, 4.0),
    st.floats(-math.pi, math.pi)))


def _flood_fill_components(mask, min_area, v_off=0, u_off=0):
    """Reference labeller: a 4-connected flood fill from each unlabelled
    pixel in raster order, centroids rounded as the mean offset from the
    box corner plus the corner; (v_off, u_off) is the frame position of
    the mask's top-left pixel."""
    cells = mask.tolist()
    h, w = len(cells), len(cells[0])
    seen = [[False] * w for _ in range(h)]
    out = []
    for v in range(h):
        for u in range(w):
            if not cells[v][u] or seen[v][u]:
                continue
            seen[v][u] = True
            stack, pixels = [(v, u)], []
            while stack:
                y, x = stack.pop()
                pixels.append((y, x))
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if (0 <= ny < h and 0 <= nx < w and cells[ny][nx]
                            and not seen[ny][nx]):
                        seen[ny][nx] = True
                        stack.append((ny, nx))
            if len(pixels) < min_area:
                continue
            vs, us = [p[0] for p in pixels], [p[1] for p in pixels]
            u0, v0 = min(us), min(vs)
            box = vision.BoundingBox(u0 + u_off, v0 + v_off,
                                     max(us) + u_off, max(vs) + v_off)
            centroid = (sum(x - u0 for x in us) / len(us) + (u0 + u_off),
                        sum(y - v0 for y in vs) / len(vs) + (v0 + v_off))
            out.append((len(pixels), box, centroid))
    return out


def _mask(rows):
    return np.array([[c == "#" for c in r] for r in rows])


# mask widths at and around the ends of the bytes and 64-bit words that
# `_components` packs a row into
WORD_EDGE_WIDTHS = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 800)


def _word_edge_masks(width):
    """Masks `width` columns wide whose runs meet the packed words' ends."""
    rng = np.random.default_rng(width)
    # a run ending at the last column beside one starting the next row,
    # and a lone pixel in the last column of the last row
    wrap = np.zeros((4, width), dtype=bool)
    wrap[0, -min(3, width):] = True
    wrap[1, :min(2, width)] = True
    wrap[3, -1] = True
    # lone pixels on the first and last bit of a word, and a domino over
    # each word boundary
    ends = np.zeros((4, width), dtype=bool)
    for col in (0, 63, 64, 127, 128, width - 1):
        if col < width:
            ends[1, col] = True
            ends[3, col:col + 2] = True
    return {
        "row_wrap": wrap,
        "word_ends": ends,
        "all_true": np.ones((3, width), dtype=bool),
        "true_rows": np.array([[True] * width, [False] * width,
                               [True] * width, [True] * width]),
        "dense": rng.random((6, width)) < 0.4,
        "sparse": rng.random((6, width)) < 0.05,
    }


def _brick_rows(n_runs, per_row=8):
    """Rows of n_runs three-pixel runs, per_row to a row: every other row
    is shifted by two, so that each run overlaps one or two runs of the row
    above, and every fifth row is blank, so the wall falls into several
    components."""
    rows = []
    while n_runs > 0:
        if len(rows) % 5 == 4:
            rows.append("." * (4 * per_row + 2))
            continue
        k = min(per_row, n_runs)
        shift = ".." if len(rows) % 2 else ""
        rows.append((shift + "###." * k).ljust(4 * per_row + 2, "."))
        n_runs -= k
    return rows


def _components_at(mask, min_area):
    """`vision._components(mask)` with MIN_AREA set to min_area."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(vision, "MIN_AREA", min_area)
        return vision._components(mask)


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.floats(0.05, 0.7),
           st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_matches_flood_fill(self, h, w, density, min_area, seed):
        mask = np.random.default_rng(seed).random((h, w)) < density
        # repr: the same order, areas, boxes and centroid bits
        assert (repr(_components_at(mask, min_area))
                == repr(_flood_fill_components(mask, min_area)))

    @pytest.mark.parametrize("rows", [
        ["#"],
        ["....."] * 3,
        ["#####"] * 7,
        # a U whose arms join only on its last row, and a dot that starts
        # after the right arm in raster order
        ["#.....#..#",
         "#.....#...",
         "#######..."],
        # a comb of four arms that join only on its last row
        ["#.#.#.#",
         "#.#.#.#",
         "#######"],
        # steps down to the right and to the left that touch only at
        # corners: seven components
        ["##........##",
         "..##....##..",
         "....#..#....",
         ".....##....."],
        # a spiral: the stub from row 4, column 4 is a component of its
        # own until the row 6 run joins it to the outer wall, and both
        # have later runs by then; the inner wall stays apart
        ["#########",
         "#.......#",
         "#.#####.#",
         "#.#...#.#",
         "#.#.#.#.#",
         "#.#.#...#",
         "#.#.#####",
         "#.#......",
         "#.#######"],
        ["#.#.#.#.#.#.#"],
        _brick_rows(140),
        _brick_rows(141),
    ], ids=["one_pixel", "all_false", "all_true", "u_shape", "comb",
            "corner_staircase", "spiral", "alternating_row",
            "bricks_140_runs", "bricks_141_runs"])
    def test_shapes(self, rows):
        # every pixel but the one-pixel specks is in a component of two
        # pixels or more
        mask = _mask(rows)
        comps = _components_at(mask, 2)
        assert repr(comps) == repr(_flood_fill_components(mask, 2))
        assert sum(c[0] for c in comps) == _without_specks(mask).sum()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 200), st.floats(0.001, 0.05),
           st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_noise_like_masks_match_flood_fill(self, h, w, density, min_area,
                                               seed):
        # the one-pixel specks are cleared before labelling
        mask = np.random.default_rng(seed).random((h, w)) < density
        assert (repr(_components_at(mask, min_area))
                == repr(_flood_fill_components(mask, min_area)))

    # transposed, the vertical dominoes lie along rows: neighbours at +-1
    # in the flat buffer, where the row-wrap case has its neighbours
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("min_area", [1, 2])
    @pytest.mark.parametrize("rows", [
        # lone pixels at the four corners and along each border
        ["#..#..#",
         ".......",
         "#.....#",
         ".......",
         "#..#..#"],
        # the end of one row beside the start of the next: neighbours in
        # the flat buffer only across the pad column
        ["....#",
         "#...."],
        # vertical dominoes on the first and last rows
        ["#...#.",
         "#...#.",
         "......",
         ".#...#",
         ".#...#"],
    ], ids=["lone_border_pixels", "row_wrap", "edge_dominoes"])
    def test_speck_shapes(self, rows, min_area, transposed):
        # MIN_AREA 1 is no camera's, but speck clearing does not look at
        # it: a lone pixel is cleared there too, as at 2
        mask = _mask(rows)
        if transposed:
            mask = np.ascontiguousarray(mask.T)
        comps = _components_at(mask, min_area)
        assert repr(comps) == repr(_flood_fill_components(mask, 2))

    @pytest.mark.parametrize("min_area", [0, 1, 2, 25])
    @pytest.mark.parametrize("width", WORD_EDGE_WIDTHS)
    def test_word_edges_match_flood_fill(self, width, min_area):
        # a run or a neighbour that crosses from one packed word to the
        # next, or from a row's last word to the next row's first; below 2
        # the specks are still cleared, so the flood fill is taken at 2
        for name, mask in _word_edge_masks(width).items():
            assert (repr(_components_at(mask, min_area))
                    == repr(_flood_fill_components(mask, max(min_area, 2)))
                    ), name

    def test_noisy_pair_matches_flood_fill(self, default_camera):
        background = render_frame(default_camera, None, DIMS, 0.0, 8.0,
                                  np.random.default_rng(17))
        current = render_frame(default_camera, Pose2D(20.0, 0.0, 0.0), DIMS,
                               0.05, 8.0, np.random.default_rng(18))
        a = background.pixels.astype(np.int16)
        mask = np.abs(a - current.pixels) > THRESHOLD
        comps = vision._foreground_components(background, current)
        assert comps and repr(comps) == repr(_flood_fill_components(
            mask, vision.MIN_AREA))

    @pytest.mark.parametrize("pairing", [
        "one_sigma", "two_sigmas", "noisy_vs_clean", "clean_vs_noisy",
        "wrapped_vs_noisy", "noisy_vs_wrapped"])
    @settings(max_examples=25, deadline=None)
    @given(small_poses, st.sampled_from(SIGMAS),
           st.sampled_from(SIGMAS), st.sampled_from((0, 1, 30, 255, 300)),
           st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_noisy_pairs_match_flood_fill(self, pairing, cur_pose,
                                          sigma, other_sigma, threshold,
                                          min_area, seed):
        # the empty road against the vehicle or no vehicle, at a patched
        # THRESHOLD and MIN_AREA; outside the current frame's box two noisy
        # frames at one sigma are compared by slot, against limits built
        # for the frame just rendered. A pair whose sigmas differ is one no
        # tracker makes, and is refused, also when the noise-free frame's
        # box is its whole image (`whole_image`)
        if pairing == "two_sigmas" and other_sigma == sigma:
            other_sigma = SIGMAS[SIGMAS.index(sigma) - 1]
        rng = np.random.default_rng(seed)

        def frame(pose, t, noise_sigma):
            return render_frame(SMALL_CAMERA, pose, DIMS, t, noise_sigma, rng)

        bg_sigma, cur_sigma = {
            "one_sigma": (sigma, sigma), "two_sigmas": (sigma, other_sigma),
            "noisy_vs_clean": (sigma, 0.0), "clean_vs_noisy": (0.0, sigma),
            "wrapped_vs_noisy": (0.0, sigma),
            "noisy_vs_wrapped": (sigma, 0.0)}[pairing]
        bg, cur = frame(None, 0.0, bg_sigma), frame(cur_pose, 0.05, cur_sigma)
        if pairing == "wrapped_vs_noisy":
            bg = whole_image(bg)
        elif pairing == "noisy_vs_wrapped":
            cur = whole_image(cur)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(vision, "THRESHOLD", threshold)
            monkeypatch.setattr(vision, "MIN_AREA", min_area)
            if pairing != "one_sigma":
                with pytest.raises(ValueError, match="sigma differs"):
                    vision._foreground_components(bg, cur)
                return
            comps = vision._foreground_components(bg, cur)
        mask = np.abs(bg.pixels.astype(np.int16) - cur.pixels) > threshold
        assert repr(comps) == repr(_flood_fill_components(mask, min_area))

    def test_mixed_sigma_pair_is_refused_after_the_size_check(
            self, default_camera):
        # a tracker whose background has another sigma than its frames
        # refuses them, as the detector does; a size mismatch is named
        # first, and a sigma mismatch before a painted background
        clean = render_frame(default_camera, None, DIMS, 0.0)
        noisy = render_frame(default_camera, Pose2D(20.0, 0.0, 0.0), DIMS,
                             0.05, 8.0, np.random.default_rng(21))
        for bg, cur in ((clean, noisy), (noisy, clean)):
            with pytest.raises(ValueError, match="sigma differs"):
                detect_by_subtraction(bg, cur)
        tracking = TrackerState(last_box=vision.BoundingBox(0, 0, 1, 1),
                                background=clean)
        for state in (TrackerState(background=clean), tracking):
            with pytest.raises(ValueError, match="sigma differs"):
                track_step(state, noisy)
        small = render_frame(SMALL_CAMERA, None, DIMS, 0.0, 8.0,
                             np.random.default_rng(22))
        with pytest.raises(ValueError, match="dimensions"):
            detect_by_subtraction(clean, small)
        painted = render_frame(default_camera, Pose2D(20.0, 0.0, 0.0), DIMS,
                               0.0)
        with pytest.raises(ValueError, match="dimensions"):
            detect_by_subtraction(painted, small)
        with pytest.raises(ValueError, match="sigma differs"):
            detect_by_subtraction(painted, noisy)
        with pytest.raises(ValueError, match="sigma differs"):
            track_step(TrackerState(background=painted), noisy)

    def test_u_shape_is_one_component_before_the_dot(self):
        # the dot is two pixels tall, so that MIN_AREA 2 keeps it
        comps = _components_at(_mask(["#.....#..#",
                                      "#.....#..#",
                                      "#######..."]), 2)
        assert [(area, box) for area, box, _ in comps] == [
            (11, vision.BoundingBox(0, 0, 6, 2)),
            (2, vision.BoundingBox(9, 0, 9, 1))]


STACK_FLAWS = ("none", "empty_row", "two_in_row", "right_diagonal",
               "left_diagonal")


@st.composite
def stack_masks(draw):
    """A mask of one run per row on consecutive rows, each sharing a column
    with the next, up to 160 rows tall, and the flaw that
    was then put in, if any: an empty row between two runs, a second run
    in one row, or a run that meets the one above only at a corner (its
    first column is the column after the run above, or its last column the
    one before it). A flawed mask is not a stack."""
    n = draw(st.integers(1, 160))
    width = draw(st.integers(1, 12))
    flaw = draw(st.sampled_from(STACK_FLAWS if n > 1
                                else ("none", "two_in_row")))
    runs = []
    for _ in range(n):
        if runs:  # shares a column with the run above
            a0, a1 = runs[-1]
            c0 = draw(st.integers(0, a1 - 1))
            c1 = draw(st.integers(max(c0, a0) + 1, width))
        else:
            c0 = draw(st.integers(0, width - 1))
            c1 = draw(st.integers(c0 + 1, width))
        runs.append((c0, c1))
    k = draw(st.integers(1, n - 1)) if n > 1 else 0
    if flaw == "right_diagonal":
        length = runs[k][1] - runs[k][0]
        runs[k] = (runs[k - 1][1], runs[k - 1][1] + length)
    elif flaw == "left_diagonal":
        length = runs[k][1] - runs[k][0]
        runs[k] = (runs[k - 1][0] - length, runs[k - 1][0])
    # room for a diagonal run on either side and for a second run
    shift = max(0, -min(c0 for c0, _ in runs))
    mask = np.zeros((n, shift + max(c1 for _, c1 in runs) + 2), dtype=bool)
    for row, (c0, c1) in zip(mask, runs):
        row[shift + c0:shift + c1] = True
    if flaw == "two_in_row":
        mask[k, -1] = True
    elif flaw == "empty_row":
        mask = np.insert(mask, k, False, axis=0)
    return mask, flaw


def _without_specks(mask):
    """The mask without its one-pixel components: what `_components`
    labels."""
    padded = np.pad(mask, 1)
    return mask & (padded[:-2, 1:-1] | padded[2:, 1:-1]
                   | padded[1:-1, :-2] | padded[1:-1, 2:])


def _is_stack(mask):
    """Whether the mask is one run per row on consecutive rows, each
    sharing a column with the next; an empty mask is none."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not len(rows) or rows[-1] - rows[0] + 1 != len(rows):
        return False
    runs = []
    for row in mask[rows[0]:rows[-1] + 1]:
        cols = np.flatnonzero(row)
        if cols[-1] - cols[0] + 1 != len(cols):
            return False
        runs.append((cols[0], cols[-1]))
    return all(a0 <= b1 and b0 <= a1
               for (a0, a1), (b0, b1) in zip(runs, runs[1:]))


class TestStacks:
    @staticmethod
    def _labeller_calls(monkeypatch):
        """The names of the labellers `_labelled` calls, in order."""
        calls = []
        label = vision._array_runs

        def call(*args):
            calls.append("_array_runs")
            return label(*args)

        monkeypatch.setattr(vision, "_array_runs", call)
        return calls

    @settings(max_examples=150, deadline=None)
    @given(stack_masks(), st.sampled_from(("two", "at", "just_below")))
    def test_match_flood_fill(self, stack, min_area_case):
        # the runs labelled are the mask's, less its one-pixel specks (a
        # two_in_row flaw's lone pixel, say): a stack is summed without
        # labelling, and any other set, an empty one too, goes to
        # union-find. Either way the area, box and centroid bits are the
        # flood fill's, at MIN_AREA 2, at the mask's area (2 at least) and
        # one above it
        mask, flaw = stack
        area = int(mask.sum())
        min_area = {"two": 2, "at": max(area, 2), "just_below": area + 1}[
            min_area_case]
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self._labeller_calls(monkeypatch)
            monkeypatch.setattr(vision, "MIN_AREA", min_area)
            comps = vision._components(mask)
        assert repr(comps) == repr(_flood_fill_components(mask, min_area))
        assert _is_stack(mask) == (flaw == "none")
        assert calls == ([] if _is_stack(_without_specks(mask))
                         else ["_array_runs"])

    @pytest.mark.parametrize("rows, stack", [
        (["###", ".##", "##."], True),
        (["#", "#"], True),
        (["#." * 80 + "#"], False),
        (["##..", "..##"], False),
        (["..##", "##.."], False),
        (["##.", "...", ".##"], False),
        (["###", "#.#"], False),
        (["#.#", "###"], False)],
        ids=["stack", "column", "one_row", "right_diagonal", "left_diagonal",
             "empty_row", "two_below", "two_above"])
    def test_shapes(self, rows, stack, monkeypatch):
        mask = _mask(rows)
        calls = self._labeller_calls(monkeypatch)
        for min_area in (2, int(mask.sum()), int(mask.sum()) + 1):
            monkeypatch.setattr(vision, "MIN_AREA", min_area)
            comps = vision._components(mask)
            assert repr(comps) == repr(_flood_fill_components(mask, min_area))
        assert (not calls) == stack

    def test_tall_stack(self, monkeypatch):
        # a stack of 170 rows is summed as a short one is
        mask = _mask([("." * (k % 4) + "#" * 5).ljust(10, ".")
                      for k in range(170)])
        calls = self._labeller_calls(monkeypatch)
        comps = vision._components(mask)
        assert len(comps) == 1 and not calls
        assert repr(comps) == repr(_flood_fill_components(mask,
                                                          vision.MIN_AREA))


def _drive_through(camera, x_start, x_end, v=3.0, fps=20.0, y=0.0):
    """Yield (t, pose, frame) for a constant-speed traversal."""
    t, x = 0.0, x_start
    while x <= x_end:
        yield t, Pose2D(x, y, 0.0), render_frame(camera, Pose2D(x, y, 0.0),
                                                 DIMS, t)
        t += 1.0 / fps
        x = x_start + v * t


class TestTrackStep:
    def test_empty_scene_never_detects(self, default_camera):
        state = TrackerState()
        for i in range(20):
            state, det = track_step(state, _blank(80, 60, i * 0.05))
            assert det is None
        assert state.last_box is None

    def test_drive_through_tracks_with_subpixel_centers(self, default_camera):
        # center of each detection within 1 px of the projected-rectangle
        # centroid computed by the projection oracle
        state = TrackerState()
        state, _ = track_step(state, render_frame(default_camera, None, DIMS, 0.0))
        n_checked = 0
        for t, pose, frame in _drive_through(default_camera, 4.0, 52.0):
            state, det = track_step(state, frame)
            painted = (frame.pixels == VEHICLE_INTENSITY)
            fully_visible = all(
                (p := project(default_camera, WorldPoint(pose.x + dx, pose.y + dy, 0)))
                and in_image(default_camera, p, margin=2)
                for dx, dy in ((2.25, 1), (2.25, -1), (-2.25, -1), (-2.25, 1)))
            if not fully_visible:
                continue
            assert det is not None
            vs, us = painted.nonzero()
            exp_u = (us.min() + us.max()) / 2.0
            exp_v = (vs.min() + vs.max()) / 2.0
            assert abs(det.center_u - exp_u) <= 1.0
            assert abs(det.center_v - exp_v) <= 1.0
            assert 0 <= det.center_u < frame.width
            assert 0 <= det.center_v < frame.height
            n_checked += 1
        assert n_checked > 100

    def test_loss_returns_to_searching(self, default_camera):
        state = TrackerState()
        state, _ = track_step(state, render_frame(default_camera, None, DIMS, 0.0))
        state, det = track_step(
            state, render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.05))
        assert state.last_box is not None and det is not None
        for i in range(6):
            state, det = track_step(
                state, render_frame(default_camera, None, DIMS, 0.1 + i * 0.05))
            assert det is None
        assert state.last_box is None

    def test_noisy_track_survives_a_loss_as_pixels_do(self, default_camera):
        # the vehicle in view, out of it until the tracker gives up, then
        # back in view and a new track against the same background, the
        # empty road: at every step the components are the flood fill of
        # the pixel difference from the tracker's background, and the
        # detection is one of them
        gone = Pose2D(500.0, 0.0, 0.0)
        poses = ([None] + [Pose2D(20.0 + 0.15 * i, 0.0, 0.0) for i in range(3)]
                 + [gone] * (vision.LOSS_LIMIT + 1)
                 + [Pose2D(16.0, 1.0, 0.0)]
                 + [Pose2D(22.0 + 0.15 * i, -1.0, 0.0) for i in range(3)])
        rng = np.random.default_rng(19)
        frames = [render_frame(default_camera, pose, DIMS, 0.05 * i, 8.0, rng)
                  for i, pose in enumerate(poses)]
        noisy = TrackerState()
        tracking, found = [], []
        for fr in frames:
            boxes = None
            if noisy.background is not None:
                mask = np.abs(noisy.background.pixels.astype(np.int16)
                              - fr.pixels) > THRESHOLD
                reference = _flood_fill_components(mask, vision.MIN_AREA)
                assert repr(vision._foreground_components(
                    noisy.background, fr)) == repr(reference)
                boxes = [box for _, box, _ in reference]
            noisy, det = track_step(noisy, fr)
            assert det is None or det.box in boxes
            tracking.append(noisy.last_box is not None)
            found.append(det is not None)
        assert found == [False, True, True, True] + [False] * 6 + [True] * 4
        assert tracking[3] and tracking[9:11] == [False, True]
        assert noisy.background is frames[0]

    def test_pipeline_consistency_back_projection(self, default_camera):
        # noise-free detections back-project within 0.5 m of the true
        # center across the footprint; record the achieved maximum
        state = TrackerState()
        state, _ = track_step(state, render_frame(default_camera, None, DIMS, 0.0))
        worst = 0.0
        for t, pose, frame in _drive_through(default_camera, 4.0, 50.0):
            state, det = track_step(state, frame)
            if det is None or det.box.touches_border(frame.width, frame.height):
                continue
            g = back_project_ground(default_camera,
                                    PixelPoint(det.center_u, det.center_v))
            worst = max(worst, math.hypot(g.x - pose.x, g.y - pose.y))
        assert worst > 0
        assert worst < 0.5, f"pipeline bias regression: {worst:.3f} m"


def _in_window(comps, window, height, width):
    """The components whose box lies in the half-open (v0, v1, u0, u1)
    window and reaches none of its edges that are not image edges."""
    v0, v1, u0, u1 = window
    kept = []
    for comp in comps:
        box = comp[1]
        inside = (v0 <= box.v_min and box.v_max < v1
                  and u0 <= box.u_min and box.u_max < u1)
        at_inner_edge = ((box.v_min == v0 and v0 > 0)
                         or (box.v_max == v1 - 1 and v1 < height)
                         or (box.u_min == u0 and u0 > 0)
                         or (box.u_max == u1 - 1 and u1 < width))
        if inside and not at_inner_edge:
            kept.append(comp)
    return kept


class TestSearchWindow:
    # the last sigma whose painted pixels are all foreground, and the first
    # whose painted pixels the detector tests one by one
    EDGE_SIGMAS = (17.22, 17.23)

    @settings(max_examples=100, deadline=None)
    @given(small_poses, st.sampled_from((8.0, 16.0, *EDGE_SIGMAS, 24.0, 1e4)),
           st.integers(2, 30), st.integers(0, 2**32 - 1), st.data())
    def test_noisy_window_matches_flood_fill(self, pose, sigma, min_area,
                                             seed, data):
        # the empty road against the vehicle or no vehicle, at a patched
        # MIN_AREA: in any window, the components are those of the whole
        # pixel difference that lie in it and reach no inner edge, with
        # the same boxes and centroid bits
        assert [vision._vehicle_stands_out(s) for s in self.EDGE_SIGMAS] == [
            True, False]
        rng = np.random.default_rng(seed)
        bg = render_frame(SMALL_CAMERA, None, DIMS, 0.0, sigma, rng)
        cur = render_frame(SMALL_CAMERA, pose, DIMS, 0.05, sigma, rng)
        h, w = cur.height, cur.width
        v0 = data.draw(st.integers(0, h - 1))
        v1 = data.draw(st.integers(v0 + 1, h))
        u0 = data.draw(st.integers(0, w - 1))
        u1 = data.draw(st.integers(u0 + 1, w))
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(vision, "MIN_AREA", min_area)
            comps = vision._foreground_components(bg, cur, (v0, v1, u0, u1))
        mask = np.abs(bg.pixels.astype(np.int16) - cur.pixels) > THRESHOLD
        assert repr(comps) == repr(_in_window(
            _flood_fill_components(mask, min_area), (v0, v1, u0, u1), h, w))

    @pytest.mark.parametrize("sigma", [8.0, 24.0, 1e4])
    def test_noisy_windows_that_cut_the_painted_box(self, default_camera,
                                                    sigma):
        # windows whose edges cross a turned vehicle's painted box, whose
        # corners are noisy road, from each side and from within, at a
        # sigma whose painted pixels are all foreground and at two whose
        # are not; at 1e4 about half of them match the road
        rng = np.random.default_rng(23)
        bg = render_frame(default_camera, None, DIMS, 0.0, sigma, rng)
        cur = render_frame(default_camera, Pose2D(12.0, 1.0, 0.6), DIMS,
                           0.05, sigma, rng)
        mask = np.abs(bg.pixels.astype(np.int16) - cur.pixels) > THRESHOLD
        whole = _flood_fill_components(mask, vision.MIN_AREA)
        h, w = cur.height, cur.width
        v0, v1, u0, u1 = cur.painted
        vm, um = (v0 + v1) // 2, (u0 + u1) // 2
        for window in [(vm, h, 0, w), (0, vm, 0, w), (0, h, um, w),
                       (0, h, 0, um), (v0 + 7, v1 - 7, u0 + 7, u1 - 7),
                       (v0 - 9, v1 + 9, u0 - 9, u1 + 9)]:
            assert repr(vision._foreground_components(bg, cur, window)) == (
                repr(_in_window(whole, window, h, w)))

    def test_noise_free_vehicle_at_a_window_edge(self):
        # a vehicle on rows 20-29 and columns 10-39 is a candidate only in
        # a window whose inner edges lie beyond its box
        bg, cur = _blank(80, 60), _rect_frame(80, 60, (20, 30, 10, 40))
        whole = vision._foreground_components(bg, cur)
        assert len(whole) == 1
        for window, kept in [((0, 60, 25, 80), False),  # cut at column 25
                             ((0, 60, 10, 80), False),  # first column on it
                             ((0, 60, 9, 80), True),
                             ((15, 29, 0, 80), False),  # cut below row 28
                             ((15, 30, 0, 80), False),  # last row on it
                             ((15, 31, 0, 80), True),
                             ((0, 60, 45, 80), False)]:  # wholly outside
            assert vision._foreground_components(bg, cur, window) == (
                whole if kept else [])
        # touching the image's left and bottom edges, in a window clipped
        # to them
        corner = _rect_frame(80, 60, (50, 60, 0, 30))
        [comp] = vision._foreground_components(bg, corner)
        assert vision._foreground_components(bg, corner, (40, 60, 0, 50)) == [
            comp]

    def test_tracker_passes_over_a_blob_across_its_window(self):
        # last box (100, 100)-(110, 110): the window is columns and rows
        # 20-190. A blob whose centroid is within the gate but whose box
        # goes past column 190 is no candidate; the same blob cut short
        # inside the window is
        bg = _blank(300, 300)
        state = TrackerState(vision.BoundingBox(100, 100, 110, 110), bg)
        wide = _rect_frame(300, 300, (100, 111, 60, 250))
        [(_, box, (cu, cv))] = vision._foreground_components(bg, wide)
        assert math.hypot(cu - 105, cv - 105) <= vision.GATE_PX
        after, det = track_step(state, wide)
        assert det is None and after.frames_lost == 1
        _, det = track_step(state, _rect_frame(300, 300, (100, 111, 60, 180)))
        assert det.box == vision.BoundingBox(60, 100, 179, 110)
        # a window clipped to the image's bottom-left corner keeps a blob
        # that touches both image edges
        state = TrackerState(vision.BoundingBox(0, 280, 20, 299), bg)
        _, det = track_step(state, _rect_frame(300, 300, (285, 300, 0, 30)))
        assert det.box == vision.BoundingBox(0, 285, 29, 299)

    def test_equals_whole_frame_choice_on_high_noise_runs(self, tmp_path,
                                                           monkeypatch):
        # lockstep distributed_smoke at sigma 20 and 24, where noise blobs
        # crowd every frame: at each tracking frame the tracker's box is
        # the nearest-in-gate component of the whole frame (ties to the
        # later one), or None with none in the gate. Each run is cut to its
        # first 3 s, since labelling a whole frame at these sigmas costs
        # 10-20 ms
        tracked = 0

        def checked(state, frame):
            nonlocal tracked
            after, det = track_step(state, frame)
            if state.last_box is not None:
                tracked += 1
                prev_u, prev_v = state.last_box.center()
                in_gate = []
                for i, (_, box, (cu, cv)) in enumerate(
                        vision._foreground_components(state.background,
                                                      frame)):
                    d = math.hypot(cu - prev_u, cv - prev_v)
                    if d <= vision.GATE_PX:
                        in_gate.append((d, -i, box))
                expected = min(in_gate)[2] if in_gate else None
                assert (det.box if det else None) == expected
            return after, det

        monkeypatch.setattr(vision, "track_step", checked)
        base = load_scenario("distributed_smoke")
        for sigma, seed in ((20.0, 2), (24.0, 1)):
            cfg = dataclasses.replace(base, mode="lockstep", seed=seed,
                                      noise_sigma=sigma, duration_cap_s=3.0)
            run_scenario(cfg, tmp_path / f"sigma{sigma:g}")
        assert tracked >= 100


class TestPgmDump:
    def test_p5_header_and_payload(self, tmp_path, default_camera):
        fr = render_frame(default_camera, Pose2D(20, 0, 0), DIMS, 0.0)
        path = tmp_path / "mssp1_f0.pgm"
        write_pgm(fr, path)
        data = path.read_bytes()
        header = b"P5\n800 600\n255\n"
        assert data.startswith(header)
        assert data[len(header):] == fr.pixels.tobytes()

    @pytest.mark.parametrize("pose, sigma, digest", [
        (Pose2D(20.0, 0.0, 0.0), 0.0, "dc7d9ac9578c7204edb295079ec74d9d146f0c6b44a7c76d7902eeffbd54fb9f"),
        (Pose2D(20.0, 0.0, 0.0), 8.0, "27e7d3d4fa196dd6929c7bbe85a6d36e580d0ea13acbec82650d223bd0820f52"),
        (Pose2D(14.0, -2.0, 0.7), 0.0, "1bb09bf0f9ae1cb331793669d857f8c7f4ffdaa442f011d2f1285fcc021cc6fc"),
        (Pose2D(14.0, -2.0, 0.7), 8.0, "d1809d79fd7c7a4607a23951ead290289438522211bd3f9101db4334111c47b4"),
        (Pose2D(20.0, 17.5, 0.0), 0.0, "fc19ed7a6376f8a2874fb8dc56b7b46c9198bab7e214e8d1d483ffb47f127e5d"),
        (Pose2D(20.0, 17.5, 0.0), 8.0, "ddb8cf3839a9ef97194b66b03e874a7363947bd8513563bbba7e43f9909ba43e"),
        (Pose2D(500.0, 0.0, 0.0), 0.0, "5263612973f5f1ba849e27f3c47efdbfe0da89f98f08fc7eb9436adb50ee6257"),
        (Pose2D(500.0, 0.0, 0.0), 8.0, "94264ee0f3dbdd321cebb5a9dd68d18119e0675a68c4aa80775ebea76d6a0f4d")],
        ids=["in_view", "in_view_noisy", "turned", "turned_noisy",
             "partly_out", "partly_out_noisy", "out_of_view",
             "out_of_view_noisy"])
    def test_pixels_are_pinned(self, default_camera, pose, sigma, digest):
        # the sha256 of whole frames as they were painted before frames
        # held row runs: in view, turned, clipped at the image's left edge
        # and beyond its top, noise-free and at sigma 8 (rng seed 23)
        rng = np.random.default_rng(23) if sigma else None
        fr = render_frame(default_camera, pose, DIMS, 0.0, sigma, rng)
        assert hashlib.sha256(fr.pixels.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("pose,painted", [
        (Pose2D(20.0, 0.0, 0.0), (123, 164, 378, 423)),
        (Pose2D(20.0, 17.5, 0.0), (123, 164, 0, 88)),
        (Pose2D(-10.0, 0.0, 0.0), EMPTY_BOX)],
        ids=["in_view", "partly_out", "behind"])
    def test_noisy_payload_is_the_reference_render(self, tmp_path,
                                                   default_camera, pose,
                                                   painted):
        fr = render_frame(default_camera, pose, DIMS, 0.0, 8.0,
                          np.random.default_rng(20))
        px, _ = _reference_render(default_camera, pose, DIMS, 0.0, 8.0,
                                  np.random.default_rng(20))
        assert fr.painted == painted
        path = tmp_path / "mssp1_f0.pgm"
        write_pgm(fr, path)
        assert path.read_bytes() == b"P5\n800 600\n255\n" + px.tobytes()
        assert not fr.pixels.flags.writeable
