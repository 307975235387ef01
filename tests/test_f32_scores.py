"""visible_mask's float32 scores against the float64 test, bit for bit.

A score of at least 1 is seen and one below -1 is not; the POIs in between
(the band) run the float64 test that tests/conftest.py's unculled_mask
makes. The scenes place POIs within the float32 widths of each cone's
center-plane threshold, of its surface, of its apex slack and near its
apex, so the band is reached, and every mask must equal unculled_mask's
whatever the BLAS, and however many cones share the product. POI sets and
cones outside float32's safe range must give the same masks with no
RuntimeWarning.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm import geometry
from isoswarm.geometry import unit_axis, visible_mask, wrap_theta
from isoswarm.sampling import PoiSet, UncertaintyEllipsoid
from tests.conftest import spy, unculled_mask
from tests.reference import cone_angles
from tests.test_cone_cull import EDGE_TILTS

CENTERS = [np.zeros(3), np.array([-350.0, 20.0, 910.0]),
           np.array([41784000.0, -98402000.0, -47133000.0])]
# apex distances in POI-ball radii, and tilts off the center direction (the
# first two aimed, some a turn away from their wrap): with these a cone
# holds, cuts or misses the ball, or has its apex in it
FACTORS = [0.5, 0.99, 1.5, 3.0, 6.0]
TILTS = [0.0, 2.0 * math.pi, 0.3, 1.2, 2.5 - 2.0 * math.pi]


def tilted_axis(apex, center, tilt):
    """The axis visible_mask gives the cone at apex with tilt, as an array:
    unit_axis's, tilted by the wrapped tilt (aimed when tilt is None)."""
    return np.array(unit_axis(apex.tolist(), center.tolist(),
                              None if tilt is None else wrap_theta(tilt)))


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def ball(rng, center, radius, n):
    return center + radius * unit(rng.standard_normal((n, 3))) * rng.random(
        (n, 1)) ** (1.0 / 3.0)


def offsets(rng, scale, n):
    """n signed offsets log-uniform from scale 2^-32 to scale 2^-12: the
    float32 widths are near scale 2^-19, so some fall in the band and some
    outside it."""
    return scale * rng.choice([-1.0, 1.0], (n, 1)) * 2.0 ** rng.uniform(
        -32.0, -12.0, (n, 1))


def plane_pois(rng, center, apex, radius, n=60):
    """POIs about the threshold plane (point - center) . t = -s |t|^2 of
    t = apex - center, inside the ball."""
    t = apex - center
    dist = np.linalg.norm(t)
    that = t / dist
    q = ball(rng, center, 0.9 * radius, n)
    on = q - ((q - center) @ that + geometry._SLACK * dist)[:, None] * that
    return np.vstack([on, on + offsets(rng, radius, n) * that])


def surface_pois(rng, center, apex, axis, phi, radius, n=200):
    """POIs on and about the cone surface, inside the ball."""
    side = unit(np.cross(axis, rng.standard_normal(3)))
    psi = rng.uniform(0.0, 2.0 * np.pi, (n, 1))
    perp = np.cos(psi) * side + np.sin(psi) * np.cross(axis, side)
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    ray, normal = c * axis + s * perp, c * perp - s * axis
    rho = rng.uniform(0.0, np.linalg.norm(apex - center) + radius, (n, 1))
    pts = apex + rho * ray
    pts = np.vstack([pts, pts + offsets(rng, 1.0, n) * rho * normal])
    return pts[np.linalg.norm(pts - center, axis=1) < radius]


def apex_pois(rng, center, apex, axis, n=40):
    """POIs at the apex, on the axis about the apex slack s D, and in
    random directions near the apex."""
    m = geometry._SLACK * np.linalg.norm(apex - center)
    reach = np.linalg.norm(apex - center)
    return np.vstack([
        apex, apex + m * axis,
        apex + m * 2.0 ** rng.uniform(-1.0, 24.0, (n, 1)) * axis,
        apex + reach * 2.0 ** rng.uniform(-40.0, -4.0, (n, 1))
        * unit(rng.standard_normal((n, 3)))])


def with_ulps(points):
    up = np.nextafter(points, np.inf)
    return np.vstack([points, up, np.nextafter(points, -np.inf),
                      np.nextafter(up, np.inf)])


def random_scene(rng, n_cones):
    """(points, apexes, tilts, axes, phis, center): a POI ball with, for
    each of n_cones cones, POIs within the float32 widths of its plane
    threshold and surface, and of its apex when that lies in the ball. The
    first cone is aimed, so it cannot miss the ball."""
    center = CENTERS[rng.integers(len(CENTERS))]
    radius = 10.0 ** rng.uniform(-1.0, 3.0)
    apexes, tilts, axes, phis, extra = [], [], [], [], []
    for i in range(n_cones):
        apex = center + radius * rng.choice(FACTORS) * unit(
            rng.standard_normal(3))
        tilt = TILTS[rng.integers(2 if i == 0 else len(TILTS))]
        axis = tilted_axis(apex, center, tilt)
        phi = float(rng.choice([np.pi / 3.0, rng.uniform(0.1, 3.0)]))
        apexes.append(apex)
        tilts.append(tilt)
        axes.append(axis)
        phis.append(phi)
        extra.append(plane_pois(rng, center, apex, radius))
        extra.append(surface_pois(rng, center, apex, axis, phi, radius))
        if np.linalg.norm(apex - center) < radius:
            extra.append(apex_pois(rng, center, apex, axis))
    points = np.vstack([ball(rng, center, radius, 300),
                        with_ulps(np.vstack(extra))])
    return points, np.array(apexes), tilts, axes, phis, center


@pytest.mark.parametrize("n_cones", range(1, 8))
def test_scores_match_the_float64_test_in_the_band(monkeypatch, rng,
                                                   n_cones):
    verdicts = spy(monkeypatch, "_cone_holds_ball")
    band = spy(monkeypatch, "_exact")
    for _ in range(12):
        points, apexes, tilts, axes, phis, center = random_scene(rng,
                                                                 n_cones)
        pois = PoiSet(points, 0, UncertaintyEllipsoid.sphere(1.0, center))
        cols = pois.columns(center)
        assert cols[0] is not None
        want = unculled_mask(points, apexes, axes, phis, center)
        band.clear()
        np.testing.assert_array_equal(
            visible_mask(points, apexes, tilts, phis, center, cols), want)
        assert band, "the scene did not reach the band"
        # the same verdicts with the columns built in the call
        np.testing.assert_array_equal(
            visible_mask(points, apexes, tilts, phis, center), want)
        # row-count independence: the union of single-cone calls
        single = [visible_mask(points, apexes[i:i + 1], tilts[i:i + 1],
                               phis[i:i + 1], center, cols)
                  for i in range(n_cones)]
        np.testing.assert_array_equal(np.logical_or.reduce(single), want)
    # cones that hold and cut the ball, and miss it beside an aimed cone
    seen = {verdict for _, verdict in verdicts}
    assert {True, None} <= seen
    assert (False in seen) == (n_cones > 1)


def test_scores_are_independent_of_the_row_count_on_random_swarms(rng):
    # plain random swarms, no POIs placed at a width: each cone's mask
    # alone, ORed, must equal the mask of the whole swarm
    for _ in range(40):
        center = CENTERS[rng.integers(len(CENTERS))]
        radius = 10.0 ** rng.uniform(-1.0, 3.0)
        points = ball(rng, center, radius, 2000)
        n = int(rng.integers(2, 8))
        apexes = center + radius * rng.choice(FACTORS, (n, 1)) * unit(
            rng.standard_normal((n, 3)))
        tilts = [TILTS[rng.integers(len(TILTS))] for _ in apexes]
        axes = [tilted_axis(a, center, t) for a, t in zip(apexes, tilts)]
        phis = rng.uniform(0.1, 3.0, n).tolist()
        cols = PoiSet(points, 0, UncertaintyEllipsoid.sphere(
            1.0, center)).columns(center)
        whole = visible_mask(points, apexes, tilts, phis, center, cols)
        single = [visible_mask(points, apexes[i:i + 1], tilts[i:i + 1],
                               phis[i:i + 1], center, cols)
                  for i in range(n)]
        np.testing.assert_array_equal(np.logical_or.reduce(single), whole)
        np.testing.assert_array_equal(
            whole, unculled_mask(points, apexes, axes, phis, center))


def range_scene(rng, center, radius, dist, tilt, phi=np.pi / 3.0):
    """POIs in a ball of radius about center, plus POIs on the surface of a
    cone whose apex stands dist from the center, and the cone (aimed when
    tilt is None)."""
    apex = center + dist * unit(rng.standard_normal(3))
    axis = tilted_axis(apex, center, tilt)
    points = ball(rng, center, radius, 400)
    surface = surface_pois(rng, center, apex, axis, phi, radius)
    return np.vstack([points, surface]), apex, axis, phi


# (center, R, D / R, tilt): tilt phi / 2 puts the center direction on the
# cone's surface, so the cone cuts the ball at any D / R
RANGE_CASES = {
    "R-1e-30": (1e-30 * np.array([0.3, -0.2, 0.5]), 1e-30, 3.0, 0.3),
    "R-1e-30-cut": (1e-30 * np.array([0.3, -0.2, 0.5]), 1e-30, 0.5, 0.0),
    "R-1e25": (1e25 * np.array([0.3, -0.2, 0.5]), 1e25, 3.0, 0.3),
    "R-1e25-cut": (1e25 * np.array([0.3, -0.2, 0.5]), 1e25, 0.5, 0.0),
    "D/R-1e6": (np.zeros(3), 1.0, 1e6, np.pi / 6.0),
    "D/R-1e12": (np.zeros(3), 1.0, 1e12, np.pi / 6.0),
    "D/R-1e12-aimed": (np.zeros(3), 1.0, 1e12, None),
    "D/R-1e140": (np.zeros(3), 1.0, 1e140, np.pi / 6.0),
    "D/R-1e150-aimed": (np.zeros(3), 1.0, 1e150, None),
    "coordinates-1e15": (1e15 * np.array([0.3, -0.2, 0.5]), 100.0, 3.0,
                         np.pi / 6.0),
    "coordinates-1e15-inside": (1e15 * np.array([0.3, -0.2, 0.5]), 100.0,
                                0.5, 0.3),
}


@pytest.mark.parametrize("case", RANGE_CASES.values(), ids=RANGE_CASES)
def test_masks_match_the_float64_test_across_float32_range(rng, case):
    center, radius, ratio, tilt = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(6):
            points, apex, axis, phi = range_scene(rng, center, radius,
                                                  ratio * radius, tilt)
            pois = PoiSet(points, 0, UncertaintyEllipsoid.sphere(
                radius, center))
            cols, bounding = pois.columns(center)
            # float32 columns exactly for radii inside the safe range
            lo, hi = geometry._RADII
            assert (cols is None) == (not lo < bounding < hi)
            want = unculled_mask(points, apex[None], [axis], [phi], center)
            tilts = None if tilt is None else [tilt]
            for columns in ((cols, bounding), None):
                np.testing.assert_array_equal(
                    visible_mask(points, apex[None], tilts, [phi], center,
                                 columns), want)


def test_held_cone_beyond_the_float_range_sees_every_poi(rng):
    # D = 1e150 km, R = 1 km (the farthest an axis is defined is about
    # 1.3e154 km): s D^2 dwarfs every |u . t| <= R D, so the float64 plane
    # test passes every POI, and the aimed cone holds the ball; D / R lies
    # beyond _SPAN, where the plane row's entries would underflow in
    # float32, so the cone must skip the product
    points = ball(rng, np.zeros(3), 1.0, 500)
    direction = unit(rng.standard_normal(3))
    apex = 1e150 * direction
    dist = math.hypot(*apex.tolist())
    assert dist > geometry._SPAN[1]
    angles = cone_angles(apex[None], [-direction], np.zeros(3))
    verdict = geometry._cone_holds_ball(dist, angles[0],
                                        (-direction).tolist(), np.pi / 3.0,
                                        1.0)
    assert verdict is True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tilts in (None, [0.0]):
            assert visible_mask(points, apex[None], tilts, [np.pi / 3.0],
                                np.zeros(3)).all()


@pytest.mark.parametrize("offset", [5e-324, 1e-300, 1e-160, 1e-152])
def test_apex_next_to_the_center_matches_the_float64_test(rng, offset):
    # D / R below 2^-500: the plane's width |t|_1 R would lose its bits to
    # underflow (or be 0), so the cone skips the product. Below about
    # 1.5e-162 km D^2 underflows to 0: the cone has no axis, and the kernel
    # raises as unit_axis does
    center = np.array([0.0, 1e-300, 0.0])
    points = np.vstack([ball(rng, center, 1.0, 500), center,
                        center + [offset, 0.0, 0.0]])
    apex = center + [offset, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tilts in (None, [0.0], [math.pi], [0.9], [-2.0]):
            if offset < 1e-162:
                with pytest.raises(geometry.DegenerateGeometryError):
                    visible_mask(points, apex[None], tilts, [1.0], center)
                continue
            axis = tilted_axis(apex, center, tilts and tilts[0])
            np.testing.assert_array_equal(
                visible_mask(points, apex[None], tilts, [1.0], center),
                unculled_mask(points, apex[None], [axis], [1.0], center))


def log2_near(bounds, moderate):
    """log2 of a value within a factor 16 of either end of bounds (so on
    both sides of it), or in the moderate range."""
    lo, hi = (math.log2(b) for b in bounds)
    return st.one_of(st.floats(lo - 4.0, lo + 4.0),
                     st.floats(hi - 4.0, hi + 4.0), st.floats(*moderate))


@settings(max_examples=300, deadline=None)
@given(log2_radius=log2_near(geometry._RADII, (-2.0, 10.0)),
       log2_ratio=log2_near(geometry._SPAN, (-1.0, 3.0)),
       tilt=st.one_of(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                      st.floats(math.pi - 1e-8, math.pi + 1e-8)),
       phi=st.floats(0.1, 3.0), aimed=st.booleans(), count=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_masks_match_the_float64_test_at_the_range_edges(
        log2_radius, log2_ratio, tilt, phi, aimed, count, seed):
    # POI balls of radius R near the ends of _RADII and a cone with D / R
    # near the ends of _SPAN: aimed with its hold distance, or tilted; a mask
    # or a count
    rng, center = np.random.default_rng(seed), np.zeros(3)
    radius = 2.0 ** log2_radius
    try:
        points, apex, axis, phi = range_scene(
            rng, center, radius, 2.0 ** log2_ratio * radius,
            None if aimed else tilt, phi)
    except geometry.DegenerateGeometryError:  # |apex|^2 underflows to 0
        return
    cols = geometry.poi_columns(points, center)
    want = unculled_mask(points, apex[None], [axis], [phi], center)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if aimed:
            got = visible_mask(points, apex[None], None, [phi], center, cols,
                               [geometry._hold_distance(phi, cols[1])], count)
        else:
            got = visible_mask(points, apex[None], [tilt], [phi], center,
                               cols, count=count)
    if count:
        assert got == np.count_nonzero(want)
    else:
        np.testing.assert_array_equal(got, want)


# Tilts that wrap to 0 (aimed cones), and the edge tilts a turn away in both
# directions, whose wraps round differently from the edge tilts themselves
AIMED_TILTS = [0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi,
               -4.0 * math.pi]
TURNED_TILTS = [t + s for t in EDGE_TILTS
                for s in (2.0 * math.pi, -2.0 * math.pi)]


@settings(max_examples=200, deadline=None)
@given(cones=st.lists(st.tuples(
           st.one_of(st.floats(-4.0 * math.pi, 4.0 * math.pi),
                     st.sampled_from(AIMED_TILTS + TURNED_TILTS)),
           st.sampled_from(FACTORS), st.floats(0.1, 3.0)),
           min_size=1, max_size=7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tilts_give_the_masks_of_their_wrapped_axes(cones, seed):
    # a swarm of aimed and tilted cones: each cone's mask is that of
    # unit_axis's axis tilted by the wrapped tilt, and the count is the
    # mask's; an all-aimed swarm gets the same mask with tilts None
    rng = np.random.default_rng(seed)
    center = CENTERS[rng.integers(len(CENTERS))]
    radius = 10.0 ** rng.uniform(-1.0, 3.0)
    tilts, factors, phis = (list(c) for c in zip(*cones))
    apexes = np.array([center + radius * f * unit(rng.standard_normal(3))
                       for f in factors])
    axes = [tilted_axis(a, center, t) for a, t in zip(apexes, tilts)]
    points = np.vstack([ball(rng, center, radius, 300)] + [
        surface_pois(rng, center, a, axis, phi, radius, 40)
        for a, axis, phi in zip(apexes, axes, phis)])
    want = unculled_mask(points, apexes, axes, phis, center)
    np.testing.assert_array_equal(
        visible_mask(points, apexes, tilts, phis, center), want)
    assert visible_mask(points, apexes, tilts, phis, center,
                        count=True) == np.count_nonzero(want)
    if all(wrap_theta(t) == 0.0 for t in tilts):
        np.testing.assert_array_equal(
            visible_mask(points, apexes, None, phis, center), want)
