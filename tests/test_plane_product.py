"""visible_mask's one float32 product per evaluation against the per-cone
elementwise kernel it replaced, which is kept here as the reference: the
product's scores decide only the POIs outside their error widths and the
elementwise test decides the rest, so the masks must be identical."""

import math
import tracemalloc

import numpy as np
import pytest

from isoswarm import cost, geometry, sampling
from isoswarm.cost import SpacecraftPose, SwarmConfig, information_cost
from isoswarm.geometry import relative_columns, unit_axis, wrap_theta
from isoswarm.sampling import PoiSet, UncertaintyEllipsoid, sample_pois
from tests.conftest import dot3, plan_mask, unculled_mask
from tests.reference import cone_angles

ISO = np.array([41784000.0, -98402000.0, -47133000.0])
CENTERS = [np.zeros(3), np.array([-350.0, 20.0, 910.0]), ISO, 1e8 * np.ones(3)]
# Apex distances in POI-ball radii: inside the ball, just outside, and out
# where an aimed cone holds the ball.
FACTORS = [0.5, 0.99, 1.01, 1.5, 3.0, 6.0]
SMALL_BLOCK = 64


def elementwise_mask(points, apex, axis, phi, center, verdicts):
    """The un-culled kernel for one cone, counting the whole-cone verdict
    visible_mask takes for it."""
    radius = geometry.poi_columns(points, center)[1]
    dist = math.hypot(*(center - apex).tolist())
    angle = cone_angles(apex[None], [axis], center)[0]
    verdicts[geometry._cone_holds_ball(dist, angle, axis, phi, radius)] += 1
    return unculled_mask(points, apex[None], [axis], [phi], center)


def elementwise_union(swarm, pois, mode, verdicts):
    center = swarm.ellipsoid.center
    seen = np.zeros(len(pois), dtype=bool)
    for row, phi in zip(swarm.state, swarm.phi.tolist()):
        tilt = float(row[3]) if mode == "theta_tilt" else None
        axis = unit_axis(row[:3].tolist(), center.tolist(), tilt)
        seen |= elementwise_mask(pois.points, row[:3], axis, phi, center,
                                 verdicts)
    return seen


def unit(v):
    return v / np.linalg.norm(v)


def random_swarm(rng, n, center, radius, e):
    poses = []
    for _ in range(n):
        apex = center + radius * rng.choice(FACTORS) * unit(
            rng.standard_normal(3))
        poses.append(SpacecraftPose(
            apex, rng.choice([0.0, 0.3, 1.2, 2.5, rng.uniform(0, 2 * np.pi)]),
            0.5, rng.choice([np.pi / 3.0, rng.uniform(0.1, 3.0)])))
    return SwarmConfig(poses, e)


@pytest.mark.parametrize("mode", ["aimed", "theta_tilt"])
@pytest.mark.parametrize("n_pois, block", [
    (1, None), (5000, None), (2 * SMALL_BLOCK + 17, SMALL_BLOCK)],
    ids=["1", "5000", "2-blocks-plus-17"])
def test_plane_product_matches_elementwise_union(monkeypatch, rng, mode,
                                                 n_pois, block):
    if block is not None:
        monkeypatch.setattr(geometry, "_BLOCK", block)
    verdicts = {True: 0, False: 0, None: 0}
    inside = 0
    for n in [*range(1, 8), 32]:
        for _ in range(6 if n < 32 else 2):
            center = CENTERS[rng.integers(len(CENTERS))]
            e = UncertaintyEllipsoid.sphere(100.0, center)
            d = rng.standard_normal((n_pois, 3))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            r0 = 10.0 ** rng.uniform(-1.0, 3.0)
            pois = PoiSet(center + d * r0 * rng.random((n_pois, 1)) ** (1 / 3),
                          0, e)
            radius = pois.columns(center)[1]
            swarm = random_swarm(rng, n, center, max(radius, 1e-3 * r0), e)
            inside += int(np.sum(np.linalg.norm(
                swarm.state[:, :3] - center, axis=1) < radius))
            want = elementwise_union(swarm, pois, mode, verdicts)
            np.testing.assert_array_equal(plan_mask(swarm, pois, mode), want)
            b = information_cost(swarm, pois, orientation_mode=mode)
            assert b.visible_count == int(want.sum())
            assert b.epsilon_term == 100.0 * b.visible_count / n_pois
    # cones that hold, cut and (tilted only) miss the ball, and apexes in it
    assert verdicts[True] > 0 and verdicts[None] > 0
    if mode == "theta_tilt":
        assert verdicts[False] > 0
    assert inside > 0 or n_pois == 1


def test_one_kernel_call_per_coverage(monkeypatch):
    calls = []
    kernel = geometry.visible_mask

    def spy(points, apexes, *args):
        calls.append(len(apexes))
        return kernel(points, apexes, *args)

    monkeypatch.setattr(cost, "visible_mask", spy)
    e = UncertaintyEllipsoid.sphere(100.0)
    pois = sample_pois(e, 500, 2)
    poses = [SpacecraftPose([300.0 * (k + 1), 50.0, 0.0], 0.0, 0.5, 1.0)
             for k in range(5)]
    information_cost(SwarmConfig(poses, e), pois)
    assert calls == [5]


def test_coverage_peak_memory_is_blocked(rng):
    # 7 aimed cones holding a 10^5-POI ball: an unblocked (7, 10^5) float64
    # plane product alone would take 5.6 MB
    e = UncertaintyEllipsoid.sphere(100.0)
    pois = sample_pois(e, 100_000, 4)
    radius = pois.columns(e.center)[1]  # cached per POI set, not per call
    poses = [SpacecraftPose(radius * f * unit(rng.standard_normal(3)),
                            0.0, np.pi / 6.0, np.pi / 3.0)
             for f in (3.0, 3.5, 4.0, 5.0, 6.0, 3.0, 4.5)]
    swarm = SwarmConfig(poses, e)
    information_cost(swarm, pois)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        information_cost(swarm, pois)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"the cost peaked at {peak / 1e6:.2f} MB"


def surface_scene(rng, center, factor, r0=100.0, turn=0.0):
    """(points, apex, tilt, axis, phi): a ball of POIs about center, the apex
    at factor * r0 from it (inside, on or outside the ball), the axis tilted
    from the center direction by the tilt turn +- 0.3 (wrapped, as
    visible_mask wraps it), and POIs on the cone surface, at the apex, on
    the axis at the apex slack s D, and a few ulps off each of these."""
    d = rng.standard_normal((300, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    ball = center + d * r0 * rng.random((300, 1)) ** (1 / 3)
    apex = center + factor * r0 * unit(rng.standard_normal(3))
    tilt = wrap_theta(turn + float(rng.uniform(-0.3, 0.3)))
    axis = np.array(unit_axis(apex.tolist(), center.tolist(), tilt))
    phi = rng.uniform(0.3, 1.5)
    side = unit(np.cross(axis, rng.standard_normal(3)))
    psi = rng.uniform(0.0, 2.0 * np.pi, (400, 1))
    rays = np.cos(phi / 2.0) * axis + np.sin(phi / 2.0) * (
        np.cos(psi) * side + np.sin(psi) * np.cross(axis, side))
    surface = apex + rng.uniform(0.0, (factor + 1.0) * r0, (400, 1)) * rays
    surface = surface[np.linalg.norm(surface - center, axis=1) < r0]
    m = geometry._SLACK * np.linalg.norm(apex - center)
    special = np.vstack([apex, apex + m * axis])
    exact = np.vstack([surface, special])
    ulps = [np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)]
    ulps.append(np.nextafter(ulps[0], np.inf))
    return np.vstack([ball, exact, *ulps]), apex, tilt, axis, phi


def count_fallback(monkeypatch):
    """Record the number of POIs each call of visible_mask's float64 test
    takes."""
    columns, kernel = [], geometry._exact

    def spy(points, *args):
        columns.append(len(points))
        return kernel(points, *args)

    monkeypatch.setattr(geometry, "_exact", spy)
    return columns


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0],
                         ids=["apex-inside", "apex-on", "apex-outside"])
@pytest.mark.parametrize("center", CENTERS, ids=["0", "near", "iso", "1e8"])
def test_filter_matches_elementwise_at_the_cone_surface(monkeypatch, rng,
                                                        center, factor):
    columns = count_fallback(monkeypatch)
    for _ in range(8):
        points, apex, tilt, axis, phi = surface_scene(rng, center, factor)
        pois = PoiSet(points, 0, UncertaintyEllipsoid.sphere(100.0, center))
        verdicts = {True: 0, False: 0, None: 0}
        want = elementwise_mask(points, apex, axis.tolist(), phi, center,
                                verdicts)
        assert verdicts[None] == 1  # the cone cuts the ball
        for cols in (pois.columns(center), None):
            np.testing.assert_array_equal(geometry.visible_mask(
                points, apex[None], [tilt], [phi], center, cols), want)
    # at the origin a surface POI is within the scores' widths; far from
    # it, rounding the coordinates moves POIs off the surface by more
    if not center.any():
        assert sum(columns) > 0


@pytest.mark.parametrize("center", CENTERS[:2], ids=["0", "near"])
def test_filter_matches_elementwise_with_the_apex_near_the_center(rng,
                                                                  center):
    # R >> D: the apex within 2^-20 R of the center, the cone facing away
    # from it. Near the apex d |d| and C |rel|^2 are far below the cone's
    # width of about 2^-18 L^2, so the POIs there, and those on the axis just
    # past the apex slack that are added, score inside the band
    band = 0
    for k in (21, 30, 40):
        for _ in range(4):
            points, apex, tilt, axis, phi = surface_scene(
                rng, center, 2.0 ** -k, turn=np.pi)
            plane = (apex - center).tolist()
            m = geometry._SLACK * math.hypot(*plane)
            points = np.vstack([points, apex + m * 2.0 ** rng.uniform(
                0.0, 16.0, (100, 1)) * axis])
            cols, radius = geometry.poi_columns(points, center)
            rows = np.array(geometry._cut_rows(plane, axis.tolist(), phi,
                                               radius + math.hypot(*plane)),
                            dtype=np.float32).reshape(2, 5)
            d, g = rows @ cols
            score = d * np.abs(d) - g
            band += np.count_nonzero((score >= -1.0) & (score < 1.0))
            verdicts = {True: 0, False: 0, None: 0}
            want = elementwise_mask(points, apex, axis.tolist(), phi, center,
                                    verdicts)
            assert verdicts[None] == 1 and want.any()
            np.testing.assert_array_equal(geometry.visible_mask(
                points, apex[None], [tilt], [phi], center, (cols, radius)),
                want)
    assert band > 0


def test_scalar_visible_matches_elementwise_at_the_cone_surface(rng):
    center = np.array([-350.0, 20.0, 910.0])
    points, apex, tilt, axis, phi = surface_scene(rng, center, 1.0)
    verdicts = {True: 0, False: 0, None: 0}
    for p in points[300:]:
        want = elementwise_mask(p[None], apex, axis.tolist(), phi, center,
                                verdicts)
        assert geometry.visible_mask(p[None], apex[None], [tilt], [phi],
                                     center)[0] == want[0]
    assert verdicts[None] > 0


@pytest.mark.parametrize("scale", [1e145, 1e-145])
def test_cones_beyond_the_filter_range_test_every_poi(monkeypatch, rng, scale):
    # R near 1e+-145 km lies outside the float32 columns' range: no columns,
    # and the one cone runs the float64 test on every POI
    columns = count_fallback(monkeypatch)
    center = scale * np.array([0.3, -0.2, 0.5])
    points, apex, tilt, axis, phi = surface_scene(rng, center, 0.5,
                                                  r0=scale)
    pois = PoiSet(points, 0, UncertaintyEllipsoid.sphere(scale, center))
    verdicts = {True: 0, False: 0, None: 0}
    want = elementwise_mask(points, apex, axis.tolist(), phi, center,
                            verdicts)
    got = geometry.visible_mask(points, apex[None], [tilt], [phi], center,
                                pois.columns(center))
    np.testing.assert_array_equal(got, want)
    assert columns == [len(points)]


def test_filter_decides_every_poi_of_a_random_scene(monkeypatch):
    # one tilted cone 300 km from the center of a 500 km sphere, as in the
    # view-probability campaign: the cone cuts the ball
    columns = count_fallback(monkeypatch)
    e = UncertaintyEllipsoid.sphere(500.0)
    pois = sample_pois(e, 5000, 7)
    pose = SpacecraftPose(300.0 * unit(np.array([0.3, -0.8, 0.5])), 0.4, 0.5,
                          np.pi / 3.0)
    seen = plan_mask(SwarmConfig((pose,), e), pois, "theta_tilt")
    assert 0 < np.count_nonzero(seen) < 5000
    assert columns == []
    verdicts = {True: 0, False: 0, None: 0}
    want = elementwise_union(SwarmConfig((pose,), e), pois, "theta_tilt",
                             verdicts)
    assert verdicts[None] == 1
    np.testing.assert_array_equal(seen, want)


def test_columns_built_once_per_set_and_center(monkeypatch, rng):
    builds = []
    monkeypatch.setattr(sampling, "poi_columns",
                        lambda points, center: builds.append(len(points)) or
                        geometry.poi_columns(points, center))
    e = UncertaintyEllipsoid.sphere(100.0)
    pois = sample_pois(e, 2000, 4)
    radius = pois.columns(e.center)[1]
    holding = SwarmConfig([SpacecraftPose(
        radius * f * unit(rng.standard_normal(3)), 0.0, np.pi / 6.0,
        np.pi / 3.0) for f in (3.0, 4.5)], e)
    cutting = SwarmConfig([SpacecraftPose([50.0, 0.0, 0.0], 0.0, 0.5, 1.0)],
                          e)
    for swarm in (holding, cutting, holding, cutting):
        information_cost(swarm, pois)
    assert builds == [2000]
    # a new set, or a new center, builds them again
    other = sample_pois(e, 300, 5)
    information_cost(cutting, other)
    information_cost(cutting, other)
    pois.columns(np.array([1.0, 0.0, 0.0]))
    assert builds == [2000, 300, 2000]


def test_augmented_cache_follows_center():
    e = UncertaintyEllipsoid.sphere(10.0)
    pois = sample_pois(e, 200, 1)
    built = []
    for center in (np.zeros(3), np.array([5.0, 0.0, 0.0]), np.zeros(3)):
        cols = pois.columns(center)[0]
        assert all(cols is not old for old in built)
        built.append(cols)
        assert pois.columns(center.copy())[0] is cols
        assert cols.shape == (5, 200) and not cols.flags.writeable
        assert cols.dtype == np.float32
        # [u; 1; |u|^2], each the float32 cast of its float64 value
        rel = relative_columns(pois.points, center)
        np.testing.assert_array_equal(cols[:3].view(np.uint32),
                                      rel.astype(np.float32).view(np.uint32))
        assert (cols[3] == 1.0).all()
        np.testing.assert_array_equal(
            cols[4].view(np.uint32),
            dot3(rel, rel).astype(np.float32).view(np.uint32))
