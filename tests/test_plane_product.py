"""visible_mask's one plane product per evaluation against the per-cone
elementwise kernel it replaced, which is kept here as the reference: a BLAS
product rounds the plane value differently, which can flip only a POI within
a few ulps of |point - center| D of the slack threshold, so on these scenes
the masks must be identical."""

import math
import tracemalloc

import numpy as np
import pytest

from isoswarm import cost, geometry, sampling
from isoswarm.cost import SpacecraftPose, SwarmConfig, coverage
from isoswarm.geometry import relative_columns, unit_axis
from isoswarm.sampling import PoiSet, UncertaintyEllipsoid, sample_pois

ISO = np.array([41784000.0, -98402000.0, -47133000.0])
CENTERS = [np.zeros(3), np.array([-350.0, 20.0, 910.0]), ISO, 1e8 * np.ones(3)]
# Apex distances in POI-ball radii: inside the ball, just outside, and out
# where an aimed cone holds the ball.
FACTORS = [0.5, 0.99, 1.01, 1.5, 3.0, 6.0]
SMALL_BLOCK = 64


def dot3(a, b):
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def elementwise_mask(points, apex, axis, phi, center, centered, radius,
                     verdicts):
    """The replaced per-cone kernel: the whole-cone verdict, then the
    elementwise near half-space and, for a cone that cuts the ball, the
    elementwise cone test."""
    to_apex = tx, ty, tz = (apex - center).tolist()
    dist = math.hypot(tx, ty, tz)
    verdict = geometry._cone_holds_ball((-tx, -ty, -tz), axis, phi, radius)
    verdicts[verdict] += 1
    if verdict is False:
        return np.zeros(len(points), dtype=bool)
    near = dot3(centered, to_apex) >= -geometry._SLACK * dist * dist
    if verdict:
        return near
    rel = relative_columns(points, apex)
    d = dot3(rel, axis)
    c = np.cos(phi / 2.0)
    return near & (d > geometry._SLACK * dist) & (dot3(rel, rel) * (c * c)
                                                 <= d * d)


def elementwise_union(swarm, pois, mode, verdicts):
    center = swarm.ellipsoid.center
    centered, radius = pois.centered(center)
    seen = np.zeros(len(pois), dtype=bool)
    for row, phi in zip(swarm.state, swarm.phi.tolist()):
        tilt = float(row[3]) if mode == "theta_tilt" else None
        axis = unit_axis(row[:3].tolist(), center.tolist(), tilt)
        seen |= elementwise_mask(pois.points, row[:3], axis, phi, center,
                                 centered, radius, verdicts)
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
            radius = pois.centered(center)[1]
            swarm = random_swarm(rng, n, center, max(radius, 1e-3 * r0), e)
            inside += int(np.sum(np.linalg.norm(
                swarm.state[:, :3] - center, axis=1) < radius))
            want = elementwise_union(swarm, pois, mode, verdicts)
            count, pct, seen = coverage(swarm, pois, mode)
            np.testing.assert_array_equal(seen, want)
            assert count == int(want.sum())
            assert pct == 100.0 * count / n_pois
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
    coverage(SwarmConfig(poses, e), pois, "aimed")
    assert calls == [5]


def test_coverage_peak_memory_is_blocked(rng):
    # 7 aimed cones holding a 10^5-POI ball: an unblocked (7, 10^5) float64
    # plane product alone would take 5.6 MB
    e = UncertaintyEllipsoid.sphere(100.0)
    pois = sample_pois(e, 100_000, 4)
    radius = pois.centered(e.center)[1]  # cached per POI set, not per call
    poses = [SpacecraftPose(radius * f * unit(rng.standard_normal(3)),
                            0.0, np.pi / 6.0, np.pi / 3.0)
             for f in (3.0, 3.5, 4.0, 5.0, 6.0, 3.0, 4.5)]
    swarm = SwarmConfig(poses, e)
    coverage(swarm, pois, "aimed")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        coverage(swarm, pois, "aimed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, f"coverage peaked at {peak / 1e6:.2f} MB"


def surface_scene(rng, center, factor, r0=100.0):
    """(points, apex, axis, phi): a ball of POIs about center, the apex at
    factor * r0 from it (inside, on or outside the ball), and POIs on the
    cone surface, at the apex, on the axis at the apex slack s D, and a few
    ulps off each of these."""
    d = rng.standard_normal((300, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    ball = center + d * r0 * rng.random((300, 1)) ** (1 / 3)
    apex = center + factor * r0 * unit(rng.standard_normal(3))
    axis = np.array(unit_axis(apex.tolist(), center.tolist(),
                              float(rng.uniform(-0.3, 0.3))))
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
    return np.vstack([ball, exact, *ulps]), apex, axis, phi


def count_fallback(monkeypatch):
    """Record the number of columns each in_cone call of visible_mask takes."""
    columns, kernel = [], geometry.in_cone

    def spy(rel, *args):
        columns.append(rel.shape[-1])
        return kernel(rel, *args)

    monkeypatch.setattr(geometry, "in_cone", spy)
    return columns


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0],
                         ids=["apex-inside", "apex-on", "apex-outside"])
@pytest.mark.parametrize("center", CENTERS, ids=["0", "near", "iso", "1e8"])
def test_filter_matches_elementwise_at_the_cone_surface(monkeypatch, rng,
                                                        center, factor):
    columns = count_fallback(monkeypatch)
    for _ in range(8):
        points, apex, axis, phi = surface_scene(rng, center, factor)
        pois = PoiSet(points, 0, UncertaintyEllipsoid.sphere(100.0, center))
        cols, radius = pois.centered(center)
        verdicts = {True: 0, False: 0, None: 0}
        want = elementwise_mask(points, apex, axis.tolist(), phi, center,
                                cols, radius, verdicts)
        assert verdicts[None] == 1  # the cone cuts the ball
        for cull in ((cols, radius, pois.augmented), ()):
            np.testing.assert_array_equal(
                geometry.visible_mask(points, apex[None], [axis.tolist()],
                                      [phi], center, *cull), want)
    # at the origin a surface POI is within the filter's widths; far from
    # it, rounding the coordinates moves POIs off the surface by more
    if not center.any():
        assert sum(columns) > 0


def test_scalar_visible_matches_elementwise_at_the_cone_surface(rng):
    center = np.array([-350.0, 20.0, 910.0])
    points, apex, axis, phi = surface_scene(rng, center, 1.0)
    fov = geometry.ConeFov(apex, axis, phi)
    verdicts = {True: 0, False: 0, None: 0}
    for p in points[300:]:
        one = PoiSet(p[None], 0, UncertaintyEllipsoid.sphere(100.0, center))
        want = elementwise_mask(p[None], apex, axis.tolist(), phi, center,
                                *one.centered(center), verdicts)
        assert geometry.visible(p, fov, center) == want[0]
    assert verdicts[None] > 0


@pytest.mark.parametrize("scale", [1e145, 1e-145])
def test_cones_beyond_the_filter_range_test_every_poi(monkeypatch, rng, scale):
    # L^2 near 2^+-963 puts the filter's width of d^2 out of its range
    columns = count_fallback(monkeypatch)
    center = scale * np.array([0.3, -0.2, 0.5])
    points, apex, axis, phi = surface_scene(rng, center, 0.5, r0=scale)
    pois = PoiSet(points, 0, UncertaintyEllipsoid.sphere(scale, center))
    cols, radius = pois.centered(center)
    verdicts = {True: 0, False: 0, None: 0}
    want = elementwise_mask(points, apex, axis.tolist(), phi, center, cols,
                            radius, verdicts)
    got = geometry.visible_mask(points, apex[None], [axis.tolist()], [phi],
                                center, cols, radius)
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
    count, _, seen = coverage(SwarmConfig((pose,), e), pois, "theta_tilt")
    assert 0 < count < 5000
    assert columns == []
    verdicts = {True: 0, False: 0, None: 0}
    want = elementwise_union(SwarmConfig((pose,), e), pois, "theta_tilt",
                             verdicts)
    assert verdicts[None] == 1
    np.testing.assert_array_equal(seen, want)


def test_holding_cones_build_no_augmented_columns(monkeypatch, rng):
    builds = []
    monkeypatch.setattr(sampling, "augmented_columns",
                        lambda cols: builds.append(cols.shape) or
                        geometry.augmented_columns(cols))
    e = UncertaintyEllipsoid.sphere(100.0)
    pois = sample_pois(e, 100_000, 4)
    radius = pois.centered(e.center)[1]
    poses = [SpacecraftPose(radius * f * unit(rng.standard_normal(3)),
                            0.0, np.pi / 6.0, np.pi / 3.0)
             for f in (3.0, 3.5, 4.0, 5.0, 6.0, 3.0, 4.5)]
    coverage(SwarmConfig(poses, e), pois, "aimed")
    assert builds == []
    # a cone that cuts the ball builds them once per POI set and center
    near = SwarmConfig([SpacecraftPose([50.0, 0.0, 0.0], 0.0, 0.5, 1.0)], e)
    coverage(near, pois, "aimed")
    coverage(near, pois, "aimed")
    assert builds == [(3, 100_000)]


def test_augmented_cache_follows_center():
    e = UncertaintyEllipsoid.sphere(10.0)
    pois = sample_pois(e, 200, 1)
    for center in (np.zeros(3), np.array([5.0, 0.0, 0.0]), np.zeros(3)):
        aug = pois.augmented(center)
        cols = relative_columns(pois.points, center)
        np.testing.assert_array_equal(aug[:3], cols)
        np.testing.assert_array_equal(aug[3], dot3(cols, cols))
        assert (aug[4] == 1.0).all() and not aug.flags.writeable


def test_centered_reads_augmented_rows_once_built():
    """After augmented(center) is built, centered(center) returns its first
    three rows, equal to the copy it replaces, and the cache still follows
    the center."""
    e = UncertaintyEllipsoid.sphere(10.0)
    pois = sample_pois(e, 200, 1)
    for center in (np.zeros(3), np.array([5.0, 0.0, 0.0]), np.zeros(3)):
        cols, radius = pois.centered(center)
        aug = pois.augmented(center)
        assert not np.shares_memory(cols, aug)
        view, same_radius = pois.centered(center)
        assert np.shares_memory(view, aug) and view.shape == cols.shape
        assert view.flags.c_contiguous and not view.flags.writeable
        np.testing.assert_array_equal(view.view(np.uint64),
                                      cols.view(np.uint64))
        assert same_radius == radius
        assert pois.augmented(center) is aug
