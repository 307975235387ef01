"""The whole-cone shortcut of visible_mask against the un-culled kernel.

Each scene is built from the POIs' actual bounding radius R about the
center: the cone is placed so that the ball of radius R lies just inside or
just outside it (by an angular margin), and the two tangent points of that
ball in the plane of the axis, the POIs nearest to and farthest from the
cone surface, are added to the POIs. Every mask must equal the full cone
and half-space test bit for bit.
"""

import math

import numpy as np
import pytest

from isoswarm import cost, geometry
from isoswarm.cost import (EvalPlan, SpacecraftPose, SwarmConfig, coverage,
                           evaluate)
from isoswarm.geometry import relative_columns, unit_axis, visible_mask
from isoswarm.neldermead import pack_swarm
from isoswarm.sampling import PoiSet, UncertaintyEllipsoid, sample_pois
from tests.conftest import unculled_mask
from tests.reference import cone_angles, reference_cost

ISO = np.array([41784000.0, -98402000.0, -47133000.0])
CENTERS = [np.zeros(3), np.array([-350.0, 20.0, 910.0]), ISO, 1e8 * np.ones(3)]
MARGINS = [0.0, 1e-15, 1e-13, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3]


def one_cone(points, apex, axis, phi, center, columns=None, angle=None):
    """visible_mask of one cone, its angle from the center direction taken
    from the axis when not given."""
    if angle is None:
        angle = cone_angles(apex[None], [axis], center)[0]
    return visible_mask(points, apex[None], [axis], [angle], [phi], center,
                        columns)


def full_test(points, apex, axis, phi, center):
    """The un-culled kernel: cone test and near half-space for every POI."""
    return unculled_mask(points, apex[None], [axis], [phi], center)


def unit(v):
    return v / np.linalg.norm(v)


def axis_of(apex, center, tilt=None):
    """unit_axis of a float apex and center, as an array."""
    return np.array(unit_axis(apex.tolist(), center.tolist(),
                              None if tilt is None else float(tilt)))


def cloud(rng, center, n=400):
    """POIs uniform in a ball about center, with a random radius."""
    r0 = 10.0 ** rng.uniform(-2.0, 3.0)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return center + d * r0 * rng.random(n)[:, None] ** (1.0 / 3.0)


def columns(points, center):
    """The POI columns and bounding radius that coverage passes."""
    return PoiSet(points, 0, UncertaintyEllipsoid.sphere(1.0, center)
                  ).columns(center)


def bounding_radius(points, center):
    return columns(points, center)[1]


def verdict(points, apex, axis, phi, center):
    return geometry._cone_holds_ball(
        math.hypot(*(center - apex).tolist()),
        cone_angles(apex[None], [axis], center)[0], axis.tolist(), phi,
        bounding_radius(points, center))


def with_tangents(points, center, apex, axis):
    """Add the ball's tangent points from the apex in the plane of the axis
    and the center direction: at the largest and smallest angle to the axis."""
    radius = bounding_radius(points, center)
    dist = np.linalg.norm(center - apex)
    e0 = (center - apex) / dist
    side = axis - (axis @ e0) * e0
    e1 = -unit(side) if np.linalg.norm(side) > 1e-12 else unit(
        np.cross(e0, [0.3, -0.5, 0.8]))
    beta = np.arcsin(min(radius / dist, 1.0))
    reach = np.sqrt(max(dist * dist - radius * radius, 0.0))
    tangents = [apex + reach * (np.cos(beta) * e0 + s * np.sin(beta) * e1)
                for s in (1.0, -1.0)]
    return np.vstack([points, tangents])


def scene(rng, center, phi, margin, inside, tilted):
    """(points, apex, axis, alpha) with the ball of radius R just inside the
    cone (inside=True) or just outside it, by the angular margin (at most a
    quarter of the aperture and of its complement), and the tilt alpha the
    axis was built with (0.0 when aimed)."""
    margin = min(margin, phi / 4.0, (np.pi - phi) / 4.0)
    points = cloud(rng, center)
    radius = bounding_radius(points, center)
    e0 = unit(rng.standard_normal(3))
    if tilted:
        half = phi / 2.0 - margin if inside else phi / 2.0 + margin
        beta = rng.uniform(0.05, 0.95) * (half if inside else np.pi - half)
        alpha = half - beta if inside else half + beta
        dist = radius / np.sin(beta)
        apex = center - dist * e0
        axis = axis_of(apex, center, alpha)
    else:
        half = phi / 2.0 - margin if inside else phi / 2.0 + margin
        dist = radius / np.sin(min(half, np.pi / 2.0))
        apex = center - dist * e0
        axis, alpha = axis_of(apex, center), 0.0
    return with_tangents(points, center, apex, axis), apex, axis, alpha


@pytest.mark.parametrize("tilted", [False, True])
def test_cull_matches_full_test_near_the_ball(rng, tilted):
    verdicts = {True: 0, False: 0, None: 0}
    for _ in range(400):
        center = CENTERS[rng.integers(len(CENTERS))]
        phi = rng.choice([np.pi / 3.0, rng.uniform(0.05, 3.0), 1e-3, 3.1,
                          1e-7, np.pi - 1e-7])
        margin = MARGINS[rng.integers(len(MARGINS))]
        inside = bool(rng.random() < 0.5)
        points, apex, axis, alpha = scene(rng, center, phi, margin, inside,
                                          tilted)
        mask = one_cone(points, apex, axis, phi, center,
                        columns(points, center))
        np.testing.assert_array_equal(
            mask, full_test(points, apex, axis, phi, center))
        # the angle the cost passes: the tilt (below pi here), 0 when aimed
        np.testing.assert_array_equal(mask, one_cone(
            points, apex, axis, phi, center, columns(points, center), alpha))
        v = verdict(points, apex, axis, phi, center)
        verdicts[v] += 1
        # far from the origin a small scene's apex rounds by more than its
        # margin; near it, the scene is as designed
        if np.abs(center).max() < 1e4:
            assert v in (None, inside)
            # an aimed cone cannot miss: a ball wider than it is cut
            if margin >= 1e-6 and phi == np.pi / 3.0 and (inside or tilted):
                assert v is inside, f"no shortcut at margin {margin}"
        # a ball just inside a cone of aperture pi - 1e-7 comes within
        # 1e-14 D of the apex, inside the apex slack: the cone cuts it
        if phi == np.pi - 1e-7:
            assert v is not True
    # the shortcut is taken in both directions (only when tilted can a cone
    # miss the ball), and the fallback runs for the tightest margins
    assert verdicts[True] > 45 and verdicts[None] > 50
    assert verdicts[False] > 50 if tilted else verdicts[False] == 0


# Tilts at and within 1e-8 of 0, pi and 2 pi, and ordinary ones.
EDGE_TILTS = [0.0, 5e-324, 1e-12, 1e-8, 0.3, np.pi / 2, np.pi - 1e-8,
              np.nextafter(np.pi, 0.0), np.pi, np.nextafter(np.pi, 4.0),
              np.pi + 1e-8, 4.0, 2 * np.pi - 1e-8,
              np.nextafter(2 * np.pi, 0.0)]
# z components of the unit center direction about unit_axis's switch of
# reference axis at |z| = 0.9, and at the poles
SWITCH_ZS = [0.0, 0.5, 0.9 - 1e-12, 0.9, 0.9 + 1e-12, 0.99, 1.0, -0.9,
             -0.9 + 1e-12, -1.0]


def test_folded_tilt_matches_the_axis_angle(rng):
    """A theta_tilt cone's angle from the center direction is its tilt
    folded to min(theta, 2 pi - theta), as the cost passes it: within
    1e-12 rad of atan2 on the computed axis, on both sides of the reference
    switch and at tilts near 0, pi and 2 pi; and coverage with those angles
    equals the un-culled kernel on POI balls about those cones."""
    switch = {True: 0, False: 0}
    for z in SWITCH_ZS:
        for _ in range(3):
            center = CENTERS[rng.integers(len(CENTERS))]
            psi = rng.uniform(0.0, 2 * np.pi)
            rho = math.sqrt(max(1.0 - z * z, 0.0))
            e0 = np.array([rho * math.cos(psi), rho * math.sin(psi), z])
            radius = 10.0 ** rng.uniform(-1.0, 3.0)
            dist = radius * rng.choice([0.5, 1.01, 1.5, 3.0, 6.0])
            apex = center - dist * e0
            direction = unit_axis(apex.tolist(), center.tolist())
            switch[abs(direction[2]) < 0.9] += 1
            to_center = (center - apex).tolist()
            poses = []
            for tilt in EDGE_TILTS:
                axis = unit_axis(apex.tolist(), center.tolist(), tilt)
                folded = min(tilt, 2 * np.pi - tilt)
                assert abs(folded - geometry._center_angle(to_center, axis)) \
                    <= 1e-12
                poses.append(SpacecraftPose(apex, tilt, 0.5,
                                            rng.uniform(0.1, 3.0)))
            e = UncertaintyEllipsoid.sphere(radius, center)
            pois = PoiSet(cloud(rng, center, 300), 0, e)
            for pose in poses:
                swarm = SwarmConfig([pose], e)
                axis = axis_of(apex, center, pose.theta)
                want = full_test(pois.points, apex, axis, pose.phi, center)
                np.testing.assert_array_equal(
                    coverage(swarm, pois, "theta_tilt")[2], want)
            want = unculled_mask(pois.points, [apex] * len(poses), [
                axis_of(apex, center, p.theta) for p in poses],
                [p.phi for p in poses], center)
            np.testing.assert_array_equal(
                coverage(SwarmConfig(poses, e), pois, "theta_tilt")[2], want)
    assert switch[True] > 0 and switch[False] > 0


def test_cull_apex_on_or_inside_ball(rng):
    for _ in range(200):
        center = CENTERS[rng.integers(len(CENTERS))]
        points = cloud(rng, center)
        radius = bounding_radius(points, center)
        e0 = unit(rng.standard_normal(3))
        apex = rng.choice([center + radius * e0,
                           center + rng.uniform(0.0, 1.0) * radius * e0,
                           points[rng.integers(len(points))]])
        if np.array_equal(apex, center):
            continue
        axis = axis_of(apex, center, rng.uniform(-np.pi, np.pi))
        phi = rng.uniform(0.05, 3.0)
        if np.linalg.norm(apex - center) < 0.999 * radius:
            assert verdict(points, apex, axis, phi, center) is None
        np.testing.assert_array_equal(
            one_cone(points, apex, axis, phi, center),
            full_test(points, apex, axis, phi, center))


@pytest.mark.parametrize("mode", ["aimed", "theta_tilt"])
def test_coverage_cull_matches_full_test(rng, mode):
    # swarms of 1..7 mixing cones that hold, cut and miss the POI ball
    for n in range(1, 8):
        for _ in range(15):
            center = CENTERS[rng.integers(len(CENTERS))]
            e = UncertaintyEllipsoid.sphere(100.0, center)
            pois = PoiSet(cloud(rng, center, 1000), 0, e)
            radius = pois.columns(center)[1]
            poses = [SpacecraftPose(
                center + radius * rng.choice([1.01, 1.5, 3.0, 6.0, 0.5])
                * unit(rng.standard_normal(3)),
                rng.choice([0.0, 0.3, 1.2, 2.5, rng.uniform(0, 2 * np.pi)]),
                0.5, rng.choice([np.pi / 3.0, rng.uniform(0.1, 3.0)]))
                for _ in range(n)]
            swarm = SwarmConfig(poses, e)
            axes = [axis_of(row[:3], center,
                            row[3] if mode == "theta_tilt" else None)
                    for row in swarm.state]
            want = np.zeros(len(pois), dtype=bool)
            for row, axis, phi in zip(swarm.state, axes, swarm.phi):
                want |= full_test(pois.points, row[:3], axis, phi, center)
            count, _, seen = coverage(swarm, pois, mode)
            np.testing.assert_array_equal(seen, want)
            assert count == want.sum()


def test_centered_cache_follows_center():
    e = UncertaintyEllipsoid.sphere(10.0)
    pois = sample_pois(e, 200, 1)
    for center in (np.zeros(3), np.array([5.0, 0.0, 0.0]), np.zeros(3)):
        cols, radius = pois.columns(center)
        rel = relative_columns(pois.points, center)
        # the float32 casts of the float64 offsets
        assert cols.dtype == np.float32 and not cols.flags.writeable
        np.testing.assert_array_equal(cols[:3].view(np.uint32),
                                      rel.astype(np.float32).view(np.uint32))
        # R is taken from the float64 offsets: bit-equal to the sum of
        # squares and to the largest norm
        want = float(np.sqrt((rel ** 2).sum(0).max()))
        assert np.float64(radius).view(np.uint64) == np.float64(
            want).view(np.uint64)
        assert radius == np.max(np.linalg.norm(pois.points - center, axis=1))


def test_swarm_size_geometry_takes_contains_branch(monkeypatch, rng):
    # aimed 60 degree cones standing 3 radii out or farther hold the whole
    # POI ball: each stands beyond its plan's hold distance, so only the
    # half-space test runs for them, and an evaluation computes no axis,
    # calls no cull and builds no cut rows, in one kernel call
    e = UncertaintyEllipsoid.sphere(100.0)
    pois = sample_pois(e, 5000, 3)
    radius = pois.columns(e.center)[1]
    poses = [SpacecraftPose(radius * f * unit(rng.standard_normal(3)),
                            0.0, np.pi / 6.0, np.pi / 3.0)
             for f in (3.0, 3.5, 4.0, 5.0, 6.0, 3.0, 4.5)]
    swarm = SwarmConfig(poses, e)
    plan = EvalPlan(swarm, pois, orientation_mode="aimed")
    for row, hold in zip(swarm.state.tolist(), plan.holds):
        dist = math.hypot(*row[:3])
        assert hold <= dist
        # the verdict the hold distance stands for
        assert geometry._cone_holds_ball(dist, 0.0, unit_axis(
            row[:3], [0.0, 0.0, 0.0]), np.pi / 3.0, radius) is True
    calls = {name: [] for name in ("unit_axis", "_cone_holds_ball",
                                   "_cut_rows", "visible_mask")}
    for module, name in ((geometry, "unit_axis"), (cost, "unit_axis"),
                         (geometry, "_cone_holds_ball"),
                         (geometry, "_cut_rows"), (cost, "visible_mask")):
        def spy(*args, real=getattr(module, name), seen=calls[name], **kw):
            seen.append(1)
            return real(*args, **kw)
        monkeypatch.setattr(module, name, spy)
    x = pack_swarm(swarm).tolist()
    values = [evaluate(plan, x) for _ in range(3)]
    assert {name: len(seen) for name, seen in calls.items()} == {
        "unit_axis": 0, "_cone_holds_ball": 0, "_cut_rows": 0,
        "visible_mask": 3}
    count, pct, seen = coverage(swarm, pois, "aimed")
    assert len(calls["visible_mask"]) == 4 and not calls["_cut_rows"]
    want = np.zeros(len(pois), dtype=bool)
    for row in swarm.state:
        want |= full_test(pois.points, row[:3], axis_of(row[:3], e.center),
                          np.pi / 3.0, e.center)
    np.testing.assert_array_equal(seen, want)
    assert values == [reference_cost(swarm, pois)] * 3


def test_scalar_visible_culls_holding_and_missing_cones(monkeypatch, rng):
    # one POI is a ball of radius |poi - center|: an aimed cone 100 radii
    # out holds it, a cone tilted 2 rad away from the center misses it
    seen = []
    cull = geometry._cone_holds_ball

    def spy(*args):
        seen.append(cull(*args))
        return seen[-1]

    monkeypatch.setattr(geometry, "_cone_holds_ball", spy)
    center = np.array([-350.0, 20.0, 910.0])
    apex = center + 100.0 * unit(rng.standard_normal(3))
    cones = {True: geometry.ConeFov.aimed(apex, center, np.pi / 3.0),
             False: geometry.ConeFov(apex, axis_of(apex, center, 2.0),
                                     np.pi / 3.0)}
    for holds, fov in cones.items():
        hits = 0
        for poi in center + rng.uniform(-1.0, 1.0, (50, 3)):
            seen.clear()
            got = geometry.visible(poi, fov, center)
            assert seen == [holds]
            assert got == full_test(poi[None], fov.apex, fov.axis,
                                    fov.aperture_phi, center)[0]
            hits += got
        # the holding cone sees the POIs on its side of the center plane
        assert 0 < hits < 50 if holds else hits == 0
