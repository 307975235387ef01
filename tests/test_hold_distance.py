"""The hold distance of an aimed cone (geometry._hold_distance) against the
cull it stands in for: at and beyond it, _cone_holds_ball holds the POI ball
for the shortest axis unit_axis returns, and swarms whose cones stand just
below it (cut rows) or at and above it (plane rows only) get the masks of
the un-culled kernel."""

import math

import numpy as np
import pytest

from isoswarm.cost import SpacecraftPose, SwarmConfig, information_cost
from isoswarm.geometry import (_RADII, _SHORT_AXIS, _SPAN, _cone_holds_ball,
                               _hold_distance, unit_axis)
from isoswarm.sampling import PoiSet, UncertaintyEllipsoid
from tests.conftest import plan_mask, spy, unculled_mask

ISO = np.array([41784000.0, -98402000.0, -47133000.0])
CENTERS = [np.zeros(3), np.array([-350.0, 20.0, 910.0]), ISO, 1e8 * np.ones(3)]
# apertures across (0, pi): both ends, where no distance holds the ball or
# the closed form's caps on x = R / D bind, and the paper's 60 degrees
PHIS = [1e-7, 1e-5, 1e-3, 0.1, np.pi / 3.0, 1.0, 2.0, 3.0, 3.05, 3.1,
        np.pi - 1e-3, np.pi - 1e-7, math.nextafter(math.pi, 0.0)]
# bounding radii across the float32 columns' range
RADII = [_RADII[0] * 1.0001, 1e-6, 1.0, 100.0, 1e6, _RADII[1] * 0.9999]
# distances at and beyond a hold distance, in its units
ABOVE = [1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.001, 1.5, 2.0, 10.0, 1e3, 1e6, 1e12]


def n2(axis):
    """|axis|^2 as _cone_holds_ball computes it."""
    ax, ay, az = axis
    return ax * ax + ay * ay + az * az


def test_short_axis_is_shorter_than_any_aimed_axis(rng):
    # unit_axis's |axis|^2 stays within a few ulps of 1, above _SHORT_AXIS's,
    # for apexes and centers over 1e-3..1e150 km
    least = 2.0
    for _ in range(20000):
        apex = rng.standard_normal(3) * 10.0 ** rng.uniform(-3.0, 150.0)
        center = rng.standard_normal(3) * 10.0 ** rng.uniform(-3.0, 8.0)
        least = min(least, n2(unit_axis(apex.tolist(), center.tolist())))
    assert n2(_SHORT_AXIS) < least < 1.0


def test_hold_distance_is_sound(rng):
    """At every finite distance at or beyond the hold distance the cull holds
    the ball, with the shortest axis and with an exact unit one; an
    aperture without a hold distance is never held."""
    finite = 0
    for phi in [*PHIS, *rng.uniform(0.0, np.pi, 300)]:
        for radius in RADII:
            hold = _hold_distance(phi, radius)
            if hold == math.inf:
                assert _cone_holds_ball(1e300, 0.0, (1.0, 0.0, 0.0), phi,
                                        radius) is not True
                continue
            finite += 1
            assert hold > radius
            dists = [hold * f for f in ABOVE] + [
                math.nextafter(hold, math.inf), _SPAN[1] * radius, 1e300,
                np.finfo(float).max]
            for dist in dists:
                assert dist >= hold
                for axis in (_SHORT_AXIS, (1.0, 0.0, 0.0)):
                    assert _cone_holds_ball(dist, 0.0, axis, phi,
                                            radius) is True, (phi, radius,
                                                              dist / hold)
            # where the asin bound sets it, the cull itself holds from
            # within 1e-6 of the hold distance, and not below that
            if 0.1 <= phi <= 3.0:
                assert _cone_holds_ball(hold * (1.0 - 1e-6), 0.0,
                                        (1.0, 0.0, 0.0), phi,
                                        radius) is not True
    assert finite > 1500


def test_paper_cones_hold_from_two_radii():
    # an aimed 60 degree cone holds the ball from 2 R (asin(1/2) = pi/6),
    # plus the margins
    hold = _hold_distance(np.pi / 3.0, 100.0)
    assert 200.0 < hold < 200.0 * (1.0 + 1e-8)


def unit(v):
    return v / np.linalg.norm(v)


def tangents(rng, center, radius, apexes):
    """For each apex, a point on the cone from it that touches the ball of
    radius (1 - 1e-9) radius about center: the POI an aimed cone just
    short of holding the ball leaves out."""
    out = []
    for apex in apexes:
        dist = np.linalg.norm(center - apex)
        e0 = (center - apex) / dist
        e1 = unit(np.cross(e0, rng.standard_normal(3)))
        inner = radius * (1.0 - 1e-9)
        beta = np.arcsin(inner / dist)
        out.append(apex + np.sqrt(dist * dist - inner * inner) * (
            np.cos(beta) * e0 + np.sin(beta) * e1))
    return np.array(out)


@pytest.mark.parametrize("center", CENTERS, ids=["0", "near", "iso", "1e8"])
def test_coverage_of_cones_straddling_the_hold_distance(monkeypatch, rng,
                                                        center):
    """Aimed swarms with cones just below their hold distance (an axis, and
    cut rows) and at or just above it (no axis, plane rows only): the plan's
    mask equals the un-culled kernel, and the cost counts it."""
    below = above = cut = 0
    for _ in range(12):
        r0 = 10.0 ** rng.uniform(-1.0, 3.0)
        d = rng.standard_normal((400, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        points = center + d * r0 * rng.random((400, 1)) ** (1.0 / 3.0)
        e = UncertaintyEllipsoid.sphere(r0, center)
        radius = PoiSet(points, 0, e).columns(center)[1]
        n = int(rng.integers(1, 8))
        phis = [float(rng.choice([np.pi / 3.0, rng.uniform(0.2, 3.0)]))
                for _ in range(n)]
        apexes = [center + _hold_distance(phi, radius) * float(rng.choice(
            [1.0 - 1e-3, 1.0 - 1e-6, 1.0, 1.0 + 1e-9, 1.0 + 1e-6]))
            * unit(rng.standard_normal(3)) for phi in phis]
        points = np.vstack([points, tangents(rng, center, radius, apexes)])
        pois = PoiSet(points, 0, e)
        radius = pois.columns(center)[1]
        swarm = SwarmConfig([SpacecraftPose(apex, 0.0, 0.5, phi)
                             for apex, phi in zip(apexes, phis)], e)
        # the kernel's distance: hypot of the float apex - center
        nearer = sum(math.hypot(*(apex - center).tolist())
                     < _hold_distance(phi, radius)
                     for apex, phi in zip(swarm.state[:, :3], phis))
        axes = [unit_axis(apex.tolist(), center.tolist())
                for apex in swarm.state[:, :3]]
        want = unculled_mask(points, swarm.state[:, :3], axes, phis, center)
        with monkeypatch.context() as m:
            axis_calls = spy(m, "unit_axis")
            cut_rows = spy(m, "_cut_rows")
            seen = plan_mask(swarm, pois)
        np.testing.assert_array_equal(seen, want)
        assert information_cost(swarm, pois).visible_count == int(want.sum())
        # only the cones nearer than their hold distance get an axis and
        # can cut the ball
        assert len(axis_calls) == nearer
        assert len(cut_rows) <= nearer
        below, above, cut = below + nearer, above + n - nearer, cut + len(
            cut_rows)
    assert below > 5 and above > 5 and cut > 5
