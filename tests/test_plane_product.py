"""visible_mask's one plane product per evaluation against the per-cone
elementwise kernel it replaced, which is kept here as the reference: a BLAS
product rounds the plane value differently, which can flip only a POI within
a few ulps of |point - center| D of the slack threshold, so on these scenes
the masks must be identical."""

import math
import tracemalloc

import numpy as np
import pytest

from isoswarm import cost, geometry
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
