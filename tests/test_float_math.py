"""Bit-for-bit checks of the per-spacecraft float math against the array
formulas it replaced, which are kept here as the reference."""

import numpy as np
import pytest

from isoswarm.cost import (DEFAULT_IDENTICAL_THETA_DELTA, DEGENERACY_PENALTY,
                           DEGENERACY_RADIUS_KM, SpacecraftPose, SwarmConfig,
                           _overlap_sum, _pair_terms, kappa_total,
                           pair_overlap)
from isoswarm.geometry import TWO_PI, unit_axis
from isoswarm.neldermead import swarm_objective
from isoswarm.sampling import UncertaintyEllipsoid, sample_pois


def _cross(a, b):
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.array((a1*b2 - a2*b1, a2*b0 - a0*b2, a0*b1 - a1*b0)).T


def axes_per_row(apexes, center, tilts=None):
    """unit_axis of each apex row, with its tilt when given."""
    tilts = [None] * len(apexes) if tilts is None else tilts.tolist()
    return np.array([unit_axis(a, center.tolist(), t)
                     for a, t in zip(apexes.tolist(), tilts)]).reshape(-1, 3)


def array_cone_axes(apexes, center, tilts=None):
    """The array axes formula: unit axes toward the center, tilted about
    toward x ref (ref = z, or x near the poles)."""
    toward = center - apexes
    toward = toward / np.linalg.norm(toward, axis=1, keepdims=True)
    if tilts is None:
        return toward
    ref = np.where(np.abs(toward[:, 2:]) < 0.9, [0.0, 0.0, 1.0],
                   [1.0, 0.0, 0.0])
    u = _cross(toward, ref)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return (toward * np.cos(tilts)[:, None]
            + _cross(u, toward) * np.sin(tilts)[:, None])


def array_arc_overlap(ti, tj, nu_i, nu_j):
    """The elementwise array pair overlap, equal thetas perturbed by
    DEFAULT_IDENTICAL_THETA_DELTA."""
    tj = np.where(ti == tj, tj + DEFAULT_IDENTICAL_THETA_DELTA, tj)
    d = np.abs(ti - tj) % TWO_PI
    sep = np.minimum(d, TWO_PI - d)
    narrow = np.minimum(2.0 * nu_i, 2.0 * nu_j)
    near = np.minimum(narrow, nu_i + nu_j - sep)
    far = np.minimum(narrow, nu_i + nu_j - (TWO_PI - sep))
    return np.maximum(0.0, near) + np.maximum(0.0, far)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def unit_rows(rng, n):
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def axis_scenes(rng):
    """(center, apexes, tilts) sets: random directions at 1e-3 to 1e8 km,
    directions whose z is within 1e-12 of +-0.9 (the reference switch),
    the poles and directions a hair off them."""
    n = 6000
    dist = 10.0 ** rng.uniform(-3, 8, n)
    yield rng.uniform(-1e4, 1e4, 3), unit_rows(rng, n) * dist[:, None]
    yield np.zeros(3), unit_rows(rng, n) * dist[:, None]

    z = rng.choice([-0.9, 0.9], n) + rng.uniform(-1e-12, 1e-12, n)
    z[:8] = [0.9, -0.9, np.nextafter(0.9, 1), np.nextafter(0.9, 0),
             np.nextafter(-0.9, -1), np.nextafter(-0.9, 0), 0.9 + 1e-12,
             0.9 - 1e-12]
    phase = rng.uniform(0, TWO_PI, n)
    rho = np.sqrt(1.0 - z * z)
    toward = np.stack([rho * np.cos(phase), rho * np.sin(phase), z], 1)
    yield np.zeros(3), -toward * dist[:, None]

    k = 2000
    off = 10.0 ** rng.uniform(-300, -1, (k, 2)) * rng.choice([-1, 1], (k, 2))
    off[:4] = 0.0
    pole = np.column_stack([off, rng.choice([-1.0, 1.0], k)])
    center = rng.uniform(-1e3, 1e3, 3)
    yield center, center - pole * dist[:k, None]


def test_cone_axes_match_array_formula_bit_for_bit():
    rng = np.random.default_rng(2024)
    rows = near_switch = 0
    for center, apexes in axis_scenes(rng):
        tilts = rng.uniform(0.0, TWO_PI, len(apexes))
        tilts[:5] = [0.0, np.pi / 2, np.pi, 1.5 * np.pi,
                     np.nextafter(TWO_PI, 0)]
        for t in (None, tilts):
            want = array_cone_axes(apexes, center, t)
            got = axes_per_row(apexes, center, t)
            assert got.shape == want.shape
            np.testing.assert_array_equal(bits(got), bits(want))
        z = np.abs(array_cone_axes(apexes, center)[:, 2])
        near_switch += np.count_nonzero(np.abs(z - 0.9) <= 1e-12)
        rows += len(apexes)
    assert rows >= 20_000
    assert near_switch >= 5000


def random_poses(rng, n):
    """Poses with nu over (0, pi), often shared, and repeated thetas (the
    delta path), some at powers of two (theta + delta rounds on a coarser
    grid than theta - delta)."""
    theta = rng.uniform(0.0, TWO_PI, n)
    nu = rng.uniform(0.0, np.pi, n)
    nu[nu == 0.0] = 1e-3
    special = rng.random(n) < 0.2
    nu[special] = rng.choice([1e-9, np.pi / 6, np.pi / 2, 2.0,
                              np.nextafter(np.pi, 0)], np.count_nonzero(special))
    powers = rng.random(n) < 0.1
    theta[powers] = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0],
                               np.count_nonzero(powers))
    for k in np.flatnonzero(rng.random(n - 1) < 0.3) + 1:
        theta[k] = theta[k - 1]
        if rng.random() < 0.5:
            nu[k] = nu[k - 1]
    return [SpacecraftPose(np.ones(3), t, v, 1.0) for t, v in zip(theta, nu)]


def test_pair_overlap_matches_array_formula_bit_for_bit():
    rng = np.random.default_rng(77)
    poses = random_poses(rng, 4000)
    a, b = poses[:-1], poses[1:]
    want = array_arc_overlap(np.array([p.theta for p in a]),
                             np.array([p.theta for p in b]),
                             np.array([p.nu for p in a]),
                             np.array([p.nu for p in b]))
    got = [pair_overlap(p, q) for p, q in zip(a, b)]
    np.testing.assert_array_equal(bits(got), bits(want))
    assert sum(p.theta == q.theta and p.nu == q.nu
               for p, q in zip(a, b)) > 100


def test_kappa_total_matches_array_formula_bit_for_bit():
    rng = np.random.default_rng(78)
    ellipsoid = UncertaintyEllipsoid.sphere(10.0)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        swarm = SwarmConfig(random_poses(rng, n), ellipsoid)
        i, j = np.triu_indices(n, 1)
        theta = swarm.state[:, 3]
        want = 0.0
        for v in array_arc_overlap(theta[i], theta[j], swarm.nu[i],
                                   swarm.nu[j]).tolist():
            want += v
        assert bits(kappa_total(swarm)) == bits(want)


def test_overlap_keeps_nan():
    ok = SpacecraftPose(np.ones(3), 1.0, 0.5, 1.0)
    bad = SpacecraftPose(np.ones(3), np.nan, 0.5, 1.0)
    assert np.isnan(array_arc_overlap(bad.theta, ok.theta, 0.5, 0.5))
    assert np.isnan(pair_overlap(bad, ok)) and np.isnan(pair_overlap(ok, bad))


# Orientations and widths whose overlaps hit the fused pair loop's edges:
# equal thetas (the delta path), NaN orientations, zero widths of either sign
# (-0.0 overlaps), widths above pi / 2 (the far piece, up to 6 for a far
# piece wider than the near one) and widths a hair below pi.
EDGE_THETAS = [0.0, 1e-300, 0.5, 1.0, np.pi / 2, np.pi, 4.0, 1.5 * np.pi,
               np.nextafter(TWO_PI, 0), np.nan]
EDGE_NUS = [-0.0, 0.0, 1e-9, 0.5, np.pi / 2, 2.0, 3.0,
            np.nextafter(np.pi, 0), 6.0]


def edge_rows():
    """Every (ti, tj, nu_i, nu_j) combination of the edge values."""
    grid = np.meshgrid(EDGE_THETAS, EDGE_THETAS, EDGE_NUS, EDGE_NUS,
                       indexing="ij")
    return [g.ravel() for g in grid]


def test_overlap_edge_cases_match_array_formula_bit_for_bit():
    ti, tj, nu_i, nu_j = edge_rows()
    want = array_arc_overlap(ti, tj, nu_i, nu_j)
    # the one-pair sum, started at -0.0 as pair_overlap starts it
    got = [_overlap_sum((a, b), _pair_terms((u, v), ((0, 1),)), -0.0)
           for a, b, u, v in zip(ti.tolist(), tj.tolist(), nu_i.tolist(),
                                 nu_j.tolist())]
    np.testing.assert_array_equal(bits(got), bits(want))
    # pair_overlap on the rows poses admit (widths in (0, pi))
    valid = np.flatnonzero((0 < nu_i) & (nu_i < np.pi)
                           & (0 < nu_j) & (nu_j < np.pi))
    got = [pair_overlap(SpacecraftPose(np.ones(3), ti[k], nu_i[k], 1.0),
                        SpacecraftPose(np.ones(3), tj[k], nu_j[k], 1.0))
           for k in valid.tolist()]
    np.testing.assert_array_equal(bits(got), bits(want[valid]))
    # every edge occurs
    d = np.abs(ti - tj) % TWO_PI
    narrow = np.minimum(2 * nu_i, 2 * nu_j)
    far = np.minimum(narrow, nu_i + nu_j - (TWO_PI - np.minimum(d, TWO_PI - d)))
    assert np.count_nonzero((ti == tj) & (want > 0)) > 100
    assert np.count_nonzero(np.isnan(want[valid])) > 100
    assert np.count_nonzero(np.signbit(want) & (want == 0)) > 10
    assert np.count_nonzero(far[valid] > 0) > 100


def test_kappa_total_edge_cases_match_array_formula_bit_for_bit():
    """kappa_total over swarms of edge rows, widths set on the swarm
    directly so zero widths of either sign reach the loop too."""
    rng = np.random.default_rng(79)
    theta = np.array(EDGE_THETAS)
    nu = np.array(EDGE_NUS)
    ellipsoid = UncertaintyEllipsoid.sphere(10.0)
    for _ in range(600):
        n = int(rng.integers(2, 9))
        t, v = rng.choice(theta, n), rng.choice(nu, n)
        swarm = SwarmConfig([SpacecraftPose(np.ones(3), x, 1.0, 1.0)
                             for x in t], ellipsoid)
        swarm.nu = v
        i, j = np.triu_indices(n, 1)
        want = 0.0
        for w in array_arc_overlap(t[i], t[j], v[i], v[j]).tolist():
            want += w
        assert bits(kappa_total(swarm)) == bits(want)


@pytest.mark.parametrize("n_craft", [1, 3])
def test_degeneracy_test_matches_array_norm(n_craft):
    """The float penalty test agrees with the array norm on offsets within
    a few ulps of the degeneracy radius."""
    rng = np.random.default_rng(5)
    ellipsoid = UncertaintyEllipsoid.sphere(1.0)
    pois = sample_pois(ellipsoid, 50, 1)
    far = [5.0, 0.0, 0.0, 0.0]
    template = SwarmConfig([SpacecraftPose(far[:3], 0.0, 0.5, 1.0)] * n_craft,
                           ellipsoid)
    objective = swarm_objective(pois, template)
    hits = 0
    for _ in range(2000):
        x = np.tile(far, n_craft)
        k = 4 * int(rng.integers(n_craft))
        scale = DEGENERACY_RADIUS_KM * (1.0 + rng.integers(-3, 4) * 1.1e-16)
        x[k:k + 3] = unit_rows(rng, 1)[0] * scale
        offsets = x.reshape(-1, 4)[:, :3] - ellipsoid.center
        want = np.any(np.linalg.norm(offsets, axis=1) < DEGENERACY_RADIUS_KM)
        assert (objective(x.tolist()) == DEGENERACY_PENALTY) == want
        hits += want
    assert 0 < hits < 2000
