"""Aimed thetas placed in closed form: lap_thetas against a brute-force
minimum of the summed pairwise overlap, against the closed-form value
k (k - 1) pi + k (L - 2 pi k) for any widths, and inside optimize_swarm."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm.cost import (DEFAULT_IDENTICAL_THETA_DELTA, EvalPlan,
                           SpacecraftPose, SwarmConfig, _overlap_sum,
                           chart_apexes)
from isoswarm.geometry import TWO_PI, wrap_theta
from isoswarm.neldermead import (NelderMeadOptions, lap_thetas, nelder_mead,
                                 optimize_swarm, swarm_objective)
from isoswarm.sampling import UncertaintyEllipsoid, sample_pois


def kappa(thetas, nu):
    """The summed pairwise overlap the cost takes (kappa_total)."""
    return _overlap_sum([wrap_theta(t) for t in thetas], nu)


def kappa_star(nu):
    """The least summed pairwise overlap of arcs of widths 2 nu_k: with L =
    sum 2 nu_k and k = floor(L / 2 pi), the circle covered k + 1 deep over
    L - 2 pi k and k deep elsewhere."""
    total = sum(2.0 * v for v in nu)
    k = math.floor(total / TWO_PI)
    return k * (k - 1) * math.pi + k * (total - TWO_PI * k)


def ties(thetas):
    """Pairs of equal wrapped thetas: _overlap_sum moves one of each pair by
    DEFAULT_IDENTICAL_THETA_DELTA, which can lower its overlap by as much."""
    wrapped = [wrap_theta(t) for t in thetas]
    return sum(a == b for a, b in combinations(wrapped, 2))


# Samples of the circle for the brute-force overlaps: arcs are measured by
# the sample midpoints they hold, so a pair's overlap is off by at most four
# samples (two ends of each of at most two pieces).
SAMPLES = 2 ** 15


def overlap_tables(nu, grid):
    """Per pair i < j, the overlap of arc i at 0 and arc j at each of grid
    equally spaced angles, measured on the sampled circle (a circular
    cross-correlation of the two arcs' indicator samples)."""
    angles = (np.arange(SAMPLES) + 0.5) * (TWO_PI / SAMPLES)
    dist = np.minimum(angles, TWO_PI - angles)
    spectra = [np.fft.rfft((dist <= v).astype(float)) for v in nu]
    step = SAMPLES // grid
    return {(i, j): np.rint(np.fft.irfft(
        spectra[i].conj() * spectra[j], SAMPLES))[::step] * (TWO_PI / SAMPLES)
        for i, j in combinations(range(len(nu)), 2)}


def brute_force_minimum(nu, grid):
    """The least summed overlap over thetas on a grid of the circle, theta_0
    held at 0 (the sum is invariant under rotation): the last two thetas
    as an index mesh, any before them looped over."""
    n, tables = len(nu), overlap_tables(nu, grid)
    looped = max(n - 3, 0)
    mesh = np.meshgrid(*[np.arange(grid)] * (n - 1 - looped), indexing="ij")
    best = math.inf
    for head in product(range(grid), repeat=looped):
        index = [0, *head, *mesh]
        total = sum((tables[i, j][(index[j] - index[i]) % grid]
                     for i, j in combinations(range(n), 2)), 0.0)
        best = min(best, float(np.min(total)))
    return best


# grid points per swarm size: the resolution is 2 pi / grid
GRIDS = {1: 1, 2: 4096, 3: 512, 4: 128}


@pytest.mark.parametrize("n", sorted(GRIDS))
@pytest.mark.parametrize("seed", range(4))
def test_lap_layout_meets_the_brute_force_minimum(n, seed):
    """Random mixed widths, at least one above pi / 2 (where two arcs can
    overlap across both separations): no grid layout overlaps less than the
    lap layout, and the grid's best is within its resolution of it (moving a
    theta by h moves each of its pairs' overlap by at most h)."""
    rng = np.random.default_rng([n, seed])
    nu = rng.uniform(0.05, math.pi - 0.05, n).tolist()
    nu[-1] = rng.uniform(math.pi / 2, math.pi - 0.05)
    grid = GRIDS[n]
    pairs = n * (n - 1) // 2
    measure, resolution = pairs * 4 * TWO_PI / SAMPLES, pairs * TWO_PI / grid
    placed = kappa(lap_thetas(nu), nu)
    brute = brute_force_minimum(nu, grid)
    assert placed <= brute + measure
    assert brute <= placed + measure + resolution
    assert placed == pytest.approx(kappa_star(nu), abs=1e-12)


WIDTH = st.one_of(st.floats(0.01, math.pi - 0.01),
                  st.floats(2.5, math.pi - 1e-6),
                  st.sampled_from([math.pi / 6, math.pi / 4, math.pi / 3,
                                   math.pi / 2]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 32))
def test_lap_layout_attains_the_closed_form(data, n):
    """For any widths and N up to 32 the lap layout's overlap is kappa*, and
    no drawn theta vector overlaps less: each exact tie of thetas may lower
    a sum by DEFAULT_IDENTICAL_THETA_DELTA, the rest is rounding."""
    nu = data.draw(st.lists(WIDTH, min_size=n, max_size=n))
    drawn = data.draw(st.lists(
        st.one_of(st.floats(0.0, 7.0),
                  st.integers(0, 11).map(lambda k: k * math.pi / 6)),
        min_size=n, max_size=n))
    best = kappa_star(nu)
    rounding = 1e-10 * (1.0 + best)
    placed = lap_thetas(nu)
    assert all(0.0 <= t < TWO_PI for t in placed)
    got = kappa(placed, nu)
    assert best - ties(placed) * DEFAULT_IDENTICAL_THETA_DELTA - rounding \
        <= got <= best + rounding
    assert kappa(drawn, nu) >= \
        best - ties(drawn) * DEFAULT_IDENTICAL_THETA_DELTA - rounding


def scene(n, seed=0, nu=math.pi / 6):
    """n aimed spacecraft 3-6 radii from a 100 km sphere with 300 POIs."""
    rng = np.random.default_rng(seed)
    ellipsoid = UncertaintyEllipsoid.sphere(100.0)
    d = rng.standard_normal((n, 3))
    d *= rng.uniform(300.0, 600.0, (n, 1)) / np.linalg.norm(
        d, axis=1, keepdims=True)
    swarm = SwarmConfig([SpacecraftPose(p, t, nu, math.pi / 3) for p, t in
                         zip(d, rng.uniform(0.0, TWO_PI, n))], ellipsoid)
    return sample_pois(ellipsoid, 300, seed), swarm


@pytest.mark.parametrize("n", range(1, 8))
def test_optimized_kappa_is_the_closed_form(n):
    pois, swarm = scene(n)
    best, breakdown, result = optimize_swarm(
        pois, swarm, NelderMeadOptions(max_iterations=20))
    thetas = best.state[:, 3].tolist()
    assert thetas == lap_thetas(swarm.nu.tolist())
    want = kappa_star(swarm.nu.tolist())
    assert want - ties(thetas) * DEFAULT_IDENTICAL_THETA_DELTA - 1e-12 \
        <= breakdown.kappa_total <= want + 1e-12
    # the search ran over the 2 n chart coordinates only, and the swarm
    # stands at their apexes
    assert result.best_point.shape == (2 * n,)
    np.testing.assert_array_equal(
        chart_apexes(EvalPlan(swarm, pois), result.best_point.tolist()),
        best.state[:, :3])


def test_aimed_search_ignores_the_angle_step():
    pois, swarm = scene(3, seed=5)
    runs = [optimize_swarm(pois, swarm, NelderMeadOptions(
        max_iterations=40, theta_initial_step=step)) for step in (0.5, 2.0)]
    (best_a, cost_a, res_a), (best_b, cost_b, res_b) = runs
    np.testing.assert_array_equal(best_a.state, best_b.state)
    assert cost_a == cost_b and res_a.evaluation_count == res_b.evaluation_count


def test_theta_tilt_searches_every_coordinate():
    """theta_tilt keeps the joint search: optimize_swarm's run is
    nelder_mead over the packed (x, y, z, theta) vector, bit for bit."""
    pois, swarm = scene(1, seed=2)
    opts = NelderMeadOptions(max_iterations=60)
    best, breakdown, result = optimize_swarm(
        pois, swarm, opts, orientation_mode="theta_tilt")
    plan = EvalPlan(swarm, pois, orientation_mode="theta_tilt")
    want = nelder_mead(swarm_objective(plan), swarm.state.ravel(), opts,
                       frozenset({3}))
    np.testing.assert_array_equal(result.best_point.view(np.uint64),
                                  want.best_point.view(np.uint64))
    assert (result.evaluation_count, result.best_value.hex()) == \
        (want.evaluation_count, want.best_value.hex())
    np.testing.assert_array_equal(best.state.ravel(), want.best_point)
