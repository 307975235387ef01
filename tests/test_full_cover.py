"""Swarms of held cones around the center against the un-culled kernel.

Cones that test their plane alone (they hold the POI ball) see every POI
once four of their apex - center vectors enclose the center: each POI u
then has u . t >= 0 for one of them. Scenes put the center inside, on and
just outside a face or an edge of the tetrahedron of four cones, and POIs on
the directions the cones leave uncovered; every count and mask must equal
unculled_mask's. Scoring such a swarm leaves its evaluation plan as built.
"""

import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm.cost import (EvalPlan, SpacecraftPose, SwarmConfig,
                           cost_breakdown, evaluate)
from isoswarm.geometry import (_hold_distance, poi_columns, unit_axis,
                               visible_mask)
from isoswarm.neldermead import swarm_objective
from isoswarm.sampling import UncertaintyEllipsoid, sample_pois
from tests.conftest import plan_mask, unculled_mask
from tests.reference import decision
from tests.test_cone_cull import CENTERS

# barycentric weights of the center for the first one or two cones of the
# tetrahedron: next to a face or an edge, inside (> 0), on it or outside
EDGE_WEIGHTS = [1e-12, 1e-9, 1e-6, 0.0, -1e-12, -1e-9, -1e-6, -0.1]
# apex distances in hold distances
HOLDS = [1.0, 1.0 + 1e-9, 1.5, 3.0]
TETRAHEDRON = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0),
               (-1.0, -1.0, 1.0)]


def unit(v):
    return v / np.linalg.norm(v)


def uncovered(t):
    """Unit directions the plane tests of cones at the vectors t miss or
    only graze: each -t_k, both normals of each pair of them, and both
    normals of each face of the first four's tetrahedron (just outside a
    face, the outer one is seen by none)."""
    normals = [np.cross(a, b) for a, b in combinations(t, 2)] + [
        np.cross(b - a, c - a) for a, b, c in combinations(t[:4], 3)]
    return np.array([-unit(v) for v in t] + [
        s * unit(v) for v in normals if v.any() for s in (1.0, -1.0)])


def enclosing_vectors(rng, n, near, weight):
    """n vectors: four whose hull holds the origin at barycentric weights
    with the first near of them set to weight (then normalized), and n - 4
    nonnegative combinations of two or three of those four, which enclose
    the origin only with them."""
    w = rng.standard_normal((4, 3))
    lam = rng.dirichlet(np.ones(4))
    lam[:near] = weight
    lam /= lam.sum()
    t = list(w - lam @ w)
    for _ in range(n - 4):
        pick = rng.choice(4, size=int(rng.integers(2, 4)), replace=False)
        t.append(rng.random(len(pick)) @ np.array(t)[pick])
    return t


def kernel(points, apexes, phis, center, columns, holds, count):
    return visible_mask(points, apexes, None, phis, center, columns, holds,
                        count)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 8), near=st.integers(0, 2),
       weight=st.sampled_from(EDGE_WEIGHTS), seed=st.integers(0, 2 ** 32 - 1))
def test_count_and_mask_match_unculled_whatever_the_memo(n, near, weight,
                                                         seed):
    """Held swarms around, on and beside the center, with POIs in a ball
    and on the uncovered directions: count and mask equal
    unculled_mask's."""
    rng = np.random.default_rng(seed)
    center = CENTERS[rng.integers(len(CENTERS))]
    r0 = 10.0 ** rng.uniform(-1.0, 3.0)
    t = enclosing_vectors(rng, n, near, weight)
    order = rng.permutation(n)
    t = [t[k] for k in order]
    d = rng.standard_normal((200, 3))
    d = d / np.linalg.norm(d, axis=1, keepdims=True) * rng.random((200, 1))
    points = center + r0 * np.vstack([d, uncovered(t)])
    columns = poi_columns(points, center)
    phis = [float(rng.choice([np.pi / 3.0, rng.uniform(0.5, 3.0)]))
            for _ in range(n)]
    holds = [_hold_distance(phi, columns[1]) for phi in phis]
    apexes = np.array([center + hold * float(rng.choice(HOLDS)) * unit(v)
                       for v, hold in zip(t, holds)])
    axes = [unit_axis(a.tolist(), center.tolist()) for a in apexes]
    want = unculled_mask(points, apexes, axes, phis, center)
    args = points, apexes.tolist(), phis, center, columns, holds
    assert kernel(*args, True) == np.count_nonzero(want)
    np.testing.assert_array_equal(kernel(*args, False), want)


@pytest.mark.parametrize("mode", ["aimed", "theta_tilt"])
def test_scoring_leaves_the_plan_as_built(mode):
    # four 60 degree cones 3 R out at the corners of a regular tetrahedron
    # see every POI; evaluate, cost_breakdown and a noisy objective score
    # the swarm, and every attribute of the plan keeps its bytes
    e = UncertaintyEllipsoid.sphere(100.0)
    pois = sample_pois(e, 2000, 3)
    radius = pois.columns(e.center)[1]
    swarm = SwarmConfig([SpacecraftPose(3.0 * radius * unit(np.array(v)),
                                        0.0, 0.5, np.pi / 3.0)
                         for v in TETRAHEDRON], e)
    plan, x = EvalPlan(swarm, pois, orientation_mode=mode), decision(
        swarm.state, mode)
    built = {name: pickle.dumps(v) for name, v in vars(plan).items()}
    objective = swarm_objective(plan, (1.0, 3, 0))
    for _ in range(2):
        assert cost_breakdown(plan, x).visible_count == len(pois)
        assert evaluate(plan, x) == cost_breakdown(plan, x).information_cost
        objective(x)
    assert {name: pickle.dumps(v) for name, v in vars(plan).items()} == built
    assert plan_mask(swarm, pois, mode).all()


@pytest.mark.parametrize("radius, factor", [(100.0, 1e120), (1e-120, 3.0)],
                         ids=["overflow", "underflow"])
def test_certificate_declines_beyond_float_range(radius, factor):
    # a tetrahedron so large that its triple products overflow to inf (the
    # product runs) or so small that they underflow to 0 (the float64 test
    # runs, R lying below the float32 columns' range): every POI is still
    # counted and seen
    center, phis = np.zeros(3), [np.pi / 3.0] * 4
    points = sample_pois(UncertaintyEllipsoid.sphere(radius), 500, 5).points
    columns = poi_columns(points, center)
    holds = [_hold_distance(phi, columns[1]) for phi in phis]
    apexes = np.array([factor * columns[1] * unit(np.array(v))
                       for v in TETRAHEDRON])
    axes = [unit_axis(a.tolist(), center.tolist()) for a in apexes]
    want = unculled_mask(points, apexes, axes, phis, center)
    for count in (True, False):
        seen = kernel(points, apexes.tolist(), phis, center, columns, holds,
                      count)
        np.testing.assert_array_equal(seen, want.sum() if count else want)
    assert want.all()
