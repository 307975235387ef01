"""The deterministic aimed search over directions. An aimed cone at or
beyond its hold distance sees the near half-space of its direction, and a
nearer one sees no more than it would farther out, so optimize_swarm places
each spacecraft at max(start distance, hold distance) once and searches the
2N chart coordinates of cost._chart (cost.chart_apexes). The geometry is
checked against tests/conftest.py's unculled_mask."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm.cost import (DEGENERACY_PENALTY, EvalPlan, SpacecraftPose,
                           SwarmConfig, chart_apexes, evaluate,
                           evaluate_directions)
from isoswarm.experiments import load_experiment_config, run_experiment
from isoswarm.geometry import (_SLACK, DegenerateGeometryError,
                               _hold_distance, unit_axis)
from isoswarm.neldermead import NelderMeadOptions, optimize_swarm
from isoswarm.sampling import UncertaintyEllipsoid, sample_pois
from tests.conftest import unculled_mask

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 1e-3)
CENTER = st.sampled_from([(0.0, 0.0, 0.0), (300.0, -50.0, 20.0),
                          (1e4, 2e3, -7e3)])


def cone_scene(draw):
    """(points, center, unit direction t, phi, hold distance) of a random
    sphere of 300 POIs and an aperture with a finite hold distance."""
    center = np.array(draw(CENTER))
    radius = draw(st.floats(1.0, 1e4))
    pois = sample_pois(UncertaintyEllipsoid.sphere(radius, center), 300,
                       draw(st.integers(0, 2 ** 16)))
    t = np.array(draw(DIRECTION))
    t /= np.linalg.norm(t)
    phi = draw(st.floats(1e-3, 3.0))
    return (pois.points, center, t, phi,
            _hold_distance(phi, pois.columns(center)[1]))


def seen_from(points, center, t, phi, dist):
    """unculled_mask of the aimed cone dist along t from the center."""
    apex = center + dist * t
    return unculled_mask(points, [apex], [unit_axis(apex, center.tolist())],
                         [phi], center)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_count_is_constant_at_or_beyond_the_hold_distance(data):
    """At any two distances at or beyond the hold distance a cone sees the
    near half-space (point - center) . t >= 0 of its direction t, so the
    same POIs, once those within the slack band of the center plane are
    set aside."""
    points, center, t, phi, hold = cone_scene(data.draw)
    near, far = sorted(hold * data.draw(st.floats(1.0, 50.0))
                       for _ in range(2))
    h = (points - center) @ t
    outside = np.abs(h) > 2.0 * _SLACK * far
    masks = [seen_from(points, center, t, phi, d) for d in (near, far)]
    np.testing.assert_array_equal(masks[0][outside], masks[1][outside])
    np.testing.assert_array_equal(masks[0][outside], h[outside] >= 0.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_count_never_falls_as_a_nearer_cone_backs_away(data):
    """Below the hold distance a cone sees no POI that it would not see
    farther out along the same direction: the cone widens at the ball and
    the points behind its apex come in front of it."""
    points, center, t, phi, hold = cone_scene(data.draw)
    near = hold * data.draw(st.floats(0.01, 1.0))
    far = near * data.draw(st.floats(1.0, 3.0))
    nearer, farther = (seen_from(points, center, t, phi, d)
                       for d in (near, far))
    assert not np.any(nearer & ~farther)
    assert np.count_nonzero(nearer) <= np.count_nonzero(farther)


def swarm_at(center, radius, starts, phis, seed=0):
    """POIs of a sphere and a swarm of aimed spacecraft at the given
    offsets from its center."""
    ellipsoid = UncertaintyEllipsoid.sphere(radius, np.asarray(center, float))
    pois = sample_pois(ellipsoid, 400, seed)
    swarm = SwarmConfig([SpacecraftPose(ellipsoid.center + p, 0.0, 0.4, phi)
                         for p, phi in zip(np.asarray(starts, float), phis)],
                        ellipsoid)
    return pois, swarm


@pytest.mark.parametrize("seed", range(4))
def test_run_places_each_craft_at_its_start_or_hold_distance(seed):
    """optimize_swarm returns each spacecraft max(start distance, hold
    distance) from the center, to rounding; one whose aperture has no finite
    hold distance keeps its start distance, even inside the ball's 2 R."""
    rng = np.random.default_rng(seed)
    n = 5
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dists = rng.uniform(50.0, 500.0, n)
    phis = rng.uniform(0.3, 2.5, n)
    phis[0], dists[0] = 1.0, 150.0  # inside its 208.6 km
    phis[1], dists[1] = 1e-7, 120.0
    center = rng.uniform(-1e3, 1e3, 3)
    pois, swarm = swarm_at(center, 100.0, dirs * dists[:, None], phis, seed)
    best, breakdown, result = optimize_swarm(
        pois, swarm, NelderMeadOptions(max_iterations=40))
    holds = EvalPlan(swarm, pois).holds
    assert holds[1] == math.inf and holds[0] > 150.0
    want = [d if h == math.inf else max(d, h) for d, h in zip(dists, holds)]
    got = np.linalg.norm(best.state[:, :3] - center, axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert result.best_point.shape == (2 * n,)
    assert breakdown.information_cost == result.best_value


@settings(max_examples=200, deadline=None)
@given(n_craft=st.integers(1, 4), center=CENTER, data=st.data())
def test_chart_coordinates_score_as_evaluate_at_their_apexes(n_craft, center,
                                                             data):
    """For any finite chart coordinates, huge ones included, each apex
    stands rho from the center (to rounding) and evaluate_directions is
    evaluate at the apexes, bit for bit, with no degeneracy penalty."""
    draw = data.draw
    dirs = [np.array(draw(DIRECTION)) for _ in range(n_craft)]
    starts = [d / np.linalg.norm(d) * draw(st.floats(0.0, 800.0))
              for d in dirs]
    phis = [draw(st.floats(0.05, 2.5)) for _ in range(n_craft)]
    pois, swarm = swarm_at(center, 100.0, starts, phis)
    plan = EvalPlan(swarm, pois)
    x = draw(st.lists(st.floats(-1e3, 1e3) | st.floats(
        allow_nan=False, allow_infinity=False), min_size=2 * n_craft,
        max_size=2 * n_craft))
    apexes = chart_apexes(plan, x)
    rho = [math.hypot(*chart[:3]) for chart in plan.charts]
    got = np.linalg.norm(np.subtract(apexes, center), axis=1)
    np.testing.assert_allclose(got, rho, rtol=1e-12, atol=1e-9)
    value = evaluate_directions(plan, x)
    assert value != DEGENERACY_PENALTY
    assert value.hex() == evaluate(plan, np.ravel(apexes).tolist()).hex()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_chart_coordinates_raise(bad):
    pois, swarm = swarm_at((0.0, 0.0, 0.0), 100.0, [[300.0, 0.0, 0.0]],
                           [1.0])
    with pytest.raises(ValueError, match="chart coordinates must be finite"):
        evaluate_directions(EvalPlan(swarm, pois), [0.0, bad])


@pytest.mark.parametrize("offset", [0.0, 5e-7])
def test_start_on_the_center_takes_the_x_axis(offset):
    """A start within DEGENERACY_RADIUS_KM of the center has no direction:
    its chart takes the x axis at the hold distance, so the run neither
    raises nor scores a NaN, and the spacecraft ends at its hold distance."""
    center = (300.0, -50.0, 20.0)
    pois, swarm = swarm_at(center, 100.0, [[offset, 0.0, 0.0],
                                           [0.0, 400.0, 0.0]], [1.0, 1.0])
    plan = EvalPlan(swarm, pois)
    hold = plan.holds[0]
    assert plan.charted and plan.charts[0][:3] == (hold, 0.0, 0.0)
    assert chart_apexes(plan, [0.0] * 4)[0] == (center[0] + hold, *center[1:])
    best, breakdown, result = optimize_swarm(
        pois, swarm, NelderMeadOptions(max_iterations=30))
    assert math.isfinite(result.best_value)
    assert breakdown.information_cost == result.best_value
    assert math.dist(best.state[0, :3], center) == pytest.approx(hold,
                                                                 rel=1e-12)


@pytest.mark.parametrize("far", [1e200, 2e154])
def test_start_whose_square_overflows_scores_the_penalty(far):
    """A start whose squared distance from the center overflows has no
    chart: every chart point scores DEGENERACY_PENALTY, as its position does,
    and optimize_swarm raises DegenerateGeometryError."""
    pois, swarm = swarm_at((0.0, 0.0, 0.0), 100.0, [[far, 0.0, 0.0],
                                                    [0.0, 400.0, 0.0]],
                           [1.0, 1.0])
    plan = EvalPlan(swarm, pois)
    assert not plan.charted and plan.charts[0] is None
    for x in ([0.0] * 4, [0.3, -2.0, 1e300, 5.0]):
        assert evaluate_directions(plan, x) == DEGENERACY_PENALTY
    assert evaluate(plan, swarm.state[:, :3].ravel().tolist()) == \
        DEGENERACY_PENALTY
    with pytest.raises(DegenerateGeometryError, match="no direction"):
        optimize_swarm(pois, swarm)


def test_center_start_with_no_hold_distance_raises():
    """An aperture with no finite hold distance keeps its start distance, so
    a start on the center has neither a direction nor a distance to
    search."""
    pois, swarm = swarm_at((0.0, 0.0, 0.0), 100.0, [[0.0, 0.0, 0.0]], [1e-7])
    plan = EvalPlan(swarm, pois)
    assert plan.holds == [math.inf] and not plan.charted
    assert evaluate_directions(plan, [0.0, 0.0]) == DEGENERACY_PENALTY
    with pytest.raises(DegenerateGeometryError, match="no direction"):
        optimize_swarm(pois, swarm)


def test_bundled_swarm_size_campaign_covers_every_poi_for_two_to_five():
    """configs/experiment2.json: every N = 2-5 cell ends at -I of at least
    99.9, its floor being 100 (nu = pi / 6 lets up to six arcs lie apart);
    a search over positions stopped one N = 2 cell at 83.12 on a coverage
    plateau."""
    report = run_experiment(load_experiment_config(
        CONFIGS / "experiment2.json"))
    cells = [t for t in report.trials if 2 <= t["n_spacecraft"] <= 5]
    assert len(cells) == 12
    assert min(t["minus_info_cost"] for t in cells) >= 99.9
