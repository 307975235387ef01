"""The evaluation plan against the objective it replaced, kept in
tests/reference.py: degeneracy loop, SwarmConfig.from_state, then the cost
of that swarm. Values must agree to the bit."""

import math
from dataclasses import astuple
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm.cost import (DEGENERACY_PENALTY, EvalPlan, SpacecraftPose,
                           SwarmConfig, evaluate, information_cost)
from isoswarm import neldermead
from isoswarm.geometry import TWO_PI
from isoswarm.neldermead import (NelderMeadOptions, _wrap, nelder_mead,
                                 optimize_swarm, swarm_objective)
from isoswarm.sampling import PoiSet, UncertaintyEllipsoid, sample_pois
from tests.reference import decision, reference_cost, reference_objective

MODES = ("aimed", "theta_tilt")

# thetas before NM's wrap: the seam, both sides of it, and values whose
# first remainder rounds up to 2 pi
SEAM_THETAS = (0.0, math.nextafter(TWO_PI, 0.0), TWO_PI,
               math.nextafter(TWO_PI, 7.0), -0.0, -1e-17, -5e-324,
               math.nextafter(0.0, -1.0), -TWO_PI, 3.0 * TWO_PI)


def scene(rng, n_craft, mode):
    """A random ellipsoid (centred or offset, r = 50-1000 km) with 300
    POIs, a template of n_craft spacecraft from 0.3 to 6 radii out, and
    cost options."""
    radius = rng.uniform(50.0, 1000.0)
    center = (0.0, 0.0, 0.0) if rng.random() < 0.5 else \
        rng.uniform(-1e4, 1e4, 3)
    ellipsoid = UncertaintyEllipsoid(
        np.asarray(center, float),
        tuple(radius * rng.uniform(0.5, 1.0, 3)))
    pois = sample_pois(ellipsoid, 300, int(rng.integers(1 << 30)))
    d = rng.standard_normal((n_craft, 3))
    d *= radius * rng.uniform(0.3, 6.0, (n_craft, 1)) / np.linalg.norm(
        d, axis=1, keepdims=True)
    template = SwarmConfig([SpacecraftPose(
        p + ellipsoid.center, t, rng.uniform(0.05, 1.5), rng.uniform(0.2, 2.5))
        for p, t in zip(d, rng.uniform(0.0, TWO_PI, n_craft))], ellipsoid)
    options = dict(orientation_mode=mode,
                   kappa_weight=float(rng.choice([1.0, 0.5, 180.0 / np.pi])))
    return pois, template, options


def plan_objective(pois, template, cost_mode=(0.0, 1, 0), **options):
    """swarm_objective on a plan of the template, with reference_objective's
    arguments."""
    return swarm_objective(EvalPlan(template, pois, **options), cost_mode)


def wrapped(x, n_craft):
    """x as nelder_mead hands it to the objective."""
    return _wrap(x.tolist(), range(3, 4 * n_craft, 4))


def same(a, b):
    return float(a).hex() == float(b).hex()


def scored_at(template, x, mode):
    """(template, vector) that score the wrapped packed list x in mode: the
    template and x in theta_tilt mode, else the template holding x's thetas
    (the plan's) and x's positions."""
    if mode == "theta_tilt":
        return template, x
    return SwarmConfig.from_state(x, template), decision(x)


@pytest.mark.parametrize("mode", MODES)
def test_plan_matches_reference_objective(mode):
    """Bit-equal values over 280 random scenes per mode, N = 1..7, each
    scored at its template, at a moved point and with seam thetas (an aimed
    point's thetas are its plan's)."""
    rng = np.random.default_rng(2024 + len(mode))
    scenes = 0
    for n_craft in range(1, 8):
        for _ in range(40):
            pois, template, options = scene(rng, n_craft, mode)
            x0 = template.state.flatten()
            moved = x0 + rng.normal(0.0, 20.0, x0.shape)
            seam = x0.copy()
            seam[3::4] = rng.choice(SEAM_THETAS, n_craft)
            for x in (x0, moved, seam):
                held, x = scored_at(template, wrapped(x, n_craft), mode)
                assert same(plan_objective(pois, held, **options)(x),
                            reference_objective(pois, held, **options)(x))
            scenes += 1
    assert scenes == 280


@pytest.mark.parametrize("mode", MODES)
def test_information_cost_matches_reference(mode):
    rng = np.random.default_rng(7)
    for n_craft in range(1, 8):
        pois, template, options = scene(rng, n_craft, mode)
        got = information_cost(template, pois, **options)
        assert same(got.information_cost,
                    reference_cost(template, pois, **options))


@pytest.mark.parametrize("n_craft", [1, 3])
def test_degeneracy_penalty_before_finite_check(n_craft):
    rng = np.random.default_rng(n_craft)
    pois, template, options = scene(rng, n_craft, "aimed")
    objectives = (plan_objective(pois, template, **options),
                  reference_objective(pois, template, **options))
    center = template.ellipsoid.center
    x = template.state[:, :3].flatten()
    x[-3:] = center + 1e-7  # the last spacecraft on the center
    if n_craft > 1:  # behind a non-finite one, it still gets the penalty
        x[0] = np.nan
    for objective in objectives:
        assert objective(x.tolist()) == DEGENERACY_PENALTY
    x[-3:] = center + 10.0 * template.ellipsoid.radii[0]
    for value in (np.nan, np.inf, -np.inf):
        x[0] = value
        for objective in objectives:
            with pytest.raises(ValueError,
                               match="position must be three finite reals"):
                objective(x.tolist())


@cache
def fixed_scene(n_craft, mode):
    """scene() drawn once per size and mode, with its plan and reference."""
    pois, template, options = scene(np.random.default_rng(n_craft), n_craft,
                                    mode)
    return (EvalPlan(template, pois, **options),
            reference_objective(pois, template, **options))


# any finite float, or one near the scenes' centers and radii
COORDINATES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.floats(-2e4, 2e4))


@settings(max_examples=300, deadline=None)
@given(n_craft=st.sampled_from([1, 3]), data=st.data())
def test_every_finite_vector_scores_as_the_reference(n_craft, data):
    """For any finite packed vector, in both modes (aimed at its
    positions), evaluate returns a finite value (the penalty among them)
    bit-equal to reference_objective's; a squared distance that overflows
    scores the penalty in both."""
    x = data.draw(st.lists(COORDINATES, min_size=4 * n_craft,
                           max_size=4 * n_craft))
    x = _wrap(x, range(3, 4 * n_craft, 4))
    for mode in MODES:
        plan, ref = fixed_scene(n_craft, mode)
        got = evaluate(plan, decision(x, mode))
        assert math.isfinite(got)
        assert same(got, ref(decision(x, mode)))


@pytest.mark.parametrize("mode", MODES)
def test_far_trial_point_scores_the_penalty(mode):
    # beyond about 1.3e154 km the squared distance overflows and no axis has
    # a finite norm: both modes score the penalty instead of raising
    pois, template, options = scene(np.random.default_rng(5), 2, mode)
    far = decision([1e200, 0.0, 0.0, 0.0, 0.0, -2e154, 0.0, 1.0], mode)
    near = decision(template.state, mode)
    k = len(far) // 2
    for make in (plan_objective, reference_objective):
        objective = make(pois, template, **options)
        assert objective([*far[:k], *near[k:]]) == DEGENERACY_PENALTY
        assert objective(far) == DEGENERACY_PENALTY
        assert make(pois, template, (2.0, 3, 5), **options)(far) == \
            DEGENERACY_PENALTY


def count_plans(monkeypatch):
    """A list that gets an entry per EvalPlan built."""
    builds, init = [], EvalPlan.__init__

    def spy(plan, *args, **kwargs):
        builds.append(1)
        init(plan, *args, **kwargs)

    monkeypatch.setattr(EvalPlan, "__init__", spy)
    return builds


def test_expected_cost_scores_from_the_objective_plan(monkeypatch):
    # the expected-cost objective scores on its one plan: no evaluation and
    # no optimize_swarm run builds another
    builds = count_plans(monkeypatch)
    pois, template, options = scene(np.random.default_rng(9), 3, "aimed")
    objective = plan_objective(pois, template, (3.0, 4, 1), **options)
    x = template.state[:, :3].flatten()
    for shift in range(5):
        objective((x + shift).tolist())
    assert builds == [1]
    optimize_swarm(pois, template, NelderMeadOptions(max_iterations=5),
                   (3.0, 4, 1), **options)
    assert builds == [1, 1]
    assert plan_objective(pois, template, (3.0, 4, 1), **options)(
        decision(template.state)) == objective(x.tolist())


def test_expected_cost_draws_its_noise_once(monkeypatch):
    pois, template, options = scene(np.random.default_rng(9), 3, "aimed")
    seeds, default_rng = [], np.random.default_rng

    def spy(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(neldermead.np.random, "default_rng", spy)
    objective = plan_objective(pois, template, (3.0, 4, 1), **options)
    x = template.state[:, :3].flatten()
    for shift in range(5):
        objective((x + shift).tolist())
    assert seeds == [1]


@pytest.mark.parametrize("offset", [0.0, 2e154])
def test_noisy_copy_on_the_center_or_far_scores_the_penalty(monkeypatch,
                                                            offset):
    # the first of two copies moves its first spacecraft onto the center,
    # or beyond the distance whose square overflows; the second is exact
    pois, template, options = scene(np.random.default_rng(4), 2, "aimed")
    x = template.state[:, :3].flatten()
    noise = np.zeros((2, 2, 3))
    noise[0, 0] = template.ellipsoid.center - x[:3] + [offset, 0.0, 0.0]

    class Drawn:
        def __init__(self, seed):
            pass

        def normal(self, loc, scale, size):
            assert size == noise.shape
            return noise

    monkeypatch.setattr(neldermead.np.random, "default_rng", Drawn)
    plan = EvalPlan(template, pois, **options)
    objective = swarm_objective(plan, (1.0, 2, 0))
    x = x.tolist()
    assert same(objective(x), (DEGENERACY_PENALTY + evaluate(plan, x)) / 2)


@pytest.mark.parametrize("stddev, n_samples", [
    (1.0, 0), (0.0, 0), (1.0, -1), (-1.0, 3), (math.nan, 3), (math.inf, 3)])
def test_bad_noise_rejected_when_the_objective_is_built(stddev, n_samples):
    pois, template, options = scene(np.random.default_rng(6), 2, "aimed")
    with pytest.raises(ValueError, match="n_samples >= 1"):
        plan_objective(pois, template, (stddev, n_samples, 0), **options)


@pytest.mark.parametrize("stddev", [0.0, 3.0])
@pytest.mark.parametrize("mode", MODES)
def test_expected_cost_matches_reference(mode, stddev):
    rng = np.random.default_rng(11)
    for n_craft in (1, 2, 5):
        pois, template, options = scene(rng, n_craft, mode)
        cost_mode = (stddev, 6, 99)
        ours = plan_objective(pois, template, cost_mode, **options)
        ref = reference_objective(pois, template, cost_mode, **options)
        x = template.state.flatten()
        for point in (x, x + rng.normal(0.0, 5.0, x.shape)):
            point = decision(wrapped(point, n_craft), mode)
            assert same(ours(point), ref(point))


def run_recorded(objective, x0, mode):
    points, values = [], []

    def f(x):
        points.append(x[:])
        values.append(objective(x))
        return values[-1]

    thetas = range(3, len(x0), 4) if mode == "theta_tilt" else ()
    res = nelder_mead(f, x0, NelderMeadOptions(max_iterations=60),
                      frozenset(thetas))
    return res, np.array(points), values


@pytest.mark.parametrize("n_craft, mode, cost_mode", [
    (1, "theta_tilt", (0.0, 1, 0)), (4, "aimed", (0.0, 1, 0)),
    (7, "aimed", (0.0, 1, 0)), (2, "theta_tilt", (2.0, 3, 5))],
    ids=lambda v: "deterministic" if v == (0.0, 1, 0) else None)
def test_nelder_mead_runs_match(n_craft, mode, cost_mode):
    rng = np.random.default_rng(n_craft)
    pois, template, options = scene(rng, n_craft, mode)
    x0 = np.array(decision(template.state, mode))
    (got, points, values), (want, want_points, want_values) = (
        run_recorded(make(pois, template, cost_mode, **options), x0, mode)
        for make in (plan_objective, reference_objective))
    np.testing.assert_array_equal(points.view(np.uint64),
                                  want_points.view(np.uint64))
    assert [v.hex() for v in values] == [v.hex() for v in want_values]
    assert (got.evaluation_count, got.iterations, got.converged) == \
        (want.evaluation_count, want.iterations, want.converged)
    assert same(got.best_value, want.best_value)
    np.testing.assert_array_equal(got.best_point.view(np.uint64),
                                  want.best_point.view(np.uint64))


def test_unknown_mode_and_empty_pois_rejected_by_plan():
    rng = np.random.default_rng(3)
    pois, template, _ = scene(rng, 2, "aimed")
    with pytest.raises(ValueError, match="unknown orientation mode"):
        EvalPlan(template, pois, orientation_mode="sideways")
    with pytest.raises(ValueError, match="unknown orientation mode"):
        optimize_swarm(pois, template, orientation_mode="sideways")
    empty = PoiSet(np.empty((0, 3)), 0, template.ellipsoid)
    for mode in ("aimed", "sideways"):  # the empty set is named first
        with pytest.raises(ValueError, match="POI set is empty"):
            optimize_swarm(empty, template, orientation_mode=mode)
        with pytest.raises(ValueError, match="POI set is empty"):
            information_cost(template, empty, orientation_mode=mode)


def breakdown_bits(breakdown):
    """A CostBreakdown's fields, each float as its hex string."""
    return [v.hex() if isinstance(v, float) else v
            for v in astuple(breakdown)]


@pytest.mark.parametrize("n_craft, mode", [
    (1, "aimed"), (2, "aimed"), (3, "aimed"), (4, "aimed"),
    (1, "theta_tilt")])
def test_final_breakdown_is_the_run_cost_at_its_best_point(monkeypatch,
                                                           n_craft, mode):
    """One cost path: optimize_swarm builds one plan, and the breakdown it
    returns is the cost at the best point on that plan, so its
    information_cost is the run's best_value, and it equals information_cost
    of the best swarm, to the bit; so does the expected cost at a zero
    stddev. A zero f_tolerance keeps each run going past a first plateau
    (the aimed N = 1 scene's three start directions see the same count)."""
    builds = count_plans(monkeypatch)
    pois, template, options = scene(np.random.default_rng(42 + n_craft),
                                    n_craft, mode)
    best, breakdown, result = optimize_swarm(
        pois, template, NelderMeadOptions(f_tolerance=0.0,
                                          max_iterations=100), **options)
    assert builds == [1]
    assert result.iterations > 1 and breakdown.visible_count > 0
    assert same(breakdown.information_cost, result.best_value)
    assert breakdown_bits(breakdown) == breakdown_bits(
        information_cost(best, pois, **options))
    assert same(plan_objective(pois, best, (0.0, 5, 3), **options)(
        decision(best.state, mode)), breakdown.information_cost)


@pytest.mark.xfail(strict=True, reason="nelder_mead ends on f_tol when every "
                   "start vertex scores the same count (CHANGES.md, the "
                   "FOUND line on the plateau stop)")
def test_aimed_run_leaves_its_start_plateau():
    """The aimed N = 1 scene of the final-breakdown test with the default
    options: its three start directions see 162 of 300 POIs each, so the
    run ends on f_tol at its first iteration, after 3 evaluations, at -54.0,
    while with f_tolerance=0.0 it reaches -54.33 (163 POIs). Strict, so the
    change that mends the stop has to turn this into a plain test."""
    pois, template, options = scene(np.random.default_rng(43), 1, "aimed")
    _, _, result = optimize_swarm(pois, template, NelderMeadOptions(),
                                  **options)
    assert result.iterations > 1 or result.termination != "f_tol"
