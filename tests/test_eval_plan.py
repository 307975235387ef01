"""The evaluation plan against the objective it replaced, kept in
tests/reference.py: degeneracy loop, SwarmConfig.from_state, then the cost
of that swarm. Values must agree to the bit."""

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm.cost import (DEGENERACY_PENALTY, EvalPlan, SpacecraftPose,
                           SwarmConfig, evaluate, expected_information_cost,
                           information_cost)
from isoswarm.geometry import TWO_PI
from isoswarm.neldermead import (NelderMeadOptions, OptimizationProblem,
                                 _wrap, nelder_mead, pack_swarm,
                                 swarm_objective)
from isoswarm.sampling import PoiSet, UncertaintyEllipsoid, sample_pois
from tests.reference import reference_cost, reference_objective

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


def wrapped(x, n_craft):
    """x as nelder_mead hands it to the objective."""
    return _wrap(x.tolist(), range(3, 4 * n_craft, 4))


def same(a, b):
    return float(a).hex() == float(b).hex()


@pytest.mark.parametrize("mode", MODES)
def test_plan_matches_reference_objective(mode):
    """Bit-equal values over 280 random scenes per mode, N = 1..7, each
    scored at its template, at a moved point and with seam thetas."""
    rng = np.random.default_rng(2024 + len(mode))
    scenes = 0
    for n_craft in range(1, 8):
        for _ in range(40):
            pois, template, options = scene(rng, n_craft, mode)
            ours = swarm_objective(pois, template, **options)
            ref = reference_objective(pois, template, **options)
            x0 = pack_swarm(template)
            moved = x0 + rng.normal(0.0, 20.0, x0.shape)
            seam = x0.copy()
            seam[3::4] = rng.choice(SEAM_THETAS, n_craft)
            for x in (x0, moved, seam):
                x = wrapped(x, n_craft)
                assert same(ours(x), ref(x))
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
    objectives = (swarm_objective(pois, template, **options),
                  reference_objective(pois, template, **options))
    center = template.ellipsoid.center
    x = pack_swarm(template)
    x[-4:-1] = center + 1e-7  # the last spacecraft on the center
    if n_craft > 1:  # behind a non-finite one, it still gets the penalty
        x[0] = np.nan
    for objective in objectives:
        assert objective(wrapped(x, n_craft)) == DEGENERACY_PENALTY
    x[-4:-1] = center + 10.0 * template.ellipsoid.radii[0]
    for value in (np.nan, np.inf, -np.inf):
        x[0] = value
        for objective in objectives:
            with pytest.raises(ValueError,
                               match="vector components must be finite"):
                objective(wrapped(x, n_craft))


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
    """For any finite packed vector, in both modes, evaluate returns a
    finite value (the penalty among them) bit-equal to reference_objective's;
    a squared distance that overflows scores the penalty in both."""
    x = data.draw(st.lists(COORDINATES, min_size=4 * n_craft,
                           max_size=4 * n_craft))
    x = _wrap(x, range(3, 4 * n_craft, 4))
    for mode in MODES:
        plan, ref = fixed_scene(n_craft, mode)
        got = evaluate(plan, x)
        assert math.isfinite(got)
        assert same(got, ref(x))


@pytest.mark.parametrize("mode", MODES)
def test_far_trial_point_scores_the_penalty(mode):
    # beyond about 1.3e154 km the squared distance overflows and no axis has
    # a finite norm: both modes score the penalty instead of raising
    pois, template, options = scene(np.random.default_rng(5), 2, mode)
    far = [1e200, 0.0, 0.0, 0.0, 0.0, -2e154, 0.0, 1.0]
    for make in (swarm_objective, reference_objective):
        objective = make(pois, template, **options)
        assert objective([*far[:4], *pack_swarm(template)[4:]]) == \
            DEGENERACY_PENALTY
        assert objective(far) == DEGENERACY_PENALTY
        assert make(pois, template, (2.0, 3, 5), **options)(far) == \
            DEGENERACY_PENALTY


def test_expected_cost_scores_from_the_objective_plan(monkeypatch):
    # the expected-cost objective builds its plan once, not per evaluation
    builds, init = [], EvalPlan.__init__

    def spy(plan, *args, **kwargs):
        builds.append(1)
        init(plan, *args, **kwargs)

    monkeypatch.setattr(EvalPlan, "__init__", spy)
    pois, template, options = scene(np.random.default_rng(9), 3, "aimed")
    objective = swarm_objective(pois, template, (3.0, 4, 1), **options)
    x = pack_swarm(template)
    for shift in range(5):
        objective(wrapped(x + shift, 3))
    assert builds == [1]
    assert expected_information_cost(template, pois, 3.0, 4, 1,
                                     **options) == objective(wrapped(x, 3))


@pytest.mark.parametrize("stddev", [0.0, 3.0])
@pytest.mark.parametrize("mode", MODES)
def test_expected_cost_matches_reference(mode, stddev):
    rng = np.random.default_rng(11)
    for n_craft in (1, 2, 5):
        pois, template, options = scene(rng, n_craft, mode)
        cost_mode = (stddev, 6, 99)
        ours = swarm_objective(pois, template, cost_mode, **options)
        ref = reference_objective(pois, template, cost_mode, **options)
        x = pack_swarm(template)
        for point in (x, x + rng.normal(0.0, 5.0, x.shape)):
            point = wrapped(point, n_craft)
            assert same(ours(point), ref(point))


def run_recorded(objective, x0):
    points, values = [], []

    def f(x):
        points.append(x[:])
        values.append(objective(x))
        return values[-1]

    problem = OptimizationProblem(len(x0), f, frozenset(range(3, len(x0), 4)))
    res = nelder_mead(problem, x0, NelderMeadOptions(
        theta_initial_step=0.5, max_iterations=60))
    return res, np.array(points), values


@pytest.mark.parametrize("n_craft, mode, cost_mode", [
    (1, "theta_tilt", "deterministic"), (4, "aimed", "deterministic"),
    (7, "aimed", "deterministic"), (2, "theta_tilt", (2.0, 3, 5))])
def test_nelder_mead_runs_match(n_craft, mode, cost_mode):
    rng = np.random.default_rng(n_craft)
    pois, template, options = scene(rng, n_craft, mode)
    x0 = pack_swarm(template)
    (got, points, values), (want, want_points, want_values) = (
        run_recorded(make(pois, template, cost_mode, **options), x0)
        for make in (swarm_objective, reference_objective))
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
        swarm_objective(pois, template, orientation_mode="sideways")
    empty = PoiSet(np.empty((0, 3)), 0, template.ellipsoid)
    for mode in ("aimed", "sideways"):  # the empty set is named first
        with pytest.raises(ValueError, match="POI set is empty"):
            swarm_objective(empty, template, orientation_mode=mode)
        with pytest.raises(ValueError, match="POI set is empty"):
            information_cost(template, empty, orientation_mode=mode)
