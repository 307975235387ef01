"""Aimed evaluations read the 3N positions only: the plan holds the swarm's
thetas and their overlap sum. Kept here as the reference is the packed 4N
(x, y, z, theta) layout the aimed cost read before, with its overlap sum
per evaluation and its -0.0 theta noise; values must agree to the bit."""

import math
from dataclasses import astuple
from functools import partial, reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm import cost
from isoswarm.cost import (DEGENERACY_PENALTY, DEGENERACY_RADIUS_KM,
                           CostBreakdown, EvalPlan, SpacecraftPose,
                           SwarmConfig, _overlap_sum, chart_apexes,
                           cost_breakdown, evaluate, evaluate_directions,
                           information_cost, visible_mask)
from isoswarm.geometry import TWO_PI
from isoswarm.neldermead import (NelderMeadOptions, lap_thetas, nelder_mead,
                                 optimize_swarm, swarm_objective)
from isoswarm.sampling import UncertaintyEllipsoid, sample_pois
from tests.reference import decision, packed, reference_objective


def packed_breakdown(plan, x):
    """The aimed CostBreakdown at the packed float list x: the overlap sum
    of x's thetas, then the kernel's count on x's apexes."""
    kappa = _overlap_sum(x[3::4], plan.nu)
    count = visible_mask(plan.points, list(zip(x[0::4], x[1::4], x[2::4])),
                         None, plan.phi, plan.center, plan.columns,
                         plan.holds, True)
    pct = 100.0 * count / plan.n
    return CostBreakdown(kappa, pct, plan.kappa_weight * kappa - pct, count,
                         plan.n)


def packed_evaluate(plan, x):
    """The aimed cost at the packed float list x: the degeneracy loop, the
    finite check and the overflow penalty, then packed_breakdown's cost."""
    cx, cy, cz = plan.c
    finite, far = True, False
    for px, py, pz in zip(x[0::4], x[1::4], x[2::4]):
        dx, dy, dz = px - cx, py - cy, pz - cz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist < DEGENERACY_RADIUS_KM:
            return DEGENERACY_PENALTY
        if not dist < math.inf:
            far = True
            finite = finite and all(map(math.isfinite, (px, py, pz)))
    if not finite:
        raise ValueError("position must be three finite reals")
    return DEGENERACY_PENALTY if far else \
        packed_breakdown(plan, x).information_cost


def packed_objective(plan, cost_mode):
    """The expected cost over the packed float list x: noise drawn as
    (n_samples, N, 3), padded with -0.0 per theta, added to x, and the
    mean of packed_evaluate over the copies, summed in order."""
    stddev, n_samples, seed = cost_mode
    score = partial(packed_evaluate, plan)
    if stddev == 0.0:
        return score
    n_craft = len(plan.phi)
    offsets = np.full((n_samples, n_craft, 4), -0.0)
    offsets[..., :3] = np.random.default_rng(seed).normal(
        0.0, stddev, (n_samples, n_craft, 3))
    offsets = offsets.reshape(n_samples, -1)
    return lambda x: reduce(
        add, map(score, (offsets + x).tolist()), 0.0) / n_samples


def bits(breakdown):
    return [v.hex() if isinstance(v, float) else v
            for v in astuple(breakdown)]


# any finite float, one near the scene, or one within the degeneracy radius
# of the center
COORDINATES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.floats(-2e3, 2e3),
                        st.floats(-DEGENERACY_RADIUS_KM / 2,
                                  DEGENERACY_RADIUS_KM / 2))
ANGLE = st.floats(0.05, 1.5)


@settings(max_examples=200, deadline=None)
@given(n_craft=st.integers(1, 4), data=st.data())
def test_aimed_positions_score_as_the_packed_layout(n_craft, data):
    """For N = 1-4 spacecraft of mixed widths and thetas (ties among them)
    at any finite positions, degenerate and overflowing ones included,
    evaluate and cost_breakdown at the positions equal the packed layout at
    (positions, plan thetas), and the tests' swarm-object reference, bit
    for bit; so does the expected cost at a positive stddev."""
    draw = data.draw
    center = np.array(draw(st.sampled_from([(0.0, 0.0, 0.0),
                                            (300.0, -50.0, 20.0)])))
    ellipsoid = UncertaintyEllipsoid.sphere(100.0, center)
    pois = sample_pois(ellipsoid, 200, draw(st.integers(0, 2 ** 16)))
    thetas = draw(st.lists(st.sampled_from([0.0, 1.0, 3.0, 6.0]) | st.floats(
        0.0, TWO_PI, exclude_max=True), min_size=n_craft, max_size=n_craft))
    template = SwarmConfig(
        [SpacecraftPose(center + [400.0, 0.0, 0.0], t, draw(ANGLE),
                        draw(ANGLE) + 0.5) for t in thetas], ellipsoid)
    options = dict(kappa_weight=draw(st.sampled_from([1.0, 180.0 / np.pi])))
    positions = draw(st.lists(COORDINATES, min_size=3 * n_craft,
                              max_size=3 * n_craft))
    if draw(st.booleans()):  # a spacecraft placed on the center
        k = 3 * draw(st.integers(0, n_craft - 1))
        positions[k:k + 3] = center.tolist()
    plan, ref_plan = (EvalPlan(template, pois, **options) for _ in range(2))
    x = packed(positions, template.state[:, 3])

    got = evaluate(plan, positions)
    assert math.isfinite(got)
    assert got.hex() == packed_evaluate(ref_plan, x).hex()
    assert got.hex() == reference_objective(pois, template,
                                            **options)(positions).hex()
    if got != DEGENERACY_PENALTY:
        assert bits(cost_breakdown(plan, positions)) == \
            bits(packed_breakdown(ref_plan, x))
    cost_mode = (draw(st.sampled_from([0.5, 3.0, 50.0])),
                 draw(st.integers(1, 4)), draw(st.integers(0, 99)))
    assert swarm_objective(plan, cost_mode)(positions).hex() == \
        packed_objective(ref_plan, cost_mode)(x).hex()


def count_overlap_sums(monkeypatch):
    """A list that gets an entry per cost._overlap_sum call."""
    calls, real = [], cost._overlap_sum

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(cost, "_overlap_sum", spy)
    return calls


# a budget every run spends in full: 30 iterations, more evaluations
BUDGET = NelderMeadOptions(max_iterations=30, f_tolerance=0.0,
                           x_tolerance=0.0)


def scene(n, seed):
    """n aimed spacecraft 1.5-4 radii from a 100 km sphere with 400 POIs."""
    rng = np.random.default_rng(seed)
    ellipsoid = UncertaintyEllipsoid.sphere(100.0)
    d = rng.standard_normal((n, 3))
    d *= rng.uniform(150.0, 400.0, (n, 1)) / np.linalg.norm(
        d, axis=1, keepdims=True)
    swarm = SwarmConfig([SpacecraftPose(p, t, nu, math.pi / 3) for p, t, nu
                         in zip(d, rng.uniform(0.0, TWO_PI, n),
                                rng.uniform(0.2, 1.2, n))], ellipsoid)
    return sample_pois(ellipsoid, 400, seed), swarm


@pytest.mark.parametrize("n, cost_mode", [
    (1, (0.0, 1, 0)), (3, (0.0, 1, 0)), (7, (0.0, 1, 0)), (3, (2.0, 5, 1))])
def test_aimed_run_sums_the_overlaps_once(monkeypatch, n, cost_mode):
    """An aimed run sums the pairwise overlaps once, when its plan is built:
    not per evaluation, per noisy copy or for the final breakdown."""
    calls = count_overlap_sums(monkeypatch)
    pois, swarm = scene(n, n)
    _, breakdown, result = optimize_swarm(pois, swarm, BUDGET, cost_mode)
    assert result.evaluation_count > 30 and len(calls) == 1
    assert breakdown.kappa_total == _overlap_sum(
        lap_thetas(swarm.nu.tolist()), swarm.nu.tolist())


def test_theta_tilt_run_sums_the_overlaps_per_evaluation(monkeypatch):
    """A theta_tilt run searches the thetas, so each evaluation sums the
    overlaps of its own, and so does the final breakdown."""
    calls = count_overlap_sums(monkeypatch)
    pois, swarm = scene(2, 4)
    _, _, result = optimize_swarm(pois, swarm, BUDGET,
                                  orientation_mode="theta_tilt")
    assert result.evaluation_count > 30
    assert len(calls) == result.evaluation_count + 1


def test_theta_tilt_run_of_one_takes_the_plans_kappa(monkeypatch):
    """A swarm of one has no pair, so no theta can change its kappa: a
    theta_tilt run sums the overlaps at most once, when its plan is built,
    and its breakdown's kappa_total is +0.0, the bits of information_cost's
    at the best swarm."""
    calls = count_overlap_sums(monkeypatch)
    pois, swarm = scene(1, 4)
    best, breakdown, result = optimize_swarm(pois, swarm, BUDGET,
                                             orientation_mode="theta_tilt")
    assert result.evaluation_count > 30
    assert len(calls) <= 1
    want = information_cost(best, pois, orientation_mode="theta_tilt")
    assert breakdown.kappa_total.hex() == want.kappa_total.hex() == \
        (0.0).hex()
    assert breakdown.information_cost == result.best_value


@pytest.mark.parametrize("n, cost_mode", [(2, (0.0, 1, 0)), (4, (3.0, 3, 2))])
def test_aimed_run_is_nelder_mead_over_the_placed_positions(n, cost_mode):
    """optimize_swarm's aimed run is nelder_mead on a plan of the swarm with
    lap_thetas placed, bit for bit: over the 2N chart coordinates of
    evaluate_directions from zero under a zero stddev, else over the 3N
    positions; its swarm holds those thetas at the best point's
    positions."""
    pois, swarm = scene(n, 10 + n)
    start = swarm.state.copy()
    opts = NelderMeadOptions(max_iterations=40)
    best, breakdown, result = optimize_swarm(pois, swarm, opts, cost_mode)
    np.testing.assert_array_equal(swarm.state, start)  # the caller's swarm
    state = swarm.state.copy()
    state[:, 3] = lap_thetas(swarm.nu.tolist())
    placed = SwarmConfig.from_state(state, swarm)
    plan = EvalPlan(placed, pois)
    if cost_mode[0] == 0.0:
        want = nelder_mead(partial(evaluate_directions, plan), [0.0] * 2 * n,
                           opts)
        positions = np.ravel(chart_apexes(plan, want.best_point.tolist()))
    else:
        want = nelder_mead(swarm_objective(plan, cost_mode), decision(state),
                           opts)
        positions = want.best_point
    np.testing.assert_array_equal(result.best_point.view(np.uint64),
                                  want.best_point.view(np.uint64))
    assert (result.evaluation_count, result.best_at,
            result.best_value.hex()) == \
        (want.evaluation_count, want.best_at, want.best_value.hex())
    np.testing.assert_array_equal(best.state[:, :3].ravel(), positions)
    np.testing.assert_array_equal(best.state[:, 3], state[:, 3])
    assert bits(breakdown) == bits(cost_breakdown(plan, positions.tolist()))
