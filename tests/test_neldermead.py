import math

import numpy as np
import pytest

from isoswarm.cost import (SpacecraftPose, SwarmConfig, _arc_overlap, _axis,
                           information_cost)
from isoswarm.neldermead import (DEGENERACY_PENALTY, NelderMeadOptions,
                                 ObjectiveDomainError, OptimizationProblem,
                                 nelder_mead, optimize_swarm, pack_swarm,
                                 swarm_objective, unpack_swarm)
from isoswarm.sampling import UncertaintyEllipsoid, sample_pois


def solve(func, x0, dim=None, theta=frozenset(), **opt_kw):
    problem = OptimizationProblem(dim or len(x0), func, theta)
    return nelder_mead(problem, np.asarray(x0, float),
                       NelderMeadOptions(**opt_kw))


def test_quadratic_bowl():
    res = solve(lambda x: float(np.sum((x - 3.0) ** 2)), [0.0, 0.0, 0.0])
    assert res.converged
    np.testing.assert_allclose(res.best_point, 3.0, atol=1e-3)
    assert res.best_value < 1e-6


def test_rosenbrock():
    def rosen(x):
        return float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

    res = solve(rosen, [-1.2, 1.0], max_iterations=2000, f_tolerance=1e-12,
                x_tolerance=1e-12)
    np.testing.assert_allclose(res.best_point, [1.0, 1.0], atol=1e-4)


def test_matches_scipy_on_quartic():
    from scipy.optimize import minimize

    def func(x):
        return float((x[0] - 2) ** 4 + (x[0] - 2 * x[1]) ** 2)

    x0 = [0.0, 3.0]
    ours = solve(func, x0, max_iterations=2000, f_tolerance=1e-12,
                 x_tolerance=1e-12)
    ref = minimize(func, x0, method="Nelder-Mead",
                   options=dict(xatol=1e-10, fatol=1e-10))
    assert ours.best_value == pytest.approx(ref.fun, abs=1e-6)
    np.testing.assert_allclose(ours.best_point, ref.x, atol=1e-3)


def test_theta_coordinate_wrapped():
    # minimum of 1 - cos(theta - 5.5) on the circle is theta = 5.5; starting
    # near zero the wrapped search must cross the 0/2pi seam
    res = solve(lambda x: float(1.0 - np.cos(x[0] - 5.5)), [0.2],
                theta=frozenset({0}), max_iterations=500)
    assert 0.0 <= res.best_point[0] < 2 * np.pi
    assert res.best_point[0] == pytest.approx(5.5, abs=1e-3)


def test_wrap_applied_before_every_evaluation():
    seen = []

    def func(x):
        seen.append(x[0])
        return float((x[0] - 1.0) ** 2)

    solve(func, [8.0], theta=frozenset({0}), max_iterations=50)
    assert all(0.0 <= t < 2 * np.pi for t in seen)


SEAM_TARGET = (300.0, 40.0, -20.0)
SEAM_THETA = 0.05


@pytest.mark.parametrize("mode", ["aimed", "theta_tilt"])
def test_simplex_continuous_across_theta_seam(mode):
    """A (x, y, z, theta) objective with its minimum 0 at SEAM_TARGET and
    theta = 0.05, from the cost's own theta terms: the squared shortfall of
    the FOV-interval overlap with an interval centred on 0.05 ("aimed"), or
    the tilted camera axis against the axis tilted by 0.05 ("theta_tilt").
    Started at theta = 6.0 with a 0.5 step, the simplex straddles 2 pi from
    the first vertex on. With wrapped vertices it stalls near 0.2; kept
    continuous, it converges to the minimum inside its budget."""
    nu, center = math.pi / 6.0, [0.0, 0.0, 0.0]
    ref = _axis([*SEAM_TARGET, SEAM_THETA], center, "theta_tilt")
    seen = []

    def objective(x):
        seen.append(x[3])
        row = x.tolist()
        miss = sum((a - b) ** 2 for a, b in zip(row[:3], SEAM_TARGET)) / 1e4
        if mode == "aimed":
            overlap = _arc_overlap(row[3], SEAM_THETA, nu, nu, 0.0)
            return miss + (2.0 * nu - overlap) ** 2
        axis = _axis(row, center, mode)
        return miss + 1.0 - sum(a * b for a, b in zip(axis, ref))

    res = solve(objective, [250.0, 0.0, 0.0, 6.0], theta=frozenset({3}),
                theta_initial_step=0.5, max_iterations=400)
    assert res.converged and res.iterations < 400
    assert res.best_value < 1e-6
    assert res.best_point[3] == pytest.approx(SEAM_THETA, abs=1e-3)
    np.testing.assert_allclose(res.best_point[:3], SEAM_TARGET, atol=0.1)
    assert all(0.0 <= t < 2 * np.pi for t in seen)
    assert min(seen) < 0.5 and max(seen) > 5.5


def test_evaluation_accounting():
    count = [0]

    def func(x):
        count[0] += 1
        return float(np.sum(x ** 2))

    res = solve(func, [1.0, 2.0])
    assert res.evaluation_count == count[0]
    assert res.iterations <= 400  # 200 * dim default cap


def test_budget_exhaustion_not_converged():
    res = solve(lambda x: float(np.sum(x ** 2)), [50.0, 50.0],
                max_iterations=3)
    assert not res.converged
    assert res.iterations == 3


def test_trace_monotone_best():
    sink = []
    problem = OptimizationProblem(2, lambda x: float(np.sum((x - 1) ** 2)))
    res = nelder_mead(problem, np.array([10.0, -10.0]), NelderMeadOptions(),
                      trace_sink=lambda i, b, d: sink.append((i, b, d)))
    bests = [b for _, b, _ in sink]
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    assert [i for i, _, _ in sink] == list(range(1, res.iterations + 1))
    assert bests[-1] == res.best_value


def test_determinism():
    def func(x):
        return float(np.sum(np.sin(x) ** 2) + 0.01 * np.sum(x ** 2))

    a = solve(func, [2.0, -1.0, 0.5])
    b = solve(func, [2.0, -1.0, 0.5])
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_value == b.best_value
    assert a.evaluation_count == b.evaluation_count


def test_nonfinite_objective_raises():
    with pytest.raises(ObjectiveDomainError):
        solve(lambda x: float("nan"), [1.0])


def test_pack_unpack_round_trip():
    e = UncertaintyEllipsoid.sphere(10.0)
    s = SwarmConfig((
        SpacecraftPose(np.array([1.0, 2.0, 3.0]), 0.5, 0.3, 1.0),
        SpacecraftPose(np.array([-4.0, 5.0, -6.0]), 2.5, 0.2, 0.9),
    ), e)
    back = unpack_swarm(pack_swarm(s), s)
    for a, b in zip(s.spacecraft, back.spacecraft):
        np.testing.assert_array_equal(a.position, b.position)
        assert (a.theta, a.nu, a.phi) == (b.theta, b.nu, b.phi)


def test_unpack_rejects_nonfinite_position():
    e = UncertaintyEllipsoid.sphere(10.0)
    s = SwarmConfig((SpacecraftPose(np.array([5.0, 0.0, 0.0]), 0.0, 0.3, 1.0),), e)
    x = pack_swarm(s)
    x[1] = np.inf
    with pytest.raises(ValueError):
        unpack_swarm(x, s)


def test_degeneracy_penalty_at_center():
    e = UncertaintyEllipsoid.sphere(10.0)
    pois = sample_pois(e, 50, 1)
    s = SwarmConfig((SpacecraftPose(np.array([5.0, 0.0, 0.0]), 0.0, 0.3, 1.0),), e)
    obj = swarm_objective(pois, s)
    x = pack_swarm(s)
    x[:3] = e.center
    assert obj(x) == DEGENERACY_PENALTY


def test_optimize_swarm_improves_cost():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 400, 7)
    init = SwarmConfig(
        (SpacecraftPose(np.array([220.0, 140.0, -90.0]), 1.0, np.pi / 6, np.pi / 3),),
        e,
    )
    start = information_cost(init, pois).information_cost
    best, breakdown, res = optimize_swarm(pois, init)
    assert breakdown.information_cost <= start
    assert res.best_value == pytest.approx(breakdown.information_cost)
    assert breakdown.epsilon_term > 0.0


def test_optimize_swarm_two_craft_beat_one():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 600, 11)

    def run(positions, thetas):
        init = SwarmConfig(tuple(
            SpacecraftPose(np.array(p, float), t, np.pi / 6, np.pi / 3)
            for p, t in zip(positions, thetas)
        ), e)
        _, breakdown, _ = optimize_swarm(pois, init)
        return breakdown

    one = run([(300.0, 40.0, 0.0)], [0.5])
    two = run([(300.0, 40.0, 0.0), (-260.0, -30.0, 50.0)], [0.5, 3.5])
    # a single craft is blocked by the dividing plane; two opposed craft
    # cover both hemispheres
    assert one.epsilon_term <= 65.0
    assert two.epsilon_term > one.epsilon_term + 20.0


def test_optimize_swarm_mc_mode_runs():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 200, 5)
    init = SwarmConfig(
        (SpacecraftPose(np.array([250.0, 0.0, 0.0]), 0.0, np.pi / 6, np.pi / 3),),
        e,
    )
    best, breakdown, res = optimize_swarm(
        pois, init, NelderMeadOptions(max_iterations=40),
        cost_mode=(2.0, 8, 123))
    assert np.isfinite(res.best_value)
    assert len(best) == 1


@pytest.mark.parametrize("max_iterations", [0, -3])
def test_options_reject_empty_budget(max_iterations):
    with pytest.raises(ValueError, match="max_iterations"):
        NelderMeadOptions(max_iterations=max_iterations)
