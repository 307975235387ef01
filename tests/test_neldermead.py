import math
from bisect import bisect_left, bisect_right
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm import neldermead
from isoswarm.cost import (DEGENERACY_PENALTY, EvalPlan, SpacecraftPose,
                           SwarmConfig, _overlap_sum, evaluate_directions,
                           information_cost)
from isoswarm.neldermead import (CONTRACTION, EXPANSION,
                                 INITIAL_SIMPLEX_SCALE, REFLECTION, SHRINK,
                                 NelderMeadOptions, ObjectiveDomainError,
                                 OptResult, _NORMAL_GAP, _diameter, _far,
                                 _wrap, nelder_mead, optimize_swarm,
                                 swarm_objective)
from isoswarm.sampling import UncertaintyEllipsoid, sample_pois
from tests.reference import array_wrap, row_axis


def solve(func, x0, theta=frozenset(), **opt_kw):
    return nelder_mead(func, np.asarray(x0, float),
                       NelderMeadOptions(**opt_kw), theta)


def test_quadratic_bowl():
    res = solve(lambda x: float(np.sum(np.subtract(x, 3.0) ** 2)),
                [0.0, 0.0, 0.0])
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


def test_float_wrap_matches_array_wrap():
    # float % and np.remainder agree bit for bit, on tiny negatives, signed
    # zeros, the seam, huge magnitudes and theta sets of any spacing
    rng = np.random.default_rng(8)
    specials = [-1e-17, -0.0, 0.0, 2 * np.pi, np.nextafter(2 * np.pi, 0.0),
                -2 * np.pi, 1e300, -1e300, -7.3e15, 5e-324, -5e-324]
    cases = [(np.array(specials), list(range(len(specials))))]
    for dim in (1, 4, 9, 28):
        for _ in range(50):
            idx = sorted(rng.choice(dim, rng.integers(1, dim + 1),
                                    replace=False).tolist())
            cases.append((rng.choice([*specials, *rng.uniform(-50, 50, 8),
                                      *(10.0 ** rng.uniform(-20, 20, 4))],
                                     dim), idx))
    for x, idx in cases:
        floats = x.tolist()
        got = _wrap(floats, idx)
        want = array_wrap(x, np.array(idx))
        assert np.array(got).tobytes() == want.tobytes()
        assert np.array(floats).tobytes() == x.tobytes()


def test_wrap_applied_before_every_evaluation():
    seen = []

    def func(x):
        assert type(x) is list  # a fresh float list, one per evaluation
        seen.append(x[0])
        return float((x[0] - 1.0) ** 2)

    solve(func, [8.0], theta=frozenset({0}), max_iterations=50)
    assert all(0.0 <= t < 2 * np.pi for t in seen)


SEAM_TARGET = (300.0, 40.0, -20.0)
SEAM_THETA = 0.05


def seam_objective(mode):
    """A (x, y, z, theta) objective with its minimum 0 at SEAM_TARGET and
    theta = 0.05, from the cost's own theta terms: the squared shortfall of
    the FOV-interval overlap with an interval centred on 0.05 ("aimed"), or
    the tilted camera axis against the axis tilted by 0.05 ("theta_tilt")."""
    nu, center = math.pi / 6.0, [0.0, 0.0, 0.0]
    ref = row_axis([*SEAM_TARGET, SEAM_THETA], center, "theta_tilt")

    def objective(x):
        row = list(x)
        miss = sum((a - b) ** 2 for a, b in zip(row[:3], SEAM_TARGET)) / 1e4
        if mode == "aimed":
            overlap = _overlap_sum((row[3], SEAM_THETA), (nu, nu))
            return miss + (2.0 * nu - overlap) ** 2
        axis = row_axis(row, center, mode)
        return miss + 1.0 - sum(a * b for a, b in zip(axis, ref))

    return objective


@pytest.mark.parametrize("mode", ["aimed", "theta_tilt"])
def test_simplex_continuous_across_theta_seam(mode):
    """seam_objective started at theta = 6.0 with a 0.5 step: the simplex
    straddles 2 pi from the first vertex on. With wrapped vertices it stalls
    near 0.2; kept continuous, it converges to the minimum inside its
    budget."""
    seam, seen = seam_objective(mode), []

    def objective(x):
        seen.append(x[3])
        return seam(x)

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
        return float(np.sum(np.square(x)))

    res = solve(func, [1.0, 2.0])
    assert res.evaluation_count == count[0]
    assert res.iterations <= 400  # 200 * dim default cap


def test_budget_exhaustion_not_converged():
    res = solve(lambda x: float(np.sum(np.square(x))), [50.0, 50.0],
                max_iterations=3)
    assert not res.converged
    assert res.iterations == 3


def test_trace_monotone_best():
    sink = []
    res = nelder_mead(lambda x: float(np.sum(np.subtract(x, 1) ** 2)),
                      np.array([10.0, -10.0]), NelderMeadOptions(),
                      trace_sink=lambda i, b, d: sink.append((i, b, d)))
    bests = [b for _, b, _ in sink]
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    assert [i for i, _, _ in sink] == list(range(1, res.iterations + 1))
    assert bests[-1] == res.best_value


def test_determinism():
    def func(x):
        return float(np.sum(np.sin(x) ** 2) + 0.01 * np.sum(np.square(x)))

    a = solve(func, [2.0, -1.0, 0.5])
    b = solve(func, [2.0, -1.0, 0.5])
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_value == b.best_value
    assert a.evaluation_count == b.evaluation_count


def test_nonfinite_objective_raises():
    with pytest.raises(ObjectiveDomainError):
        solve(lambda x: float("nan"), [1.0])


def test_rejects_x0_that_is_not_1d():
    calls = []
    with pytest.raises(ValueError, match="1-D"):
        solve(lambda x: calls.append(x) or 0.0, [[1.0, 2.0], [3.0, 4.0]])
    assert not calls


def test_pack_unpack_round_trip():
    e = UncertaintyEllipsoid.sphere(10.0)
    s = SwarmConfig((
        SpacecraftPose(np.array([1.0, 2.0, 3.0]), 0.5, 0.3, 1.0),
        SpacecraftPose(np.array([-4.0, 5.0, -6.0]), 2.5, 0.2, 0.9),
    ), e)
    back = SwarmConfig.from_state(s.state.flatten(), s)
    for a, b in zip(s.spacecraft, back.spacecraft):
        np.testing.assert_array_equal(a.position, b.position)
        assert (a.theta, a.nu, a.phi) == (b.theta, b.nu, b.phi)


def test_unpack_rejects_nonfinite_position():
    e = UncertaintyEllipsoid.sphere(10.0)
    s = SwarmConfig((SpacecraftPose(np.array([5.0, 0.0, 0.0]), 0.0, 0.3, 1.0),), e)
    x = s.state.flatten()
    x[1] = np.inf
    with pytest.raises(ValueError):
        SwarmConfig.from_state(x, s)


def test_degeneracy_penalty_at_center():
    e = UncertaintyEllipsoid.sphere(10.0)
    pois = sample_pois(e, 50, 1)
    s = SwarmConfig((SpacecraftPose(np.array([5.0, 0.0, 0.0]), 0.0, 0.3, 1.0),), e)
    obj = swarm_objective(EvalPlan(s, pois))
    x = s.state[:, :3].flatten()
    x[:] = e.center
    assert obj(x.tolist()) == DEGENERACY_PENALTY


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


def reference_nelder_mead(objective, x0, opts, theta_indices=frozenset(),
                          trace_sink=None):
    """nelder_mead with its NumPy bookkeeping (argsort, a fancy-indexed
    reorder, np.mean, np.linalg.norm, array trial points and a diameter at
    every iteration), kept as the reference that the list-backed loop must
    reproduce bit for bit. The objective gets the wrapped point's tolist();
    best_at is the first evaluation whose value equals the final best."""
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    theta_idx = np.array(sorted(theta_indices), dtype=np.intp)
    max_iter = opts.max_iterations or 200 * n
    scored = []

    def f(point):
        x = array_wrap(point, theta_idx)
        v = float(objective(x.tolist()))
        scored.append(v)
        assert math.isfinite(v)
        return point, v

    def diameter_of(simplex, best):
        others = np.delete(simplex, best, 0)
        return float(np.max(np.linalg.norm(others - simplex[best], axis=1)))

    simplex = np.empty((n + 1, n))
    values = np.empty(n + 1)
    simplex[0], values[0] = f(x0)
    for i in range(n):
        if i in theta_indices:
            step = opts.theta_initial_step
        else:
            step = INITIAL_SIMPLEX_SCALE * max(abs(x0[i]), 1.0)
        xi = x0.copy()
        xi[i] += step
        simplex[i + 1], values[i + 1] = f(xi)

    termination, shrinks = "budget", 0
    iteration = 0
    for iteration in range(1, max_iter + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]

        diameter = diameter_of(simplex, 0)
        spread = float(values[-1] - values[0])
        if trace_sink is not None:
            trace_sink(iteration, float(values[0]), diameter)
        if spread < opts.f_tolerance:
            termination = "f_tol"
            break
        if diameter < opts.x_tolerance:
            termination = "x_tol"
            break

        centroid = np.mean(simplex[:-1], axis=0)
        xr, fr = f(centroid + REFLECTION * (centroid - simplex[-1]))
        if fr < values[0]:
            xe, fe = f(centroid + EXPANSION * (xr - centroid))
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:
                xc, fc = f(centroid + CONTRACTION * (xr - centroid))
                accept = fc <= fr
            else:
                xc, fc = f(centroid - CONTRACTION * (centroid - simplex[-1]))
                accept = fc < values[-1]
            if accept:
                simplex[-1], values[-1] = xc, fc
            else:
                shrinks += 1
                for i in range(1, n + 1):
                    simplex[i], values[i] = f(
                        simplex[0] + SHRINK * (simplex[i] - simplex[0])
                    )

    order = np.argsort(values, kind="stable")
    best = int(order[0])
    best_value = float(values[best])
    return OptResult(array_wrap(simplex[best], theta_idx), best_value,
                     iteration, len(scored), termination, shrinks,
                     diameter_of(simplex, best), scored.index(best_value) + 1)


def swarm_case(n_craft):
    """The objective of a deterministic aimed search, evaluate_directions, of
    n_craft spacecraft 3 to 6 radii out around a 100 km sphere with 500 POIs,
    and its start: 2 n_craft zero chart coordinates."""
    rng = np.random.default_rng(n_craft + 1)
    e = UncertaintyEllipsoid.sphere(100.0)
    d = rng.standard_normal((n_craft, 3))
    d *= rng.uniform(300.0, 600.0, (n_craft, 1)) / np.linalg.norm(
        d, axis=1, keepdims=True)
    init = SwarmConfig([SpacecraftPose(p, t, np.pi / 6, np.pi / 3) for p, t
                        in zip(d, rng.uniform(0, 2 * np.pi, n_craft))], e)
    return (partial(evaluate_directions,
                    EvalPlan(init, sample_pois(e, 500, n_craft))),
            np.zeros(2 * n_craft))


def oracle_case(name):
    """(objective, x0, theta indices, options) of each oracle run; the
    objectives take the float list nelder_mead hands them."""
    if name == "quadratic":
        return (lambda x: float(np.sum(np.subtract(x, 3.0) ** 2)), [0.0] * 3,
                (), {})
    if name == "rosenbrock":
        return (lambda x: float(100 * (x[1] - x[0] ** 2) ** 2
                                + (1 - x[0]) ** 2),
                [-1.2, 1.0], (), dict(max_iterations=2000, f_tolerance=1e-12,
                                      x_tolerance=1e-12))
    if name == "ties":  # piecewise constant: most values tie
        return (lambda x: float(np.floor(np.sum(np.subtract(x, 0.3) ** 2))),
                [4.0, -3.0, 2.0, 1.0], (),
                dict(max_iterations=300, f_tolerance=0.0))
    if name == "seam":
        return (seam_objective("aimed"), [250.0, 0.0, 0.0, 6.0], (3,),
                dict(theta_initial_step=0.5, max_iterations=400))
    if name == "shrink":  # fine stairs: contractions onto a tie fail
        return (lambda x: float(np.floor(
                    np.sum(np.subtract(x, 0.3) ** 2) * 16)),
                [3.0, -2.0, 1.0, 0.0, 5.0], (),
                dict(max_iterations=400, f_tolerance=0.0))
    objective, x0 = swarm_case(int(name[-1]))
    return objective, x0, (), dict(max_iterations=150)


def run_solvers(objective, x0, theta, opts, traced):
    """Each solver's (result, evaluated points, trace, values) on one
    problem, the trace None when not traced."""
    runs = []
    for solver in (nelder_mead, reference_nelder_mead):
        points, trace, values = [], [] if traced else None, []

        def f(x):
            points.append(x[:])
            values.append(objective(x))
            return values[-1]

        sink = None if trace is None else (
            lambda i, b, d: trace.append((i, b.hex(), d.hex(), len(points))))
        res = solver(f, np.asarray(x0, float), NelderMeadOptions(**opts),
                     frozenset(theta), sink)
        runs.append((res, np.array(points), trace, values))
    return runs


def assert_same_runs(runs):
    """The list-backed and the reference loop evaluated the same points and
    ended with the same result, every field bit for bit."""
    (got, points, trace, values), (want, want_points, want_trace, _) = runs
    assert trace == want_trace
    np.testing.assert_array_equal(points.view(np.uint64),
                                  want_points.view(np.uint64))
    assert (got.evaluation_count, got.iterations, got.converged,
            got.termination, got.shrinks, got.best_at) == \
        (want.evaluation_count, want.iterations, want.converged,
         want.termination, want.shrinks, want.best_at)
    assert got.best_value.hex() == want.best_value.hex()
    assert got.final_diameter.hex() == want.final_diameter.hex()
    np.testing.assert_array_equal(got.best_point.view(np.uint64),
                                  want.best_point.view(np.uint64))


@pytest.mark.parametrize("name", ["quadratic", "rosenbrock", "ties", "seam",
                                  "shrink", "swarm N=1", "swarm N=7"])
def test_matches_reference_loop_bit_for_bit(name):
    objective, x0, theta, opts = oracle_case(name)
    assert_same_runs(run_solvers(objective, x0, theta, opts, False))
    runs = run_solvers(objective, x0, theta, opts, True)
    assert_same_runs(runs)
    got, points, _, values = runs[0]
    # each case exercises what it is named for
    if name == "ties":
        assert len(set(values)) * 5 < len(values)
    if name == "shrink":  # shrink steps make over a third of the evaluations
        assert got.shrinks * len(x0) * 3 > got.evaluation_count
    if name == "seam":
        assert min(points[:, 3]) < 0.5 and max(points[:, 3]) > 5.5


@pytest.mark.parametrize("name", ["quadratic", "rosenbrock", "ties", "seam",
                                  "shrink", "swarm N=1", "swarm N=7"])
def test_best_at_is_the_first_evaluation_of_the_best_value(name):
    """Recorded over each oracle run: best_value is the least value scored,
    and evaluation best_at (from 1) is the first to score it; where values
    tie (the piecewise constant cases) earlier evaluations can score the
    best value of a later vertex."""
    objective, x0, theta, opts = oracle_case(name)
    (res, _, _, values), _ = run_solvers(objective, x0, theta, opts, False)
    assert len(values) == res.evaluation_count
    assert res.best_value == min(values)
    assert values.index(res.best_value) + 1 == res.best_at
    assert 1 <= res.best_at <= res.evaluation_count


@pytest.mark.parametrize("ending", ["budget", "f_tol", "x_tol"])
def test_random_quadratics_match_reference_loop(ending):
    """Random convex quadratics in dimensions 1 to 32 with random theta
    indices and theta steps, traced and untraced, each ending for the
    reason named: a budget of 10 + dim iterations with no tolerance, half
    the starting spread of values with no diameter test and the default
    budget, or the diameter the budgeted run ended with (nudged up) with
    no spread test."""
    rng = np.random.default_rng(len(ending))
    for dim in range(1, 33):
        target = rng.uniform(-3.0, 3.0, dim)
        weights = rng.uniform(0.5, 4.0, dim)

        def quadratic(x, target=target, weights=weights):
            return float(weights @ np.square(np.subtract(x, target)))

        theta = rng.choice(dim, int(rng.integers(dim + 1)), replace=False)
        x0 = target + rng.uniform(-2.0, 2.0, dim)
        opts = dict(max_iterations=10 + dim, f_tolerance=0.0, x_tolerance=0.0)
        if rng.random() < 0.5:
            opts["theta_initial_step"] = float(rng.uniform(0.05, 1.0))
        if ending != "budget":
            (_, _, trace, values), _ = run_solvers(quadratic, x0, theta, opts,
                                                   True)
            if ending == "f_tol":
                start = values[:dim + 1]
                opts["f_tolerance"] = 0.5 * (max(start) - min(start))
                opts["max_iterations"] = None
            else:
                opts["x_tolerance"] = math.nextafter(
                    float.fromhex(trace[-1][2]), math.inf)
        for traced in (True, False):
            runs = run_solvers(quadratic, x0, theta, opts, traced)
            assert_same_runs(runs)
            assert runs[0][0].termination == ending
            assert runs[0][0].converged == (ending != "budget")


def test_piecewise_constant_objectives_match_reference_loop(monkeypatch):
    """floor(k * quadratic) objectives in dimensions 1 to 28 with random
    theta indices, traced and untraced: the loop that inserts each new
    vertex where the stable sort puts it matches the reference, which sorts
    every iteration, bit for bit. Over the examples, new vertices tie kept
    ones and land first and last."""
    landed = {"tie": 0, "first": 0, "last": 0}

    def spy(values, f_new, lo, hi):
        p = bisect_right(values, f_new, lo, hi)
        landed["tie"] += bisect_left(values, f_new, lo, hi) != p
        landed["first"] += p == 0
        landed["last"] += p == hi
        return p

    @settings(max_examples=100, deadline=None, database=None)
    @given(dim=st.integers(1, 28), seed=st.integers(0, 2 ** 32 - 1),
           steps=st.sampled_from([1.0, 4.0, 16.0, 256.0]),
           budget=st.integers(1, 40), traced=st.booleans())
    def check(dim, seed, steps, budget, traced):
        rng = np.random.default_rng(seed)
        target = rng.uniform(-3.0, 3.0, dim)
        weights = rng.uniform(0.5, 4.0, dim)

        def stairs(x):
            return float(np.floor(
                steps * (weights @ np.square(np.subtract(x, target)))))

        theta = rng.choice(dim, int(rng.integers(dim + 1)), replace=False)
        x0 = target + rng.uniform(-2.0, 2.0, dim)
        opts = dict(max_iterations=budget, f_tolerance=0.0)
        if rng.random() < 0.5:
            opts["theta_initial_step"] = float(rng.uniform(0.05, 1.0))
        assert_same_runs(run_solvers(stairs, x0, theta, opts, traced))

    monkeypatch.setattr(neldermead, "bisect_right", spy)
    check()
    assert min(landed.values()) > 0, landed


def test_diameter_shortcut_is_sound():
    """Whenever a coordinate of the worst vertex lies at least max(x_tol,
    _NORMAL_GAP) from the best's, the NumPy diameter is at least x_tol: on
    random simplices of offsets near x_tol, the gap and 1e300, over x_tol
    of 0, 5e-324, 1e-200, the gap itself and ordinary tolerances."""
    rng = np.random.default_rng(77)
    gap = _NORMAL_GAP
    tolerances = [0.0, 5e-324, 1e-200, gap, math.nextafter(gap, 1.0), 1e-8,
                  0.25, 1e300]
    fired = 0
    for _ in range(4000):
        x_tol = tolerances[rng.integers(len(tolerances))]
        n = int(rng.integers(1, 9))
        scale = rng.choice([x_tol, gap, 1e-300, 1e-160, 1.0, 1e300])
        base = rng.choice([0.0, 1.0, -1e300, 1e300, 5e-324]) * np.ones(n)
        offsets = scale * rng.choice([0.0, 0.5, 1.0, 1.0 + 2 ** -52, 2.0,
                                      -1.0, -0.999], (n + 1, n))
        simplex = base + offsets
        worst, best = simplex[-1].tolist(), simplex[0].tolist()
        if not _far(worst, best, max(x_tol, gap)):
            continue
        fired += 1
        with np.errstate(over="ignore"):  # squares of 1e300 are inf
            full = np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1))
            assert not full < x_tol
            assert not _diameter(simplex[1:], simplex[0]) < x_tol
    assert fired > 1000
    # without the floor, a 1e-200 gap squares to zero: the shortcut would
    # claim a diameter of at least 1e-200 where NumPy's is 0
    simplex = np.array([[0.0, 0.0], [1e-200, 0.0], [0.0, 1e-200]])
    assert _far(simplex[-1].tolist(), simplex[0].tolist(), 1e-200)
    assert _diameter(simplex[1:], simplex[0]) == 0.0
    assert not _far(simplex[-1].tolist(), simplex[0].tolist(),
                    max(1e-200, gap))


def test_best_point_theta_stays_below_two_pi():
    """A start a hair below 0 wraps to 0.0, not to 2 pi."""
    res = solve(lambda x: 0.0, [-1e-17, 5.0], theta=frozenset({0}))
    assert res.converged and res.best_point[0] == 0.0
