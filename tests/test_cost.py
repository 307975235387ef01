from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm.cost import (DEFAULT_IDENTICAL_THETA_DELTA, EvalPlan,
                           SpacecraftPose, SwarmConfig, evaluate,
                           information_cost, pair_overlap, wrap_theta)
from isoswarm.geometry import TWO_PI, unit_axis
from isoswarm.neldermead import swarm_objective
from isoswarm.sampling import PoiSet, UncertaintyEllipsoid, sample_pois
from tests.conftest import arc_mask, plan_mask, unculled_mask
from tests.reference import decision, fov_interval

NAN, INF = float("nan"), float("inf")
NU = 0.3
PHI = 1.0


def pose(theta, position=(300.0, 0.0, 0.0), nu=NU, phi=PHI):
    return SpacecraftPose(np.array(position, float), theta, nu, phi)


def swarm(*poses, radius=100.0):
    return SwarmConfig(tuple(poses), UncertaintyEllipsoid.sphere(radius))


def expected_cost(s, pois, stddev, n_samples, seed):
    """The expected cost at the aimed swarm s itself: swarm_objective on a
    plan of s, at s's positions."""
    objective = swarm_objective(EvalPlan(s, pois), (stddev, n_samples, seed))
    return objective(decision(s.state))


def kappa_total(s):
    """The kappa_total of the swarm s's cost breakdown (on a few POIs)."""
    return information_cost(s, sample_pois(s.ellipsoid, 10, 0)).kappa_total


def test_fov_interval_plain():
    s, e = fov_interval(pose(np.pi, nu=0.1))
    assert (s, e) == (np.pi - 0.1, np.pi + 0.1)


def test_fov_interval_straddles_wrap():
    s, e = fov_interval(pose(0.0, nu=0.2))
    assert (s, e) == (-0.2, 0.2)


def test_fov_interval_three_halves_pi():
    s, e = fov_interval(pose(3 * np.pi / 2, nu=np.pi / 6))
    assert s == pytest.approx(4.18879, abs=1e-5)
    assert e == pytest.approx(5.23599, abs=1e-5)


# Negative thetas whose remainder modulo 2 pi rounds up to exactly 2 pi.
TINY_NEGATIVE = [-1e-17, -1e-300, -5e-324, -2.0 ** -53, -4e-16]


def test_theta_wraps_into_half_open_range():
    assert all(t % TWO_PI == TWO_PI for t in TINY_NEGATIVE)
    assert SpacecraftPose([300, 0, 0], -1e-17, 0.5, 1.0).theta == 0.0
    for t in TINY_NEGATIVE:
        assert wrap_theta(t) == 0.0
        assert pose(t).theta == 0.0
    template = SwarmConfig([pose(0.0)] * len(TINY_NEGATIVE),
                           UncertaintyEllipsoid.sphere(10.0))
    x = template.state.copy()
    x[:, 3] = TINY_NEGATIVE
    assert (SwarmConfig.from_state(x, template).state[:, 3] == 0.0).all()


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_pose_rejects_non_finite_theta(theta):
    # wrapped, it would be NaN, and so would kappa_total
    with pytest.raises(ValueError, match="theta must be finite float"):
        pose(theta)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_from_state_rejects_non_finite_theta(theta):
    # as a pose does: wrapped, the theta would be NaN, and so would
    # information_cost's kappa_total
    template = swarm(pose(0.5), pose(0.5))
    with pytest.raises(ValueError, match="theta must be finite float"):
        SwarmConfig.from_state([[300.0, 0.0, 0.0, theta],
                                [300.0, 0.0, 0.0, 0.5]], template)
    # a non-finite position is still reported first
    with pytest.raises(ValueError, match="position must be three finite reals"):
        SwarmConfig.from_state([[300.0, theta, 0.0, theta],
                                [300.0, 0.0, 0.0, 0.5]], template)


def bits(values):
    """The IEEE bits of float values, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# thetas at the 0 / 2 pi seam, tiny negatives among them
SEAM = st.sampled_from([*TINY_NEGATIVE, 0.0, -0.0, TWO_PI, -TWO_PI,
                        float(np.nextafter(TWO_PI, 0.0)), 4.0 * TWO_PI])
ARC = st.floats(0.0, np.pi, exclude_min=True, exclude_max=True)
ROW = st.tuples(FINITE, FINITE, FINITE, st.one_of(FINITE, SEAM), ARC, ARC)


@settings(max_examples=300, deadline=None)
@given(st.lists(ROW, min_size=1, max_size=7))
def test_from_arrays_is_the_pose_swarm_bit_for_bit(rows):
    """The one-test array constructor gives the state, nu, phi and derived
    poses of the swarm of checked SpacecraftPoses, bit for bit."""
    e = UncertaintyEllipsoid.sphere(10.0)
    want = SwarmConfig([SpacecraftPose(r[:3], *r[3:]) for r in rows], e)
    got = SwarmConfig.from_arrays([r[:4] for r in rows], [r[4] for r in rows],
                                  [r[5] for r in rows], e)
    assert got.ellipsoid is e and len(got) == len(rows)
    for name in ("state", "nu", "phi"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and bits(a) == bits(b)
    for p, q in zip(got.spacecraft, want.spacecraft, strict=True):
        assert bits(p.position) == bits(q.position)
        assert bits([p.theta, p.nu, p.phi]) == bits([q.theta, q.nu, q.phi])


@settings(max_examples=300, deadline=None)
@given(st.lists(ROW, min_size=1, max_size=5), st.data())
def test_from_arrays_raises_the_pose_error(rows, data):
    """A non-finite entry in any slot (or nu or phi out of (0, pi)) raises
    SpacecraftPose's own error for the first bad field of the first bad
    row: a position before its theta."""
    rows = [list(r) for r in rows]
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(rows) - 1))
        slot = data.draw(st.integers(0, 5))
        bad = [NAN, INF, -INF] + [0.0, -1.0, np.pi, 4.0] * (slot >= 4)
        rows[k][slot] = data.draw(st.sampled_from(bad))
    with pytest.raises(ValueError) as want:
        [SpacecraftPose(r[:3], *r[3:]) for r in rows]
    with pytest.raises(ValueError) as got:
        SwarmConfig.from_arrays([r[:4] for r in rows], [r[4] for r in rows],
                                [r[5] for r in rows],
                                UncertaintyEllipsoid.sphere(10.0))
    assert str(got.value) == str(want.value)


def test_wrap_theta_keeps_other_remainders(rng):
    """Every remainder below 2 pi comes back as %'s, bit for bit."""
    theta = np.concatenate([rng.uniform(-50, 50, 5000),
                            -np.logspace(-15, 2, 500),
                            [0.0, -0.0, TWO_PI, -TWO_PI,
                             np.nextafter(TWO_PI, 0)]])
    want = theta % TWO_PI
    assert (want < TWO_PI).all()
    np.testing.assert_array_equal(wrap_theta(theta).view(np.uint64),
                                  want.view(np.uint64))
    assert [wrap_theta(t) for t in theta.tolist()] == want.tolist()


def test_pair_overlap_touching():
    assert pair_overlap(pose(0.0), pose(2 * NU)) == 0.0


def test_pair_overlap_half_offset():
    assert pair_overlap(pose(0.0), pose(NU)) == pytest.approx(NU)


def test_pair_overlap_identical_theta_perturbed():
    got = pair_overlap(pose(1.0), pose(1.0))
    assert got == pytest.approx(2 * NU - 1e-6, abs=1e-12)


def test_pair_overlap_wraps_circle():
    # theta 0.1 and 2*pi - 0.1 are only 0.2 apart on the circle
    assert pair_overlap(pose(0.1), pose(2 * np.pi - 0.1)) == pytest.approx(
        2 * NU - 0.2)


@settings(max_examples=200, deadline=None)
@given(ti=st.floats(0, 2 * np.pi, exclude_max=True),
       tj=st.floats(0, 2 * np.pi, exclude_max=True),
       nu=st.floats(0.01, 1.5))
def test_pair_overlap_symmetric_and_bounded(ti, tj, nu):
    a = pair_overlap(pose(ti, nu=nu), pose(tj, nu=nu))
    b = pair_overlap(pose(tj, nu=nu), pose(ti, nu=nu))
    if ti != tj:
        assert a == b
    assert 0.0 <= a <= 2 * nu


def test_kappa_total_single_craft():
    assert kappa_total(swarm(pose(0.0))) == 0.0


def test_kappa_total_disjoint():
    assert kappa_total(swarm(pose(0.0), pose(1.5), pose(3.0))) == 0.0


def test_kappa_total_hand_enumerated():
    # pairs (0, nu), (0, 2pi - nu) each overlap nu; (nu, 2pi - nu) disjoint
    s = swarm(pose(0.0), pose(NU), pose(2 * np.pi - NU))
    assert kappa_total(s) == pytest.approx(2 * NU)


def test_coverage_opposite_sides_full():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 500, 1)
    s = SwarmConfig(
        (pose(0.0, (400.0, 0, 0), phi=1.0), pose(1.0, (-400.0, 0, 0), phi=1.0)),
        e,
    )
    b = information_cost(s, pois)
    assert b.visible_count == 500 and b.epsilon_term == 100.0


def test_coverage_tiny_aperture_zero():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 500, 2)
    s = SwarmConfig((pose(0.0, (400.0, 1.7, 0), phi=1e-4),), e)
    b = information_cost(s, pois)
    assert b.visible_count == 0 and b.epsilon_term == 0.0
    assert not plan_mask(s, pois).any()


def test_coverage_matches_brute_force_oracle(rng):
    e = UncertaintyEllipsoid.sphere(80.0)
    pois = sample_pois(e, 300, 5)
    s = swarm(pose(0.2, (250.0, 40.0, -10.0)), pose(4.0, (-100.0, 200.0, 90.0)),
              radius=80.0)
    seen = plan_mask(s, pois)
    axes = [unit_axis(sc.position.tolist(), e.center.tolist())
            for sc in s.spacecraft]
    expected = unculled_mask(pois.points, s.state[:, :3], axes, s.phi,
                             e.center)
    np.testing.assert_array_equal(seen, expected)
    assert information_cost(s, pois).visible_count == np.count_nonzero(
        expected)


def test_coverage_empty_pois_rejected():
    with pytest.raises(ValueError):
        e = UncertaintyEllipsoid.sphere(1.0)
        information_cost(swarm(pose(0.0), radius=1.0),
                         PoiSet(np.empty((0, 3)), 0, e))


def test_information_cost_full_coverage_single():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 200, 1)
    # one craft cannot see past the dividing plane; use the near half only
    near = pois.points[pois.points[:, 0] >= 0]
    pois_near = PoiSet(near, 1, e)
    s = SwarmConfig((pose(0.0, (500.0, 0, 0), phi=0.6),), e)
    b = information_cost(s, pois_near)
    assert b.epsilon_term == 100.0
    assert b.kappa_total == 0.0
    assert b.information_cost == -100.0


def test_information_cost_identical_poses_overlap_only():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 200, 3)
    p = pose(1.0, (400.0, 0, 0), phi=1e-4)
    b = information_cost(SwarmConfig((p, p), e), pois)
    assert b.epsilon_term == 0.0
    assert b.information_cost == pytest.approx(2 * NU - 1e-6, abs=1e-12)


def test_cost_identity_exact(rng):
    e = UncertaintyEllipsoid.sphere(60.0)
    pois = sample_pois(e, 100, 9)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        poses = tuple(
            pose(rng.uniform(0, 2 * np.pi),
                 rng.uniform(-300, 300, 3), nu=0.4, phi=0.9)
            for _ in range(n)
        )
        s = SwarmConfig(poses, e)
        b = information_cost(s, pois)
        assert b.information_cost == b.kappa_total - b.epsilon_term


def test_coverage_monotone_in_swarm(rng):
    e = UncertaintyEllipsoid.sphere(70.0)
    pois = sample_pois(e, 400, 13)
    poses = [pose(rng.uniform(0, 2 * np.pi), rng.uniform(-400, 400, 3))
             for _ in range(5)]
    prev = 0
    for k in range(1, 6):
        count = information_cost(SwarmConfig(tuple(poses[:k]), e),
                                 pois).visible_count
        assert count >= prev
        prev = count


def test_permutation_invariance(rng):
    e = UncertaintyEllipsoid.sphere(70.0)
    pois = sample_pois(e, 300, 21)
    poses = [pose(rng.uniform(0, 2 * np.pi), rng.uniform(-400, 400, 3))
             for _ in range(4)]
    b1 = information_cost(SwarmConfig(tuple(poses), e), pois)
    b2 = information_cost(SwarmConfig(tuple(reversed(poses)), e), pois)
    assert b1.kappa_total == pytest.approx(b2.kappa_total, abs=1e-12)
    assert b1.epsilon_term == b2.epsilon_term


def test_expected_cost_zero_stddev_exact():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 300, 4)
    s = swarm(pose(0.5, (300.0, 50.0, 0.0)), pose(2.5, (-250.0, 0.0, 80.0)),
              radius=50.0)
    det = information_cost(s, pois).information_cost
    assert expected_cost(s, pois, 0.0, 10, 7) == det


def test_expected_cost_single_sample():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 300, 4)
    s = swarm(pose(0.5, (300.0, 50.0, 0.0)), radius=50.0)
    v1 = expected_cost(s, pois, 5.0, 1, 7)
    v2 = expected_cost(s, pois, 5.0, 1, 7)
    assert v1 == v2  # deterministic in seed


def test_expected_cost_mc_self_consistency():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 500, 8)
    s = swarm(pose(0.5, (220.0, 30.0, 0.0)), radius=50.0)
    small = np.array([
        expected_cost(s, pois, 5.0, 200, seed)
        for seed in range(10)
    ])
    big = expected_cost(s, pois, 5.0, 4000, 999)
    stderr = small.std(ddof=1) / np.sqrt(len(small))
    assert abs(small.mean() - big) < 4 * stderr + 0.5


def test_json_record_fields():
    e = UncertaintyEllipsoid.sphere(50.0)
    pois = sample_pois(e, 100, 4)
    d = information_cost(swarm(pose(0.1), radius=50.0), pois).to_json_dict()
    assert set(d) == {"kappa_total", "epsilon_pct", "info_cost",
                      "visible_count", "n_pois"}


def test_pair_overlap_mixed_widths_examples():
    # the narrower interval inside the wider one: the same either way round
    a, b = pose(1.0, nu=0.2), pose(1.3, nu=0.6)
    assert pair_overlap(a, b) == pair_overlap(b, a) == pytest.approx(0.4)
    # nu = 2 intervals half a turn apart meet in two pieces of 4 - pi each
    assert pair_overlap(pose(0.0, nu=2.0), pose(np.pi, nu=2.0)) == \
        pytest.approx(2.0 * (4.0 - np.pi))


def test_pair_overlap_mixed_widths_brute_force():
    rng = np.random.default_rng(7)
    step = 1e-4
    grid = np.arange(0.0, 2.0 * np.pi, step)
    for _ in range(300):
        ti, tj = rng.uniform(0.0, 2.0 * np.pi, 2)
        nu_i, nu_j = rng.uniform(0.01, np.pi - 0.01, 2)
        in_i = arc_mask(grid, ti, nu_i)
        in_i &= arc_mask(grid, tj, nu_j)
        brute = np.count_nonzero(in_i) * step
        a, b = pose(ti, nu=nu_i), pose(tj, nu=nu_j)
        assert pair_overlap(a, b) == pair_overlap(b, a)
        assert pair_overlap(a, b) == pytest.approx(brute, abs=4 * step)


def test_kappa_total_matches_equal_width_pair_loop(rng):
    # reference: the equal-width formula max(0, 2 nu - sep), summed pair by
    # pair in i < j order; the pair-array kappa must reproduce it bit for bit
    def reference(poses, delta=1e-6):
        total = 0.0
        for i in range(len(poses)):
            for j in range(i + 1, len(poses)):
                ti, tj = poses[i].theta, poses[j].theta
                if ti == tj:
                    tj += delta
                d = abs(ti - tj) % (2 * np.pi)
                total += max(0.0, 2.0 * poses[i].nu - min(d, 2 * np.pi - d))
        return total

    for _ in range(300):
        nu = rng.uniform(0.01, np.pi / 2)
        poses = [pose(t, nu=nu) for t in rng.uniform(0, 2 * np.pi,
                                                     rng.integers(1, 9))]
        poses.append(poses[0])  # an identical orientation
        assert kappa_total(swarm(*poses)) == reference(poses)


@pytest.mark.parametrize("mode", ["aimed", "theta_tilt"])
def test_boundary_ties_kernel_matches_scalar(mode):
    # POIs built on the cone surface (up to rounding) and exactly on the
    # center plane: the coverage kernel and the un-culled elementwise test
    # must agree on each, and center-plane points inside the cone count as
    # visible
    center = np.array([1.0, 2.0, 3.0])
    e = UncertaintyEllipsoid.sphere(60.0, center)
    sc = pose(0.25, center + [30.0, 40.0, 0.0], phi=1.0)
    tilt = sc.theta if mode == "theta_tilt" else None
    apex, axis = sc.position, np.array(unit_axis(
        sc.position.tolist(), center.tolist(), tilt))
    e1 = np.cross(axis, [0.0, 0.0, 1.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    tan = np.tan(sc.phi / 2.0)
    radial = [np.cos(a) * e1 + np.sin(a) * e2
              for a in np.linspace(0.0, 2 * np.pi, 36, endpoint=False)]

    def cone(scale):
        return np.array([apex + d * axis + d * tan * scale * r
                         for d in np.linspace(1.0, 120.0, 40)
                         for r in radial])

    def in_cone(points):  # the forward-cone test, with no apex slack
        rel = points - apex
        d = rel @ axis
        c = np.cos(sc.phi / 2.0)
        return (d > 0.0) & ((rel * rel).sum(axis=1) * (c * c) <= d * d)

    plane = np.array([center + k * np.array([4.0, -3.0, 0.0]) + [0.0, 0.0, m]
                      for k in range(-6, 7) for m in range(-6, 7)])
    points = np.vstack([cone(1.0), plane])
    seen = plan_mask(SwarmConfig((sc,), e), PoiSet(points, 0, e), mode)
    np.testing.assert_array_equal(
        seen, unculled_mask(points, apex[None], [axis], [sc.phi], center))
    on_plane_in_cone = in_cone(plane)
    assert on_plane_in_cone.sum() > 50
    assert seen[-len(plane):][on_plane_in_cone].all()
    # the boundary sits on the cone surface: a relative nudge decides it
    assert in_cone(cone(1.0 - 1e-9)).all()
    assert not in_cone(cone(1.0 + 1e-9)).any()


def closed_form_bound(nus, kappa_weight):
    """w max(0, sum 2 nu_i - 2 pi) - 100: coverage is at most 100, and by
    Bonferroni's inequality the summed pairwise overlaps of arcs of widths
    2 nu_i on the circle are at least their summed lengths minus 2 pi."""
    return kappa_weight * max(0.0, sum(2.0 * nu for nu in nus) - TWO_PI) - 100.0


# Apex distances from the center in sphere radii: inside or near the ball
# (cut cones), beyond the aimed cones' hold distances, and far away.
APEX_DISTANCES = {"near": (0.05, 1.5), "held": (2.0, 50.0),
                  "far": (1e3, 1e8)}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 8),
       mode=st.sampled_from(["aimed", "theta_tilt"]),
       kappa_weight=st.floats(0.0, 100.0), seed=st.integers(0, 2 ** 32 - 1))
def test_cost_never_below_closed_form_bound(data, n, mode, kappa_weight,
                                            seed):
    # half the angles wide, where two arcs overlap across both separations
    angle = st.one_of(st.floats(0.01, np.pi - 0.01),
                      st.floats(2.5, np.pi - 1e-6))
    poses = []
    for _ in range(n):
        lo, hi = APEX_DISTANCES[data.draw(st.sampled_from(list(APEX_DISTANCES)))]
        direction = np.array(data.draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        if not np.linalg.norm(direction) > 0.1:
            direction = np.array([1.0, 0.0, 0.0])
        direction /= np.linalg.norm(direction)
        distance = 100.0 * data.draw(st.floats(lo, hi))
        poses.append(SpacecraftPose(
            direction * distance, data.draw(st.floats(0.0, 7.0)),
            data.draw(angle), data.draw(angle)))
    s = swarm(*poses)
    pois = sample_pois(s.ellipsoid, 200, seed)
    bound = closed_form_bound(s.nu.tolist(), kappa_weight)
    # a shared theta moves one arc of the pair by
    # DEFAULT_IDENTICAL_THETA_DELTA, which can lower its overlap by as much;
    # the rest is rounding
    thetas = s.state[:, 3].tolist()
    ties = sum(a == b for a, b in combinations(thetas, 2))
    slack = kappa_weight * (ties * DEFAULT_IDENTICAL_THETA_DELTA + 1e-9) + 1e-9
    cost = information_cost(s, pois, kappa_weight, mode).information_cost
    assert cost >= bound - slack
    plan = EvalPlan(s, pois, kappa_weight, mode)
    assert evaluate(plan, decision(s.state, mode)) >= bound - slack


@pytest.mark.parametrize("n, nu", [(n, np.pi / 6) for n in range(2, 9)]
                         + [(2, 2.0), (2, 3.0)])
def test_closed_form_bound_is_attained(n, nu):
    """Two held cones on opposite sides of the sphere see every POI (each
    its near half-space), and equally spaced thetas make only adjacent arcs
    overlap while 2 nu <= 4 pi / n. Two opposite arcs wider than pi overlap
    across both separations, by 2 (2 nu - pi) in all."""
    radius = 100.0
    directions = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                  (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                  (0.6, 0.8, 0.0), (-0.6, -0.8, 0.0)]
    s = swarm(*[pose(k * TWO_PI / n, 10.0 * radius * np.array(directions[k]),
                     nu=nu, phi=np.pi / 3) for k in range(n)], radius=radius)
    pois = sample_pois(s.ellipsoid, 2000, n)
    breakdown = information_cost(s, pois)
    assert breakdown.epsilon_term == 100.0
    assert breakdown.information_cost == pytest.approx(
        closed_form_bound([nu] * n, 1.0), abs=1e-12)
