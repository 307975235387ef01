import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm.bound import (ContractionParams, ExtrapolationError,
                            InfeasibleParamsError, NoiseProfile,
                            check_rate_matrix, evaluate_bound,
                            load_bound_config, radius_for_success_probability,
                            shifted_rate_matrix, zeta_integral, _numerator)
from tests.conftest import draw_feasible_params
from tests.reference import ellipsoid_radii_from_weights, zeta_at


def base_params(**overrides):
    """Hand-checked feasible defaults: a_c = 0.9, a_e = 0.9, k = 0."""
    kw = dict(alpha_c=1.0, alpha_e=1.0,
              m_c_lower=1.0, m_c_upper=1.0,
              m_e_lower=1.0, m_e_upper=1.0,
              eps_c=0.0, eps_e=0.1,
              g_bar=1.0, u_bar=0.0, h_bar=1.0, ell_bar=1.0,
              gamma_c=0.2, lam=1.0, alpha_s=0.5)
    kw.update(overrides)
    return ContractionParams(**kw)


def test_rate_matrix_feasible_example():
    chk = check_rate_matrix(base_params())
    assert chk.feasible
    assert chk.alpha_bar_c == pytest.approx(0.9)
    assert chk.alpha_bar_e == pytest.approx(0.9)


def test_rate_matrix_negative_effective_rate():
    # gamma_c = 2 alpha_c m_c_lower kills the controller rate entirely
    chk = check_rate_matrix(base_params(gamma_c=2.0))
    assert not chk.feasible
    assert chk.alpha_bar_c == pytest.approx(0.0)


def test_rate_matrix_coupling_breaks_feasibility():
    # diagonal entries are -2*0.9 + 2*0.5 = -0.8; k = 2 makes det negative
    assert not check_rate_matrix(base_params(u_bar=2.0)).feasible


def test_rate_matrix_matches_eigenvalue_oracle(rng):
    for _ in range(200):
        p = draw_feasible_params(rng)
        # randomly degrade some draws so both outcomes appear
        if rng.random() < 0.5:
            p = ContractionParams(**{**p.__dict__,
                                     "alpha_s": p.alpha_s * rng.uniform(1.0, 20.0)})
        chk = check_rate_matrix(p)
        if chk.alpha_bar_c <= 0.0 or chk.alpha_bar_e <= 0.0:
            assert not chk.feasible
            continue
        eigs = np.linalg.eigvalsh(shifted_rate_matrix(p))
        assert chk.feasible == bool(np.all(eigs <= 1e-12))


def test_params_validation():
    with pytest.raises(ValueError):
        base_params(alpha_s=0.0)
    with pytest.raises(ValueError):
        base_params(eps_c=-0.1)
    with pytest.raises(ValueError):
        base_params(m_c_lower=2.0, m_c_upper=1.0)


def test_c_s_closed_form():
    p = base_params(eps_c=0.02, m_c_upper=1.0, g_bar=1.0, gamma_c=0.1,
                    alpha_s=0.1, m_c_lower=0.5, m_e_lower=0.5)
    assert p.c_s == pytest.approx(0.02 ** 2 / (2 * 0.1 * 0.1))
    assert p.m_lower_combined == pytest.approx(1.0)


def test_noise_profile_validation():
    with pytest.raises(ValueError):
        NoiseProfile(np.array([1.0, 2.0]), np.array([0.1, 0.1]))  # t[0] != 0
    with pytest.raises(ValueError):
        NoiseProfile(np.array([0.0, 2.0, 1.0]), np.array([0.1, 0.1, 0.1]))
    with pytest.raises(ValueError):
        NoiseProfile(np.array([0.0, 1.0]), np.array([0.1, -0.1]))


@pytest.mark.parametrize("name", ["alpha_c", "eps_c", "u_bar", "alpha_s"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        base_params(**{name: value})


@pytest.mark.parametrize("pairs", [[[0.0, 0.1], [1.0, np.nan]],
                                   [[0.0, 0.1], [np.inf, 0.1]],
                                   [[0.0, np.inf], [1.0, 0.1]]])
def test_noise_profile_rejects_non_finite(pairs):
    with pytest.raises(ValueError, match="finite"):
        NoiseProfile.from_pairs(pairs)


def test_non_finite_distance_and_time_rejected():
    noise = NoiseProfile.constant(0.0, 10.0)
    for D in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            evaluate_bound(D, 1.0, 1.0, base_params(), noise)
    with pytest.raises(ExtrapolationError):
        evaluate_bound(1.0, np.nan, 1.0, base_params(), noise)
    with pytest.raises(ExtrapolationError):
        zeta_at(noise, np.nan)


def test_zeta_at_interpolates_and_extrapolation_errors():
    noise = NoiseProfile.from_pairs([[0.0, 0.0], [2.0, 4.0]])
    assert zeta_at(noise, 1.0) == pytest.approx(2.0)
    with pytest.raises(ExtrapolationError):
        zeta_at(noise, 2.5)


def test_zeta_integral_zero_cases():
    p = base_params()
    assert zeta_integral(0.0, p, NoiseProfile.constant(0.5, 10.0)) == 0.0
    assert zeta_integral(3.0, p, NoiseProfile.constant(0.0, 10.0)) == 0.0


def test_zeta_integral_constant_closed_form():
    # integral of c * exp(2 a tau) over [0, t] = c (exp(2 a t) - 1) / (2 a);
    # dense grid so trapezoid error is tiny
    p = base_params(lam=1.3, m_e_upper=1.5, ell_bar=0.7, alpha_s=0.4,
                    m_e_lower=1.0)
    c, t = 0.25, 3.0
    noise = NoiseProfile.constant(c, 10.0, n=20001)
    exact = 1.3 * 1.5 * 0.7 * c * (np.exp(2 * 0.4 * t) - 1.0) / (2 * 0.4)
    assert zeta_integral(t, p, noise) == pytest.approx(exact, rel=1e-6)


def test_zeta_integral_sinusoid_closed_form():
    # zeta(tau) = 1 + sin(tau); antiderivative of exp(k tau) sin(tau) is
    # exp(k tau) (k sin(tau) - cos(tau)) / (k^2 + 1)
    p = base_params(alpha_s=0.3)
    k = 2 * 0.3
    t_end = 4.0
    grid = np.linspace(0.0, 6.0, 40001)
    noise = NoiseProfile(grid, 1.0 + np.sin(grid))
    part_const = (np.exp(k * t_end) - 1.0) / k
    part_sin = (np.exp(k * t_end) * (k * np.sin(t_end) - np.cos(t_end)) + 1.0) \
        / (k * k + 1.0)
    exact = p.lam * p.m_e_upper * p.ell_bar * (part_const + part_sin)
    assert zeta_integral(t_end, p, noise) == pytest.approx(exact, rel=1e-6)


def test_zeta_integral_quadrature_order():
    # halving the step should cut the trapezoid error by about 4x
    p = base_params(alpha_s=0.3)
    k = 2 * 0.3
    t_end = 4.0
    exact = p.lam * p.m_e_upper * p.ell_bar * (np.exp(k * t_end) - 1.0) / k
    errs = []
    for n in (41, 81):
        grid = np.linspace(0.0, t_end, n)
        noise = NoiseProfile(grid, np.ones(n))
        errs.append(abs(zeta_integral(t_end, p, noise) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_zeta_integral_endpoint_between_samples():
    p = base_params(alpha_s=1e-9)  # exp factor ~ 1: integral ~ area under zeta
    noise = NoiseProfile.from_pairs([[0.0, 1.0], [2.0, 3.0]])
    # area under the linear ramp on [0, 1]: mean height 1.5 over width 1
    assert zeta_integral(1.0, p, noise) == pytest.approx(1.5, rel=1e-6)


def test_failure_bound_synthetic_oracle():
    # numerator = V0 e^{-2 a t} + c_s + e^{-2 a t} * I with every piece chosen
    # for mental arithmetic: a = 0.1, t = 0, c_s = 0.02, zeta = 0
    p = base_params(alpha_s=0.1, m_c_lower=0.5, m_e_lower=0.5,
                    eps_c=0.02, gamma_c=0.1)
    noise = NoiseProfile.constant(0.0, 10.0)
    res = evaluate_bound(2.0, 0.0, 0.3, p, noise)
    assert res.c_s == pytest.approx(0.02)
    assert res.failure_prob_raw == pytest.approx((0.3 + 0.02) / (2.0 * 1.0))
    assert res.success_prob_raw == pytest.approx(1.0 - 0.16)


def test_failure_bound_decay_and_noise_terms():
    p = base_params(alpha_s=0.1, m_c_lower=0.5, m_e_lower=0.5,
                    eps_c=0.02, gamma_c=0.1)
    noise = NoiseProfile.constant(0.01, 10.0, n=20001)
    t = 5.0
    decay = np.exp(-2 * 0.1 * t)
    integral = 0.01 * (np.exp(2 * 0.1 * t) - 1.0) / (2 * 0.1)
    expected = (0.3 * decay + 0.02 + decay * integral) / 2.0
    res = evaluate_bound(2.0, t, 0.3, p, noise)
    assert res.failure_prob_raw == pytest.approx(expected, rel=1e-6)


def test_bound_clamped_and_raw_kept():
    p = base_params()
    res = evaluate_bound(1e-6, 0.0, 100.0, p, NoiseProfile.constant(0.0, 1.0))
    assert res.failure_prob_upper == 1.0
    assert res.failure_prob_raw > 1.0
    assert res.success_prob_lower == 0.0
    assert res.success_prob_raw == 1.0 - res.failure_prob_raw


def test_complement_identity(rng):
    for _ in range(50):
        p = draw_feasible_params(rng)
        noise = NoiseProfile.constant(rng.uniform(0.0, 0.1), 10.0)
        D = rng.uniform(0.5, 50.0)
        t = rng.uniform(0.0, 10.0)
        v0 = rng.uniform(0.0, 5.0)
        res = evaluate_bound(D, t, v0, p, noise)
        assert res.success_prob_raw == pytest.approx(1.0 - res.failure_prob_raw)
        assert res.failure_prob_upper == min(1.0, max(0.0, res.failure_prob_raw))
        assert 0.0 <= res.success_prob_lower <= 1.0


def test_failure_bound_monotone_in_distance(rng):
    p = draw_feasible_params(rng)
    noise = NoiseProfile.constant(0.05, 10.0)
    vals = [evaluate_bound(D, 2.0, 1.0, p, noise).failure_prob_upper
            for D in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_failure_bound_monotone_in_noise(rng):
    p = draw_feasible_params(rng)
    raws = [evaluate_bound(5.0, 3.0, 1.0, p,
                           NoiseProfile.constant(z, 10.0)).failure_prob_raw
            for z in (0.0, 0.05, 0.1, 0.5)]
    assert all(a <= b for a, b in zip(raws, raws[1:]))


def test_squared_distance_option():
    p = base_params()
    noise = NoiseProfile.constant(0.0, 1.0)
    lin = evaluate_bound(3.0, 0.0, 1.0, p, noise).failure_prob_raw
    sq = evaluate_bound(3.0, 0.0, 1.0, p, noise,
                        squared_distance=True).failure_prob_raw
    assert sq == pytest.approx(lin / 3.0)


def test_infeasible_params_raise():
    with pytest.raises(InfeasibleParamsError):
        evaluate_bound(1.0, 0.0, 1.0, base_params(gamma_c=2.0),
                       NoiseProfile.constant(0.0, 1.0))
    with pytest.raises(InfeasibleParamsError):
        radius_for_success_probability(0.5, 0.0, 1.0, base_params(gamma_c=2.0),
                                       NoiseProfile.constant(0.0, 1.0))


def test_extrapolation_rejected():
    with pytest.raises(ExtrapolationError):
        evaluate_bound(1.0, 20.0, 1.0, base_params(),
                       NoiseProfile.constant(0.0, 10.0))


def test_inversion_hand_case():
    # B = 1 (v0 = 1 at t = 0, c_s = 0, no noise), m_lower = 2, p = 0.5:
    # D = 1 / (0.5 * 2) = 1
    p = base_params(m_c_lower=1.0, m_e_lower=1.0)
    D = radius_for_success_probability(0.5, 0.0, 1.0, p,
                                       NoiseProfile.constant(0.0, 1.0))
    assert D == pytest.approx(1.0)


def test_inversion_zero_numerator():
    p = base_params()  # eps_c = 0 so c_s = 0
    D = radius_for_success_probability(0.9, 0.0, 0.0, p,
                                       NoiseProfile.constant(0.0, 1.0))
    assert D == 0.0


def test_inversion_round_trip(rng):
    for _ in range(50):
        p = draw_feasible_params(rng)
        noise = NoiseProfile.constant(rng.uniform(0.0, 0.1), 10.0)
        t = rng.uniform(0.0, 10.0)
        v0 = rng.uniform(0.01, 5.0)
        p_target = rng.uniform(0.05, 0.99)
        D = radius_for_success_probability(p_target, t, v0, p, noise)
        back = evaluate_bound(D, t, v0, p, noise)
        assert back.success_prob_raw == pytest.approx(p_target, rel=1e-12)


def test_inversion_rejects_bad_probability():
    p = base_params()
    noise = NoiseProfile.constant(0.0, 1.0)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            radius_for_success_probability(bad, 0.0, 1.0, p, noise)


def test_ellipsoid_radii_from_weights():
    assert ellipsoid_radii_from_weights(10.0, [1.0, 2.0, 5.0]) == \
        pytest.approx((10.0, 5.0, 2.0))
    with pytest.raises(ValueError):
        ellipsoid_radii_from_weights(10.0, [1.0, 0.0, 1.0])


def test_load_bound_config(tmp_path):
    cfg = dict(alpha_c=1.0, alpha_e=1.0, m_c_lower=1.0, m_c_upper=1.0,
               m_e_lower=1.0, m_e_upper=1.0, eps_c=0.0, eps_e=0.1,
               g_bar=1.0, u_bar=0.0, h_bar=1.0, ell_bar=1.0,
               gamma_c=0.2, lam=1.0, alpha_s=0.5,
               noise=[[0.0, 0.01], [5.0, 0.02], [10.0, 0.01]])
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(cfg))
    params, noise = load_bound_config(path)
    assert params == base_params()
    assert zeta_at(noise, 5.0) == pytest.approx(0.02)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({k: v for k, v in cfg.items() if k != "noise"}))
    with pytest.raises(ValueError):
        load_bound_config(bad)


# A decoupled linear-Gaussian instance that meets the bound's assumptions:
# eps_c = eps_e = 0 and u_bar = 0, so c_s = 0 and the two blocks decouple.
# The controller error stays 0 and the estimator error is the scalar
# Ornstein-Uhlenbeck process dx = -x dt + OU_SIGMA dW from x(0) = 0, whose
# noise intensity zeta is OU_SIGMA^2. With unit metrics V = x^2, and E[V(t)]
# lies below the bound's numerator (the process contracts at rate 1, the
# bound assumes alpha_s = 0.1), so Markov's inequality bounds the tail.
OU_SIGMA = 0.01
OU_PARAMS = ContractionParams(
    alpha_c=100.0, alpha_e=1.0, m_c_lower=1e-3, m_c_upper=1e-3,
    m_e_lower=1.0, m_e_upper=1.0, eps_c=0.0, eps_e=0.0, g_bar=1.0,
    u_bar=0.0, h_bar=1.0, ell_bar=1.0, gamma_c=0.1, lam=1.0, alpha_s=0.1)


def ou_noise(scale=1.0):
    """zeta = OU_SIGMA^2 on [0, 10], the process in units scale times the
    bound's (zeta is a squared length)."""
    return NoiseProfile.constant(OU_SIGMA ** 2 * scale ** 2, 10.0, 1001)


def ou_variance(t):
    """E[x(t)^2] = OU_SIGMA^2 (1 - e^{-2 t}) / 2, in closed form."""
    return OU_SIGMA ** 2 * -math.expm1(-2.0 * t) / 2.0


def ou_tail(d, t):
    """P(|x(t)| >= d) for the Gaussian x(t), exact: erfc(d / (s sqrt 2))."""
    return math.erfc(d / math.sqrt(2.0 * ou_variance(t)))


def test_ou_instance_meets_the_bound_assumptions():
    assert check_rate_matrix(OU_PARAMS).feasible
    assert OU_PARAMS.c_s == 0.0
    for t in (0.5, 5.0, 10.0):
        numerator = _numerator(t, 0.0, OU_PARAMS,
                               zeta_integral(t, OU_PARAMS, ou_noise()))
        assert ou_variance(t) <= numerator
    # the numbers README quotes, at t = 5 and D = 0.01
    assert ou_tail(0.01, 5.0) == pytest.approx(0.1573, abs=1e-4)
    default = evaluate_bound(0.01, 5.0, 0.0, OU_PARAMS, ou_noise())
    squared = evaluate_bound(0.01, 5.0, 0.0, OU_PARAMS, ou_noise(),
                             squared_distance=True)
    assert default.failure_prob_raw == pytest.approx(0.0316, abs=1e-4)
    assert squared.failure_prob_raw == pytest.approx(3.16, abs=1e-2)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.05, 10.0))
def test_markov_form_bounds_the_exact_tail(log_d, t):
    """The squared_distance (Markov) form bounds P(|x(t)| >= D) for D on
    both sides of 1."""
    d = 10.0 ** log_d
    result = evaluate_bound(d, t, 0.0, OU_PARAMS, ou_noise(),
                            squared_distance=True)
    assert ou_tail(d, t) <= result.failure_prob_upper
    assert ou_tail(d, t) <= result.failure_prob_raw


def test_markov_form_is_unit_invariant_and_the_default_is_not():
    """In metres instead of km, V and zeta scale by 1e6 and D by 1e3: the
    squared form keeps its value and the default form scales by 1e3."""
    for d in (0.005, 0.01, 2.0):
        for squared, factor in ((True, 1.0), (False, 1e3)):
            km = evaluate_bound(d, 5.0, 0.0, OU_PARAMS, ou_noise(),
                                squared_distance=squared)
            m = evaluate_bound(1e3 * d, 5.0, 0.0, OU_PARAMS, ou_noise(1e3),
                               squared_distance=squared)
            assert m.failure_prob_raw == pytest.approx(
                factor * km.failure_prob_raw, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="the default form divides by D, not "
                   "D^2: below D = 1 in the working unit it undercuts "
                   "Markov's bound, and at D = 0.01 it reads 0.0316 against "
                   "an exact tail of 0.157")
def test_default_form_bounds_the_exact_tail():
    for d in (1e-3, 0.005, 0.01, 0.02, 0.5, 2.0, 10.0):
        result = evaluate_bound(d, 5.0, 0.0, OU_PARAMS, ou_noise())
        assert ou_tail(d, 5.0) <= result.failure_prob_upper, d
