import json
import math
from pathlib import Path

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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    assert res.failure_prob_raw == pytest.approx((0.3 + 0.02) / (2.0 ** 2))
    assert res.success_prob_raw == pytest.approx(1.0 - 0.08)


def test_failure_bound_decay_and_noise_terms():
    p = base_params(alpha_s=0.1, m_c_lower=0.5, m_e_lower=0.5,
                    eps_c=0.02, gamma_c=0.1)
    noise = NoiseProfile.constant(0.01, 10.0, n=20001)
    t = 5.0
    decay = np.exp(-2 * 0.1 * t)
    integral = 0.01 * (np.exp(2 * 0.1 * t) - 1.0) / (2 * 0.1)
    expected = (0.3 * decay + 0.02 + decay * integral) / 2.0 ** 2
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


def test_bound_divides_by_the_squared_distance():
    # B = 1 (v0 = 1 at t = 0, c_s = 0, no noise) and m_lower = 2: Markov's
    # value B / (D^2 m_lower); the source's printed value is this times D
    p = base_params()
    noise = NoiseProfile.constant(0.0, 1.0)
    one = evaluate_bound(1.0, 0.0, 1.0, p, noise).failure_prob_raw
    three = evaluate_bound(3.0, 0.0, 1.0, p, noise).failure_prob_raw
    assert one == 0.5
    assert three == pytest.approx(1.0 / 18.0, rel=1e-15)


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
    # the numbers README quotes, at t = 5 and D = 0.01: the bound reads 3.16
    # and holds; the source's printed value, the bound times D, reads 0.0316
    # and does not
    assert ou_tail(0.01, 5.0) == pytest.approx(0.1573, abs=1e-4)
    markov = evaluate_bound(0.01, 5.0, 0.0, OU_PARAMS, ou_noise())
    assert markov.failure_prob_raw == pytest.approx(3.16, abs=1e-2)
    assert 0.01 * markov.failure_prob_raw == pytest.approx(0.0316, abs=1e-4)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.05, 10.0))
def test_markov_form_bounds_the_exact_tail(log_d, t):
    """The bound holds P(|x(t)| >= D) for D on both sides of 1."""
    d = 10.0 ** log_d
    result = evaluate_bound(d, t, 0.0, OU_PARAMS, ou_noise())
    assert ou_tail(d, t) <= result.failure_prob_upper
    assert ou_tail(d, t) <= result.failure_prob_raw


def test_bound_holds_the_exact_tail_where_the_printed_form_fails():
    """Distances at which the source's printed form (denominator D m_lower)
    undercuts the exact tail, below D = 0.0166, and above them."""
    for d in (1e-3, 0.005, 0.01, 0.02, 0.5, 2.0, 10.0):
        result = evaluate_bound(d, 5.0, 0.0, OU_PARAMS, ou_noise())
        assert ou_tail(d, 5.0) <= result.failure_prob_upper, d


# The estimator error as an isotropic 3-D Ornstein-Uhlenbeck process
# dx = -x dt + s dW from x(0) = 0, so x(T_ISO) ~ N(0, sigma^2 I) with
# sigma^2 = s^2 (1 - e^{-2 T_ISO}) / 2. Its noise term is 3 s^2, which zeta
# carries (ell_bar = 1). alpha_s = 0.99 is just inside the process's own
# rate 1, so the numerator exceeds E|x|^2 = 3 sigma^2 by about 1%.
T_ISO = 5.0
ISO_PARAMS = ContractionParams(**{**OU_PARAMS.__dict__, "alpha_s": 0.99})


def iso_noise(sigma):
    return NoiseProfile.constant(6.0 * sigma ** 2 / -math.expm1(-2.0 * T_ISO),
                                 10.0, 1001)


def iso_tail(y):
    """P(|x| >= y sigma) for x ~ N(0, sigma^2 I_3): the chi tail with 3
    degrees of freedom."""
    return (math.erfc(y / math.sqrt(2.0))
            + math.sqrt(2.0 / math.pi) * y * math.exp(-y * y / 2.0))


def test_isotropic_instance_is_nearly_tight():
    assert check_rate_matrix(ISO_PARAMS).feasible
    for sigma in (1e-3, 1.0, 1e3):
        numerator = _numerator(T_ISO, 0.0, ISO_PARAMS, zeta_integral(
            T_ISO, ISO_PARAMS, iso_noise(sigma)))
        assert 1.0 <= numerator / (3.0 * sigma ** 2) < 1.02
    assert iso_tail(0.0) == 1.0
    assert iso_tail(math.sqrt(7.814728)) == pytest.approx(0.05, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_bound_holds_the_isotropic_gaussian_tail(log_sigma, log_d):
    """For any sigma and D on both sides of 1, in the bound's unit."""
    sigma, d = 10.0 ** log_sigma, 10.0 ** log_d
    result = evaluate_bound(d, T_ISO, 0.0, ISO_PARAMS, iso_noise(sigma))
    assert iso_tail(d / sigma) <= result.failure_prob_raw


def in_metres(params):
    """The same process with lengths in m instead of km: eps_c is a length
    per unit time; V, v0 and zeta are squared lengths."""
    return ContractionParams(**{**params.__dict__,
                                "eps_c": 1e3 * params.eps_c})


def test_bound_and_radius_are_unit_invariant():
    """The value at a distance, and the radius as a distance, do not depend
    on the unit of length."""
    example = load_bound_config(CONFIGS / "bound_example.json")
    for (params, noise), v0 in ((example, 0.3),
                                ((OU_PARAMS, ou_noise()), 0.0)):
        metres = NoiseProfile(noise.times, 1e6 * noise.zetas)
        for d in (0.005, 0.01, 2.0, 40.0):
            km = evaluate_bound(d, 5.0, v0, params, noise)
            m = evaluate_bound(1e3 * d, 5.0, 1e6 * v0, in_metres(params),
                               metres)
            assert m.failure_prob_raw == pytest.approx(km.failure_prob_raw,
                                                       rel=1e-12)
        for p in (0.5, 0.99):
            radius = radius_for_success_probability(p, 5.0, v0, params, noise)
            assert radius_for_success_probability(
                p, 5.0, 1e6 * v0, in_metres(params), metres) == \
                pytest.approx(1e3 * radius, rel=1e-12)


# A coupled linear-Gaussian instance for any feasible parameters, with both
# errors in R^2: metrics M_c = diag(m_c_lower, m_c_upper) and M_e =
# diag(m_e_lower, m_e_upper), so V = x_c' M_c x_c + lam x_e' M_e x_e, and
#   dx_c = (-alpha_c x_c + g_bar u_bar x_e + g_bar eps_c e_2) dt
#   dx_e = (-alpha_e + eps_e h_bar) x_e dt + G dW, G G' = ell_bar zeta I / 2.
# Each term meets its constant: the coupling's gain is m_c_upper g_bar u_bar,
# the constant policy error g_bar eps_c lies along M_c's larger axis (so
# Young's inequality gives c_s), the estimation error shifts alpha_e by
# eps_e h_bar, and the noise adds lam tr(M_e G G') <= lam m_e_upper ell_bar
# zeta. Under the rate-matrix condition, d E[V] / dt <= -2 alpha_s E[V] +
# 2 alpha_s c_s + lam m_e_upper ell_bar zeta, so E[V(t)] is at most the
# bound's numerator.
def linear_instance(p, zeta):
    """(drift A, constant input b, diffusion Q, weight W) of the instance."""
    eye = np.eye(2)
    A = np.block([[-p.alpha_c * eye, p.g_bar * p.u_bar * eye],
                  [np.zeros((2, 2)), (p.eps_e * p.h_bar - p.alpha_e) * eye]])
    b = np.array([0.0, p.g_bar * p.eps_c, 0.0, 0.0])
    Q = np.diag([0.0, 0.0, 1.0, 1.0]) * p.ell_bar * zeta / 2.0
    W = np.diag([p.m_c_lower, p.m_c_upper, p.lam * p.m_e_lower,
                 p.lam * p.m_e_upper])
    return A, b, Q, W


def exact_moments(p, zeta, x0, t):
    """(mean, second moment) at t from the deterministic start x0: the
    Lyapunov ODE mu' = A mu + b, S' = A S + S A' + b mu' + mu b' + Q, linear
    in (mu, S, 1), solved by one matrix exponential."""
    from scipy.linalg import expm
    A, b, Q, _ = linear_instance(p, zeta)
    n, eye = len(b), np.eye(len(b))
    K = np.zeros((n + n * n + 1,) * 2)
    K[:n, :n], K[:n, -1] = A, b
    K[n:-1, :n] = np.kron(b[:, None], eye) + np.kron(eye, b[:, None])
    K[n:-1, n:-1] = np.kron(A, eye) + np.kron(eye, A)
    K[n:-1, -1] = Q.ravel()
    z = expm(K * t) @ np.concatenate([x0, np.outer(x0, x0).ravel(), [1.0]])
    return z[:n], z[n:-1].reshape(n, n)


def expected_v(p, zeta, x0, t):
    W = linear_instance(p, zeta)[3]
    return float(np.trace(W @ exact_moments(p, zeta, x0, t)[1]))


def test_exact_moments_solve_the_lyapunov_ode():
    """The matrix exponential against RK4 on the ODE in matrix form."""
    p, zeta = draw_feasible_params(np.random.default_rng(32)), 0.05
    A, b, Q, _ = linear_instance(p, zeta)
    x0 = np.array([1.0, -0.5, 0.3, 0.7])

    def rate(mu, S):
        return A @ mu + b, A @ S + S @ A.T + np.outer(b, mu) \
            + np.outer(mu, b) + Q

    mu, S, h = x0, np.outer(x0, x0), 0.002
    for _ in range(1000):
        k1 = rate(mu, S)
        k2 = rate(mu + h / 2 * k1[0], S + h / 2 * k1[1])
        k3 = rate(mu + h / 2 * k2[0], S + h / 2 * k2[1])
        k4 = rate(mu + h * k3[0], S + h * k3[1])
        mu = mu + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        S = S + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    want_mu, want_S = exact_moments(p, zeta, x0, 2.0)
    np.testing.assert_allclose(mu, want_mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(S, want_S, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 10.0), st.floats(0.0, 0.2),
       st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
def test_numerator_bounds_the_coupled_expected_v(seed, t, zeta, x0):
    """E[V(t)] <= the bound's numerator across the feasible domain, with
    eps_c > 0 and u_bar > 0 drawn."""
    p = draw_feasible_params(np.random.default_rng(seed))
    x0 = np.array(x0)
    v0 = float(x0 @ linear_instance(p, zeta)[3] @ x0)
    noise = NoiseProfile.constant(zeta, 10.0, 1001)
    numerator = _numerator(t, v0, p, zeta_integral(t, p, noise))
    assert expected_v(p, zeta, x0, t) <= numerator * (1.0 + 1e-12)


# A coupled instance near the edge of the rate-matrix condition (alpha_s =
# 0.9 against a controller rate of 0.99), started at x_c = (1, 0) on M_c's
# smaller axis with x_e = 0: E[V] is 90% of the numerator at t = 0.5 and
# 81% at t = 1.
COUPLED = ContractionParams(
    alpha_c=1.0, alpha_e=1.0, m_c_lower=1.0, m_c_upper=1.0, m_e_lower=1.0,
    m_e_upper=1.0, eps_c=0.01, eps_e=0.0, g_bar=1.0, u_bar=0.1, h_bar=1.0,
    ell_bar=1.0, gamma_c=0.02, lam=1.0, alpha_s=0.9)
COUPLED_ZETA, COUPLED_X0 = 0.01, np.array([1.0, 0.0, 0.0, 0.0])


def coupled_cases():
    """(t, D, the bound's numerator, P(|x_c1(t)| >= D) exactly) at 90% of
    the mean of x_c's first coordinate, which is Gaussian."""
    noise = NoiseProfile.constant(COUPLED_ZETA, 10.0, 1001)
    for t in (0.5, 1.0):
        mu, S = exact_moments(COUPLED, COUPLED_ZETA, COUPLED_X0, t)
        s = math.sqrt(2.0 * (S[0, 0] - mu[0] ** 2))
        d = 0.9 * mu[0]
        tail = (math.erfc((d - mu[0]) / s) + math.erfc((d + mu[0]) / s)) / 2
        yield t, d, _numerator(t, 1.0, COUPLED, zeta_integral(
            t, COUPLED, noise)), tail


def test_coupled_tail_meets_markov_with_the_smaller_metric_bound():
    """V >= min(m_c_lower, lam m_e_lower) |x|^2 for the stacked error x, and
    V >= m_c_lower |x_c|^2, so numerator / (D^2 min(...)) bounds both tails,
    which are at least P(|x_c1| >= D)."""
    assert check_rate_matrix(COUPLED).feasible
    smaller = min(COUPLED.m_c_lower, COUPLED.lam * COUPLED.m_e_lower)
    for t, d, numerator, tail in coupled_cases():
        assert 0.99 < tail <= numerator / (d * d * smaller)
        assert expected_v(COUPLED, COUPLED_ZETA, COUPLED_X0, t) \
            > 0.8 * numerator


@pytest.mark.xfail(strict=True, reason="m_lower_combined = m_c_lower + lam "
                   "m_e_lower: V is at least the smaller of the two times "
                   "|x|^2, not their sum; near a deterministic error the "
                   "bound reads 0.69 at t = 0.5 against a tail of 1.0")
def test_bound_holds_the_coupled_tail():
    for t, d, _, tail in coupled_cases():
        result = evaluate_bound(d, t, 1.0, COUPLED, NoiseProfile.constant(
            COUPLED_ZETA, 10.0, 1001))
        assert tail <= result.failure_prob_upper, t
