"""Numeric evaluation of the hierarchical stochastic-contraction encounter bound.

Given the contraction-rate and metric-eigenvalue constants of the coupled
controller/estimator system plus an empirical noise-intensity history, this
module evaluates the closed-form upper bound on the probability that the
terminal delivery error exceeds a distance D, the complementary success
probability, the 2x2 rate-matrix feasibility condition behind the constants,
and the inversion of the success bound to an ellipsoid radius.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .geometry import check_fields, fits


class InfeasibleParamsError(ValueError):
    """The rate-matrix condition does not hold for these parameters."""


class ExtrapolationError(ValueError):
    """Requested time lies beyond the recorded noise history."""


@dataclass(frozen=True)
class ContractionParams:
    """Scalar constants of the hierarchical contraction bound.

    alpha_c / alpha_e are the controller / estimator contraction rates (1/s);
    m_*_lower / m_*_upper bound the metric eigenvalues; eps_c / eps_e are the
    control / estimation policy approximation-error bounds; g_bar, u_bar,
    h_bar are norm/Lipschitz bounds on the input matrix, controller, and
    measurement map; ell_bar bounds the squared Frobenius norm of the
    estimation gain; gamma_c is the Young's-inequality split constant; lam
    weights the estimator block; alpha_s is the combined contraction rate.
    """

    alpha_c: float
    alpha_e: float
    m_c_lower: float
    m_c_upper: float
    m_e_lower: float
    m_e_upper: float
    eps_c: float
    eps_e: float
    g_bar: float
    u_bar: float
    h_bar: float
    ell_bar: float
    gamma_c: float
    lam: float
    alpha_s: float

    def __post_init__(self):
        check_fields(self)
        for name in self.__dataclass_fields__:  # the bound is float math
            object.__setattr__(self, name, value := float(getattr(self, name)))
            bound = name.startswith("eps_") or name.endswith("_bar")
            if not (value > 0.0 or bound and value == 0.0):  # bounds may be 0
                raise ValueError(f"{name} must be positive" + " or 0" * bound)
        if self.m_c_lower > self.m_c_upper or self.m_e_lower > self.m_e_upper:
            raise ValueError("metric eigenvalue bounds must satisfy m_c_lower "
                             "<= m_c_upper and m_e_lower <= m_e_upper")

    @property
    def c_s(self) -> float:
        """Steady offset (m_c_upper * g_bar * eps_c)^2 / (2 alpha_s gamma_c)."""
        return _quotient((self.m_c_upper * self.g_bar * self.eps_c) ** 2,
                         2.0 * self.alpha_s * self.gamma_c, "steady offset")

    @property
    def m_lower_combined(self) -> float:
        """Combined metric lower bound m_c_lower + lam * m_e_lower."""
        return self.m_c_lower + self.lam * self.m_e_lower


class RateMatrixCheck(NamedTuple):
    feasible: bool
    alpha_bar_c: float
    alpha_bar_e: float


def _effective_rates(params: ContractionParams) -> tuple[float, float]:
    """The effective rates (alpha_bar_c, alpha_bar_e)."""
    return (params.alpha_c * params.m_c_lower - params.gamma_c / 2.0,
            params.alpha_e * params.m_e_lower
            - params.m_e_upper * params.eps_e * params.h_bar)


def check_rate_matrix(params: ContractionParams) -> RateMatrixCheck:
    """The 2x2 coupled rate-matrix condition: both effective rates positive,
    shifted_rate_matrix negative semidefinite (trace <= 0, determinant >= 0)."""
    a_c, a_e = _effective_rates(params)
    if a_c <= 0.0 or a_e <= 0.0:
        return RateMatrixCheck(False, a_c, a_e)
    (d11, k), (_, d22) = shifted_rate_matrix(params).tolist()
    return RateMatrixCheck(d11 + d22 <= 0.0 and d11 * d22 - k * k >= 0.0,
                           a_c, a_e)


def _require_feasible(params: ContractionParams) -> None:
    """Raise InfeasibleParamsError unless check_rate_matrix holds."""
    check = check_rate_matrix(params)
    if not check.feasible:
        raise InfeasibleParamsError(
            "rate-matrix condition violated "
            f"(alpha_bar_c = {check.alpha_bar_c:g}, alpha_bar_e = {check.alpha_bar_e:g})"
        )


def shifted_rate_matrix(params: ContractionParams) -> np.ndarray:
    """[[-2 a_c, k], [k, -2 lam a_e]] + 2 alpha_s diag(m_c_upper, lam m_e_upper)
    with the effective rates a_c, a_e and k = m_c_upper * g_bar * u_bar: the
    matrix whose negative semidefiniteness check_rate_matrix tests."""
    a_c, a_e = _effective_rates(params)
    k = params.m_c_upper * params.g_bar * params.u_bar
    return np.array([
        [-2.0 * a_c + 2.0 * params.alpha_s * params.m_c_upper, k],
        [k, -2.0 * params.lam * a_e + 2.0 * params.alpha_s * params.lam * params.m_e_upper],
    ])


@dataclass(frozen=True)
class NoiseProfile:
    """Empirical history of the squared-Frobenius measurement-noise bound."""

    times: np.ndarray
    zetas: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        z = np.asarray(self.zetas, dtype=float)
        if t.ndim != 1 or t.shape != z.shape or t.size < 1:
            raise ValueError("times and zetas must be matching 1-D arrays")
        if not (np.isfinite(t).all() and np.isfinite(z).all()):
            raise ValueError("noise times and zetas must be finite")
        if t[0] != 0.0:
            raise ValueError("noise history must start at t = 0")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("noise sample times must be strictly increasing")
        if np.any(z < 0.0):
            raise ValueError("zeta values must be non-negative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "zetas", z)

    @classmethod
    def constant(cls, zeta: float, t_end: float, n: int = 2):
        return cls(np.linspace(0.0, t_end, n), np.full(n, float(zeta)))

    @classmethod
    def from_pairs(cls, pairs):
        if not (isinstance(pairs, list) and all(isinstance(p, list) and fits(
                "tuple[float, float]", tuple(p)) for p in pairs)):
            raise ValueError("noise must be [t, zeta] pairs of finite reals")
        arr = np.array(pairs, dtype=float).reshape(-1, 2)
        return cls(arr[:, 0], arr[:, 1])

    def _check_time(self, t: float) -> None:
        """Raise ExtrapolationError unless 0 <= t <= the last sample time."""
        if not 0.0 <= t <= self.times[-1]:
            raise ExtrapolationError(
                f"t = {t} outside recorded noise history [0, {self.times[-1]}]"
            )


def zeta_integral(t: float, params: ContractionParams,
                  noise: NoiseProfile) -> float:
    """lam * m_e_upper * ell_bar * integral_0^t exp(2 alpha_s tau) zeta(tau) dtau.

    Trapezoidal quadrature on the noise sample grid restricted to [0, t],
    with zeta linearly interpolated at the endpoint.
    """
    noise._check_time(t)
    if t == 0.0:
        return 0.0
    inner = noise.times[noise.times < t]
    grid = np.append(inner, t)
    z = np.interp(grid, noise.times, noise.zetas)
    integrand = np.exp(2.0 * params.alpha_s * grid) * z
    quad = float(np.trapezoid(integrand, grid))  # an overflow gives inf
    return params.lam * params.m_e_upper * params.ell_bar * quad


@dataclass(frozen=True)
class BoundResult:
    """Evaluated encounter bound at one (D, t) pair.

    failure_prob_upper / success_prob_lower are clamped to [0, 1]; the raw
    (unclamped) values are kept alongside since a vacuous bound above 1 is
    still informative.
    """

    failure_prob_upper: float
    success_prob_lower: float
    failure_prob_raw: float
    success_prob_raw: float
    c_s: float
    zeta_integral: float
    m_lower_combined: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _quotient(num: float, den: float, what: str) -> float:
    """num / den, raising ValueError when den underflowed to 0 or the
    quotient is not finite."""
    if den == 0.0 or not math.isfinite(value := num / den):
        raise ValueError(f"{what} out of range: {num!r} / {den!r}")
    return value


def _numerator(t: float, v0_expected: float, params: ContractionParams,
               zeta: float) -> float:
    """Bound numerator at time t, given zeta = zeta_integral(t, ...)."""
    decay = np.exp(-2.0 * params.alpha_s * t)
    value = float(v0_expected * decay + params.c_s + decay * zeta)
    if not value < math.inf:  # the bound would read inf / inf
        raise ValueError(f"bound numerator out of range: {value}")
    return value


def evaluate_bound(D: float, t: float, v0_expected: float,
                   params: ContractionParams, noise: NoiseProfile) -> BoundResult:
    """Evaluate the failure and success probability bounds at distance D.

    Markov's inequality with V >= m_lower |x|^2: the numerator bounds E[V(t)],
    so P(|x(t)| >= D) <= numerator / (D^2 m_lower), in any unit of length.
    """
    if not 0.0 < D < math.inf:
        raise ValueError("failure distance D must be finite and positive")
    _require_feasible(params)
    zeta = zeta_integral(t, params, noise)
    fail_raw = _quotient(_numerator(t, v0_expected, params, zeta),
                         D * D * params.m_lower_combined,
                         "bound failure probability")
    success_raw = 1.0 - fail_raw
    clamp = lambda p: min(1.0, max(0.0, p))
    return BoundResult(clamp(fail_raw), clamp(success_raw), fail_raw,
                       success_raw, params.c_s, zeta, params.m_lower_combined)


def radius_for_success_probability(p_target: float, T: float,
                                   v0_expected: float,
                                   params: ContractionParams,
                                   noise: NoiseProfile) -> float:
    """Smallest D whose success bound certifies probability p_target.

    Inverts the success bound: D = sqrt(B / ((1 - p_target) * m_lower)), where
    B is the bound numerator at time T. B = 0 returns D = 0 (perfect delivery).
    """
    if not 0.0 < p_target < 1.0:
        raise ValueError("target probability must lie in (0, 1); the bound "
                         "never certifies probability 1 with a nonzero numerator")
    _require_feasible(params)
    B = _numerator(T, v0_expected, params, zeta_integral(T, params, noise))
    if B == 0.0:
        return 0.0
    return math.sqrt(_quotient(B, (1.0 - p_target) * params.m_lower_combined,
                               "radius"))


def load_bound_config(path) -> tuple[ContractionParams, NoiseProfile]:
    """Read a JSON config: flat scalar keys plus a "noise" array of [t, zeta]."""
    with open(path) as f:
        cfg = json.load(f)
    noise = NoiseProfile.from_pairs(cfg.pop("noise", None))
    return ContractionParams(**cfg), noise
