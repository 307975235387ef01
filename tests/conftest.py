import math

import numpy as np
import pytest

from isoswarm import geometry
from isoswarm.bound import ContractionParams, check_rate_matrix
from isoswarm.cost import EvalPlan
from isoswarm.geometry import _SLACK, relative_columns

# The swarm files of CI's optimize runs. TWO_CRAFT: two spacecraft at 400
# km, beyond their hold distance, whose given FOV intervals overlap; the
# placed thetas do not, so a search over positions starts on a coverage
# plateau and stops after one iteration. CLOSE_CRAFT: the same two at 150
# km, inside their hold distance (about 208.6 km), which a deterministic
# run places them at.
TWO_CRAFT = {"ellipsoid": {"center": [0, 0, 0], "radii": [100, 100, 100]},
             "spacecraft": [{"position": [400, 0, 0], "theta": 0.5,
                             "nu": 0.5, "phi": 1.0},
                            {"position": [0, 400, 0], "theta": 0.7,
                             "nu": 0.5, "phi": 1.0}]}
CLOSE_CRAFT = {**TWO_CRAFT, "spacecraft": [
    {**TWO_CRAFT["spacecraft"][0], "position": [150, 0, 0]},
    {**TWO_CRAFT["spacecraft"][1], "position": [0, 150, 0]}]}


def draw_feasible_params(rng: np.random.Generator) -> ContractionParams:
    """Random parameter set satisfying the rate-matrix condition.

    alpha_s is placed inside the decoupled feasible range and the coupling
    bound u_bar is scaled back until the 2x2 condition holds.
    """
    while True:
        alpha_c = rng.uniform(0.5, 3.0)
        alpha_e = rng.uniform(0.5, 3.0)
        m_c_lower = rng.uniform(0.3, 2.0)
        m_c_upper = m_c_lower * rng.uniform(1.0, 3.0)
        m_e_lower = rng.uniform(0.3, 2.0)
        m_e_upper = m_e_lower * rng.uniform(1.0, 3.0)
        gamma_c = rng.uniform(0.1, 0.8) * 2.0 * alpha_c * m_c_lower
        h_bar = rng.uniform(0.1, 2.0)
        eps_e = rng.uniform(0.0, 0.5) * alpha_e * m_e_lower / (m_e_upper * h_bar)
        a_c = alpha_c * m_c_lower - gamma_c / 2.0
        a_e = alpha_e * m_e_lower - m_e_upper * eps_e * h_bar
        if a_c <= 0.0 or a_e <= 0.0:
            continue
        alpha_s = rng.uniform(0.2, 0.8) * min(a_c / m_c_upper, a_e / m_e_upper)
        lam = rng.uniform(0.2, 5.0)
        g_bar = rng.uniform(0.1, 2.0)
        d11 = -2.0 * a_c + 2.0 * alpha_s * m_c_upper
        d22 = -2.0 * lam * a_e + 2.0 * alpha_s * lam * m_e_upper
        k_max = np.sqrt(d11 * d22)
        u_bar = rng.uniform(0.0, 0.9) * k_max / (m_c_upper * g_bar)
        params = ContractionParams(
            alpha_c=alpha_c, alpha_e=alpha_e,
            m_c_lower=m_c_lower, m_c_upper=m_c_upper,
            m_e_lower=m_e_lower, m_e_upper=m_e_upper,
            eps_c=rng.uniform(0.0, 0.3), eps_e=eps_e,
            g_bar=g_bar, u_bar=u_bar, h_bar=h_bar,
            ell_bar=rng.uniform(0.1, 2.0),
            gamma_c=gamma_c, lam=lam, alpha_s=alpha_s,
        )
        if check_rate_matrix(params).feasible:
            return params


def arc_mask(grid, centers, nus):
    """Whether each grid angle lies within nus of centers on the circle:
    np.abs((grid - centers + pi) % (2 pi) - pi) <= nus bit for bit, with
    centers and nus scalars or (k, 1) columns. Angles lie in [0, 2 pi), so
    x = grid - centers + pi lies in (-pi, 3 pi) and the modulo is one of two
    corrections, each exact or rounded as np.mod rounds it: x - 2 pi for
    x >= 2 pi (exact by Sterbenz, as fmod's result is) and x + 2 pi for
    x < 0. The work is in place, with no temporaries of the grid's size
    beyond the masks."""
    x = np.subtract(grid, centers)
    x += np.pi
    np.subtract(x, 2.0 * np.pi, out=x, where=x >= 2.0 * np.pi)
    np.add(x, 2.0 * np.pi, out=x, where=x < 0.0)
    x -= np.pi
    np.abs(x, out=x)
    return x <= nus


def dot3(a, b):
    """a . b over three components indexed first, elementwise."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def unculled_mask(points, apexes, axes, apertures, center):
    """The visibility kernel with no whole-cone cull, plane product or
    filter: the union over the cones of the elementwise near half-space
    (point - center) . (apex - center) >= -s D^2 AND the elementwise cone
    test d = (point - apex) . axis > s D, |point - apex|^2 cos^2(phi / 2) <=
    d^2, with the slack s = _SLACK and D = |apex - center|."""
    centered = relative_columns(points, center)
    seen = np.zeros(len(points), dtype=bool)
    for apex, axis, phi in zip(apexes, axes, apertures):
        to_apex = (apex - center).tolist()
        dist = math.hypot(*to_apex)
        rel = relative_columns(points, apex)
        d = dot3(rel, axis)
        c = np.cos(phi / 2.0)
        seen |= ((dot3(centered, to_apex) >= -_SLACK * dist * dist)
                 & (d > _SLACK * dist) & (dot3(rel, rel) * (c * c) <= d * d))
    return seen


def plan_mask(swarm, pois, mode="aimed"):
    """The mask of POIs the swarm sees: one kernel call on the swarm's
    evaluation plan (its POI columns and, for aimed cones, hold distances),
    the mask whose count the cost takes."""
    plan, state = EvalPlan(swarm, pois, orientation_mode=mode), swarm.state
    return geometry.visible_mask(
        plan.points, state[:, :3].tolist(),
        state[:, 3].tolist() if plan.tilted else None, plan.phi, plan.center,
        plan.columns, plan.holds)


def spy(monkeypatch, name):
    """Record the arguments and the result of each geometry.<name> call."""
    calls, real = [], getattr(geometry, name)

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(geometry, name, wrapper)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
