"""Information cost of a swarm configuration.

The cost combines the summed pairwise angular overlap of the spacecraft FOV
intervals (kappa_total, radians) with the fraction of POIs visible to at
least one spacecraft (the coverage term), as I = w * kappa_total - coverage.
Lower is better; experiment reports use -I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import (TWO_PI, _hold_distance, _perpendicular, as_vec3,
                       check_fields, visible_mask, wrap_theta)
from .sampling import PoiSet

# Perturbation applied when two spacecraft share an orientation, so their
# overlap registers as (almost) the full interval instead of zero.
DEFAULT_IDENTICAL_THETA_DELTA = 1e-6

# Objective value substituted when a candidate position degenerates onto the
# ellipsoid center; keeps the simplex search well-posed with finite values.
DEGENERACY_PENALTY = 1e9
DEGENERACY_RADIUS_KM = 1e-6


@dataclass(frozen=True)
class SpacecraftPose:
    """Terminal position plus FOV parameters of one spacecraft."""

    position: np.ndarray
    theta: float
    nu: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position, "position"))
        check_fields(self)  # a non-finite theta would wrap to NaN
        object.__setattr__(self, "theta", wrap_theta(float(self.theta)))
        for name in ("nu", "phi"):
            if not 0.0 < getattr(self, name) < np.pi:
                raise ValueError(f"{name} must lie in (0, pi)")


class SwarmConfig:
    """An ordered swarm of spacecraft observing one uncertainty ellipsoid,
    held as the optimizer sees it: `state` rows (x, y, z, theta in [0, 2
    pi)) and arrays `nu` and `phi`. Its checked poses are `spacecraft`."""

    def __init__(self, spacecraft, ellipsoid):
        poses = tuple(spacecraft)
        if len(poses) < 1:
            raise ValueError("swarm needs at least one spacecraft")
        self.state = np.array([[*p.position, p.theta] for p in poses])
        self.nu, self.phi = np.array([(p.nu, p.phi) for p in poses]).T
        self.ellipsoid = ellipsoid

    @classmethod
    def from_arrays(cls, state, nu, phi, ellipsoid) -> SwarmConfig:
        """The swarm of packed rows state (x, y, z, theta) and arrays nu and
        phi, its thetas wrapped, checked by one NumPy test (finite rows, nu
        and phi in (0, pi)); on a failure SpacecraftPose names the field."""
        swarm = cls.__new__(cls)
        swarm.nu, swarm.phi = arcs = np.array((nu, phi), dtype=float)
        swarm.state = state = np.array(state, float).reshape(len(nu), 4)
        swarm.ellipsoid = ellipsoid
        if not (np.isfinite(state).all()
                and ((0.0 < arcs) & (arcs < np.pi)).all()):
            swarm.spacecraft  # raises for the first bad field
        state[:, 3] = wrap_theta(state[:, 3])
        return swarm

    @classmethod
    def from_state(cls, x, template: SwarmConfig) -> SwarmConfig:
        """from_arrays of x on the template's nu, phi and ellipsoid."""
        return cls.from_arrays(x, template.nu, template.phi, template.ellipsoid)

    @property
    def spacecraft(self) -> tuple[SpacecraftPose, ...]:
        """The swarm's poses, each checked by SpacecraftPose."""
        rows = zip(self.state.tolist(), self.nu.tolist(), self.phi.tolist())
        return tuple(SpacecraftPose(r[:3], r[3], nu, phi) for r, nu, phi in rows)

    def __len__(self):
        return len(self.state)


@dataclass(frozen=True)
class CostBreakdown:
    """Components of one information-cost evaluation."""

    kappa_total: float
    epsilon_term: float
    information_cost: float
    visible_count: int
    n_pois: int

    def to_json_dict(self) -> dict:
        return {
            "kappa_total": self.kappa_total,
            "epsilon_pct": self.epsilon_term,
            "info_cost": self.information_cost,
            "visible_count": self.visible_count,
            "n_pois": self.n_pois,
        }


def _overlap_sum(theta, nu, total=0.0):
    """total plus, for each index pair i < j in row-major order, the length
    of the intersection of the arcs [theta[i] +- nu[i]] and [theta[j] +-
    nu[j]] on the circle; equal thetas get DEFAULT_IDENTICAL_THETA_DELTA
    added to one. The thetas must be wrapped into [0, 2 pi) (or NaN): |ti -
    tj| < 2 pi. The arcs can meet across both separations, sep and 2 pi -
    sep, each piece at most the narrower arc; for equal widths nu <= pi / 2
    the far piece is +0.0 and this is max(0, 2 nu - sep). Each min and max
    takes the computed value first, so a NaN orientation stays NaN."""
    for i, j in combinations(range(len(nu)), 2):
        ti, tj = theta[i], theta[j]
        if ti == tj:
            tj += DEFAULT_IDENTICAL_THETA_DELTA
        d = abs(ti - tj)
        sep = min(d, TWO_PI - d)
        reach = nu[i] + nu[j]
        narrow = min(2.0 * nu[i], 2.0 * nu[j])
        total += (max(min(reach - sep, narrow), 0.0)
                  + max(min(reach - (TWO_PI - sep), narrow), 0.0))
    return total


def pair_overlap(pose_i: SpacecraftPose, pose_j: SpacecraftPose) -> float:
    """Circular overlap (radians) between the FOV intervals of two spacecraft;
    identical orientations are perturbed, not read as a zero. The one-pair
    sum starts at -0.0, which adds nothing to any float (0.0 would turn a
    -0.0 overlap into 0.0)."""
    return float(_overlap_sum((pose_i.theta, pose_j.theta),
                              (pose_i.nu, pose_j.nu), -0.0))


def _chart(position, center, hold):
    """The direction chart of an aimed spacecraft at position (float
    3-sequences, as the center), a tuple (rho d, rho a, rho b) for the
    orthonormal frame (d, a, b) at its direction d from the center, a =
    geometry._perpendicular(d) and b = d x a, and its distance rho =
    max(start distance, hold), or the start distance when hold is inf;
    chart_apexes maps (u, v) to center + rho (d + u a + v b) /
    sqrt(1 + u^2 + v^2). A start within DEGENERACY_RADIUS_KM of the center
    takes the x axis as its direction. None when no apex of the chart could
    be scored: rho within the degeneracy radius of the center (plus the
    rounding of center + rho d) or too far for (2 rho)^2 to be finite."""
    (px, py, pz), (cx, cy, cz) = position, center
    dx, dy, dz = px - cx, py - cy, pz - cz
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist < DEGENERACY_RADIUS_KM:
        dist, dx, dy, dz = 0.0, 1.0, 0.0, 0.0
    rho = dist if hold == math.inf else max(dist, hold)
    ulp = 2.0 ** -50 * max(abs(cx), abs(cy), abs(cz))
    if not (DEGENERACY_RADIUS_KM + ulp < rho and 4.0 * rho * rho < math.inf):
        return None
    if dist:
        dx, dy, dz = dx / dist, dy / dist, dz / dist
    ax, ay, az = _perpendicular(dx, dy, dz)
    bx, by, bz = dy * az - dz * ay, dz * ax - dx * az, dx * ay - dy * ax
    return tuple(rho * e for e in (dx, dy, dz, ax, ay, az, bx, by, bz))


class EvalPlan:
    """The constants of the cost of one swarm layout on one POI set: the
    template's center, phi and nu, the POI columns, the checked orientation
    mode, the cost options, the overlap sum kappa of the template's thetas
    (summed once here) for aimed cones or a swarm of one (no pair), and for
    aimed cones each cone's hold distance from the center
    (geometry._hold_distance, once per aperture) and its direction chart at
    its position in the template (_chart; charted says whether every
    spacecraft has one). Nothing writes to a plan once it is built."""

    def __init__(self, swarm: SwarmConfig, pois: PoiSet, kappa_weight=1.0,
                 orientation_mode="aimed"):
        if len(pois) == 0:
            raise ValueError("POI set is empty")
        if orientation_mode not in ("aimed", "theta_tilt"):
            raise ValueError(f"unknown orientation mode: {orientation_mode!r}")
        self.tilted = orientation_mode == "theta_tilt"
        self.stride = 4 if self.tilted else 3
        self.center = swarm.ellipsoid.center
        self.c = self.center.tolist()
        self.points, self.columns = pois.points, pois.columns(self.center)
        self.phi, self.nu = swarm.phi.tolist(), swarm.nu.tolist()
        self.kappa = self.holds = self.charts = None
        self.charted = False
        if not self.tilted or len(self.nu) == 1:
            self.kappa = _overlap_sum(swarm.state[:, 3].tolist(), self.nu)
        if not self.tilted:
            holds = {p: _hold_distance(p, self.columns[1]) for p in {*self.phi}}
            self.holds = [holds[p] for p in self.phi]
            self.charts = [_chart(p, self.c, hold) for p, hold in
                           zip(swarm.state[:, :3].tolist(), self.holds)]
            self.charted = None not in self.charts
        self.kappa_weight, self.n = kappa_weight, len(pois)


def _cost(plan: EvalPlan, apexes, x, parts=False):
    """w * kappa_total - coverage of spacecraft at apexes (float 3-sequences)
    from the decision list x, or with parts its CostBreakdown: the plan's
    kappa, else the pair loop's overlap sum of x's thetas; in theta_tilt mode
    the cones tilted by x's thetas, else aimed cones with the plan's hold
    distances; then the kernel's count of POIs seen."""
    thetas = x[3::4] if plan.tilted else None
    kappa = _overlap_sum(thetas, plan.nu) if plan.kappa is None else plan.kappa
    count = visible_mask(plan.points, apexes, thetas, plan.phi, plan.center,
                         plan.columns, plan.holds, True)
    pct = 100.0 * count / plan.n
    cost = plan.kappa_weight * kappa - pct
    return CostBreakdown(kappa, pct, cost, count, plan.n) if parts else cost


def evaluate(plan: EvalPlan, x: list) -> float:
    """The cost of the plan's swarm at the float list x, its 3N positions
    (the thetas are the plan's), or in theta_tilt mode its packed 4N rows
    with wrapped thetas: DEGENERACY_PENALTY when a spacecraft stands within
    DEGENERACY_RADIUS_KM of the center, else a ValueError when a position is
    not finite, else DEGENERACY_PENALTY when a spacecraft's squared distance
    from the center overflows (no axis has a finite norm there), else _cost."""
    (cx, cy, cz), apexes = plan.c, []
    finite, far = True, False
    for i in range(0, len(x), plan.stride):
        px, py, pz = apex = x[i:i + 3]
        apexes.append(apex)
        dx, dy, dz = px - cx, py - cy, pz - cz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist < DEGENERACY_RADIUS_KM:
            return DEGENERACY_PENALTY
        if not dist < math.inf:  # a non-finite coordinate, or a far one
            far = True
            finite = finite and all(map(math.isfinite, apex))
    if not finite:
        raise ValueError("position must be three finite reals")
    return DEGENERACY_PENALTY if far else _cost(plan, apexes, x)


def chart_apexes(plan: EvalPlan, x: list) -> list:
    """The apexes (float 3-tuples) of the plan's aimed swarm at the chart
    coordinates x, (u, v) per spacecraft: center + rho (d + u a + v b) /
    sqrt(1 + u^2 + v^2) from each _chart, the three chart terms scaled by
    1 / max(|u|, |v|) when u^2 + v^2 overflows. Every such apex stands rho
    from the center, to rounding. ValueError for a non-finite coordinate."""
    cx, cy, cz = plan.c
    apexes = []
    for (px, py, pz, ax, ay, az, bx, by, bz), u, v in zip(
            plan.charts, x[0::2], x[1::2]):
        q = 1.0 + u * u + v * v
        if not q < math.inf:
            if not (math.isfinite(u) and math.isfinite(v)):
                raise ValueError("chart coordinates must be finite")
            m = max(abs(u), abs(v))
            u, v, px, py, pz = u / m, v / m, px / m, py / m, pz / m
            q = 1.0 / m / m + u * u + v * v
        s = math.sqrt(q)
        apexes.append((cx + (px + u * ax + v * bx) / s,
                       cy + (py + u * ay + v * by) / s,
                       cz + (pz + u * az + v * bz) / s))
    return apexes


def evaluate_directions(plan: EvalPlan, x: list) -> float:
    """The cost of the plan's aimed swarm at the chart coordinates x
    (chart_apexes), or DEGENERACY_PENALTY when the plan is not charted.
    Every chart apex stands at a scorable distance, so no degeneracy test
    runs."""
    if not plan.charted:
        return DEGENERACY_PENALTY
    return _cost(plan, chart_apexes(plan, x), x)


def cost_breakdown(plan: EvalPlan, x: list) -> CostBreakdown:
    """The CostBreakdown of the plan's swarm at the float list x, laid out
    as evaluate reads it: evaluate's cost without its degeneracy test."""
    k = plan.stride
    return _cost(plan, list(zip(x[0::k], x[1::k], x[2::k])), x, True)


def information_cost(swarm: SwarmConfig, pois: PoiSet,
                     kappa_weight: float = 1.0,
                     orientation_mode: str = "aimed") -> CostBreakdown:
    """Evaluate I = w * kappa_total - coverage for one configuration, with
    coverage as the percentage of POIs seen (0-100): cost_breakdown on a
    fresh plan of the swarm at its own positions (and thetas)."""
    plan = EvalPlan(swarm, pois, kappa_weight, orientation_mode)
    return cost_breakdown(plan, swarm.state[:, :plan.stride].ravel().tolist())
