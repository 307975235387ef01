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

from .geometry import (TWO_PI, ConeFov, _hold_distance, as_vec3, unit_axis,
                       visible_mask)
from .sampling import PoiSet

# Perturbation applied when two spacecraft share an orientation, so their
# overlap registers as (almost) the full interval instead of zero.
DEFAULT_IDENTICAL_THETA_DELTA = 1e-6

# Objective value substituted when a candidate position degenerates onto the
# ellipsoid center; keeps the simplex search well-posed with finite values.
DEGENERACY_PENALTY = 1e9
DEGENERACY_RADIUS_KM = 1e-6


def wrap_theta(theta):
    """theta (a float or an array) modulo 2 pi, in [0, 2 pi): a tiny negative
    theta's remainder rounds up to 2 pi, which the second one maps to 0.0."""
    theta = theta % TWO_PI
    theta %= TWO_PI  # in place on an array
    return theta


def _tilted(orientation_mode: str) -> bool:
    """Whether cone axes are tilted away from the center direction by theta
    ("theta_tilt") rather than aimed at the center ("aimed")."""
    if orientation_mode not in ("aimed", "theta_tilt"):
        raise ValueError(f"unknown orientation mode: {orientation_mode!r}")
    return orientation_mode == "theta_tilt"


@dataclass(frozen=True)
class SpacecraftPose:
    """Terminal position plus FOV parameters of one spacecraft."""

    position: np.ndarray
    theta: float
    nu: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "theta", wrap_theta(float(self.theta)))
        if not 0.0 < self.nu < np.pi:
            raise ValueError("nu must lie in (0, pi)")
        if not 0.0 < self.phi < np.pi:
            raise ValueError("phi must lie in (0, pi)")

    def fov(self, center, orientation_mode: str = "aimed") -> ConeFov:
        """Build this pose's viewing cone relative to the ellipsoid center."""
        tilt = self.theta if _tilted(orientation_mode) else None
        return ConeFov(self.position, unit_axis(
            self.position.tolist(), as_vec3(center).tolist(), tilt), self.phi)


class SwarmConfig:
    """An ordered swarm of spacecraft observing one uncertainty ellipsoid,
    packed as the optimizer sees it: `state` rows (x, y, z, theta in
    [0, 2 pi)), arrays `nu` and `phi`, and `pairs`, the index pairs (i, j)
    with i < j in row-major order."""

    def __init__(self, spacecraft, ellipsoid):
        poses = tuple(spacecraft)
        if len(poses) < 1:
            raise ValueError("swarm needs at least one spacecraft")
        self.state = np.array([[*p.position, p.theta] for p in poses])
        self.nu, self.phi = np.array([(p.nu, p.phi) for p in poses]).T
        self.pairs = tuple(combinations(range(len(poses)), 2))
        self.ellipsoid = ellipsoid

    @classmethod
    def from_state(cls, x, template: SwarmConfig) -> SwarmConfig:
        """The template's spacecraft moved to the packed vector x, built
        without pose objects: positions must be finite, thetas are wrapped."""
        state = np.array(x, dtype=float).reshape(len(template), 4)
        if not np.isfinite(state[:, :3]).all():
            raise ValueError("vector components must be finite")
        state[:, 3] = wrap_theta(state[:, 3])
        swarm = cls.__new__(cls)
        vars(swarm).update(vars(template), state=state)
        return swarm

    @property
    def spacecraft(self) -> tuple[SpacecraftPose, ...]:
        """The swarm as pose objects, built on each access."""
        return tuple(SpacecraftPose(row[:3], row[3], nu, phi) for row, nu, phi
                     in zip(self.state, self.nu.tolist(), self.phi.tolist()))

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


def _pair_terms(nu, pairs):
    """(i, j, nu[i] + nu[j], narrow) for each index pair (i, j), the widths
    _overlap_sum reads: narrow is min(2 nu[i], 2 nu[j]), written `wide if
    wide < narrow else narrow` (see _overlap_sum)."""
    terms = []
    for i, j in pairs:
        narrow, wide = 2.0 * nu[i], 2.0 * nu[j]
        terms.append((i, j, nu[i] + nu[j], wide if wide < narrow else narrow))
    return tuple(terms)


def _overlap_sum(theta, terms, total=0.0):
    """total plus, for each _pair_terms term (i, j, reach, narrow) in order,
    the length of the intersection of the circular arcs [theta[i] +- nu[i]]
    and [theta[j] +- nu[j]]; equal thetas get DEFAULT_IDENTICAL_THETA_DELTA
    added to one.

    The arcs can meet across both separations, sep and 2 pi - sep; for equal
    widths nu <= pi / 2 the far piece is empty and this is max(0, 2 nu - sep).
    `b if b < a else a` is min(a, b) to the bit: it keeps a when either is
    NaN (a carries a NaN orientation) or both are zeros, and `0.0 if a < 0.0
    else a` is max(a, 0.0) alike."""
    for i, j, reach, narrow in terms:
        ti, tj = theta[i], theta[j]
        if ti == tj:
            tj += DEFAULT_IDENTICAL_THETA_DELTA
        d = abs(ti - tj) % TWO_PI
        sep = TWO_PI - d
        sep = sep if sep < d else d
        near = reach - sep
        near = narrow if narrow < near else near
        far = reach - (TWO_PI - sep)
        far = narrow if narrow < far else far
        total += (0.0 if near < 0.0 else near) + (0.0 if far < 0.0 else far)
    return total


def pair_overlap(pose_i: SpacecraftPose, pose_j: SpacecraftPose) -> float:
    """Circular overlap (radians) between the FOV intervals of two spacecraft;
    identical orientations are perturbed, not read as a zero. The one-pair
    sum starts at -0.0, which adds nothing to any float (0.0 would turn a
    -0.0 overlap into 0.0)."""
    terms = _pair_terms((pose_i.nu, pose_j.nu), ((0, 1),))
    return float(_overlap_sum((pose_i.theta, pose_j.theta), terms, -0.0))


def kappa_total(swarm: SwarmConfig) -> float:
    """Sum of pair_overlap over all unordered spacecraft pairs, added one at
    a time in i < j order (a NumPy reduction groups the sum differently)."""
    return _overlap_sum(swarm.state[:, 3].tolist(),
                        _pair_terms(swarm.nu.tolist(), swarm.pairs))


class EvalPlan:
    """The constants of the cost of one swarm layout on one POI set: the
    template's center, phi and pair terms, the POI columns, the checked
    orientation mode, the cost options and, for aimed cones, each cone's
    hold distance from the center (geometry._hold_distance)."""

    def __init__(self, swarm: SwarmConfig, pois: PoiSet, kappa_weight=1.0,
                 orientation_mode="aimed"):
        if len(pois) == 0:
            raise ValueError("POI set is empty")
        self.tilted = _tilted(orientation_mode)
        self.center = swarm.ellipsoid.center
        self.c = self.center.tolist()
        self.points, self.columns = pois.points, pois.columns(self.center)
        self.phi = swarm.phi.tolist()
        self.holds = None if self.tilted else [
            _hold_distance(phi, self.columns[1]) for phi in self.phi]
        self.terms = _pair_terms(swarm.nu.tolist(), swarm.pairs)
        self.kappa_weight, self.n = kappa_weight, len(pois)


def _seen(plan: EvalPlan, rows, count=False):
    """The mask (or with count, the number) of POIs that a spacecraft of the
    (x, y, z, theta) rows sees. A tilted axis makes the tilt's circular
    distance from zero with the center direction (see unit_axis); aimed
    cones get their axes in the kernel, and only nearer than their hold
    distances."""
    apexes = [row[:3] for row in rows]
    if not plan.tilted:
        return visible_mask(plan.points, apexes, None, None, plan.phi,
                            plan.center, plan.columns, plan.holds, count)
    axes = [unit_axis(apex, plan.c, row[3]) for apex, row in zip(apexes, rows)]
    angles = [min(row[3], TWO_PI - row[3]) for row in rows]
    return visible_mask(plan.points, apexes, axes, angles, plan.phi,
                        plan.center, plan.columns, count=count)


def _cost(plan: EvalPlan, rows) -> float:
    """w * kappa_total - coverage of the (x, y, z, theta) rows of floats."""
    kappa = _overlap_sum([row[3] for row in rows], plan.terms)
    count = _seen(plan, rows, count=True)
    return plan.kappa_weight * kappa - 100.0 * count / plan.n


def evaluate(plan: EvalPlan, x: list, cost=_cost) -> float:
    """The cost of the plan's swarm at the packed float list x, whose thetas
    are already wrapped: DEGENERACY_PENALTY when a spacecraft stands within
    DEGENERACY_RADIUS_KM of the center, else a ValueError when a position is
    not finite, else DEGENERACY_PENALTY when a spacecraft's squared distance
    from the center overflows (no axis has a finite norm there), else
    cost(plan, rows) of x's (x, y, z, theta) rows."""
    rows = [x[k:k + 4] for k in range(0, len(x), 4)]
    cx, cy, cz = plan.c
    finite, far = True, False
    for px, py, pz, _ in rows:
        dx, dy, dz = px - cx, py - cy, pz - cz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist < DEGENERACY_RADIUS_KM:
            return DEGENERACY_PENALTY
        if not dist < math.inf:  # a non-finite coordinate, or a far one
            far = True
            finite = finite and all(map(math.isfinite, (px, py, pz)))
    if not finite:
        raise ValueError("vector components must be finite")
    return DEGENERACY_PENALTY if far else cost(plan, rows)


def coverage(swarm: SwarmConfig, pois: PoiSet,
             orientation_mode: str = "aimed") -> tuple[int, float, np.ndarray]:
    """POIs visible to at least one spacecraft: count, percentage, and the
    boolean mask over the POIs."""
    plan = EvalPlan(swarm, pois, orientation_mode=orientation_mode)
    seen = _seen(plan, swarm.state.tolist())
    count = int(np.count_nonzero(seen))
    return count, 100.0 * count / len(pois), seen


def information_cost(swarm: SwarmConfig, pois: PoiSet,
                     kappa_weight: float = 1.0,
                     orientation_mode: str = "aimed") -> CostBreakdown:
    """Evaluate I = w * kappa_total - coverage for one configuration, with
    coverage as the percentage of POIs seen (0-100)."""
    kappa = kappa_total(swarm)
    count, pct, _ = coverage(swarm, pois, orientation_mode)
    return CostBreakdown(kappa, pct, kappa_weight * kappa - pct, count,
                         len(pois))


def _expected_cost(plan: EvalPlan, rows, stddev, n_samples, seed) -> float:
    """The mean of _cost over n_samples copies of the (x, y, z, theta) rows
    with each position moved by isotropic normal noise of the given standard
    deviation (km) from a generator seeded with seed; _cost of the rows
    themselves when stddev is 0, so that cost is bitwise the deterministic
    one."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if stddev < 0.0:
        raise ValueError("position_stddev must be non-negative")
    if not stddev < math.inf:
        raise ValueError("position_stddev must be finite")
    if stddev == 0.0:
        return _cost(plan, rows)
    rng = np.random.default_rng(seed)
    state = np.array(rows)
    total = 0.0
    for _ in range(n_samples):
        noisy = state.copy()
        noisy[:, :3] += rng.normal(0.0, stddev, (len(state), 3))
        total += _cost(plan, noisy.tolist())
    return total / n_samples


def expected_information_cost(swarm: SwarmConfig, pois: PoiSet,
                              position_stddev: float, n_samples: int,
                              seed: int, **cost_kwargs) -> float:
    """Monte Carlo mean of the information cost under Gaussian position noise.

    Each spacecraft position is perturbed by an isotropic zero-mean normal
    with the given standard deviation (km); orientations are unperturbed.
    Deterministic in the seed.
    """
    return _expected_cost(EvalPlan(swarm, pois, **cost_kwargs),
                          swarm.state.tolist(), position_stddev, n_samples,
                          seed)
