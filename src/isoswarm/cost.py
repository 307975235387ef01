"""Information cost of a swarm configuration.

The cost combines the summed pairwise angular overlap of the spacecraft FOV
intervals (kappa_total, radians) with the fraction of POIs visible to at
least one spacecraft (the coverage term), as I = w * kappa_total - coverage.
Lower is better; experiment reports use -I.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import TWO_PI, ConeFov, as_vec3, unit_axis, visible_mask
from .sampling import PoiSet

# Perturbation applied when two spacecraft share an orientation, so their
# overlap registers as (almost) the full interval instead of zero.
DEFAULT_IDENTICAL_THETA_DELTA = 1e-6


def wrap_theta(theta):
    """theta (a float or an array) modulo 2 pi, in [0, 2 pi): a tiny negative
    theta's remainder rounds up to 2 pi, which the second one maps to 0.0."""
    theta = theta % TWO_PI
    theta %= TWO_PI  # in place on an array
    return theta


def _axis(row, center, orientation_mode: str):
    """Cone axis of a packed (x, y, z, theta) row of floats: "aimed" at the
    center, or "theta_tilt", tilted away from the center direction by theta."""
    if orientation_mode == "aimed":
        return unit_axis(row[:3], center)
    if orientation_mode == "theta_tilt":
        return unit_axis(row[:3], center, row[3])
    raise ValueError(f"unknown orientation mode: {orientation_mode!r}")


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
        row = [*self.position.tolist(), self.theta]
        return ConeFov(self.position,
                       _axis(row, as_vec3(center).tolist(), orientation_mode),
                       self.phi)


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
    kappa_weight: float = 1.0

    def to_json_dict(self) -> dict:
        return {
            "kappa_total": self.kappa_total,
            "epsilon_pct": self.epsilon_term,
            "info_cost": self.information_cost,
            "visible_count": self.visible_count,
            "n_pois": self.n_pois,
        }


def fov_interval(pose: SpacecraftPose) -> tuple[float, float]:
    """Un-normalized angular FOV interval (theta - nu, theta + nu)."""
    return pose.theta - pose.nu, pose.theta + pose.nu


def _overlap_sum(theta, nu, pairs, delta, total=0.0):
    """total plus, for each index pair (i, j) in order, the length of the
    intersection of the circular arcs [theta[i] +- nu[i]] and [theta[j] +-
    nu[j]]; equal orientations are perturbed by delta.

    The arcs can meet across both separations, sep and 2 pi - sep; for equal
    widths nu <= pi / 2 the far piece is empty and this is max(0, 2 nu - sep).
    `b if b < a else a` is min(a, b) to the bit: it keeps a when either is
    NaN (a carries a NaN orientation) or both are zeros, and `0.0 if a < 0.0
    else a` is max(a, 0.0) alike."""
    for i, j in pairs:
        ti, tj, nu_i, nu_j = theta[i], theta[j], nu[i], nu[j]
        if ti == tj:
            tj += delta
        d = abs(ti - tj) % TWO_PI
        sep = TWO_PI - d
        sep = sep if sep < d else d
        narrow, wide = 2.0 * nu_i, 2.0 * nu_j
        narrow = wide if wide < narrow else narrow
        near = nu_i + nu_j - sep
        near = narrow if narrow < near else near
        far = nu_i + nu_j - (TWO_PI - sep)
        far = narrow if narrow < far else far
        total += (0.0 if near < 0.0 else near) + (0.0 if far < 0.0 else far)
    return total


def _arc_overlap(ti, tj, nu_i, nu_j, delta):
    """Length of the intersection of the circular arcs [ti +- nu_i] and
    [tj +- nu_j]: the one-pair _overlap_sum, started at -0.0, which adds
    nothing to any float (0.0 would turn a -0.0 overlap into 0.0)."""
    return _overlap_sum((ti, tj), (nu_i, nu_j), ((0, 1),), delta, -0.0)


def pair_overlap(pose_i: SpacecraftPose, pose_j: SpacecraftPose,
                 delta: float = DEFAULT_IDENTICAL_THETA_DELTA) -> float:
    """Circular overlap (radians) between the FOV intervals of two spacecraft;
    identical orientations are perturbed by delta, not read as a zero."""
    return float(_arc_overlap(pose_i.theta, pose_j.theta, pose_i.nu,
                              pose_j.nu, delta))


def kappa_total(swarm: SwarmConfig,
                delta: float = DEFAULT_IDENTICAL_THETA_DELTA) -> float:
    """Sum of pair_overlap over all unordered spacecraft pairs, added one at
    a time in i < j order (a NumPy reduction groups the sum differently)."""
    if not swarm.pairs:
        return 0.0
    return _overlap_sum(swarm.state[:, 3].tolist(), swarm.nu.tolist(),
                        swarm.pairs, delta)


def coverage(swarm: SwarmConfig, pois: PoiSet,
             orientation_mode: str = "aimed") -> tuple[int, float, np.ndarray]:
    """POIs visible to at least one spacecraft: count, percentage, and the
    boolean mask over the POIs."""
    if len(pois) == 0:
        raise ValueError("POI set is empty")
    center = swarm.ellipsoid.center
    c = center.tolist()
    axes = [_axis(row, c, orientation_mode) for row in swarm.state.tolist()]
    seen = visible_mask(pois.points, swarm.state[:, :3], axes,
                        swarm.phi.tolist(), center, pois.columns(center))
    count = int(np.count_nonzero(seen))
    return count, 100.0 * count / len(pois), seen


def information_cost(swarm: SwarmConfig, pois: PoiSet,
                     kappa_weight: float = 1.0,
                     delta: float = DEFAULT_IDENTICAL_THETA_DELTA,
                     orientation_mode: str = "aimed") -> CostBreakdown:
    """Evaluate I = w * kappa_total - coverage for one configuration, with
    coverage as the percentage of POIs seen (0-100)."""
    kappa = kappa_total(swarm, delta)
    count, pct, _ = coverage(swarm, pois, orientation_mode)
    return CostBreakdown(kappa, pct, kappa_weight * kappa - pct, count,
                         len(pois), kappa_weight)


def expected_information_cost(swarm: SwarmConfig, pois: PoiSet,
                              position_stddev: float, n_samples: int,
                              seed: int, **cost_kwargs) -> float:
    """Monte Carlo mean of the information cost under Gaussian position noise.

    Each spacecraft position is perturbed by an isotropic zero-mean normal
    with the given standard deviation (km); orientations are unperturbed.
    Deterministic in the seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if position_stddev < 0.0:
        raise ValueError("position_stddev must be non-negative")
    if position_stddev == 0.0:
        # every sample is the unperturbed swarm; skip the averaging so the
        # result is bitwise equal to the deterministic cost
        return information_cost(swarm, pois, **cost_kwargs).information_cost
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        state = swarm.state.copy()
        state[:, :3] += rng.normal(0.0, position_stddev, (len(swarm), 3))
        perturbed = SwarmConfig.from_state(state, swarm)
        total += information_cost(perturbed, pois, **cost_kwargs).information_cost
    return total / n_samples
