"""Test-only oracles: scalar cone helpers, the FOV interval, the swarm
objective as it was computed before the evaluation plan, the array theta
wrap and POI sampling formula the float and row-wise versions replaced, and
the ellipsoid, noise-history and weight helpers only tests call."""

import math

import numpy as np

from isoswarm.cost import (DEGENERACY_PENALTY, DEGENERACY_RADIUS_KM,
                           SpacecraftPose, SwarmConfig, kappa_total,
                           wrap_theta)
from isoswarm.geometry import (_SLACK, ConeFov, DegenerateGeometryError,
                               _center_angle, as_vec3, unit_axis,
                               visible_mask)


def axial_distance(poi, fov: ConeFov) -> float:
    """Signed projection of (poi - apex) onto the cone axis, in km."""
    return float((as_vec3(poi) - fov.apex) @ fov.axis)


def cone_radius_at(d: float, aperture_phi: float) -> float:
    """Cone radius d * tan(phi / 2) at axial distance d >= 0."""
    if d < 0.0:
        raise ValueError("axial distance must be non-negative")
    return d * np.tan(aperture_phi / 2.0)


def orthogonal_distance(poi, fov: ConeFov) -> float:
    """Distance (km, >= 0) of the POI from the cone axis line."""
    rel = as_vec3(poi) - fov.apex
    return float(np.linalg.norm(rel - (rel @ fov.axis) * fov.axis))


def in_near_hemisphere(poi, apex, center) -> bool:
    """Whether the POI lies in the half-space of the center-plane containing
    the spacecraft; points on the dividing plane (up to the slack) count as
    visible."""
    apex = as_vec3(apex)
    center = as_vec3(center)
    if np.array_equal(apex, center):
        raise DegenerateGeometryError("apex coincides with center")
    (tx, ty, tz), (ux, uy, uz) = (apex - center).tolist(), (
        as_vec3(poi) - center).tolist()
    dist = math.hypot(tx, ty, tz)
    # the float64 test visible_mask's scores certify, for one POI
    return ux * tx + uy * ty + uz * tz >= -_SLACK * dist * dist


def fov_interval(pose: SpacecraftPose) -> tuple[float, float]:
    """Un-normalized angular FOV interval (theta - nu, theta + nu)."""
    return pose.theta - pose.nu, pose.theta + pose.nu


def row_axis(row, center, orientation_mode: str):
    """Cone axis of a packed (x, y, z, theta) row of floats: "aimed" at the
    center, or "theta_tilt", tilted away from the center direction by theta."""
    if orientation_mode == "aimed":
        return unit_axis(row[:3], center)
    if orientation_mode == "theta_tilt":
        return unit_axis(row[:3], center, row[3])
    raise ValueError(f"unknown orientation mode: {orientation_mode!r}")


def reference_cost(swarm, pois, kappa_weight=1.0,
                   orientation_mode="aimed") -> float:
    """information_cost's value from the swarm object: kappa_total, then the
    coverage from the center, an axis per state row, its angle from the
    center direction by cross and dot products, and one kernel call."""
    kappa = kappa_total(swarm)
    if len(pois) == 0:
        raise ValueError("POI set is empty")
    center = swarm.ellipsoid.center
    c = center.tolist()
    apexes = swarm.state[:, :3].tolist()
    axes = [row_axis(row, c, orientation_mode)
            for row in swarm.state.tolist()]
    angles = cone_angles(apexes, axes, center)
    seen = visible_mask(pois.points, apexes, axes, angles,
                        swarm.phi.tolist(), center, pois.columns(center))
    pct = 100.0 * int(np.count_nonzero(seen)) / len(pois)
    return kappa_weight * kappa - pct


def cone_angles(apexes, axes, center):
    """Each axis's angle from its apex's direction to the center, by their
    cross and dot products (geometry._center_angle): visible_mask's angles
    for cones of any axis."""
    return [_center_angle((center - apex).tolist(), list(axis))
            for apex, axis in zip(np.asarray(apexes, dtype=float), axes)]


def reference_expected_cost(swarm, pois, position_stddev, n_samples, seed,
                            **cost_kwargs) -> float:
    """expected_information_cost with a swarm object per sample."""
    if position_stddev == 0.0:
        return reference_cost(swarm, pois, **cost_kwargs)
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        state = swarm.state.copy()
        state[:, :3] += rng.normal(0.0, position_stddev, (len(swarm), 3))
        perturbed = SwarmConfig.from_state(state, swarm)
        total += reference_cost(perturbed, pois, **cost_kwargs)
    return total / n_samples


def reference_objective(pois, template, cost_mode="deterministic",
                        **cost_kwargs):
    """The swarm objective with the degeneracy loop, then a swarm built by
    SwarmConfig.from_state (which wraps the thetas again and rejects a
    non-finite position), then DEGENERACY_PENALTY if a squared distance from
    the center overflowed, else the cost of that swarm."""
    cx, cy, cz = template.ellipsoid.center.tolist()

    def objective(x):
        far = False
        for px, py, pz, _ in np.reshape(x, (-1, 4)).tolist():
            dx, dy, dz = px - cx, py - cy, pz - cz
            dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if dist < DEGENERACY_RADIUS_KM:
                return DEGENERACY_PENALTY
            far = far or not dist < math.inf
        swarm = SwarmConfig.from_state(x, template)
        if far:
            return DEGENERACY_PENALTY
        if cost_mode == "deterministic":
            return reference_cost(swarm, pois, **cost_kwargs)
        stddev, n_samples, seed = cost_mode
        return reference_expected_cost(swarm, pois, stddev, n_samples, seed,
                                       **cost_kwargs)

    return objective


def array_wrap(x, theta_idx):
    """A copy of x with x[theta_idx] wrapped by wrap_theta as an array."""
    x = x.copy()
    x[theta_idx] = wrap_theta(x[theta_idx])
    return x


def reference_sample_points(ellipsoid, n, seed):
    """sample_pois' points by the (n, 3) formula: directions normalized by
    np.linalg.norm over rows, scaled by u**(1/3), the radii and the center."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / 3.0)
    return dirs * r[:, None] * np.asarray(ellipsoid.radii) + ellipsoid.center


def ellipsoid_contains(ellipsoid, points):
    """Boolean mask: which points satisfy the ellipsoid inequality."""
    rel = (np.atleast_2d(points) - ellipsoid.center) / np.asarray(
        ellipsoid.radii)
    return np.sum(rel**2, axis=1) <= 1.0


def zeta_at(noise, t):
    """The noise history's zeta at t, linearly interpolated; t outside it
    raises ExtrapolationError."""
    noise._check_time(t)
    return float(np.interp(t, noise.times, noise.zetas))


def ellipsoid_radii_from_weights(D, axis_weights):
    """Scale a certified radius into per-axis radii via diagonal norm weights.

    A weighted norm ||W x|| <= D with W = diag(w) certifies the ellipsoid with
    semi-axes D / w_i.
    """
    w = np.asarray(axis_weights, dtype=float)
    if w.shape != (3,) or np.any(w <= 0.0):
        raise ValueError("axis weights must be three positive reals")
    return tuple(D / w)
