"""Conal field-of-view geometry: cone axes and the array visibility kernel.

Positions are in kilometers, angles in radians. Points are numpy arrays of
shape (3,); point sets are arrays of shape (n, 3). All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

_Z_HAT = np.array([0.0, 0.0, 1.0])
_X_HAT = np.array([1.0, 0.0, 0.0])


class DegenerateGeometryError(ValueError):
    """Cone apex coincides with the ellipsoid center."""


def as_vec3(v) -> np.ndarray:
    """Coerce to a finite float 3-vector."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("vector components must be finite")
    return a


def relative_columns(points: np.ndarray, origin) -> np.ndarray:
    """(points - origin).T as a C-ordered (3, n) array, so each coordinate is
    one contiguous row (iterating (n, 3) points in memory order would loop
    over 3 elements at a time)."""
    return np.subtract(points.T, origin[:, None], order="C")


def _dot3(a, b):
    """a . b over three components indexed first (3-vectors or (3, n) rows),
    elementwise: a point gets the same bits alone or in any batch, which a
    BLAS matrix-vector product (fusing multiply-adds per row) does not give."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cone_axes(apexes, center, tilts=None) -> np.ndarray:
    """Unit axes of cones at apexes (n, 3) pointing at the center, each
    rotated by its tilt (n,) about a fixed perpendicular axis (from the z
    axis, x near the poles) when tilts are given, so the angle to the center
    direction is the tilt's circular distance from zero."""
    toward = center - apexes
    norm = np.linalg.norm(toward, axis=1, keepdims=True)
    if not norm.all():
        raise DegenerateGeometryError("cone apex coincides with ellipsoid center")
    toward = toward / norm
    if tilts is None:
        return toward
    ref = np.where(np.abs(toward[:, 2:]) < 0.9, _Z_HAT, _X_HAT)
    u = np.cross(toward, ref)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return (toward * np.cos(tilts)[:, None]
            + np.cross(u, toward) * np.sin(tilts)[:, None])


def cone_axis(apex, ellipsoid_center) -> np.ndarray:
    """Unit direction from the cone apex toward the ellipsoid center."""
    return cone_axes(as_vec3(apex)[None], as_vec3(ellipsoid_center))[0]


def in_cone(rel, axis, aperture_phi):
    """Forward-cone test of offsets rel = point - apex (a 3-vector or
    relative_columns), boundary in: d = rel . axis > 0 and
    |rel|^2 cos^2(phi / 2) <= d^2."""
    d = _dot3(rel, axis)
    c = np.cos(aperture_phi / 2.0)
    return (d > 0.0) & (_dot3(rel, rel) * (c * c) <= d * d)


def visible_mask(points, apex, axis, aperture_phi, center, centered=None):
    """Cone test and near half-space (point - center) . (apex - center) >= 0,
    so points on the center plane count as visible. Callers testing several
    cones pass centered = relative_columns(points, center) once."""
    if centered is None:
        centered = relative_columns(points, center)
    return (in_cone(relative_columns(points, apex), axis, aperture_phi)
            & (_dot3(centered, apex - center) >= 0.0))


@dataclass(frozen=True)
class ConeFov:
    """A camera field-of-view cone.

    apex: spacecraft position (km); axis: unit viewing direction;
    aperture_phi: full aperture angle.
    """

    apex: np.ndarray
    axis: np.ndarray
    aperture_phi: float

    def __post_init__(self):
        object.__setattr__(self, "apex", as_vec3(self.apex))
        axis = as_vec3(self.axis)
        n = np.linalg.norm(axis)
        if abs(n - 1.0) > 1e-9:
            raise ValueError("cone axis must be a unit vector")
        object.__setattr__(self, "axis", axis)
        if not 0.0 < self.aperture_phi < np.pi:
            raise ValueError("aperture_phi must lie in (0, pi)")

    @classmethod
    def aimed(cls, apex, ellipsoid_center, aperture_phi):
        """Cone whose axis points from the apex at the ellipsoid center."""
        return cls(apex, cone_axis(apex, ellipsoid_center), aperture_phi)


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


def in_fov(poi, fov: ConeFov) -> bool:
    """Whether the POI lies inside the (forward) cone; boundary counts as in."""
    return bool(in_cone(as_vec3(poi) - fov.apex, fov.axis, fov.aperture_phi))


def in_near_hemisphere(poi, apex, center) -> bool:
    """Whether the POI lies in the half-space of the center-plane containing
    the spacecraft; points on the dividing plane count as visible."""
    apex = as_vec3(apex)
    center = as_vec3(center)
    if np.array_equal(apex, center):
        raise DegenerateGeometryError("apex coincides with center")
    return bool(_dot3(as_vec3(poi) - center, apex - center) >= 0.0)


def visible(poi, fov: ConeFov, center) -> bool:
    """In the cone and in the near hemisphere of the ellipsoid."""
    return in_fov(poi, fov) and in_near_hemisphere(poi, fov.apex, center)
