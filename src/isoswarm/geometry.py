"""Conal field-of-view geometry: cone axes and the array visibility kernel.

Positions are in kilometers, angles in radians. Points are numpy arrays of
shape (3,); point sets are arrays of shape (n, 3). All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Visibility slack, relative to D = |apex - center|: a point counts as behind
# the camera unless d = (point - apex) . axis > _SLACK * D, and as on the
# center plane (so visible) when it lies within _SLACK * D of it. Moving every
# input by one common vector rounds each coordinate by up to half an ulp;
# while the coordinates stay below 1e5 * D and the points within D of the
# center, that moves d and the plane distance by less than half the slack, so
# no answer hinges on the last bits of a coordinate (a POI 1e-66 km behind the
# plane, or ahead of the apex, is on it). The slack stays far below the POI
# spacing, so an optimizer cannot gain POIs by parking them in it.
_SLACK = 2.0 ** -30

# POIs per block of visible_mask's plane product: bounds its (rows, block)
# temporaries (7 cones x 8192 POIs is 0.5 MB) while a block still amortizes
# the product's fixed cost.
_BLOCK = 8192

# Error filter of a cut cone's test (README): with L = R + D, the product
# decides a POI whose d lies more than _FILTER L |axis|_1 from s D and whose
# d^2 lies more than _FILTER L^2 (|axis|_1^2 + C + 1) from C |rel|^2, about
# 100 times the rounding of either computation of them; the elementwise test
# decides the rest. Widths outside (1 / _RANGE, _RANGE) could overflow an
# intermediate or drown in underflow, so such a cone skips the filter.
_FILTER = 2.0 ** -40
_RANGE = 2.0 ** 900


class DegenerateGeometryError(ValueError):
    """Cone apex at the ellipsoid center, or too far for a finite norm."""


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


def poi_columns(points, center) -> tuple[np.ndarray, float]:
    """The read-only (5, n) columns [rel; |rel|^2; 1], rel = point - center
    (a row (b, c, e) times them gives b . rel + c |rel|^2 + e), and the POIs'
    bounding radius max |rel|."""
    out = np.empty((5, len(points)))
    rel = np.subtract(points.T, center[:, None], out=out[:3])
    out[3] = _dot3(rel, rel)
    out[4] = 1.0
    out.flags.writeable = False
    return out, math.sqrt(out[3].max(initial=0.0))


def _dot3(a, b):
    """a . b over three components indexed first (3-vectors or (3, n) rows),
    elementwise: a point gets the same bits alone or in any batch, which a
    BLAS matrix-vector product (fusing multiply-adds per row) does not give."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def unit_axis(apex, center, tilt=None) -> tuple[float, float, float]:
    """Unit axis (x, y, z) of the cone at apex pointing at center, rotated by
    tilt when given about a fixed perpendicular axis (from the z axis, x near
    the poles), so the angle to the center direction is the tilt's circular
    distance from zero. Apex and center are float 3-sequences; the products
    are np.cross's, in its order."""
    (ax, ay, az), (cx, cy, cz) = apex, center
    x, y, z = cx - ax, cy - ay, cz - az
    norm = math.sqrt(x * x + y * y + z * z)
    if not 0.0 < norm < math.inf:
        raise DegenerateGeometryError(
            "cone apex at, or too far from, the ellipsoid center")
    x, y, z = x / norm, y / norm, z / norm
    if tilt is None:
        return x, y, z
    r0, r1, r2 = (0.0, 0.0, 1.0) if abs(z) < 0.9 else (1.0, 0.0, 0.0)
    ux, uy, uz = y * r2 - z * r1, z * r0 - x * r2, x * r1 - y * r0
    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / norm, uy / norm, uz / norm
    c, s = math.cos(tilt), math.sin(tilt)
    return (x * c + (uy * z - uz * y) * s, y * c + (uz * x - ux * z) * s,
            z * c + (ux * y - uy * x) * s)


def cone_axis(apex, ellipsoid_center) -> np.ndarray:
    """Unit direction from the cone apex toward the ellipsoid center."""
    return np.array(unit_axis(as_vec3(apex).tolist(),
                              as_vec3(ellipsoid_center).tolist()))


def in_cone(rel, axis, aperture_phi, min_axial=0.0):
    """Forward-cone test of offsets rel = point - apex (a 3-vector or
    relative_columns), boundary in: d = rel . axis > min_axial and
    |rel|^2 cos^2(phi / 2) <= d^2."""
    d = _dot3(rel, axis)
    c = np.cos(aperture_phi / 2.0)
    return (d > min_axial) & (_dot3(rel, rel) * (c * c) <= d * d)


def _cone_holds_ball(to_center, dist, axis, aperture_phi, radius):
    """True if the cone holds every point within radius of the center, False
    if none, None if it cuts that ball or its apex lies in it. The ball spans
    alpha +- asin(radius / dist) from the axis, dist = |to_center|; the
    margins (README) make every verdict the answer the full test gives."""
    (vx, vy, vz), (ax, ay, az) = to_center, axis
    n2 = ax * ax + ay * ay + az * az
    if not (dist > radius and n2 > 0.0):
        return None
    alpha = math.atan2(
        math.hypot(ay * vz - az * vy, az * vx - ax * vz, ax * vy - ay * vx),
        ax * vx + ay * vy + az * vz)
    spread = math.asin(radius / dist) + 1e-9 + 1e-12 * radius / (dist - radius)
    c2 = math.cos(aperture_phi / 2.0) ** 2 / n2
    hi, lo = alpha + spread, alpha - spread
    if (hi < math.pi / 2.0 and math.cos(hi) ** 2 - c2 > 1e-12
            and (dist - radius) * math.cos(hi) > 2.0 * _SLACK * dist):
        return True
    if lo > 0.0 and c2 - max(math.cos(lo), 0.0) ** 2 > 1e-12:
        return False
    return None


def _cut_rows(plane, axis, phi, reach):
    """The poi_columns product's rows for a cone that cuts the POI ball, with
    plane = apex - center and reach = L, and the filter width e_d of d; ([],
    None) when a width falls outside the filter's range. With rel = point -
    apex and C = cos^2(phi / 2) the rows give d = rel . axis and C |rel|^2 +-
    e, e the filter width of d^2."""
    (tx, ty, tz), (ax, ay, az) = plane, axis
    c = math.cos(phi / 2.0)
    c2, l1 = c * c, abs(ax) + abs(ay) + abs(az)
    e_d = _FILTER * reach * l1
    e = _FILTER * reach * reach * (l1 * l1 + c2 + 1.0)
    if not (1.0 / _RANGE < e_d and 1.0 / _RANGE < e < _RANGE):
        return [], None
    k, q = -2.0 * c2, c2 * (tx * tx + ty * ty + tz * tz)
    return ([(ax, ay, az, 0.0, -(ax * tx + ay * ty + az * tz)),
             (k * tx, k * ty, k * tz, c2, q + e),
             (k * tx, k * ty, k * tz, c2, q - e)], e_d)


def visible_mask(points, apexes, axes, apertures, center, columns=None):
    """POIs seen by at least one of k cones: the cone test and the near
    half-space (point - center) . (apex - center) >= 0, both with the slack
    of _SLACK (center-plane points are visible). apexes is a (k, 3) array,
    axes k float 3-sequences, apertures k floats, columns poi_columns(points,
    center) (computed when None). A cone holding all points runs only the
    half-space test and one missing them all is dropped; the half-spaces of
    the rest are one product with the columns per block of _BLOCK POIs. It
    also gives each cut cone's d and C |rel|^2, from which the filter decides
    every POI but those near the cone's surface: only they run in_cone."""
    cols, radius = poi_columns(points, center) if columns is None else columns
    (cx, cy, cz), n = center.tolist(), len(points)
    planes, thr, rows, tests = [], [], [], []
    for j, ((ax, ay, az), axis, phi) in enumerate(
            zip(apexes.tolist(), axes, apertures)):
        tx, ty, tz = ax - cx, ay - cy, az - cz
        dist = math.hypot(tx, ty, tz)
        verdict = _cone_holds_ball((-tx, -ty, -tz), dist, axis, phi, radius)
        if verdict is False:
            continue
        if verdict is None:  # its rows follow the k plane rows
            cone_rows, e_d = _cut_rows((tx, ty, tz), axis, phi, radius + dist)
            tests.append((len(planes), j, axis, phi, _SLACK * dist, len(rows),
                          e_d))
            rows += cone_rows
        planes.append((tx, ty, tz))
        thr.append(-_SLACK * dist * dist)
    if not (planes and n):
        return np.zeros(n, dtype=bool)
    k, thr = len(planes), np.array(thr)[:, None]
    if rows:
        rows = np.array([(*p, 0.0, 0.0) for p in planes] + rows)
    else:  # no filtered cone: |point - center|^2 is not needed (or finite)
        rows, cols = np.array(planes), cols[:3]
    seen = []
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        prod = rows @ cols[:, block]
        near = prod[:k] >= thr
        for i, j, axis, phi, m, r, e_d in tests:
            if e_d is None:  # out of the filter's range: test every POI
                near[i] &= in_cone(relative_columns(points[block], apexes[j]),
                                   axis, phi, m)
                continue
            d, over, under = prod[k + r:k + r + 3]
            dd = d * d
            sure = (dd > over) & (d > m + e_d)
            maybe = (dd >= under) & (d >= m - e_d)
            # sure implies maybe, so equal counts leave nothing undecided
            if np.count_nonzero(maybe) != np.count_nonzero(sure):
                idx = np.flatnonzero(maybe & ~sure)
                sure[idx] = in_cone(relative_columns(points[lo + idx],
                                                     apexes[j]), axis, phi, m)
            near[i] &= sure
        # one cone's row is the union; a reduction would only copy it
        seen.append(near[0] if len(near) == 1 else near.any(axis=0))
    return seen[0] if len(seen) == 1 else np.concatenate(seen)


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
    """Whether the POI lies inside the (forward) cone; boundary counts as in
    (with no center there is no D, so no apex slack)."""
    return bool(in_cone(as_vec3(poi) - fov.apex, fov.axis, fov.aperture_phi))


def in_near_hemisphere(poi, apex, center) -> bool:
    """Whether the POI lies in the half-space of the center-plane containing
    the spacecraft; points on the dividing plane (up to the slack) count as
    visible."""
    apex = as_vec3(apex)
    center = as_vec3(center)
    if np.array_equal(apex, center):
        raise DegenerateGeometryError("apex coincides with center")
    to_apex = apex - center
    dist = math.hypot(*to_apex.tolist())
    # the plane product of visible_mask for one cone and one POI
    return bool(to_apex[None] @ relative_columns(as_vec3(poi)[None], center)
                >= -_SLACK * dist * dist)


def visible(poi, fov: ConeFov, center) -> bool:
    """In the cone and in the near hemisphere of the ellipsoid: visible_mask
    for one POI."""
    center = as_vec3(center)
    if np.array_equal(fov.apex, center):
        raise DegenerateGeometryError("apex coincides with center")
    return bool(visible_mask(as_vec3(poi)[None], fov.apex[None], [fov.axis],
                             [fov.aperture_phi], center)[0])
