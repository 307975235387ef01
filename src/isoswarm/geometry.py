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

# POIs per block of visible_mask's product: bounds its (rows, block) float32
# temporaries (7 cones x 8192 POIs is 0.23 MB) while a block still amortizes
# the product's fixed cost.
_BLOCK = 8192

# Error width of visible_mask's float32 scores (README): a cone's plane row
# is divided by 2^-19 (|apex - center|_1 R + s D^2), and a cut cone's d row
# by the root and its C |rel|^2 row by the whole of 2^-19 L^2 (|axis|_1^2 +
# C + 1), L = R + D. Each width is more than twice the rounding of the
# float32 score plus that of the float64 test, so a score of at least 1 is
# seen and one below -1 is not; the POIs in between run the float64 test.
_WIDTH = 2.0 ** -19
# Float32 columns exist only for a bounding radius R inside _RADII (km), and
# a cone takes float32 rows only while D / R lies inside _SPAN: every
# float32 entry then stays below 2^80 and an underflowing entry moves a
# score by less than 2^-40. Other POI sets and cones run the float64 test.
_RADII = (2.0 ** -30, 2.0 ** 40)
_SPAN = (2.0 ** -500, 2.0 ** 450)


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


def poi_columns(points, center) -> tuple[np.ndarray | None, float]:
    """The read-only float32 (5, n) columns [u; 1; |u|^2] of u = point -
    center (a row (b, e, c) times them gives b . u + e + c |u|^2; a row of
    four reads the prefix [u; 1]) and the POIs' bounding radius R = max |u|,
    both from the float64 u, built a block at a time. None in place of the
    columns when R lies outside _RADII, where float32 would overflow or
    underflow."""
    out = np.empty((5, len(points)), dtype=np.float32)
    out[3], top = 1.0, 0.0
    for lo in range(0, len(points), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        rel = relative_columns(points[block], center)
        sq = _dot3(rel, rel)
        top = max(top, sq.max())
        if top < _RADII[1] ** 2:  # so the casts cannot overflow
            out[:3, block], out[4, block] = rel, sq
    radius = math.sqrt(top)
    if not _RADII[0] < radius < _RADII[1]:
        return None, radius
    out.flags.writeable = False
    return out, radius


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


def _center_angle(to_center, axis) -> float:
    """The angle between the axis and to_center (float 3-sequences), from
    their cross and dot products."""
    (vx, vy, vz), (ax, ay, az) = to_center, axis
    return math.atan2(
        math.hypot(ay * vz - az * vy, az * vx - ax * vz, ax * vy - ay * vx),
        ax * vx + ay * vy + az * vz)


def _cone_holds_ball(dist, alpha, axis, aperture_phi, radius):
    """True if the cone holds every point within radius of the center, False
    if none, None if it cuts that ball or its apex lies in it. dist is the
    apex's distance from the center and alpha the axis's angle from the
    center direction, so the ball spans alpha +- asin(radius / dist) from
    the axis; the margins (README) make every verdict the answer the full
    test gives."""
    ax, ay, az = axis
    n2 = ax * ax + ay * ay + az * az
    if not (dist > radius and n2 > 0.0):
        return None
    spread = math.asin(radius / dist) + 1e-9 + 1e-12 * radius / (dist - radius)
    c2 = math.cos(aperture_phi / 2.0) ** 2 / n2
    hi, lo = alpha + spread, alpha - spread
    if (hi < math.pi / 2.0 and math.cos(hi) ** 2 - c2 > 1e-12
            and (dist - radius) * math.cos(hi) > 2.0 * _SLACK * dist):
        return True
    if lo > 0.0 and c2 - max(math.cos(lo), 0.0) ** 2 > 1e-12:
        return False
    return None


# An aimed unit_axis divides each component by a rounded norm, so its |axis|^2
# lies within a few ulps of 1; hold distances are checked with this shorter one.
_SHORT_AXIS = (math.sqrt(1.0 - 2.0 ** -48), 0.0, 0.0)


def _hold_distance(aperture_phi, radius):
    """The least apex distance from the center (inf if none) from which an
    aimed cone holds every point within radius of the center: at any finite
    distance beyond it, _cone_holds_ball(dist, 0.0, axis, aperture_phi,
    radius) is True for every axis unit_axis returns. With x = radius / dist
    the cull's tests read asin(x) + 1e-9 + 1e-12 x / (1 - x) <= acos(q) for
    q^2 = C / |axis|^2 + 1e-12 and (1 - x) q > 2 s, C = cos^2(phi / 2); x is
    chosen to leave 1e-10 rad, 1e-13 on q^2 and a factor 2 on s for rounding,
    each test eases as dist grows, and the distance is kept only if
    _cone_holds_ball holds at it with _SHORT_AXIS."""
    q2 = math.cos(aperture_phi / 2.0) ** 2 / _SHORT_AXIS[0] ** 2 + 1.1e-12
    if not q2 < 1.0:
        return math.inf
    q = math.sqrt(q2)
    x = min(math.sin(math.acos(q) - 2e-9), 900.0 / 901.0,
            1.0 - 4.0 * _SLACK / q)
    dist = radius / x
    if _cone_holds_ball(dist, 0.0, _SHORT_AXIS, aperture_phi, radius):
        return dist
    return math.inf


def _cut_rows(plane, axis, phi, reach):
    """The float64 rows, over the poi_columns [u; 1; |u|^2], of a cone that
    cuts the POI ball, with plane = apex - center and reach = L: with rel =
    point - apex and C = cos^2(phi / 2) they give d / sqrt(W) and C |rel|^2
    / W for d = rel . axis and the width W = _WIDTH L^2 (|axis|_1^2 + C +
    1), so the cone's score is d |d| / W - C |rel|^2 / W."""
    (tx, ty, tz), (ax, ay, az) = plane, axis
    c = math.cos(phi / 2.0)
    c2, l1 = c * c, abs(ax) + abs(ay) + abs(az)
    w = _WIDTH * reach * reach * (l1 * l1 + c2 + 1.0)
    h, k = 1.0 / math.sqrt(w), -2.0 * c2 / w
    return [(ax * h, ay * h, az * h, -(ax * tx + ay * ty + az * tz) * h, 0.0),
            (k * tx, k * ty, k * tz, c2 * (tx * tx + ty * ty + tz * tz) / w,
             c2 / w)]


def _exact(points, center, cones):
    """The float64 test of the cones (apex - center, D, cut) on points
    (float 3-sequences), one bool each: the near half-space (point - center)
    . (apex - center) >= -s D^2 and, for a cone that cuts the ball (cut is
    its apex, axis and phi, else None), in_fov's test with the apex slack s
    D. These are the IEEE operations of tests/conftest.py's unculled_mask,
    in its order, so they give its bits; on Python floats a POI or two (the
    usual band) costs a few us, where NumPy's calls on such short arrays
    cost tens."""
    tests = []
    for plane, dist, cut in cones:
        if cut:
            apex, axis, phi = cut
            c = np.cos(phi / 2.0)  # unculled_mask's cosine, not math.cos
            cut = apex, [float(a) for a in axis], float(c * c), _SLACK * dist
        tests.append((plane, -_SLACK * dist * dist, cut))
    (cx, cy, cz), seen = center, []
    for px, py, pz in points:
        ux, uy, uz = px - cx, py - cy, pz - cz
        hit = False
        for (tx, ty, tz), low, cut in tests:
            if not ux * tx + uy * ty + uz * tz >= low:
                continue
            if cut:
                (ax, ay, az), (bx, by, bz), c2, m = cut
                rx, ry, rz = px - ax, py - ay, pz - az
                d = rx * bx + ry * by + rz * bz
                if not (d > m and (rx * rx + ry * ry + rz * rz) * c2 <= d * d):
                    continue
            hit = True
            break
        seen.append(hit)
    return seen


def _held_cones(apexes, held, center):
    """_exact's cones (apex - center, D, None) of the cones indexed by held,
    which hold the ball: their float64 test is the plane test alone."""
    (cx, cy, cz), cones = center, []
    for k in held:
        ax, ay, az = apexes[k]
        plane = ax - cx, ay - cy, az - cz
        cones.append((plane, math.hypot(*plane), None))
    return cones


def visible_mask(points, apexes, axes, angles, apertures, center,
                 columns=None, holds=None, count=False):
    """POIs seen by at least one of k cones: the cone test and the near
    half-space (point - center) . (apex - center) >= 0, both with the slack
    of _SLACK (center-plane points are visible). apexes and axes are k float
    3-sequences, angles the k angles between each axis and its apex's
    direction to the center (0 for an aimed cone), apertures k floats,
    columns poi_columns(points, center) (computed when None). Each angle
    must be known to far better than the cull's 1e-9 rad margin. With holds,
    the _hold_distance of each aperture and R, the cones are aimed: axes and
    angles are not read, a cone at or beyond its hold distance (and in
    float32 range) holds the ball without an axis, and the others take
    unit_axis's. With count, the number of POIs seen is returned, not the
    mask. A cone missing all points is dropped. The rest are one float32
    product with the columns per block of _BLOCK POIs, its rows scaled by
    their error widths: a cone's score is its plane value
    or, if it cuts the ball, the lesser of that and its cone value d |d| - C
    |rel|^2, and a POI's score is the greatest over the cones. A POI scoring
    1 or more is seen, one below -1 is not, and only those in between run
    the float64 test; a POI set or cone out of float32's range runs it on
    every POI. So the mask is the float64 test's, bit for bit."""
    cols, radius = poi_columns(points, center) if columns is None else columns
    c, n = center.tolist(), len(points)
    cx, cy, cz = c
    cones, held, planes, cuts, tests = [], [], [], [], []
    exact = cols is None
    top = -math.inf if exact or holds is None else _SPAN[1] * radius
    for k, ((ax, ay, az), phi) in enumerate(zip(apexes, apertures)):
        tx, ty, tz = ax - cx, ay - cy, az - cz
        dist = math.hypot(tx, ty, tz)
        if dist < top and holds[k] <= dist:
            verdict = True
            held.append(k)  # its float64 test is built only if one runs
        else:
            if holds is None:
                axis, angle = axes[k], angles[k]
            else:
                axis, angle = unit_axis((ax, ay, az), c), 0.0
            verdict = _cone_holds_ball(dist, angle, axis, phi, radius)
            if verdict is False:
                continue
            cones.append(((tx, ty, tz), dist,
                          None if verdict else ((ax, ay, az), axis, phi)))
            if exact or not _SPAN[0] * radius < dist < _SPAN[1] * radius:
                exact = True
                continue
        bias = _SLACK * dist * dist
        w = _WIDTH * ((abs(tx) + abs(ty) + abs(tz)) * radius + bias)
        planes.append((tx / w, ty / w, tz / w, bias / w))
        if verdict is None:  # its rows follow the k plane rows
            tests.append((len(planes) - 1, len(cuts)))
            cuts += _cut_rows((tx, ty, tz), axis, phi, radius + dist)
    if not ((cones or held) and n):
        return 0 if count else np.zeros(n, dtype=bool)
    if exact:
        seen = np.array(_exact(points.tolist(), c,
                               cones + _held_cones(apexes, held, c)),
                        dtype=bool)
        return int(np.count_nonzero(seen)) if count else seen
    k = len(planes)
    if cuts:
        rows = np.array([p + (0.0,) for p in planes] + cuts, dtype=np.float32)
    else:  # the plane rows read only [u; 1]
        rows, cols = np.array(planes, dtype=np.float32), cols[:4]
    seen, total = [], 0
    for lo in range(0, n, _BLOCK):
        prod = rows @ cols[:, lo:lo + _BLOCK]
        for i, r in tests:
            d = prod[k + r]
            d *= np.abs(d)
            d -= prod[k + r + 1]
            np.minimum(prod[i], d, out=prod[i])
        # one cone's row is the union; a reduction would only copy it
        score = prod[0] if k == 1 else prod[:k].max(axis=0)
        sure = score >= 1.0
        maybe = score >= -1.0
        hits = np.count_nonzero(sure)
        # sure implies maybe, so equal counts leave nothing undecided
        if np.count_nonzero(maybe) != hits:
            idx = np.flatnonzero(maybe != sure)
            band = _exact(points[lo + idx].tolist(), c,
                          cones + _held_cones(apexes, held, c))
            sure[idx], hits = band, hits + sum(band)
        seen.append(sure)
        total += hits
    if count:
        return int(total)
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


def in_fov(poi, fov: ConeFov) -> bool:
    """Whether the POI lies inside the (forward) cone, boundary in: d = rel
    . axis > 0 and |rel|^2 cos^2(phi / 2) <= d^2 for rel = poi - apex (with
    no center there is no D, so no apex slack)."""
    rx, ry, rz = (as_vec3(poi) - fov.apex).tolist()
    ax, ay, az = fov.axis.tolist()
    d = rx * ax + ry * ay + rz * az
    c = float(np.cos(fov.aperture_phi / 2.0))
    return d > 0.0 and (rx * rx + ry * ry + rz * rz) * (c * c) <= d * d


def visible(poi, fov: ConeFov, center) -> bool:
    """In the cone and in the near hemisphere of the ellipsoid: visible_mask
    for one POI."""
    center = as_vec3(center)
    if np.array_equal(fov.apex, center):
        raise DegenerateGeometryError("apex coincides with center")
    apex, axis = fov.apex.tolist(), fov.axis.tolist()
    angle = _center_angle((center - fov.apex).tolist(), axis)
    return bool(visible_mask(as_vec3(poi)[None], [apex], [axis], [angle],
                             [fov.aperture_phi], center)[0])
