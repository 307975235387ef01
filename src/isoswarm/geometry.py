"""Conal field-of-view geometry: cone axes and the array visibility kernel.

Positions are in kilometers, angles in radians. Points are numpy arrays of
shape (3,); point sets are arrays of shape (n, 3). All functions are pure.
"""

from __future__ import annotations

import math
import sys
from numbers import Real

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
# seen and one below -1 is not (float32 bounds compare faster than Python
# floats); the POIs in between run the float64 test.
_WIDTH = 2.0 ** -19
_SEEN, _UNSEEN = np.float32(1.0), np.float32(-1.0)
# Float32 columns exist only for a bounding radius R inside _RADII (km), and
# a cone takes float32 rows only while D / R lies inside _SPAN: every
# float32 entry then stays below 2^80 and an underflowing entry moves a
# score by less than 2^-40. Other POI sets and cones run the float64 test.
_RADII = (2.0 ** -30, 2.0 ** 40)
_SPAN = (2.0 ** -500, 2.0 ** 450)


def wrap_theta(theta):
    """theta (a float or an array) modulo 2 pi, in [0, 2 pi): a tiny negative
    theta's remainder rounds up to 2 pi, which the second one maps to 0.0."""
    theta = theta % TWO_PI
    theta %= TWO_PI  # in place on an array
    return theta


class DegenerateGeometryError(ValueError):
    """Cone apex at the ellipsoid center, or too far for a finite norm."""


def fits(kind: str, value) -> bool:
    """Whether value is of the annotation kind, by the one rule for numbers
    from outside: "int" takes an int, "float" a real of finite float value
    (NumPy's too, no bool), "X | None" also None, "tuple[X, Y]" and "tuple[X,
    ...]" tuples of such values. Other kinds are their callers' to check."""
    kind, optional, _ = kind.partition(" | None")
    if value is None or isinstance(value, bool):
        return value is None and optional != ""
    if kind.startswith("tuple["):
        kinds = kind[6:-1].split(", ")
        if kinds[-1] == "..." and isinstance(value, tuple):
            kinds = kinds[:1] * len(value)
        return (isinstance(value, tuple) and len(value) == len(kinds)
                and all(map(fits, kinds, value)))
    if kind == "int":
        return isinstance(value, (int, np.integer))
    return kind != "float" or (isinstance(value, Real)  # exact for any int
                               and abs(value) <= sys.float_info.max)


def check_fields(obj, error=ValueError) -> None:
    """Raise error naming the first field of obj that does not fit its type."""
    for name, f in obj.__dataclass_fields__.items():
        if not fits(f.type, value := getattr(obj, name)):
            kind = f.type.replace("float", "finite float")
            raise error(f"{name} must be {kind}, got {value!r}")


def as_vec3(v, name: str = "vector") -> np.ndarray:
    """v, three finite reals (fits) in a list, tuple or array, as floats."""
    v = tuple(v) if isinstance(v, (list, np.ndarray)) else v
    if not fits("tuple[float, float, float]", v):
        raise ValueError(f"{name} must be three finite reals, got {v!r}")
    return np.array(v, dtype=float)


def relative_columns(points: np.ndarray, origin) -> np.ndarray:
    """(points - origin).T as a C-ordered (3, n) array, so each coordinate is
    one contiguous row (iterating (n, 3) points in memory order would loop
    over 3 elements at a time)."""
    return np.subtract(points.T, origin[:, None], order="C")


def poi_columns(points, center) -> tuple[np.ndarray | None, float]:
    """The read-only float32 (5, n) columns [u; 1; |u|^2] of u = point -
    center (a row (b, e, c) times them gives b . u + e + c |u|^2) and the
    POIs' bounding radius R = max |u|, both from the float64 u, built a
    block at a time. None in place of the columns when R lies outside
    _RADII, where float32 would overflow or underflow."""
    out = np.empty((5, len(points)), dtype=np.float32)
    out[3], top = 1.0, 0.0
    for lo in range(0, len(points), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        rel = relative_columns(points[block], center)
        with np.errstate(over="ignore"):  # an inf leaves R out of range
            sq = squared_norms(rel)
        top = max(top, np.maximum.reduce(sq))
        if top < _RADII[1] ** 2:  # so the casts cannot overflow
            out[:3, block], out[4, block] = rel, sq
    radius = math.sqrt(top)
    if not _RADII[0] < radius < _RADII[1]:
        return None, radius
    out.flags.writeable = False
    return out, radius


def squared_norms(rows):
    """(x*x + y*y) + z*z of the (3, n) rows x, y, z, elementwise, so a point
    gets the same bits alone or in any batch; row by row, as freeing one
    np.square(rows) buffer made glibc trim and refault the heap."""
    out = rows[0] * rows[0]
    out += rows[1] * rows[1]
    out += rows[2] * rows[2]
    return out


def _perpendicular(x, y, z) -> tuple[float, float, float]:
    """The unit v x r for v = (x, y, z) and r the z axis, or the x axis near
    the poles (|z| >= 0.9), with np.cross's products in its order."""
    r0, r1, r2 = (0.0, 0.0, 1.0) if abs(z) < 0.9 else (1.0, 0.0, 0.0)
    ux, uy, uz = y * r2 - z * r1, z * r0 - x * r2, x * r1 - y * r0
    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    return ux / norm, uy / norm, uz / norm


def unit_axis(apex, center, tilt=None) -> tuple[float, float, float]:
    """Unit axis v = (x, y, z) of the cone at apex pointing at center,
    rotated by tilt when given about u = _perpendicular(v), so the angle to
    the center direction is the tilt's circular distance from zero. Apex and
    center are float 3-sequences; the rotation's u x v is np.cross's, in its
    order."""
    (ax, ay, az), (cx, cy, cz) = apex, center
    x, y, z = cx - ax, cy - ay, cz - az
    norm = math.sqrt(x * x + y * y + z * z)
    if not 0.0 < norm < math.inf:
        raise DegenerateGeometryError(
            "cone apex at, or too far from, the ellipsoid center")
    x, y, z = x / norm, y / norm, z / norm
    if tilt is None:
        return x, y, z
    ux, uy, uz = _perpendicular(x, y, z)
    c, s = math.cos(tilt), math.sin(tilt)
    return (x * c + (uy * z - uz * y) * s, y * c + (uz * x - ux * z) * s,
            z * c + (ux * y - uy * x) * s)


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
    """The two float64 rows, one flat list, over the poi_columns [u; 1;
    |u|^2] of a cone that cuts the POI ball, with plane = apex - center and
    reach = L: with rel = point - apex and C = cos^2(phi / 2) they give d /
    sqrt(W) and C |rel|^2 / W for d = rel . axis and the width W = _WIDTH
    L^2 (|axis|_1^2 + C + 1), so the cone's score is d |d| / W - C |rel|^2
    / W."""
    (tx, ty, tz), (ax, ay, az) = plane, axis
    c = math.cos(phi / 2.0)
    c2, l1 = c * c, abs(ax) + abs(ay) + abs(az)
    w = _WIDTH * reach * reach * (l1 * l1 + c2 + 1.0)
    h, k = 1.0 / math.sqrt(w), -2.0 * c2 / w
    return [ax * h, ay * h, az * h, -(ax * tx + ay * ty + az * tz) * h, 0.0,
            k * tx, k * ty, k * tz, c2 * (tx * tx + ty * ty + tz * tz) / w,
            c2 / w]


def _exact(points, center, cones):
    """The float64 test of the cones (apex - center, D, cut) on points
    (float 3-sequences), one bool each: the near half-space (point - center)
    . (apex - center) >= -s D^2 and, for a cone that cuts the ball (cut is
    its apex, axis and phi, else None), the forward-cone test d = rel . axis
    > s D and C |rel|^2 <= d^2 for rel = point - apex and C = cos^2(phi /
    2). These are the IEEE operations of tests/conftest.py's unculled_mask,
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


def visible_mask(points, apexes, tilts, apertures, center, columns=None,
                 holds=None, count=False):
    """POIs seen by at least one of k cones: the cone test and the near
    half-space (point - center) . (apex - center) >= 0, both with the slack
    of _SLACK (center-plane points are visible). apexes are k float
    3-sequences and apertures k floats; cone k is aimed at the center, or
    with tilts tilted by t = wrap_theta(tilts[k]) (unit_axis), its cull
    angle then min(t, 2 pi - t). holds, for aimed cones, are the
    _hold_distance of each aperture and R: a cone at or beyond its own (and
    in float32 range) holds the ball without an axis. columns is
    poi_columns(points, center) (computed when None). With count, the number
    of POIs seen is returned, not the mask. A cone missing all points is
    dropped. The rest are one float32 product with the columns per block of
    _BLOCK POIs, its rows scaled by their error widths: a cone's score is
    its plane value or, if it cuts the ball, the lesser of that and its cone
    value d |d| - C |rel|^2, and a POI's score is the greatest over the
    cones. A POI scoring 1 or more is seen, one below -1 is not, and only
    those in between run the float64 test; a POI set or cone out of
    float32's range runs it on every POI. So the mask is the float64 test's,
    bit for bit."""
    cols, radius = poi_columns(points, center) if columns is None else columns
    c, n = center.tolist(), len(points)
    cx, cy, cz = c
    cones, planes, cuts, tests = [], [], [], []
    exact = cols is None
    top = -math.inf if exact or holds is None else _SPAN[1] * radius
    for k, ((ax, ay, az), phi) in enumerate(zip(apexes, apertures)):
        tx, ty, tz = ax - cx, ay - cy, az - cz
        dist = math.hypot(tx, ty, tz)
        if dist < top and holds[k] <= dist:
            verdict = True
            cones.append(((tx, ty, tz), dist, None))  # the plane test alone
        else:
            tilt = None if tilts is None else wrap_theta(tilts[k])
            axis = unit_axis((ax, ay, az), c, tilt)
            angle = 0.0 if tilt is None else min(tilt, TWO_PI - tilt)
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
        planes += tx / w, ty / w, tz / w, bias / w, 0.0  # 0 for |u|^2
        if verdict is None:  # its rows follow the k plane rows
            tests.append((len(planes) // 5 - 1, len(cuts) // 5))
            cuts += _cut_rows((tx, ty, tz), axis, phi, radius + dist)
    if not (cones and n):
        return 0 if count else np.zeros(n, dtype=bool)
    if exact:
        seen = np.array(_exact(points.tolist(), c, cones), dtype=bool)
        return int(np.count_nonzero(seen)) if count else seen
    k = len(planes) // 5
    rows = np.array(planes + cuts, dtype=np.float32).reshape(-1, 5)
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
        sure = score >= _SEEN
        maybe = score >= _UNSEEN
        hits = np.count_nonzero(sure)
        # sure implies maybe, so equal counts leave nothing undecided
        if np.count_nonzero(maybe) != hits:
            idx = (maybe ^ sure).nonzero()[0]
            band = _exact(points[lo + idx].tolist(), c, cones)
            hits += sum(band)
            if not count:
                sure[idx] = band
        total += hits
        if not count:
            seen.append(sure)
    if count:
        return int(total)
    return seen[0] if len(seen) == 1 else np.concatenate(seen)
