"""Independent NumPy oracle for the benchmark's output checks.

Nothing here imports ``isoswarm.geometry`` or ``isoswarm.cost``: every
quantity the program reports is recomputed from the reported final poses
with plain array code written from the model's definitions.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
IDENTICAL_THETA_DELTA = 1e-6
KAPPA_TOL = 1e-9

_Z_HAT = np.array([0.0, 0.0, 1.0])
_X_HAT = np.array([1.0, 0.0, 0.0])


def sample_points(seed: int, n: int, radii, center) -> np.ndarray:
    """Uniform-by-volume points in an ellipsoid: Gaussian direction, radius
    u**(1/3), componentwise stretch; the same PCG64 draws as the program."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / 3.0)
    return dirs * r[:, None] * np.asarray(radii, dtype=float) + np.asarray(
        center, dtype=float)


def read_poi_file(path):
    """Parse a POI file: returns (header fields, (n, 3) points)."""
    with open(path) as f:
        header = f.readline().strip()
        columns = f.readline().strip()
        pts = np.array([[float(v) for v in line.split(",")]
                        for line in f if line.strip()])
    if not header.startswith("# seed=") or columns != "x,y,z":
        raise ValueError(f"{path}: malformed POI file header")
    fields = dict(tok.split("=", 1) for tok in header[2:].split())
    return {
        "seed": int(fields["seed"]),
        "radii": [float(v) for v in fields["radii"].split(",")],
        "center": [float(v) for v in fields["center"].split(",")],
    }, pts.reshape(-1, 3)


def cone_axis(apex, center, mode: str, theta: float) -> np.ndarray:
    """Viewing direction: at the center ("aimed"), or the toward-center
    direction rotated by theta about a fixed perpendicular ("theta_tilt")."""
    toward = np.asarray(center, float) - np.asarray(apex, float)
    toward = toward / np.linalg.norm(toward)
    if mode == "aimed":
        return toward
    ref = _Z_HAT if abs(toward @ _Z_HAT) < 0.9 else _X_HAT
    u = np.cross(toward, ref)
    u /= np.linalg.norm(u)
    return toward * np.cos(theta) + np.cross(u, toward) * np.sin(theta)


def visible(points: np.ndarray, apex, center, phi: float, mode: str,
            theta: float) -> np.ndarray:
    """Inside the forward cone and on the spacecraft's side of the plane
    through the center; boundary ties count as visible."""
    apex = np.asarray(apex, float)
    center = np.asarray(center, float)
    axis = cone_axis(apex, center, mode, theta)
    rel = points - apex
    d = rel @ axis
    orth = np.linalg.norm(rel - d[:, None] * axis, axis=1)
    in_cone = (d > 0.0) & (orth <= d * np.tan(phi / 2.0))
    near = (points - center) @ (apex - center) >= 0.0
    return in_cone & near


def coverage_count(points, poses, center, phi, mode) -> int:
    """POIs seen by at least one pose; poses are (position, theta) pairs."""
    seen = np.zeros(len(points), dtype=bool)
    for position, theta in poses:
        seen |= visible(points, position, center, phi, mode, theta)
    return int(np.count_nonzero(seen))


def kappa(thetas, nus) -> float:
    """Summed pairwise arc-intersection length of the intervals
    [theta_k - nu_k, theta_k + nu_k] (all half-widths below pi/2 here).
    Identical orientations are separated by IDENTICAL_THETA_DELTA."""
    total = 0.0
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            ti, tj = thetas[i] % TWO_PI, thetas[j] % TWO_PI
            if ti == tj:
                tj += IDENTICAL_THETA_DELTA
            d = abs(ti - tj) % TWO_PI
            sep = min(d, TWO_PI - d)
            total += max(0.0, min(nus[i] + nus[j] - sep,
                                  2.0 * min(nus[i], nus[j])))
    return total


def check_cost(points, poses, center, phi, nu, mode, kappa_weight,
               reported_count, reported_kappa, reported_cost) -> list[str]:
    """Compare one reported cost breakdown with the oracle; returns the
    failures found (empty when it agrees)."""
    problems = []
    count = coverage_count(points, poses, center, phi, mode)
    if abs(count - reported_count) > len(poses):
        problems.append(f"coverage {reported_count} vs oracle {count}")
    k = kappa([t for _, t in poses], [nu] * len(poses))
    if abs(k - reported_kappa) > KAPPA_TOL:
        problems.append(f"kappa {reported_kappa!r} vs oracle {k!r}")
    pct = 100.0 * reported_count / len(points)
    if abs(kappa_weight * reported_kappa - pct - reported_cost) > 1e-9 * max(
            1.0, abs(reported_cost)):
        problems.append("information cost != w * kappa - coverage%")
    return problems


def sees_center(position, center, phi, mode, theta) -> bool:
    """Whether the ellipsoid center itself is visible from the pose."""
    return bool(visible(np.asarray([center], float), position, center, phi,
                        mode, theta)[0])
