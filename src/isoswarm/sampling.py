"""Seed-driven uniform sampling of points of interest inside an uncertainty ellipsoid.

The generator is numpy's PCG64 (``np.random.default_rng``), so identical
(ellipsoid, n, seed) triples reproduce identical point lists bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import as_vec3, poi_columns, squared_norms


class EmptySampleError(ValueError):
    """Requested an empty POI set."""


@dataclass(frozen=True)
class UncertaintyEllipsoid:
    """Region where the ISO lies with the certified probability.

    center is in km; radii (a, b, c) are the per-axis semi-axes in km.
    Equal radii denote an uncertainty sphere.
    """

    center: np.ndarray
    radii: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center, "center"))
        radii = tuple(as_vec3(self.radii, "radii").tolist())
        if not (min(radii) > 0.0 and all(abs(c) + r < math.inf for c, r
                                         in zip(self.center.tolist(), radii))):
            raise ValueError("radii must be positive, and the ellipsoid "
                             "(center +- radii) within the float range")
        object.__setattr__(self, "radii", radii)

    @classmethod
    def sphere(cls, radius: float, center=(0.0, 0.0, 0.0)):
        return cls(center, (radius, radius, radius))


@dataclass(frozen=True)
class PoiSet:
    """Ordered list of sampled points of interest plus its provenance."""

    points: np.ndarray
    seed: int
    ellipsoid: UncertaintyEllipsoid

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must have shape (n, 3)")
        if not np.isfinite(pts).all():
            raise ValueError("POI coordinates must be finite")
        object.__setattr__(self, "points", pts)

    def columns(self, center) -> tuple[np.ndarray, float]:
        """poi_columns(points, center): the float32 columns (None out of
        their range) and R, kept for the last center asked for."""
        center = np.asarray(center, dtype=float)
        cached = getattr(self, "_columns", (None,))
        if cached[0] != center.tobytes():
            cached = center.tobytes(), poi_columns(self.points, center)
            object.__setattr__(self, "_columns", cached)
        return cached[1]

    def __len__(self):
        return self.points.shape[0]


def sample_pois(ellipsoid: UncertaintyEllipsoid, n: int, seed: int) -> PoiSet:
    """Sample n points uniformly by volume inside the ellipsoid.

    Uses the direction-radius construction: a normalized Gaussian triple for
    the direction, radius u**(1/3) for uniformity in the unit ball, then a
    componentwise stretch by the semi-axes. It works on contiguous x, y, z
    rows, their norms by squared_norms; the points are their transpose."""
    if n < 1:
        raise EmptySampleError("need at least one POI")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 3)).T.copy()
    rows /= np.sqrt(squared_norms(rows))
    rows *= rng.random(n) ** (1.0 / 3.0)
    rows *= np.array(ellipsoid.radii)[:, None]
    rows += ellipsoid.center[:, None]
    return PoiSet(rows.T, int(seed), ellipsoid)


def save_pois(path, pois: PoiSet) -> None:
    """Write a POI set as columnar text: a provenance header then x,y,z rows."""
    e = pois.ellipsoid
    with open(path, "w") as f:
        f.write("# seed=%d radii=%.17g,%.17g,%.17g center=%.17g,%.17g,%.17g\n"
                "x,y,z\n" % ((pois.seed,) + e.radii + tuple(e.center)))
        blocks = np.split(pois.points, range(4096, len(pois), 4096))
        f.writelines("%.17g,%.17g,%.17g\n" * len(b) % tuple(b.ravel().tolist())
                     for b in blocks)


def load_pois(path) -> PoiSet:
    """Read a POI file produced by save_pois."""
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("# seed="):
            raise ValueError(f"{path}: missing POI provenance header")
        fields = dict(tok.split("=", 1) for tok in header[2:].split())
        seed = int(fields["seed"])
        radii = tuple(float(v) for v in fields["radii"].split(","))
        center = np.array([float(v) for v in fields["center"].split(",")])
        columns = f.readline().strip()
        if columns != "x,y,z":
            raise ValueError(f"{path}: expected 'x,y,z' column line")
        # lines stream into loadtxt; the first is read ahead, as loadtxt
        # only warns on no data
        rows = filter(str.strip, f)
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: no POI rows")
        pts = np.loadtxt(chain((first,), rows), delimiter=",", ndmin=2,
                         comments=None)
    ellipsoid = UncertaintyEllipsoid(center, radii)
    return PoiSet(pts, seed, ellipsoid)
