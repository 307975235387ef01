import numpy as np
import pytest

from isoswarm.sampling import (EmptySampleError, PoiSet, UncertaintyEllipsoid,
                               load_pois, sample_pois, save_pois)
from tests.reference import ellipsoid_contains, reference_sample_points


def test_single_point_in_unit_sphere():
    pois = sample_pois(UncertaintyEllipsoid.sphere(1.0), 1, 42)
    assert len(pois) == 1
    assert np.linalg.norm(pois.points[0]) <= 1.0


def test_all_points_inside():
    e = UncertaintyEllipsoid(np.array([1.0, -2.0, 3.0]), (100.0, 50.0, 25.0))
    pois = sample_pois(e, 5000, 7)
    assert np.all(ellipsoid_contains(e, pois.points))


@pytest.mark.parametrize("n", [1, 5000])
def test_sample_pois_matches_the_row_formula(n):
    # bit for bit, on centers near 4e7 km and radii from 1e-3 to 7e5 km
    rng = np.random.default_rng(4)
    for seed in range(60):
        center = 4e7 * rng.choice([-1.0, 1.0], 3) + rng.uniform(-1e4, 1e4, 3)
        radii = 10.0 ** rng.uniform(-3.0, np.log10(7e5), 3)
        if seed < 4:
            radii[rng.integers(3)] = (1e-3, 7e5)[seed % 2]
        e = UncertaintyEllipsoid(center, radii)
        got = sample_pois(e, n, seed).points
        assert got.shape == (n, 3)
        assert got.tobytes() == reference_sample_points(e, n, seed).tobytes()


def test_volume_fraction_half_radius():
    pois = sample_pois(UncertaintyEllipsoid.sphere(100.0), 5000, 3)
    frac = np.mean(np.linalg.norm(pois.points, axis=1) <= 50.0)
    assert frac == pytest.approx(0.125, abs=0.02)


def test_determinism():
    e = UncertaintyEllipsoid.sphere(100.0)
    a = sample_pois(e, 1000, 99)
    b = sample_pois(e, 1000, 99)
    assert np.array_equal(a.points, b.points)


def test_different_seeds_differ():
    e = UncertaintyEllipsoid.sphere(100.0)
    assert not np.array_equal(sample_pois(e, 100, 1).points,
                              sample_pois(e, 100, 2).points)


def test_radius_cubed_uniform_ks():
    from scipy.stats import kstest

    ok = 0
    for seed in range(20):
        pois = sample_pois(UncertaintyEllipsoid.sphere(1.0), 5000, seed)
        r3 = np.linalg.norm(pois.points, axis=1) ** 3
        if kstest(r3, "uniform").statistic < 0.03:
            ok += 1
    assert ok >= 19


def test_anisotropic_second_moments():
    e = UncertaintyEllipsoid(np.zeros(3), (2.0, 1.0, 1.0))
    pois = sample_pois(e, 10000, 11)
    mx = np.mean((pois.points[:, 0] / 2.0) ** 2)
    my = np.mean(pois.points[:, 1] ** 2)
    assert mx == pytest.approx(my, rel=0.05)


def test_empty_sample_rejected():
    with pytest.raises(EmptySampleError):
        sample_pois(UncertaintyEllipsoid.sphere(1.0), 0, 0)


def test_nonpositive_radii_rejected():
    with pytest.raises(ValueError):
        UncertaintyEllipsoid(np.zeros(3), (1.0, -1.0, 1.0))


def test_poi_file_round_trip(tmp_path):
    e = UncertaintyEllipsoid(np.array([0.5, -0.25, 10.0]), (30.0, 20.0, 10.0))
    pois = sample_pois(e, 250, 17)
    path = tmp_path / "pois.csv"
    save_pois(path, pois)
    loaded = load_pois(path)
    assert loaded.seed == 17
    assert loaded.ellipsoid.radii == e.radii
    np.testing.assert_array_equal(loaded.ellipsoid.center, e.center)
    np.testing.assert_array_equal(loaded.points, pois.points)


def test_poi_file_byte_identical(tmp_path):
    e = UncertaintyEllipsoid.sphere(100.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_pois(p1, sample_pois(e, 100, 5))
    save_pois(p2, sample_pois(e, 100, 5))
    assert p1.read_bytes() == p2.read_bytes()


def test_poi_file_matches_row_loop_reference(tmp_path):
    # the block writer and the loadtxt reader against the one-row-at-a-time
    # formatting and float() parsing, across a write-block boundary
    e = UncertaintyEllipsoid(np.array([4e7, -9e7, 1.5]), (100.0, 70.0, 40.0))
    pts = sample_pois(e, 5000, 3).points.copy()
    pts[:4] = [[-0.0, 0.0, 1e-300], [5e-324, 1e308, -1.5],
               [1 / 3, 2 / 3, 1e22], [np.pi, np.e, -np.pi]]
    path = tmp_path / "pois.csv"
    save_pois(path, PoiSet(pts, 3, e))
    header, columns, *rows = path.read_text().splitlines(keepends=True)
    assert columns == "x,y,z\n"
    assert rows == ["%.17g,%.17g,%.17g\n" % tuple(p) for p in pts]
    # blank and whitespace-only lines between rows are skipped
    path.write_text(header + columns + "\n".join(rows[:3]) + "\n  \t\n"
                    + "".join(rows[3:]) + "\n")
    loaded = load_pois(path)
    reference = [[float(v) for v in line.split(",")] for line in rows]
    assert loaded.points.tobytes() == np.array(reference).tobytes()
