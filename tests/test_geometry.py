import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoswarm import geometry
from isoswarm.geometry import (ConeFov, DegenerateGeometryError, cone_axis,
                               in_fov, visible, visible_mask)
from tests.reference import (axial_distance, cone_radius_at,
                             in_near_hemisphere, orthogonal_distance)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def test_cone_axis_axis_aligned():
    np.testing.assert_allclose(cone_axis([1, 0, 0], [0, 0, 0]), [-1, 0, 0])


def test_cone_axis_345():
    np.testing.assert_allclose(cone_axis([0, 0, 0], [3, 4, 0]), [0.6, 0.8, 0])


def test_cone_axis_degenerate():
    with pytest.raises(DegenerateGeometryError):
        cone_axis([1, 2, 3], [1, 2, 3])


@pytest.mark.parametrize("tilt", [None, 0.5])
@pytest.mark.parametrize("apex", [[1e200, 0.0, 0.0], [0.0, -2e154, 0.0],
                                  [1e300, 1e300, 1e300]])
def test_unit_axis_overflowing_norm_is_degenerate(apex, tilt):
    # beyond about 1.3e154 km the squared norm overflows to inf, and the
    # axis would come out as zeros (or divide by a zero norm when tilted)
    with pytest.raises(DegenerateGeometryError):
        geometry.unit_axis(apex, [0.0, 0.0, 0.0], tilt)


def _fov(apex=(0, 0, 0), axis=(1, 0, 0), phi=np.pi / 2):
    return ConeFov(np.array(apex, float), np.array(axis, float), phi)


def test_axial_distance_projection():
    assert axial_distance([5, 3, 0], _fov()) == 5.0


def test_axial_distance_signed():
    assert axial_distance([-2, 0, 0], _fov()) == -2.0


def test_axial_distance_matches_dot_product_oracle(rng):
    for _ in range(200):
        apex = rng.uniform(-100, 100, 3)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        poi = rng.uniform(-100, 100, 3)
        fov = ConeFov(apex, axis, 0.5)
        # independently coded projection
        expected = sum((poi[i] - apex[i]) * axis[i] for i in range(3))
        assert axial_distance(poi, fov) == pytest.approx(expected, abs=1e-12)


def test_cone_radius_at_apex():
    assert cone_radius_at(0.0, 0.2) == 0.0


def test_cone_radius_45deg():
    assert cone_radius_at(1.0, np.pi / 2) == pytest.approx(1.0)


def test_cone_radius_narrow():
    assert cone_radius_at(10.0, 0.2) == pytest.approx(10 * np.tan(0.1))


def test_cone_radius_rejects_negative():
    with pytest.raises(ValueError):
        cone_radius_at(-1.0, 0.2)


def test_orthogonal_distance_on_axis():
    assert orthogonal_distance([7, 0, 0], _fov()) == 0.0


def test_orthogonal_distance_offset():
    assert orthogonal_distance([5, 3, 0], _fov()) == pytest.approx(3.0)


def test_orthogonal_distance_trig_oracle(rng):
    for _ in range(200):
        apex = rng.uniform(-50, 50, 3)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        poi = rng.uniform(-50, 50, 3)
        fov = ConeFov(apex, axis, 0.5)
        rel = poi - apex
        r = np.linalg.norm(rel)
        angle = np.arccos(np.clip(rel @ axis / r, -1, 1))
        assert orthogonal_distance(poi, fov) == pytest.approx(
            r * np.sin(angle), abs=1e-9)


def test_in_fov_on_axis_ahead():
    assert in_fov([3, 0, 0], _fov())


def test_in_fov_behind_apex():
    assert not in_fov([-3, 0, 0], _fov())


def test_in_fov_matches_angular_oracle(rng):
    for _ in range(1000):
        apex = rng.uniform(-100, 100, 3)
        center = rng.uniform(-100, 100, 3)
        if np.allclose(apex, center):
            continue
        phi = rng.uniform(0.05, 3.0)
        fov = ConeFov.aimed(apex, center, phi)
        poi = rng.uniform(-150, 150, 3)
        rel = poi - apex
        r = np.linalg.norm(rel)
        angular = r > 0 and rel @ fov.axis > 0 and \
            np.arccos(np.clip(rel @ fov.axis / r, -1, 1)) <= phi / 2
        assert in_fov(poi, fov) == angular


def test_near_hemisphere_center_boundary():
    assert in_near_hemisphere([0, 0, 0], [10, 0, 0], [0, 0, 0])


def test_near_hemisphere_far_side():
    assert not in_near_hemisphere([-1, 0, 0], [10, 0, 0], [0, 0, 0])


def test_near_hemisphere_on_plane():
    assert in_near_hemisphere([0, 5, 5], [10, 0, 0], [0, 0, 0])


def test_near_hemisphere_degenerate():
    with pytest.raises(DegenerateGeometryError):
        in_near_hemisphere([1, 1, 1], [0, 0, 0], [0, 0, 0])


def test_visible_conjunction():
    center = np.zeros(3)
    fov = ConeFov.aimed([10, 0, 0], center, np.pi / 2)
    assert visible([5, 0, 0], fov, center)       # near hemisphere, on axis
    assert not visible([-5, 0, 0], fov, center)  # in cone, far hemisphere


def test_visible_mask_matches_scalar(rng):
    center = rng.uniform(-20, 20, 3)
    apex = center + rng.uniform(5, 30) * np.array([1, 0.2, -0.3])
    fov = ConeFov.aimed(apex, center, 1.2)
    pts = rng.uniform(-40, 40, (500, 3))
    mask = visible_mask(pts, fov.apex[None], [fov.axis], [fov.aperture_phi],
                        center)
    for p, m in zip(pts, mask):
        assert visible(p, fov, center) == m


@settings(max_examples=100, deadline=None)
@given(poi=vec3, apex=vec3, center=vec3,
       shift=vec3, phi=st.floats(0.1, 3.0))
def test_visibility_translation_invariant(poi, apex, center, shift, phi):
    if np.linalg.norm(center - apex) < 1e-6:
        return
    fov = ConeFov.aimed(apex, center, phi)
    fov2 = ConeFov.aimed(apex + shift, center + shift, phi)
    assert visible(poi, fov, center) == visible(poi + shift, fov2, center + shift)


# (poi, apex, center, shift, phi) where the shift rounds away an offset far
# below its ulp: a POI 2e-66 km behind the center plane, POIs just ahead of
# the apex, and a plane normal tilted by a 4e-31 km component
SUB_ULP_CASES = [
    ([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 2.35932156846007e-66, 0.0],
     [0.0, 1.0, 0.0], 1.0),
    ([775.0966000076996, -1.1125369292536007e-308, 1.1754943508222875e-38],
     [775.0966000076996, -1.1125369292536007e-308, -8.43280147952504e-258],
     [-8.43280147952504e-258, 327.23259712368895, 1000.0],
     [-8.43280147952504e-258, 327.23259712368895, 1000.0],
     2.9095046349782847),
    ([-1.0210756639336937e-159, 0.0, -453.9988966076461],
     [0.0, 0.0, -453.9988966076461],
     [-454.504967833813, 0.0, -453.9988966076461],
     [-454.504967833813, 0.0, -453.9988966076461], 2.989467342525218),
    ([-344.9910658777834, -344.9910658777834, -1.1],
     [-615.964555786315, 3.919861539639913e-31, 20.58452393989785],
     [-344.9910658777834, 2.4323073058338956e-83, -1.1],
     [3.8519403650785274e-66, 514.4817194835366, -212.29710552921176], 2.0),
]


@pytest.mark.parametrize("poi, apex, center, shift, phi", SUB_ULP_CASES)
def test_visibility_ignores_sub_ulp_offsets(poi, apex, center, shift, phi):
    poi, apex, center, shift = map(np.array, (poi, apex, center, shift))
    fov = ConeFov.aimed(apex, center, phi)
    fov2 = ConeFov.aimed(apex + shift, center + shift, phi)
    assert visible(poi, fov, center) == visible(poi + shift, fov2, center + shift)


def test_slack_scales_with_spacecraft_distance():
    # a POI must stand more than the slack s D ahead of the apex to be in
    # view, and within s D behind the center plane it counts as on the plane
    center = np.zeros(3)
    for dist in (1e-3, 1.0, 1e6):
        apex = np.array([0.0, 0.0, dist])
        fov = ConeFov.aimed(apex, center, 1.0)
        step = np.array([0.0, 0.0, dist * geometry._SLACK])
        assert not visible(apex - 0.5 * step, fov, center)
        assert visible(apex - 2.0 * step, fov, center)
        # the apex slack does not apply without a center
        assert in_fov(apex - 0.5 * step, fov)
        assert visible(center - 0.5 * step, fov, center)
        assert not visible(center - 2.0 * step, fov, center)
        assert in_near_hemisphere(center - 0.5 * step, apex, center)
        assert not in_near_hemisphere(center - 2.0 * step, apex, center)


@settings(max_examples=100, deadline=None)
@given(poi=vec3, apex=vec3, center=vec3,
       scale=st.floats(1e-3, 1e3), phi=st.floats(0.1, 3.0))
def test_visibility_scale_covariant(poi, apex, center, scale, phi):
    if np.linalg.norm(center - apex) < 1e-6:
        return
    fov = ConeFov.aimed(apex, center, phi)
    fov2 = ConeFov.aimed(apex * scale, center * scale, phi)
    assert visible(poi, fov, center) == visible(poi * scale, fov2, center * scale)
    assert axial_distance(poi * scale, fov2) == pytest.approx(
        scale * axial_distance(poi, fov), rel=1e-9, abs=1e-9)


def test_visibility_rotation_invariant(rng):
    from scipy.spatial.transform import Rotation

    for _ in range(100):
        apex = rng.uniform(-50, 50, 3)
        center = rng.uniform(-50, 50, 3)
        if np.linalg.norm(center - apex) < 1e-3:
            continue
        poi = rng.uniform(-80, 80, 3)
        phi = rng.uniform(0.1, 3.0)
        R = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
        fov = ConeFov.aimed(apex, center, phi)
        fov2 = ConeFov.aimed(R @ apex, R @ center, phi)
        assert visible(poi, fov, center) == visible(R @ poi, fov2, R @ center)


def test_tilted_axis_angle_equals_tilt(rng):
    for _ in range(100):
        apex = rng.uniform(-50, 50, 3)
        center = rng.uniform(-50, 50, 3)
        if np.linalg.norm(center - apex) < 1e-3:
            continue
        tilt = rng.uniform(0, np.pi)
        toward = cone_axis(apex, center)
        tilted = np.array(geometry.unit_axis(apex.tolist(), center.tolist(),
                                             tilt))
        assert np.linalg.norm(tilted) == pytest.approx(1.0, abs=1e-12)
        assert np.arccos(np.clip(toward @ tilted, -1, 1)) == pytest.approx(
            tilt, abs=1e-9)
