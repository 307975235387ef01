import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoswarm import geometry
from isoswarm.geometry import (DegenerateGeometryError, squared_norms,
                               unit_axis, visible_mask)
from tests.conftest import unculled_mask
from tests.reference import axial_distance, in_near_hemisphere

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def aimed_visible(poi, apex, center, phi) -> bool:
    """visible_mask of one POI from the cone at apex aimed at center."""
    apex, center = np.asarray(apex, float), np.asarray(center, float)
    return bool(visible_mask(np.array([poi], float), [apex.tolist()], None,
                             [phi], center)[0])


def test_cone_axis_axis_aligned():
    assert unit_axis([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == (-1.0, 0.0, 0.0)


def test_cone_axis_345():
    np.testing.assert_allclose(unit_axis([0.0, 0.0, 0.0], [3.0, 4.0, 0.0]),
                               [0.6, 0.8, 0.0])


def test_cone_axis_degenerate():
    with pytest.raises(DegenerateGeometryError):
        unit_axis([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("tilt", [None, 0.5])
@pytest.mark.parametrize("apex", [[1e200, 0.0, 0.0], [0.0, -2e154, 0.0],
                                  [1e300, 1e300, 1e300]])
def test_unit_axis_overflowing_norm_is_degenerate(apex, tilt):
    # beyond about 1.3e154 km the squared norm overflows to inf, and the
    # axis would come out as zeros (or divide by a zero norm when tilted)
    with pytest.raises(DegenerateGeometryError):
        unit_axis(apex, [0.0, 0.0, 0.0], tilt)


# apex and axis of a cone at the origin looking along +x
CONE = ([0, 0, 0], [1, 0, 0])


def test_axial_distance_projection():
    assert axial_distance([5, 3, 0], *CONE) == 5.0


def test_axial_distance_signed():
    assert axial_distance([-2, 0, 0], *CONE) == -2.0


def test_axial_distance_matches_dot_product_oracle(rng):
    for _ in range(200):
        apex = rng.uniform(-100, 100, 3)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        poi = rng.uniform(-100, 100, 3)
        # independently coded projection
        expected = sum((poi[i] - apex[i]) * axis[i] for i in range(3))
        assert axial_distance(poi, apex, axis) == pytest.approx(expected,
                                                                abs=1e-12)


def test_in_fov_on_axis_ahead():
    assert aimed_visible([3, 0, 0], CONE[0], [10, 0, 0], np.pi / 2)


def test_in_fov_behind_apex():
    # in the near hemisphere, but behind the apex
    assert not aimed_visible([-3, 0, 0], CONE[0], [10, 0, 0], np.pi / 2)


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
    center, apex = np.zeros(3), [10, 0, 0]
    # near hemisphere, on axis; in cone, far hemisphere
    assert aimed_visible([5, 0, 0], apex, center, np.pi / 2)
    assert not aimed_visible([-5, 0, 0], apex, center, np.pi / 2)


def test_visible_mask_matches_scalar(rng):
    # each POI alone gets its answer among 500, and both are the
    # un-culled elementwise test's
    center = rng.uniform(-20, 20, 3)
    apex = center + rng.uniform(5, 30) * np.array([1, 0.2, -0.3])
    axis = unit_axis(apex.tolist(), center.tolist())
    pts = rng.uniform(-40, 40, (500, 3))
    mask = visible_mask(pts, [apex.tolist()], None, [1.2], center)
    np.testing.assert_array_equal(
        mask, unculled_mask(pts, apex[None], [axis], [1.2], center))
    for p, m in zip(pts, mask):
        assert aimed_visible(p, apex, center, 1.2) == m


@settings(max_examples=100, deadline=None)
@given(poi=vec3, apex=vec3, center=vec3,
       shift=vec3, phi=st.floats(0.1, 3.0))
def test_visibility_translation_invariant(poi, apex, center, shift, phi):
    if np.linalg.norm(center - apex) < 1e-6:
        return
    assert aimed_visible(poi, apex, center, phi) == aimed_visible(
        poi + shift, apex + shift, center + shift, phi)


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
    assert aimed_visible(poi, apex, center, phi) == aimed_visible(
        poi + shift, apex + shift, center + shift, phi)


def test_slack_scales_with_spacecraft_distance():
    # a POI must stand more than the slack s D ahead of the apex to be in
    # view, and within s D behind the center plane it counts as on the plane
    center = np.zeros(3)
    for dist in (1e-3, 1.0, 1e6):
        apex = np.array([0.0, 0.0, dist])
        step = np.array([0.0, 0.0, dist * geometry._SLACK])
        assert not aimed_visible(apex - 0.5 * step, apex, center, 1.0)
        assert aimed_visible(apex - 2.0 * step, apex, center, 1.0)
        assert aimed_visible(center - 0.5 * step, apex, center, 1.0)
        assert not aimed_visible(center - 2.0 * step, apex, center, 1.0)
        assert in_near_hemisphere(center - 0.5 * step, apex, center)
        assert not in_near_hemisphere(center - 2.0 * step, apex, center)


@settings(max_examples=100, deadline=None)
@given(poi=vec3, apex=vec3, center=vec3,
       scale=st.floats(1e-3, 1e3), phi=st.floats(0.1, 3.0))
def test_visibility_scale_covariant(poi, apex, center, scale, phi):
    if np.linalg.norm(center - apex) < 1e-6:
        return
    assert aimed_visible(poi, apex, center, phi) == aimed_visible(
        poi * scale, apex * scale, center * scale, phi)
    axis = unit_axis(apex.tolist(), center.tolist())
    axis2 = unit_axis((apex * scale).tolist(), (center * scale).tolist())
    assert axial_distance(poi * scale, apex * scale, axis2) == pytest.approx(
        scale * axial_distance(poi, apex, axis), rel=1e-9, abs=1e-9)


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
        assert aimed_visible(poi, apex, center, phi) == aimed_visible(
            R @ poi, R @ apex, R @ center, phi)


def test_tilted_axis_angle_equals_tilt(rng):
    for _ in range(100):
        apex = rng.uniform(-50, 50, 3)
        center = rng.uniform(-50, 50, 3)
        if np.linalg.norm(center - apex) < 1e-3:
            continue
        tilt = rng.uniform(0, np.pi)
        toward = np.array(unit_axis(apex.tolist(), center.tolist()))
        tilted = np.array(unit_axis(apex.tolist(), center.tolist(), tilt))
        assert np.linalg.norm(tilted) == pytest.approx(1.0, abs=1e-12)
        assert np.arccos(np.clip(toward @ tilted, -1, 1)) == pytest.approx(
            tilt, abs=1e-9)


# any finite float, with moderate ones, signed zeros, subnormals and values
# whose squares overflow drawn often
component = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.0 ** -1060, 1e-160,
                     1.3e154, -1e200, 1.7976931348623157e308]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(component, component, component), min_size=1,
                max_size=24))
@example([(-0.0, -0.0, -0.0), (0.0, -0.0, 5e-324)])
@example([(1e-310, -5e-324, 2.0 ** -1060), (1e-160, 1e-160, -1e-160)])
@example([(1e200, 0.0, 0.0), (1e154, 1e154, 1e154), (-1.7e308, 1.0, 2.0)])
@example([(-0.967, 0.627, 0.826)])  # other orders of the sum round apart
def test_squared_norms_are_the_ordered_sum_bit_for_bit(points):
    rows = np.array(points).T.copy()  # (3, n), as its callers pass them
    with np.errstate(over="ignore", under="ignore"):
        want = (rows[0] * rows[0] + rows[1] * rows[1]) + rows[2] * rows[2]
        got = squared_norms(rows)
        alone = [squared_norms(rows[:, i:i + 1])[0]
                 for i in range(len(points))]
    assert rows.tobytes() == np.array(points).T.tobytes()  # left unchanged
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array(alone).tobytes() == want.tobytes()
