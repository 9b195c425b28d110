import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NeuronCoord, two_step_projection
from evstereo.groundtruth import (
    MarkerTrack3D,
    Track2D,
    disparity_trajectory,
    project_markers,
    read_calibration_json,
    read_marker_csv,
    read_trace_csv,
    write_trace_csv,
)

IDENTITY_P = np.hstack([np.eye(3), np.zeros((3, 1))])
FULL_FRAME = (1, (0, 0), (346, 260))  # factor, crop origin and crop size of the undivided 346x260 frame


def track(joint, samples):
    return MarkerTrack3D(
        joint=joint,
        t=np.array([s[0] for s in samples], dtype=np.int64),
        xyz=np.array([s[1:] for s in samples], dtype=np.float64),
    )


# ------------------------------------------------------------- projection

def test_identity_projection_perspective_divide():
    tracks = [track("a", [(0, 100.0, 50.0, 2.0)])]
    out = project_markers(tracks, IDENTITY_P, *FULL_FRAME)
    assert out[0].uv[0] == pytest.approx([50.0, 25.0])
    assert out[0].visible[0]


def test_point_behind_camera_flagged_not_visible():
    tracks = [track("a", [(0, 10.0, 10.0, -2.0), (1000, 10.0, 10.0, 2.0)])]
    out = project_markers(tracks, IDENTITY_P, *FULL_FRAME)
    assert not out[0].visible[0] and np.isnan(out[0].uv[0]).all()
    assert out[0].visible[1]
    assert len(out[0].t) == 2  # flagged, not dropped


def test_point_outside_frame_flagged_not_visible():
    tracks = [track("a", [(0, 10000.0, 50.0, 2.0)])]
    out = project_markers(tracks, IDENTITY_P, *FULL_FRAME)
    assert out[0].uv[0] == pytest.approx([5000.0, 25.0])
    assert not out[0].visible[0]


def test_projection_matches_independent_homogeneous_algebra():
    rng = np.random.default_rng(42)
    P = rng.normal(size=(3, 4))
    P[2] = [0, 0, 1, 5.0]  # keep w' positive for z > -5
    samples = [(int(i * 1000), *rng.uniform(1, 100, size=3)) for i in range(50)]
    tracks = [track("j", samples)]
    out = project_markers(tracks, P, *FULL_FRAME)[0]
    # second implementation: explicit scalar dot products
    for i, (_, X, Y, Z) in enumerate(samples):
        num_u = P[0, 0] * X + P[0, 1] * Y + P[0, 2] * Z + P[0, 3]
        num_v = P[1, 0] * X + P[1, 1] * Y + P[1, 2] * Z + P[1, 3]
        den = P[2, 0] * X + P[2, 1] * Y + P[2, 2] * Z + P[2, 3]
        assert out.uv[i, 0] == pytest.approx(num_u / den, abs=1e-12)
        assert out.uv[i, 1] == pytest.approx(num_v / den, abs=1e-12)


def test_projection_rejects_bad_matrix_shape_and_factor():
    with pytest.raises(ValueError, match="3x4"):
        project_markers([], np.eye(3), *FULL_FRAME)
    with pytest.raises(ValueError, match="factor"):
        project_markers([], IDENTITY_P, 0, (0, 0), (16, 16))


# ------------------------------------------------------------- downscaling

def make_track2d(joint, t, uv, visible=None):
    uv = np.asarray(uv, dtype=np.float64)
    vis = ~np.isnan(uv[:, 0]) if visible is None else np.asarray(visible, dtype=bool)
    return Track2D(joint=joint, t=np.asarray(t, dtype=np.int64), uv=uv, visible=vis)


def test_downscale_divides_and_shifts():
    tracks = [track("a", [(0, 60.0, 30.0, 1.0)])]
    assert project_markers(tracks, IDENTITY_P, 6, (0, 0), (16, 16))[0].uv[0] == pytest.approx([10.0, 5.0])
    assert project_markers(tracks, IDENTITY_P, 6, (10, 5), (16, 16))[0].uv[0] == pytest.approx([0.0, 0.0])


def test_downscale_factor_one_identity():
    tracks = [track("a", [(0, 12.5, 7.25, 1.0)])]
    assert project_markers(tracks, IDENTITY_P, *FULL_FRAME)[0].uv[0] == pytest.approx([12.5, 7.25])


def test_downscale_evaluates_visibility_against_the_crop():
    samples = [(0, 60.0, 30.0, 1.0), (1000, 300.0, 30.0, 1.0), (2000, 0.0, 0.0, 1.0), (3000, 96.0, 30.0, 1.0),
               (4000, 60.0, 96.0, 1.0), (5000, 95.9, 95.9, 1.0)]
    out = project_markers([track("a", samples)], IDENTITY_P, 6, (0, 0), (16, 16))[0]
    # 50 px exceeds the 16 px window; the crop holds [0, 16) on each axis
    assert out.visible.tolist() == [True, False, True, False, False, True]


def test_downscale_commutes_with_affine_map():
    rng = np.random.default_rng(3)
    uv = rng.uniform(0, 300, size=(20, 2))
    tracks = [track("a", [(k * 100, u, v, 1.0) for k, (u, v) in enumerate(uv)])]
    out = project_markers(tracks, IDENTITY_P, 6, (7, 3), (16, 16))[0]
    assert np.allclose(out.uv, uv / 6 - [7, 3], atol=1e-12)


# moderate coordinates on a 1e-3 lattice: every projection stays finite
COORD = st.integers(-10**6, 10**6).map(lambda k: k / 1000)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(COORD, COORD, COORD), min_size=1, max_size=12),
    st.lists(COORD, min_size=12, max_size=12),
    st.integers(1, 8),
    st.tuples(st.integers(0, 40), st.integers(0, 30)),
    st.tuples(st.integers(1, 20), st.integers(1, 20)),
)
def test_one_pass_projection_equals_the_two_step_reference_bit_for_bit(points, p, factor, origin, size):
    """Samples behind the camera, outside the full frame and outside the crop
    included; the uv bits (NaN included) and the visibility agree."""
    tr = track("a", [(k, *xyz) for k, xyz in enumerate(points)])
    P = np.array(p).reshape(3, 4)
    got = project_markers([tr], P, factor, origin, size)[0]
    uv, visible = two_step_projection(tr, P, factor, origin, size)
    assert got.uv.view(np.int64).tolist() == uv.view(np.int64).tolist()
    assert got.visible.tolist() == visible.tolist()


# ------------------------------------------------------------- trajectory

def test_static_joint_constant_disparity():
    t = np.arange(0, 1_000_001, 100_000)
    left = make_track2d("a", t, np.column_stack([np.full(len(t), 3.0), np.full(len(t), 5.0)]))
    right = make_track2d("a", t, np.column_stack([np.full(len(t), 5.0), np.full(len(t), 5.0)]))
    trace = disparity_trajectory([left], [right], 50_000)
    assert np.all(trace.d_mean[trace.defined] == 2.0)
    assert np.all(trace.d_min[trace.defined] == 2.0)
    assert np.all(trace.d_max[trace.defined] == 2.0)


def test_two_joints_aggregate():
    t = np.array([0, 1_000_000])
    mk = lambda u: make_track2d("x", t, np.column_stack([[u, u], [1.0, 1.0]]))
    la, ra = mk(3.0), mk(4.0)  # d = 1
    lb, rb = mk(3.0), mk(6.0)  # d = 3
    la.joint = ra.joint = "a"
    lb.joint = rb.joint = "b"
    trace = disparity_trajectory([la, lb], [ra, rb], 100_000)
    i = 2  # a mid-recording window
    assert trace.d_mean[i] == pytest.approx(2.0)
    assert trace.d_min[i] == pytest.approx(1.0)
    assert trace.d_max[i] == pytest.approx(3.0)
    assert trace.n_joints[i] == 2


def test_linear_motion_interpolates_exactly():
    # samples at 10 Hz; u moves affinely in t, so interpolation is exact
    t = np.arange(0, 2_000_001, 100_000)
    u_l = 2.0 + 3.0 * (t / 1e6)
    u_r = 4.0 + 4.5 * (t / 1e6)
    left = make_track2d("a", t, np.column_stack([u_l, np.full(len(t), 4.0)]))
    right = make_track2d("a", t, np.column_stack([u_r, np.full(len(t), 4.0)]))
    trace = disparity_trajectory([left], [right], 50_000)
    centers = np.arange(trace.n_windows) * 50_000 + 25_000
    expected = (4.0 - 2.0) + 1.5 * (centers / 1e6)
    in_span = centers <= t[-1]
    assert np.allclose(trace.d_mean[in_span], expected[in_span], atol=1e-9)


def test_joint_missing_in_one_view_excluded():
    t = np.array([0, 400_000, 1_000_000])
    left = make_track2d("a", t, np.array([[3.0, 1.0], [3.0, 1.0], [3.0, 1.0]]))
    right = make_track2d(
        "a", t, np.array([[5.0, 1.0], [5.0, 1.0], [5.0, 1.0]]), visible=[True, True, False]
    )
    trace = disparity_trajectory([left], [right], 200_000)
    # windows whose centres need the invisible bracketing sample are empty
    assert trace.n_joints[0] == 1 and trace.n_joints[1] == 1
    assert trace.n_joints[-1] == 0
    assert np.isnan(trace.d_mean[-1])


def test_no_common_joint_errors():
    t = np.array([0, 1000])
    a = make_track2d("a", t, np.array([[1.0, 1.0], [1.0, 1.0]]))
    b = make_track2d("b", t, np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="joint"):
        disparity_trajectory([a], [b], 1000)


def test_sign_convention_matches_network():
    # a target shifted rightward in the RIGHT view has positive disparity in
    # both the ground-truth path and the network coordinate d = x_R - x_L
    t = np.array([0, 100_000])
    left = make_track2d("a", t, np.array([[3.0, 2.0], [3.0, 2.0]]))
    right = make_track2d("a", t, np.array([[5.0, 2.0], [5.0, 2.0]]))
    trace = disparity_trajectory([left], [right], 50_000)
    gt_d = float(trace.d_mean[0])
    net_d = NeuronCoord.from_pair(x_left=3, x_right=5, y=2).d
    assert gt_d == net_d == 2


# ------------------------------------------------------------- file I/O

def test_marker_csv_roundtrip(tmp_path):
    path = tmp_path / "markers.csv"
    path.write_text(
        "t_us,joint,X_mm,Y_mm,Z_mm\n"
        "0,head,1.5,2.5,3.5\n"
        "1000,head,1.6,2.6,3.6\n"
        "0,hand,9.0,8.0,7.0\n"
    )
    tracks = read_marker_csv(str(path))
    assert [tr.joint for tr in tracks] == ["hand", "head"]
    head = tracks[1]
    assert head.t.tolist() == [0, 1000]
    assert head.xyz[1].tolist() == [1.6, 2.6, 3.6]


def test_calibration_json(tmp_path):
    path = tmp_path / "calib.json"
    P = np.arange(12, dtype=float).reshape(3, 4)
    path.write_text('{"left": %s, "right": %s}' % (P.tolist(), (P * 2).tolist()))
    PL, PR = read_calibration_json(str(path))
    assert np.array_equal(PL, P)
    assert np.array_equal(PR, P * 2)
    bad = tmp_path / "bad.json"
    bad.write_text('{"left": [[1]]}')
    with pytest.raises(ValueError):
        read_calibration_json(str(bad))


def test_trace_csv_roundtrip(tmp_path):
    t = np.arange(0, 500_001, 100_000)
    left = make_track2d("a", t, np.column_stack([np.linspace(2, 4, len(t)), np.full(len(t), 1.0)]))
    right = make_track2d("a", t, np.column_stack([np.linspace(4, 8, len(t)), np.full(len(t), 1.0)]))
    trace = disparity_trajectory([left], [right], 50_000)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    back = read_trace_csv(str(path))
    assert back.window_us == trace.window_us
    assert back.n_windows == trace.n_windows
    np.testing.assert_array_equal(back.n_joints > 0, trace.n_joints > 0)
    d = trace.defined
    assert np.array_equal(back.d_mean[d], trace.d_mean[d])
    assert np.array_equal(back.d_min[d], trace.d_min[d])
    assert np.array_equal(back.d_max[d], trace.d_max[d])
