import numpy as np
import pytest

from conftest import OracleMatch, oracle_disparity_estimate, oracle_matches, without_kernel
from evstereo import _native
from evstereo.events import LEFT, RIGHT, CameraGeometry, StereoEventStream
from evstereo.synth import (
    BAR,
    CLOUD,
    DOT,
    LATTICE_US,
    DisparityProfile,
    _emit,
    gen_stimulus,
)

GEOM = CameraGeometry(16, 16)


def test_dot_zero_jitter_emits_twins():
    profile = DisparityProfile(shape=DOT, keyframes=((0, 2.0),), x=5, y=8, rate_hz=1000.0, seed=1)
    stream, trace = gen_stimulus(profile, GEOM, duration_us=100_000, window_us=50_000)
    assert len(stream) > 0
    lefts = [e for e in stream if e.side == LEFT]
    rights = {(e.t, e.x, e.y, e.polarity) for e in stream if e.side == RIGHT}
    assert len(lefts) == len(rights)
    for e in lefts:
        assert (e.t, e.x + 2, e.y, e.polarity) in rights
    assert np.all(trace.d_mean == 2.0)


def test_step_profile_trace_window_aligned():
    profile = DisparityProfile(
        shape=DOT, keyframes=((0, 0.0), (499_999, 0.0), (500_000, 4.0)), x=4, y=8, seed=2
    )
    _, trace = gen_stimulus(profile, GEOM, duration_us=1_000_000, window_us=50_000)
    centers = np.arange(trace.n_windows) * 50_000 + 25_000
    assert np.all(trace.d_mean[centers < 500_000] == 0.0)
    assert np.all(trace.d_mean[centers > 500_000] == 4.0)


def test_seeded_generation_is_reproducible():
    profile = DisparityProfile(shape=CLOUD, keyframes=((0, 1.0),), y=4, height=3, jitter_sigma_us=300, seed=7)
    a, _ = gen_stimulus(profile, GEOM, 200_000, 50_000)
    b, _ = gen_stimulus(profile, GEOM, 200_000, 50_000)
    assert a == b


@pytest.mark.parametrize(
    "shape, rate_hz, sigma",
    [
        (DOT, 600.0, 0.0),
        (DOT, 1000.0, 300.0),  # p_emit = 1: no emission draws
        (BAR, 2500.0, 0.0),
        (BAR, 300.0, 40.0),
        (CLOUD, 600.0, 300.0),
        (CLOUD, 1000.0, 0.0),
        (CLOUD, 600.0, 1e20),  # every jitter clamps to 0 or the duration
    ],
)
def test_compiled_stimulus_equals_python_loop(shape, rate_hz, sigma):
    # the compiled emission loop draws the same numbers from the generator's
    # bit generator as the Python loop, leaves it in the same state and
    # gives the same stream through gen_stimulus
    lib = _native.kernel()
    if lib is None or not hasattr(lib, "evstereo_synth"):
        pytest.skip("no compiled stimulus loop on this host")
    duration = 40_000
    steps = range(0, duration, LATTICE_US)
    for seed in range(20):
        profile = DisparityProfile(
            shape=shape, keyframes=((0, -2.0), (duration, 3.0)), x=5, y=3, height=4, dots_per_row=3,
            rate_hz=rate_hz, jitter_sigma_us=sigma, seed=seed,
        )
        d = [int(round(profile.d_at(t))) for t in steps]
        rows, cols = [3, 4, 5] if shape != DOT else [3], [2, 6] if shape == CLOUD else [5]
        p_emit = min(rate_hz * LATTICE_US * 1e-6, 1.0)
        compiled_rng, python_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        events = _native.synth(lib, compiled_rng, LATTICE_US, d, rows, cols, p_emit, sigma, duration)
        expected = _emit(python_rng, steps, d, rows, cols, p_emit, sigma, duration)
        assert events is not None and events.dtype == np.int64
        assert events.T.tolist() == [list(col) for col in expected]
        assert compiled_rng.bit_generator.state == python_rng.bit_generator.state

        compiled, _ = gen_stimulus(profile, GEOM, duration, 20_000)
        with without_kernel():
            python, _ = gen_stimulus(profile, GEOM, duration, 20_000)
        assert compiled == python


def test_out_of_frame_profile_rejected_before_generation():
    profile = DisparityProfile(shape=DOT, keyframes=((0, 0.0), (1_000_000, 14.0)), x=5, y=8)
    with pytest.raises(ValueError, match="t=") as exc:
        gen_stimulus(profile, GEOM, 1_000_000, 50_000)
    assert "leaves the frame" in str(exc.value)


def test_bar_spans_rows():
    profile = DisparityProfile(shape=BAR, keyframes=((0, 1.0),), x=3, y=2, height=5, rate_hz=1000.0, seed=3)
    stream, _ = gen_stimulus(profile, GEOM, 50_000, 50_000)
    assert set(np.unique(stream.y).tolist()) == {2, 3, 4, 5, 6}
    assert set(np.unique(stream.x[stream.side == LEFT]).tolist()) == {3}
    assert set(np.unique(stream.x[stream.side == RIGHT]).tolist()) == {4}


def test_cloud_has_requested_dots():
    profile = DisparityProfile(shape=CLOUD, keyframes=((0, 2.0),), y=6, height=2, dots_per_row=3, rate_hz=1000.0, seed=4)
    stream, _ = gen_stimulus(profile, GEOM, 50_000, 50_000)
    left_cols = np.unique(stream.x[stream.side == LEFT])
    right_cols = np.unique(stream.x[stream.side == RIGHT])
    assert len(left_cols) == 3
    assert np.array_equal(right_cols, left_cols + 2)


# ------------------------------------------------------------- oracle

def oracle_rechecked(stream, window):
    """Independent double loop with swapped nesting (right outer)."""
    out = set()
    for ri in range(len(stream)):
        if stream.side[ri] != RIGHT:
            continue
        for li in range(len(stream)):
            if stream.side[li] != LEFT:
                continue
            if stream.y[li] != stream.y[ri]:
                continue
            dt = int(stream.t[ri]) - int(stream.t[li])
            if abs(dt) <= window:
                out.add((li, ri, dt, int(stream.x[ri]) - int(stream.x[li]), int(stream.y[ri])))
    return out


def test_single_pair_single_match():
    stream = StereoEventStream(
        np.array([100, 100]), np.array([3, 5]), np.array([2, 2]), np.array([1, 1]), np.array([0, 1]), GEOM
    )
    matches, hist, off = oracle_matches(stream, window_us=1000, analysis_window_us=50_000)
    assert len(matches) == 1
    m = matches[0]
    assert (m.dt_us, m.disparity, m.y) == (0, 2, 2)
    assert hist[0, 2 + off] == 1 and hist.sum() == 1


def test_different_rows_never_match():
    stream = StereoEventStream(
        np.array([100, 100]), np.array([3, 5]), np.array([2, 3]), np.array([1, 1]), np.array([0, 1]), GEOM
    )
    matches, hist, _ = oracle_matches(stream, 1000, 50_000)
    assert matches == [] and hist.sum() == 0


def test_oracle_matches_swapped_loop_recheck():
    rng = np.random.default_rng(11)
    n = 100
    stream = StereoEventStream(
        rng.integers(0, 20_000, n),
        rng.integers(0, GEOM.width, n),
        rng.integers(0, 4, n),
        rng.integers(0, 2, n),
        rng.integers(0, 2, n),
        GEOM,
    )
    matches, _, _ = oracle_matches(stream, window_us=1500, analysis_window_us=50_000)
    got = {(m.left_index, m.right_index, m.dt_us, m.disparity, m.y) for m in matches}
    assert got == oracle_rechecked(stream, 1500)


def test_oracle_symmetric_under_side_swap():
    rng = np.random.default_rng(12)
    n = 80
    t = rng.integers(0, 20_000, n)
    x = rng.integers(0, GEOM.width, n)
    y = rng.integers(0, 3, n)
    p = rng.integers(0, 2, n)
    s = rng.integers(0, 2, n)
    stream = StereoEventStream(t, x, y, p, s, GEOM)
    swapped = StereoEventStream(t, x, y, p, 1 - s, GEOM)
    _, hist_a, off = oracle_matches(stream, 1500, 50_000)
    _, hist_b, _ = oracle_matches(swapped, 1500, 50_000)
    # swapping sides negates every implied disparity
    assert np.array_equal(hist_a, hist_b[:, ::-1])
    assert hist_a.sum() == hist_b.sum()


def test_estimate_all_matches_one_disparity():
    hist = np.zeros((2, 31), dtype=np.int64)
    hist[0, 3 + 15] = 7
    est = oracle_disparity_estimate(hist, 15)
    assert est[0] == 3.0
    assert np.isnan(est[1])


def test_estimate_weighted_mean():
    hist = np.zeros((1, 31), dtype=np.int64)
    hist[0, 0 + 15] = 1
    hist[0, 2 + 15] = 1
    assert oracle_disparity_estimate(hist, 15)[0] == pytest.approx(1.0)


def test_estimate_on_jittered_fixture_close_to_truth():
    profile = DisparityProfile(shape=DOT, keyframes=((0, 3.0),), x=5, y=8, rate_hz=800.0, jitter_sigma_us=400, seed=9)
    stream, _ = gen_stimulus(profile, GEOM, 1_000_000, 50_000)
    _, hist, off = oracle_matches(stream, window_us=2500, analysis_window_us=50_000)
    est = oracle_disparity_estimate(hist, off)
    defined = ~np.isnan(est)
    assert defined.any()
    assert np.all(np.abs(est[defined] - 3.0) <= 0.5)


def test_zero_jitter_dot_matches_rounded_truth():
    profile = DisparityProfile(shape=DOT, keyframes=((0, 1.2), (800_000, 1.2)), x=5, y=8, rate_hz=900.0, seed=13)
    stream, trace = gen_stimulus(profile, GEOM, 800_000, 50_000)
    matches, _, _ = oracle_matches(stream, window_us=400, analysis_window_us=50_000)
    assert matches
    assert {m.disparity for m in matches} == {round(1.2)}
