import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OracleMatch, oracle_disparity_estimate, oracle_matches
from evstereo.events import LEFT, RIGHT, CameraGeometry, StereoEventStream
from evstereo.synth import (
    BAR,
    CLOUD,
    DOT,
    LATTICE_US,
    MAX_STIMULUS_CELLS,
    DisparityProfile,
    _cloud_columns,
    _lattice_disparity,
    gen_stimulus,
    validate_profile_bounds,
)
from evstereo.simulator import window_centers_us, window_count

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


def reference_stimulus(profile, geometry, duration_us):
    """The events (t, x, y, p, side) of a stimulus, one emission at a time in
    Python ints, from the draws in the order that ``gen_stimulus`` documents;
    and the generator after them."""
    rng = np.random.default_rng(profile.seed)
    rows = list(profile.rows)
    if profile.shape == CLOUD:
        valid = _cloud_columns(profile, geometry)
        cols = [valid[c] for c in sorted(rng.choice(len(valid), size=profile.dots_per_row, replace=False).tolist())]
    else:
        cols = [profile.x]
    steps = range(0, duration_us, LATTICE_US)
    p_emit = min(profile.rate_hz * LATTICE_US * 1e-6, 1.0)
    sigma = profile.jitter_sigma_us
    cells = [(t, y, x) for t in steps for y in rows for x in cols]
    if p_emit < 1.0:
        uniforms = rng.random((len(steps), len(rows), len(cols))).ravel().tolist()
        cells = [cell for cell, u in zip(cells, uniforms) if u < p_emit]
    polarities = rng.integers(0, 2, len(cells)).tolist()
    jitters = rng.normal(0.0, sigma, (2, len(cells))).tolist() if sigma != 0 else [[0.0] * len(cells)] * 2

    def jittered(t, j):
        j = max(-3.0 * sigma, min(3.0 * sigma, j))
        return max(0, min(duration_us, t + int(round(j))))

    events = []
    for (t, y, x), pol, j_left, j_right in zip(cells, polarities, *jitters):
        d = int(round(profile.d_at(t)))
        events += [(jittered(t, j_left), x, y, pol, LEFT), (jittered(t, j_right), x + d, y, pol, RIGHT)]
    return events, rng


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
def test_stimulus_equals_the_per_emission_reference(monkeypatch, shape, rate_hz, sigma):
    # the array draw gives the reference's events and leaves the generator in
    # the reference's state
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
    duration = 40_000
    for seed in range(20):
        profile = DisparityProfile(
            shape=shape, keyframes=((0, -2.0), (duration, 3.0)), x=5, y=3, height=4, dots_per_row=3,
            rate_hz=rate_hz, jitter_sigma_us=sigma, seed=seed,
        )
        stream, _ = gen_stimulus(profile, GEOM, duration, 20_000)
        expected, rng = reference_stimulus(profile, GEOM, duration)
        columns = (stream.t, stream.x, stream.y, stream.p, stream.side)
        assert sorted(zip(*(col.tolist() for col in columns))) == sorted(expected)
        assert made.pop().bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("shape, height, dots", [(DOT, 1, 1), (BAR, 16, 1), (CLOUD, 16, 16)])
def test_stimulus_lattice_beyond_the_cap_is_refused_before_allocation(shape, height, dots):
    # one step past the cap is refused by arithmetic alone; so is 2**62 us
    per_step = height * dots
    at_cap = MAX_STIMULUS_CELLS // per_step * LATTICE_US
    profile = DisparityProfile(shape=shape, x=5, y=0, height=height, dots_per_row=dots)
    for duration in (at_cap + 1, 2**62):
        with pytest.raises(ValueError, match=r"^duration_us .* stimulus cells, more than 4194304$"):
            gen_stimulus(profile, GEOM, duration, 50_000)


def test_out_of_frame_profile_rejected_before_generation():
    profile = DisparityProfile(shape=DOT, keyframes=((0, 0.0), (1_000_000, 14.0)), x=5, y=8)
    with pytest.raises(ValueError, match="t=") as exc:
        gen_stimulus(profile, GEOM, 1_000_000, 50_000)
    assert "leaves the frame" in str(exc.value)


def scalar_bounds_error(profile, geometry, duration_us):
    """The message of the first lattice step at which a DOT or BAR leaves the frame, one step at a time."""
    for t in range(0, duration_us, LATTICE_US):
        d = int(round(profile.d_at(t)))
        x = profile.x
        if x < 0 or x >= geometry.width or x + d < 0 or x + d >= geometry.width:
            return f"shape leaves the frame at t={t}us (x={x}, d={d}, width={geometry.width})"
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-20_000, 80_000), st.one_of(st.floats(-9, 9), st.integers(-18, 18).map(lambda k: k / 2))),
        min_size=1, max_size=5,
    ).map(sorted),
    st.integers(1, 60_000),
    st.integers(-2, 17),
    st.sampled_from([DOT, BAR]),
)
def test_array_disparity_equals_the_scalar_d_at(keyframes, duration, x, shape):
    # one np.interp over the lattice (and over the window centres) gives the bits of d_at step by step,
    # and np.rint rounds half to even as round does
    profile = DisparityProfile(shape=shape, keyframes=tuple(keyframes), x=x, y=3, height=2, rate_hz=1000.0)
    steps = range(0, duration, LATTICE_US)
    assert _lattice_disparity(profile, duration).tolist() == [int(round(profile.d_at(t))) for t in steps]
    message = scalar_bounds_error(profile, GEOM, duration)
    try:
        validate_profile_bounds(profile, GEOM, duration)
        _, trace = gen_stimulus(profile, GEOM, duration, 7_000)
    except ValueError as exc:
        assert str(exc) == message
        return
    assert message is None
    centers = window_centers_us(np.arange(window_count(duration, 7_000)), 7_000)
    assert trace.d_mean.tobytes() == np.array([profile.d_at(tc) for tc in centers.tolist()]).tobytes()


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
