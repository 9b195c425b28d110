import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flagged_pixels, pixel_flags, without_kernel
from evstereo import _native
from evstereo.events import LEFT, ON, RIGHT, CameraGeometry, DvsEvent, StereoEventStream
from evstereo.preprocess import (
    PreprocessConfig,
    Rect,
    _background_keep,
    auto_crop_origin,
    crop,
    detect_hot_pixels,
    downscale,
    filter_background,
    mask_regions,
    preprocess_pipeline_resolved,
    remove_pixels,
)

GEOM = CameraGeometry(40, 30)
FULL = CameraGeometry(346, 260)


def random_stream(seed, n, geometry=GEOM, max_t=200_000):
    rng = np.random.default_rng(seed)
    return StereoEventStream(
        rng.integers(0, max_t, n),
        rng.integers(0, geometry.width, n),
        rng.integers(0, geometry.height, n),
        rng.integers(0, 2, n),
        rng.integers(0, 2, n),
        geometry,
    )


# ---------------------------------------------------------------- mask

def test_mask_empty_region_list_is_identity():
    s = random_stream(1, 500)
    assert mask_regions(s, []) == s


def test_mask_full_frame_empties_stream():
    s = random_stream(2, 500)
    out = mask_regions(s, [Rect(0, 0, GEOM.width, GEOM.height)])
    assert len(out) == 0


def test_mask_matches_point_in_rectangle_oracle():
    s = random_stream(3, 2000)
    region = Rect(5, 7, 10, 10)
    out = mask_regions(s, [region])
    oracle = [e for e in s if not region.contains(e.x, e.y)]
    assert list(out) == oracle


def test_mask_rejects_region_outside_geometry():
    s = random_stream(4, 10)
    with pytest.raises(ValueError, match="exceeds"):
        mask_regions(s, [Rect(35, 0, 10, 5)])


# ---------------------------------------------------------------- hot pixels

def test_hot_pixels_uniform_rates_empty():
    events = [
        DvsEvent(t=i, x=i % 10, y=i // 10, polarity=ON, side=LEFT) for i in range(100)
    ]
    s = StereoEventStream.from_events(events, GEOM)
    assert flagged_pixels(detect_hot_pixels(s, 1.5), GEOM) == set()
    assert not detect_hot_pixels(s, 1.0).any()  # a count equal to the threshold is not hot


def test_hot_pixels_single_outlier():
    events = [DvsEvent(t=i, x=0, y=0, polarity=ON, side=LEFT) for i in range(1000)]
    k = 0
    for y in range(10):
        for x in range(10):
            if (x, y) == (0, 0):
                continue
            events.append(DvsEvent(t=2000 + k, x=x, y=y, polarity=ON, side=LEFT))
            k += 1
    s = StereoEventStream.from_events(events, GEOM)
    assert flagged_pixels(detect_hot_pixels(s, 10.0), GEOM) == {(0, 0, LEFT)}


def test_hot_pixels_match_histogram_oracle():
    s = random_stream(5, 10_000, geometry=CameraGeometry(12, 9))
    factor = 5.0
    got = flagged_pixels(detect_hot_pixels(s, factor), s.geometry)
    # oracle: per-side dict histogram + median threshold
    oracle = set()
    for side in (LEFT, RIGHT):
        counts = {}
        for e in s:
            if e.side == side:
                counts[(e.x, e.y)] = counts.get((e.x, e.y), 0) + 1
        if not counts:
            continue
        med = float(np.median(sorted(counts.values())))
        for (x, y), c in counts.items():
            if c > factor * med:
                oracle.add((x, y, side))
    assert got == oracle


def test_hot_pixel_removal_drops_only_flagged():
    s = random_stream(6, 3000, geometry=CameraGeometry(8, 8))
    hot = {(0, 0, LEFT), (3, 4, RIGHT)}
    out = remove_pixels(s, pixel_flags(hot, s.geometry))
    assert list(out) == [e for e in s if (e.x, e.y, e.side) not in hot]


# ---------------------------------------------------------------- background

def filter_both(stream, window_us, radius, include_same_pixel=False):
    """``filter_background`` on the compiled kernel (where this host builds
    one) and on numpy; the two must return equal streams."""
    out = filter_background(stream, window_us, radius, include_same_pixel)
    with without_kernel():
        assert filter_background(stream, window_us, radius, include_same_pixel) == out
    return out


def background_oracle(stream, window, radius, include_same_pixel):
    """O(n^2) re-check over all prior events."""
    kept = []
    events = list(stream)
    for i, e in enumerate(events):
        ok = False
        for j in range(i - 1, -1, -1):
            o = events[j]
            if o.t >= e.t:
                continue
            if e.t - o.t > window:
                break  # sorted by t: everything earlier is out of the window
            if o.side != e.side:
                continue
            if max(abs(o.x - e.x), abs(o.y - e.y)) > radius:
                continue
            if not include_same_pixel and (o.x, o.y) == (e.x, e.y):
                continue
            ok = True
            break
        if ok:
            kept.append(e)
    return kept


def test_background_same_pixel_pair_inclusive():
    s = StereoEventStream.from_events(
        [DvsEvent(0, 5, 5, ON, LEFT), DvsEvent(100, 5, 5, ON, LEFT)], GEOM
    )
    out = filter_both(s, window_us=5000, radius=1, include_same_pixel=True)
    assert list(out) == [DvsEvent(100, 5, 5, ON, LEFT)]


def test_background_single_isolated_event_dropped():
    s = StereoEventStream.from_events([DvsEvent(0, 5, 5, ON, LEFT)], GEOM)
    assert len(filter_both(s, 5000, 1)) == 0


def test_background_isolated_event_dropped_under_widest_window():
    s = StereoEventStream.from_events(
        [DvsEvent(0, 5, 5, ON, LEFT), DvsEvent(7, 20, 20, ON, LEFT), DvsEvent(9, 21, 20, ON, LEFT)], GEOM
    )
    out = filter_both(s, 2**63 - 1, 1)
    assert list(out) == [DvsEvent(9, 21, 20, ON, LEFT)]


def test_background_neighbor_supports():
    s = StereoEventStream.from_events(
        [DvsEvent(0, 5, 5, ON, LEFT), DvsEvent(10, 6, 5, ON, LEFT)], GEOM
    )
    out = filter_both(s, 5000, 1)
    assert list(out) == [DvsEvent(10, 6, 5, ON, LEFT)]


def test_background_same_timestamp_is_not_support():
    s = StereoEventStream.from_events(
        [DvsEvent(50, 5, 5, ON, LEFT), DvsEvent(50, 6, 5, ON, LEFT)], GEOM
    )
    assert len(filter_both(s, 5000, 1)) == 0


def test_background_other_side_is_not_support():
    s = StereoEventStream.from_events(
        [DvsEvent(0, 5, 5, ON, RIGHT), DvsEvent(10, 6, 5, ON, LEFT)], GEOM
    )
    assert len(filter_both(s, 5000, 1)) == 0


@pytest.mark.parametrize("include_same", [False, True])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_background_matches_quadratic_oracle(radius, include_same):
    s = random_stream(7, 10_000, geometry=CameraGeometry(16, 16), max_t=60_000)
    out = filter_both(s, window_us=800, radius=radius, include_same_pixel=include_same)
    assert list(out) == background_oracle(s, 800, radius, include_same)


@st.composite
def small_streams(draw):
    """Streams on geometries from 1x1 up, with few distinct timestamps (many
    ties) and frame-edge pixels as likely as any other."""
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    t_max = draw(st.sampled_from([0, 3, 30, 300]))
    events = draw(st.lists(
        st.builds(DvsEvent, st.integers(0, t_max), st.integers(0, w - 1), st.integers(0, h - 1),
                  st.integers(0, 1), st.integers(0, 1)),
        max_size=60,
    ))
    return StereoEventStream.from_events(events, CameraGeometry(w, h))


@settings(max_examples=250, deadline=None)
@given(small_streams(), st.integers(1, 40) | st.just(2**62 - 1), st.integers(0, 3), st.booleans())
def test_background_property_matches_quadratic_oracle(s, window, radius, include_same):
    out = filter_both(s, window_us=window, radius=radius, include_same_pixel=include_same)
    assert list(out) == background_oracle(s, window, radius, include_same)


@settings(max_examples=100, deadline=None)
@given(small_streams(), st.data())
def test_remove_pixels_property_matches_set_oracle(s, data):
    w, h = s.geometry.width, s.geometry.height
    pixels = data.draw(st.sets(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1), st.integers(0, 1))))
    out = remove_pixels(s, pixel_flags(pixels, s.geometry))
    assert list(out) == [e for e in s if (e.x, e.y, e.side) not in pixels]


@pytest.mark.parametrize("include_same", [False, True])
def test_background_on_a_geometry_beyond_int64_keys_matches_oracle(include_same):
    # 2 * H * W * n_times exceeds 2**62, so the keys are Python integers;
    # (0, 1) must not take support from (edge, 0) across the row edge
    huge = CameraGeometry(2**31 - 1, 2**31 - 1)
    edge = huge.width - 1
    events = [
        DvsEvent(t, x, y, ON, side)
        for t, x, y, side in [
            (0, 0, 0, LEFT), (3, edge, 0, LEFT), (5, edge - 1, 1, LEFT),
            (5, edge, edge, RIGHT), (9, edge, edge, RIGHT), (9, 0, 1, LEFT), (12, edge - 2, 0, LEFT),
        ]
    ]
    s = StereoEventStream.from_events(events, huge)
    out = filter_both(s, window_us=6, radius=1, include_same_pixel=include_same)
    assert list(out) == background_oracle(s, 6, 1, include_same)
    assert len(out) == (2 if include_same else 1)


@pytest.mark.parametrize("include_same", [False, True])
def test_compiled_background_equals_numpy_on_the_full_frame(include_same):
    lib = _native.kernel()
    if lib is None:
        pytest.skip("no C compiler on this host")
    s = random_stream(11, 20_000, geometry=FULL, max_t=10_000)  # about two events per microsecond
    for radius in range(4):
        for window in (1, 300, 2**62 - 1):
            keep = _native.background(lib, s, window, radius, include_same)
            assert np.array_equal(keep, _background_keep(s, window, radius, include_same))


def test_compiled_background_raises_on_what_it_cannot_index():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("no C compiler on this host")
    s = random_stream(12, 200)
    cols = dict(t=s.t, x=s.x, y=s.y, p=s.p, side=s.side)
    for name, col in [("t", s.t[::-1]), ("t", s.t - s.t[0] - 1), ("x", s.x + 1), ("y", s.y - 1), ("side", s.side * 2)]:
        # bypasses validation, as no public constructor does
        bad = StereoEventStream._from_canonical(**{**cols, name: np.array(col)}, geometry=s.geometry)
        with pytest.raises(IndexError, match="out of time order or outside its frame"):
            _native.background(lib, bad, 100, 1, False)


# ---------------------------------------------------------------- downscale

def test_downscale_block_maps_to_origin():
    events = [DvsEvent(t=10 * (x + 6 * y), x=x, y=y, polarity=ON, side=LEFT) for x in range(6) for y in range(5)]
    s = StereoEventStream.from_events(events, GEOM)
    out = downscale(s, 6)
    assert len(out) == len(events)
    assert set(zip(out.x.tolist(), out.y.tolist())) == {(0, 0)}
    assert np.array_equal(out.t, s.t)


def test_downscale_sorts_the_events_it_reorders():
    # by (y, x), (11, 0) precedes (0, 1); with factor 6 they map to (1, 0) and (0, 0)
    events = [DvsEvent(5, 11, 0, ON, LEFT), DvsEvent(5, 0, 1, ON, LEFT)]
    s = StereoEventStream.from_events(events, CameraGeometry(12, 12))
    out = downscale(s, 6)
    assert list(zip(out.t.tolist(), out.x.tolist(), out.y.tolist())) == [(5, 0, 0), (5, 1, 0)]


def test_downscale_drops_remainder_strip():
    s = StereoEventStream.from_events([DvsEvent(0, 345, 259, ON, LEFT)], FULL)
    out = downscale(s, 6)
    assert out.geometry == CameraGeometry(57, 43)
    assert len(out) == 0


def test_downscale_factor_one_is_identity():
    s = random_stream(8, 300)
    assert downscale(s, 1) == s


def test_downscale_monotone_count():
    s = random_stream(9, 1000, geometry=FULL)
    for f in (2, 3, 6, 7):
        assert len(downscale(s, f)) <= len(s)


# ---------------------------------------------------------------- crop

def test_crop_full_geometry_is_identity():
    s = random_stream(10, 400)
    assert crop(s, (0, 0), (GEOM.width, GEOM.height)) == s


def test_crop_rebases_origin_event():
    s = StereoEventStream.from_events([DvsEvent(0, 10, 5, ON, LEFT)], GEOM)
    out = crop(s, (10, 5), (16, 16))
    assert out[0].x == 0 and out[0].y == 0
    assert out.geometry == CameraGeometry(16, 16)


def test_crop_matches_point_in_rectangle_oracle():
    s = random_stream(11, 5000)
    out = crop(s, (10, 5), (16, 16))
    oracle = [
        DvsEvent(e.t, e.x - 10, e.y - 5, e.polarity, e.side)
        for e in s
        if 10 <= e.x < 26 and 5 <= e.y < 21
    ]
    assert list(out) == oracle


def test_crop_out_of_bounds_rejected():
    s = random_stream(12, 10)
    with pytest.raises(ValueError, match="exceeds"):
        crop(s, (30, 20), (16, 16))


# ---------------------------------------------------------------- pipeline

def all_pass_config(geometry):
    return PreprocessConfig(
        mask_rects=[],
        hot_pixel_factor=None,
        background_window_us=None,
        downscale_factor=1,
        crop_origin=(0, 0),
        crop_size=(geometry.width, geometry.height),
    )


def test_pipeline_all_pass_is_identity():
    s = random_stream(13, 800)
    assert preprocess_pipeline_resolved(s, all_pass_config(GEOM))[0] == s


def test_pipeline_paper_config_output_range():
    s = random_stream(14, 20_000, geometry=FULL)
    cfg = PreprocessConfig(downscale_factor=6, crop_origin=(20, 13), crop_size=(16, 16))
    out = preprocess_pipeline_resolved(s, cfg)[0]
    assert out.geometry == CameraGeometry(16, 16)
    if len(out):
        assert out.x.min() >= 0 and out.x.max() < 16
        assert out.y.min() >= 0 and out.y.max() < 16


def test_pipeline_equals_manual_stage_composition():
    s = random_stream(15, 10_000, geometry=FULL)
    cfg = PreprocessConfig(
        mask_rects=[Rect(0, 0, 50, 260)],
        hot_pixel_factor=8.0,
        background_window_us=5000,
        background_radius=1,
        downscale_factor=6,
        crop_origin=(20, 13),
        crop_size=(16, 16),
    )
    out = preprocess_pipeline_resolved(s, cfg)[0]
    manual = mask_regions(s, cfg.mask_rects)
    manual = remove_pixels(manual, detect_hot_pixels(manual, cfg.hot_pixel_factor))
    manual = filter_background(manual, cfg.background_window_us, cfg.background_radius)
    manual = downscale(manual, cfg.downscale_factor)
    manual = crop(manual, cfg.crop_origin, cfg.crop_size)
    assert out == manual


def test_pipeline_never_creates_or_reorders():
    s = random_stream(16, 5000, geometry=FULL)
    cfg = PreprocessConfig(downscale_factor=6, crop_origin=(10, 10), crop_size=(16, 16))
    out = preprocess_pipeline_resolved(s, cfg)[0]
    assert len(out) <= len(s)
    assert np.all(np.diff(out.t) >= 0)
    # surviving timestamps are a sub-multiset of the input's
    in_counts = dict(zip(*np.unique(s.t, return_counts=True)))
    for t, c in zip(*np.unique(out.t, return_counts=True)):
        assert c <= in_counts[t]


def test_auto_crop_centres_on_centroid():
    events = [DvsEvent(t=i, x=30, y=20, polarity=ON, side=LEFT) for i in range(50)]
    s = StereoEventStream.from_events(events, GEOM)
    assert auto_crop_origin(s, (16, 16)) == (22, 12)


def test_config_validation_rejects_bad_crop():
    cfg = PreprocessConfig(downscale_factor=6, crop_origin=(50, 40), crop_size=(16, 16))
    with pytest.raises(ValueError):
        cfg.validate(FULL)
