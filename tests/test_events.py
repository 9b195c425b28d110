import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_sort_key, without_kernel
from evstereo import _native
from evstereo.events import (
    LEFT,
    ON,
    OFF,
    RIGHT,
    CameraGeometry,
    DvsEvent,
    InputError,
    StereoEventStream,
    _coded_columns,
    _parse_event_lines,
    _parse_plain_event_bytes,
    atomic_write,
    merge_streams,
    parse_event_file,
    write_csv,
    write_event_file,
)
from evstereo.preprocess import crop

GEOM = CameraGeometry(32, 24)


def event_strategy(geometry=GEOM, sides=(LEFT, RIGHT), max_t=10_000):
    return st.builds(
        DvsEvent,
        t=st.integers(min_value=0, max_value=max_t),
        x=st.integers(min_value=0, max_value=geometry.width - 1),
        y=st.integers(min_value=0, max_value=geometry.height - 1),
        polarity=st.sampled_from((OFF, ON)),
        side=st.sampled_from(sides),
    )


def stream_strategy(geometry=GEOM, sides=(LEFT, RIGHT), max_size=200):
    return st.lists(event_strategy(geometry, sides), max_size=max_size).map(
        lambda evs: StereoEventStream.from_events(evs, geometry)
    )


def test_parse_two_rows(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("t_us,x,y,p,side\n0,10,20,1,L\n5,11,20,0,R\n")
    stream = parse_event_file(str(path), GEOM)
    assert len(stream) == 2
    assert stream.duration == 5
    assert stream[0] == DvsEvent(0, 10, 20, ON, LEFT)
    assert stream[1] == DvsEvent(5, 11, 20, OFF, RIGHT)


def test_parse_header_only(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("t_us,x,y,p,side\n")
    stream = parse_event_file(str(path), GEOM)
    assert len(stream) == 0
    assert stream.duration == 0


def test_parse_sorts_out_of_order_rows(tmp_path):
    # oracle: sort the same rows with python's sorted() on the canonical key
    events = [
        DvsEvent(7, 1, 2, ON, RIGHT),
        DvsEvent(0, 5, 5, OFF, LEFT),
        DvsEvent(7, 0, 2, OFF, LEFT),
        DvsEvent(7, 1, 2, OFF, RIGHT),
        DvsEvent(3, 9, 9, ON, LEFT),
    ]
    path = tmp_path / "ev.csv"
    rows = ["t_us,x,y,p,side"] + [
        f"{e.t},{e.x},{e.y},{e.polarity},{'L' if e.side == LEFT else 'R'}" for e in events
    ]
    path.write_text("\n".join(rows) + "\n")
    stream = parse_event_file(str(path), GEOM)
    assert list(stream) == sorted(events, key=event_sort_key)


def test_parse_single_sided_file_with_flag(tmp_path):
    path = tmp_path / "left.csv"
    path.write_text("t_us,x,y,p\n0,1,2,1\n4,3,2,0\n")
    stream = parse_event_file(str(path), GEOM, side=LEFT)
    assert stream.sides_present() == {LEFT}
    with pytest.raises(InputError):
        parse_event_file(str(path), GEOM)


@pytest.mark.parametrize(
    "row,msg",
    [
        ("x,1,2,1,L", "invalid literal"),
        ("0,1,2,1", "expected 5 fields"),
        ("0,1,2,3,L", "polarity"),
        ("0,99,2,1,L", "outside"),
        ("-1,1,2,1,L", "negative"),
        ("0,1,2,1,Q", "side"),
    ],
)
def test_parse_malformed_line_reports_line_number(tmp_path, row, msg):
    path = tmp_path / "bad.csv"
    path.write_text(f"t_us,x,y,p,side\n0,0,0,1,L\n{row}\n")
    with pytest.raises(InputError, match=r":3:") as exc:
        parse_event_file(str(path), GEOM)
    assert msg in str(exc.value)


@pytest.mark.parametrize(
    "row,msg",
    [
        ("10,5,3,300", "polarity must be 0 or 1, got '300'"),
        ("99999999999999999999,5,3,1", "timestamp 99999999999999999999 exceeds the 64-bit range"),
        ("0,99999999999,3,1", "coordinate (99999999999,3) outside 32x24"),
    ],
)
def test_parse_out_of_range_integer_reports_line_number(tmp_path, row, msg):
    path = tmp_path / "left.csv"
    path.write_text(f"t_us,x,y,p\n0,0,0,1\n{row}\n")
    with pytest.raises(InputError) as exc:
        parse_event_file(str(path), GEOM, side=LEFT)
    assert str(exc.value) == f"{path}:3: {msg}"


def test_parse_coordinate_beyond_int32_in_wide_geometry(tmp_path):
    wide = CameraGeometry(2**40, 4)
    path = tmp_path / "left.csv"
    path.write_text(f"t_us,x,y,p\n0,{2**31 - 1},0,1\n0,{2**31},0,1\n")
    with pytest.raises(InputError, match=r":3: coordinate \(2147483648,0\) outside"):
        parse_event_file(str(path), wide, side=LEFT)


# ---------------------------------------------------------------- both parse paths


def strict_paths():
    """Context managers that select the strict path: the compiled kernel,
    where this host builds one, and numpy."""
    paths = [without_kernel]
    if _native.kernel() is not None:
        paths.insert(0, contextlib.nullcontext)
    return paths


def parse_both(path, geometry=GEOM, side=None):
    """The stream of each strict path (or None where it declines) and the
    line scan's stream (or its InputError message)."""
    data = path.read_bytes()
    fasts = []
    for strict in strict_paths():
        with strict():
            fasts.append(_parse_plain_event_bytes(data, geometry, side))
    try:
        slow = _parse_event_lines(str(path), data.decode("utf-8"), geometry, side)
    except InputError as exc:
        slow = str(exc)
    return fasts, slow


def assert_paths_agree(path, expected, geometry=GEOM, side=None, fast_accepts=None):
    """``expected`` is a list of events or an error message without the
    ``<path>:`` prefix; every path and ``parse_event_file`` on each strict
    path must give it."""
    fasts, slow = parse_both(path, geometry, side)
    for fast, strict in zip(fasts, strict_paths()):
        with strict():
            if isinstance(expected, str):
                assert fast is None
                assert slow == f"{path}:{expected}"
                with pytest.raises(InputError) as exc:
                    parse_event_file(str(path), geometry, side)
                assert str(exc.value) == slow
                continue
            stream = StereoEventStream.from_events(expected, geometry)
            assert slow == stream
            assert fast is None or fast == stream
            if fast_accepts is not None:
                assert (fast is not None) == fast_accepts
            assert parse_event_file(str(path), geometry, side) == stream


TWO = [DvsEvent(0, 1, 2, ON, LEFT), DvsEvent(5, 3, 4, OFF, RIGHT)]


@pytest.mark.parametrize(
    "content,expected,fast_accepts",
    [
        (b"", "1: empty file, expected header 't_us,x,y,p,side'", False),
        (b"t_us,x,y,p,side\n", [], None),
        (b"t_us,x,y,p,side", [], None),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3,4,0,R\n", TWO, True),
        (b"t_us,x,y,p,side\r\n0,1,2,1,L\r\n5,3,4,0,R\r\n", TWO, False),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3,4,0,R", TWO, True),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3,4,0,R\n\n", "4: expected 5 fields, got 1", False),
        (b"t_us,x,y,p,side\n\n0,1,2,1,L\n", "2: expected 5 fields, got 1", False),
        (b"\xef\xbb\xbft_us,x,y,p,side\n0,1,2,1,L\n", "1: unrecognized header '\\ufefft_us,x,y,p,side'", False),
        (b"t_us,x,y,p,side\n+0,1,2,1,L\n5, 3,4,0,R\n", TWO, False),
        (b"t_us,x,y,p,side\n0,1,2,1, L\n5,3,4,0,R \n", TWO, False),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n0_005,3,4,0,R\n", TWO, False),
        (b"t_us,x,y,p,side\n000,01,2,1,L\n5,3,0004,0,R\n", TWO, True),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3,4,0,RL\n", "3: side must be L or R, got 'RL'", False),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3L,4,0,R\n", "3: invalid literal for int() with base 10: '3L'", False),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,,4,0,R\n", "3: invalid literal for int() with base 10: ''", False),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3,4,0\n", "3: expected 5 fields, got 4", False),
        (b"t_us,x,y,p,side\n0,1,2,L\n5,3,4,R\n", "2: expected 5 fields, got 4", False),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3,4,0,1\n", "3: side must be L or R, got '1'", False),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3,24,0,R\n", "3: coordinate (3,24) outside 32x24", False),
        (b"t_us,x,y,p,side\n0,1,2,1,L\n5,3,4,2,R\n", "3: polarity must be 0 or 1, got '2'", False),
        (b"t_us,x,y,p,side\n9223372036854775807,1,2,1,L\n", [DvsEvent(2**63 - 1, 1, 2, ON, LEFT)], True),
        (b"t_us,x,y,p,side\n0000000000000000000005,3,4,00000000000000000000,R\n", [DvsEvent(5, 3, 4, OFF, RIGHT)], True),
        (b"t_us,x,y,p,side\n9223372036854775808,1,2,1,L\n", "2: timestamp 9223372036854775808 exceeds the 64-bit range", False),
        (b"t_us,x,y,p,side\n9999999999999999999,1,2,1,L\n", "2: timestamp 9999999999999999999 exceeds the 64-bit range", False),
        (b"t_us,x,y,p,side\n0,9999999999999999999,2,1,L\n", "2: coordinate (9999999999999999999,2) outside 32x24", False),
        (b"t_us,x,y,p,side\n0,1,18446744073709551618,1,L\n", "2: coordinate (1,18446744073709551618) outside 32x24", False),
        (b"t_us,x,y,p,side\n0,1,2,18446744073709551617,L\n", "2: polarity must be 0 or 1, got '18446744073709551617'", False),
    ],
)
def test_edge_inputs_through_both_parse_paths(tmp_path, content, expected, fast_accepts):
    path = tmp_path / "ev.csv"
    path.write_bytes(content)
    assert_paths_agree(path, expected, fast_accepts=fast_accepts)


LEFT_TWO = [DvsEvent(0, 1, 2, ON, LEFT), DvsEvent(9, 3, 4, OFF, LEFT)]


@pytest.mark.parametrize(
    "content,expected,fast_accepts",
    [
        (b"t_us,x,y,p\n0,1,2,1\n9,3,4,0\n", LEFT_TWO, True),
        (b"t_us,x,y,p\r\n0,1,2,1\r\n9,3,4,0", LEFT_TWO, False),
        (b"t_us,x,y,p\n0,1,2,1\n9,3,4,0", LEFT_TWO, True),
        (b"t_us,x,y,p\n0,1,2,1\n\n9,3,4,0\n", "3: expected 4 fields, got 1", False),
        (b"t_us,x,y,p\n0,1,2,1\n9,3,4,0\n\n", "4: expected 4 fields, got 1", False),
        (b"t_us,x,y,p\n0,1,2,1,0\n9,3,4,0,1\n", "2: expected 4 fields, got 5", False),
        (b"t_us,x,y,p\n0,1,2,1\n9,3,4,0,\n", "3: expected 4 fields, got 5", False),
        (b"t_us,x,y,p\n0,1,2,1\n9,3,4,0L\n", "3: invalid literal for int() with base 10: '0L'", False),
    ],
)
def test_single_sided_edge_inputs_through_both_parse_paths(tmp_path, content, expected, fast_accepts):
    path = tmp_path / "left.csv"
    path.write_bytes(content)
    assert_paths_agree(path, expected, side=LEFT, fast_accepts=fast_accepts)
    assert_paths_agree(path, "1: file has no side column and no side was specified")


@pytest.mark.parametrize(
    "content,msg",
    [
        (b"t_us,x,y,p\n0,1,2,1\n\xff,1,2,1\n", ":3: not UTF-8 text: invalid start byte at byte 19"),
        (b"t_us,x,y,p\r0,1,2,1\r0,1,2,\xc3\n", ":3: not UTF-8 text: invalid continuation byte at byte 25"),
    ],
)
def test_parse_non_utf8_byte_reports_line_number(tmp_path, content, msg):
    path = tmp_path / "left.csv"
    path.write_bytes(content)
    with pytest.raises(InputError) as exc:
        parse_event_file(str(path), GEOM, side=LEFT)
    assert str(exc.value) == f"{path}{msg}"


def test_one_sided_recording_with_header_only_right_file(tmp_path):
    left_path, right_path = tmp_path / "left.csv", tmp_path / "right.csv"
    left_path.write_text("t_us,x,y,p\n4,3,2,0\n0,1,2,1\n")
    right_path.write_text("t_us,x,y,p\n")
    left = parse_event_file(str(left_path), GEOM, side=LEFT)
    right = parse_event_file(str(right_path), GEOM, side=RIGHT)
    assert len(right) == 0
    merged = merge_streams(left, right)
    assert merged == left
    assert list(merged) == [DvsEvent(0, 1, 2, ON, LEFT), DvsEvent(4, 3, 2, OFF, LEFT)]


MUTATION_CHARS = list("0123456789,LR+- _\r\nx") + ["\ufeff", "\u0663"]


@st.composite
def event_file_text(draw):
    """A valid event file with up to three characters inserted or deleted."""
    has_side = draw(st.booleans())
    rows = draw(st.lists(event_strategy(max_t=2**40), max_size=12))
    lines = ["t_us,x,y,p,side" if has_side else "t_us,x,y,p"]
    for e in rows:
        fields = [e.t, e.x, e.y, e.polarity] + (["LR"[e.side]] if has_side else [])
        lines.append(",".join(map(str, fields)))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and i < len(text):
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + draw(st.sampled_from(MUTATION_CHARS)) + text[i:]
    return text


@settings(max_examples=300, deadline=None)
@given(event_file_text(), st.sampled_from([None, LEFT, RIGHT]))
def test_fast_parse_declines_or_equals_line_scan(tmp_path_factory, text, side):
    path = tmp_path_factory.mktemp("mut") / "ev.csv"
    path.write_bytes(text.encode("utf-8"))
    fasts, slow = parse_both(path, side=side)
    for fast in fasts:
        if fast is not None:
            assert isinstance(slow, StereoEventStream) and fast == slow


def test_roundtrip_two_events(tmp_path):
    stream = StereoEventStream.from_events(
        [DvsEvent(0, 1, 2, ON, LEFT), DvsEvent(9, 3, 4, OFF, RIGHT)], GEOM
    )
    path = tmp_path / "rt.csv"
    write_event_file(stream, str(path))
    assert parse_event_file(str(path), GEOM) == stream
    assert path.read_text().count("\n") == 3


def test_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_event_file(StereoEventStream.empty(GEOM), str(path))
    assert path.read_text() == "t_us,x,y,p,side\n"
    assert parse_event_file(str(path), GEOM) == StereoEventStream.empty(GEOM)


def test_roundtrip_large_random(tmp_path):
    rng = np.random.default_rng(1234)
    n = 100_000
    stream = StereoEventStream(
        rng.integers(0, 5_000_000, n),
        rng.integers(0, GEOM.width, n),
        rng.integers(0, GEOM.height, n),
        rng.integers(0, 2, n),
        rng.integers(0, 2, n),
        GEOM,
    )
    path = tmp_path / "big.csv"
    write_event_file(stream, str(path))
    assert parse_event_file(str(path), GEOM) == stream


@settings(max_examples=50, deadline=None)
@given(stream_strategy())
def test_roundtrip_property(tmp_path_factory, stream):
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_event_file(stream, str(path))
    assert parse_event_file(str(path), GEOM) == stream


def test_merge_tie_break_left_first():
    left = StereoEventStream.from_events([DvsEvent(0, 3, 1, ON, LEFT)], GEOM)
    right = StereoEventStream.from_events([DvsEvent(0, 3, 1, ON, RIGHT)], GEOM)
    merged = merge_streams(left, right)
    assert len(merged) == 2
    assert merged[0].side == LEFT and merged[1].side == RIGHT


def test_merge_empty_left_is_identity():
    right = StereoEventStream.from_events(
        [DvsEvent(3, 1, 1, OFF, RIGHT), DvsEvent(5, 2, 2, ON, RIGHT)], GEOM
    )
    assert merge_streams(StereoEventStream.empty(GEOM), right) == right


def test_merge_matches_concat_sort_oracle():
    rng = np.random.default_rng(77)

    def one_side(side, n=1000):
        return StereoEventStream(
            rng.integers(0, 100_000, n),
            rng.integers(0, GEOM.width, n),
            rng.integers(0, GEOM.height, n),
            rng.integers(0, 2, n),
            np.full(n, side),
            GEOM,
        )

    left, right = one_side(LEFT), one_side(RIGHT)
    merged = merge_streams(left, right)
    oracle = sorted(list(left) + list(right), key=event_sort_key)
    assert list(merged) == oracle
    assert len(merged) == len(left) + len(right)


def test_merge_rejects_mixed_side_stream():
    mixed = StereoEventStream.from_events(
        [DvsEvent(0, 0, 0, ON, LEFT), DvsEvent(1, 0, 0, ON, RIGHT)], GEOM
    )
    ok = StereoEventStream.from_events([DvsEvent(0, 0, 0, ON, RIGHT)], GEOM)
    with pytest.raises(ValueError, match="non-LEFT"):
        merge_streams(mixed, ok)


def test_merge_rejects_geometry_mismatch():
    left = StereoEventStream.empty(GEOM)
    right = StereoEventStream.empty(CameraGeometry(16, 16))
    with pytest.raises(ValueError, match="geometry"):
        merge_streams(left, right)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(event_strategy(sides=(LEFT,)), max_size=60),
    st.lists(event_strategy(sides=(RIGHT,)), max_size=60),
)
def test_merge_commutes_up_to_tie_break(lefts, rights):
    left = StereoEventStream.from_events(lefts, GEOM)
    right = StereoEventStream.from_events(rights, GEOM)
    assert merge_streams(left, right) == merge_streams(left, right)
    assert len(merge_streams(left, right)) == len(lefts) + len(rights)


@settings(max_examples=100, deadline=None)
@given(event_strategy(), event_strategy())
def test_canonical_order_is_total(a, b):
    # distinct events always have distinct keys or are equal as records
    if event_sort_key(a) == event_sort_key(b):
        assert a == b


def test_stream_validates_bounds():
    with pytest.raises(ValueError):
        StereoEventStream.from_events([DvsEvent(0, GEOM.width, 0, ON, LEFT)], GEOM)
    with pytest.raises(ValueError):
        StereoEventStream.from_events([DvsEvent(-1, 0, 0, ON, LEFT)], GEOM)


@pytest.mark.parametrize(
    "t_near,t_far", [(0, 2**62), (0, 2**63 - 1), (1_700_000_000_000_000, 1_700_000_000_000_005)]
)
def test_canonical_order_for_wide_and_offset_time_spans(t_near, t_far):
    # a span too wide for one int64 sort key takes the column-wise sort
    events = [
        DvsEvent(t_far, 1, 1, ON, LEFT),
        DvsEvent(t_near, 3, 2, OFF, RIGHT),
        DvsEvent(t_far, 0, 1, OFF, RIGHT),
        DvsEvent(t_near, 3, 2, OFF, LEFT),
        DvsEvent(t_far, 0, 1, OFF, LEFT),
        DvsEvent(t_far, 0, 1, ON, LEFT),
    ]
    assert list(StereoEventStream.from_events(events, GEOM)) == sorted(events, key=event_sort_key)


def test_select_keeps_the_order_and_checks_the_mask():
    rng = np.random.default_rng(5)
    s = StereoEventStream(
        rng.integers(0, 50, 300), rng.integers(0, 32, 300), rng.integers(0, 24, 300),
        rng.integers(0, 2, 300), rng.integers(0, 2, 300), GEOM,
    )
    keep = rng.random(300) < 0.5
    out = s.select(keep)
    assert out == StereoEventStream(s.t[keep], s.x[keep], s.y[keep], s.p[keep], s.side[keep], GEOM)
    assert out.duration == int(s.t[keep][-1])
    assert not any(col.flags.writeable for col in (out.t, out.x, out.y, out.p, out.side))
    assert len(s.select(np.zeros(300, dtype=bool))) == 0
    with pytest.raises(ValueError, match="boolean mask of 300"):
        s.select(keep.astype(np.int64))
    with pytest.raises(ValueError, match="boolean mask of 300"):
        s.select(keep[:-1])


def test_stream_arrays_are_readonly():
    stream = StereoEventStream.from_events([DvsEvent(0, 1, 2, ON, LEFT)], GEOM)
    with pytest.raises(ValueError):
        stream.t[0] = 5


CROWDED = CameraGeometry(6, 5)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**12),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 4), st.integers(0, 1),
                       st.integers(0, 1)), max_size=80),
    st.data(),
)
def test_trusted_paths_equal_the_sorting_constructor(t0, rows, data):
    # few timestamps on a small frame: most events share their time with others of both sides
    t, x, y, p, side = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    s = StereoEventStream(t0 + t, x, y, p, side, CROWDED)

    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(s), max_size=len(s))), dtype=bool)
    assert s.select(keep) == StereoEventStream(s.t[keep], s.x[keep], s.y[keep], s.p[keep], s.side[keep], CROWDED)

    if len(s):  # the shift of a recording to start at t = 0
        shifted = StereoEventStream._from_canonical(s.t - s.t[0], s.x, s.y, s.p, s.side, CROWDED)
        assert shifted == StereoEventStream(s.t - s.t[0], s.x, s.y, s.p, s.side, CROWDED)

    ox, oy = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 4))
    w, h = data.draw(st.integers(1, 6 - ox)), data.draw(st.integers(1, 5 - oy))
    inside = (s.x >= ox) & (s.x < ox + w) & (s.y >= oy) & (s.y < oy + h)
    assert crop(s, (ox, oy), (w, h)) == StereoEventStream(
        s.t[inside], s.x[inside] - ox, s.y[inside] - oy, s.p[inside], s.side[inside], CameraGeometry(w, h)
    )

    left, right = s.select(s.side == LEFT), s.select(s.side == RIGHT)
    cols = [np.concatenate([getattr(left, f), getattr(right, f)]) for f in ("t", "x", "y", "p", "side")]
    assert merge_streams(left, right) == StereoEventStream(*cols, CROWDED) == s


def test_atomic_write_replaces_whole_file_or_leaves_old_one(tmp_path):
    path = tmp_path / "out.csv"
    atomic_write(str(path), "a\nb\n")
    assert path.read_bytes() == b"a\nb\n"
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(path), "half\n\ud800")  # fails after the temp file is opened
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError):
        atomic_write(str(tmp_path / "d"), "x")  # fails at the rename
    assert path.read_bytes() == b"a\nb\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "out.csv"]


INT_EDGES = [-(2**63), 2**63 - 1, -1, 0, 1, 10**18, -(10**18)]
FLOAT_EDGES = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-05, 1e16, 1.5e300, 5e-324, -2.5e-07, 0.1, 1 / 3,
    123456789.0, 1e22, 2.0**-1074 * 3,
]


@pytest.mark.parametrize("n", [0, 1, 9, 2000])
def test_compiled_csv_rows_equal_python_rows(tmp_path, n):
    lib = _native.kernel()
    if lib is None:
        pytest.skip("no C compiler on this host")
    rng = np.random.default_rng(n)
    floats = np.where(rng.random(n) < 0.5, rng.choice(np.array(FLOAT_EDGES), n), rng.normal(0.0, 1e3, n))
    if n:
        floats[0] = (np.array([np.nan]).view(np.int64) | 1).view(np.float64)[0]  # another NaN bit pattern
    columns = [
        rng.choice(np.array(INT_EDGES, dtype=np.int64), n),
        rng.integers(-128, 128, n, dtype=np.int8),
        rng.integers(0, 2**32, n, dtype=np.uint32),
        floats,
        rng.normal(0.0, 1e6, n).astype(np.float32),
        (np.array(["L", "R"]), rng.integers(0, 2, n)),
        (["C", "D", "µs", ""], rng.integers(0, 4, n, dtype=np.int8)),
    ]
    assert _native.format_rows(lib, _coded_columns(columns)) is not None
    write_csv(str(tmp_path / "compiled.csv"), "a,b,c,d,e,f,g", columns)
    with without_kernel():
        write_csv(str(tmp_path / "python.csv"), "a,b,c,d,e,f,g", columns)
    written = (tmp_path / "compiled.csv").read_bytes()
    assert written == (tmp_path / "python.csv").read_bytes()
    assert written.count(b"\n") == n + 1
    if n == 0:
        assert written == b"a,b,c,d,e,f,g\n"


def test_compiled_csv_rows_decline_codes_outside_their_names():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("no C compiler on this host")
    for codes in ([0, 2], [-1, 0]):
        assert _native.format_rows(lib, [(np.array(codes), ["a", "b"])]) is None
    assert _native.format_rows(lib, [(np.array([1, 0]), ["a", "b"]), (np.array([5, -5]), None)]) == b"b,5\na,-5\n"
