"""Event data model, CSV I/O, and deterministic stereo merging.

Events carry integer microsecond timestamps throughout the pipeline; there is
no floating-point time anywhere. Streams are immutable after construction
(backing arrays are marked read-only) and sorted by the canonical key
(t, side, y, x, polarity) with LEFT ordered before RIGHT at equal t.

``StereoEventStream(...)`` validates and sorts: every parser and every remap
that can reorder events (``preprocess.downscale``) builds through it. The
private ``StereoEventStream._from_canonical`` checks nothing; it may only be
given what keeps a valid stream valid and in order: a subset (``select``), a
shift back in time by at most the first timestamp, a translation that stays
inside the new geometry (``preprocess.crop``), and the merge by time of two
single-sided streams (``merge_streams``).
"""

from __future__ import annotations

import contextlib
import io
import math
import operator
import os
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterator, Sequence

import numpy as np

OFF = 0
ON = 1
LEFT = 0
RIGHT = 1

SIDE_NAMES = np.array(["L", "R"])  # indexed by side code
SIDE_CODES = {"L": LEFT, "R": RIGHT}

EVENT_CSV_HEADER = "t_us,x,y,p,side"


class InputError(ValueError):
    """A bad config or a malformed input file: exit code 2. The message
    locates the fault: ``<path>:<line>:``, ``<path>:`` or a dotted config key."""


@dataclass(frozen=True)
class CameraGeometry:
    """The pixel frame of a view: ``width`` columns by ``height`` rows."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"geometry must be positive, got {self.width}x{self.height}")


#: Full-resolution geometry of the DAVIS cameras used for the recordings, the
#: default of ``preprocess.full_geometry``.
DAVIS_GEOMETRY = CameraGeometry(346, 260)


@dataclass(repr=False)
class DvsEvent:
    """One event of a stereo stream, as ``StereoEventStream`` iterates them."""

    t: int  # microseconds since recording start
    x: int
    y: int
    polarity: int  # ON=1 / OFF=0
    side: int  # LEFT=0 / RIGHT=1


class StereoEventStream:
    """Time-ordered stereo event stream backed by read-only numpy columns.

    Construction sorts by the canonical key and validates every event against
    the geometry. Instances compare by exact field equality.
    """

    __slots__ = ("t", "x", "y", "p", "side", "geometry", "duration")

    def __init__(
        self,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        p: np.ndarray,
        side: np.ndarray,
        geometry: CameraGeometry,
    ) -> None:
        t = np.asarray(t, dtype=np.int64)
        x = np.asarray(x, dtype=np.int32)
        y = np.asarray(y, dtype=np.int32)
        p = np.asarray(p, dtype=np.int8)
        side = np.asarray(side, dtype=np.int8)
        n = len(t)
        if not (len(x) == len(y) == len(p) == len(side) == n):
            raise ValueError("event columns have mismatched lengths")
        if n:
            if t.min() < 0:
                raise ValueError("negative timestamp")
            if x.min() < 0 or x.max() >= geometry.width or y.min() < 0 or y.max() >= geometry.height:
                raise ValueError(f"event coordinates outside geometry {geometry.width}x{geometry.height}")
            bad = ~np.isin(p, (OFF, ON)) | ~np.isin(side, (LEFT, RIGHT))
            if bad.any():
                raise ValueError("polarity must be 0/1 and side must be LEFT/RIGHT")
            order = _canonical_order(t, x, y, p, side, geometry)
            t, x, y, p, side = t[order], x[order], y[order], p[order], side[order]
        self._set(t, x, y, p, side, geometry)

    @classmethod
    def _from_canonical(cls, t, x, y, p, side, geometry: CameraGeometry) -> "StereoEventStream":
        """A stream of columns that are already valid for ``geometry``, of the
        constructor's dtypes and in canonical order; nothing is checked."""
        out = object.__new__(cls)
        out._set(t, x, y, p, side, geometry)
        return out

    def _set(self, t, x, y, p, side, geometry: CameraGeometry) -> None:
        for col in (t, x, y, p, side):
            col.setflags(write=False)
        self.t, self.x, self.y, self.p, self.side, self.geometry = t, x, y, p, side, geometry
        self.duration = int(t[-1]) if len(t) else 0

    @classmethod
    def from_events(cls, events: Sequence[DvsEvent], geometry: CameraGeometry) -> "StereoEventStream":
        if not events:
            return cls.empty(geometry)
        return cls(
            np.array([e.t for e in events]),
            np.array([e.x for e in events]),
            np.array([e.y for e in events]),
            np.array([e.polarity for e in events]),
            np.array([e.side for e in events]),
            geometry,
        )

    @classmethod
    def empty(cls, geometry: CameraGeometry) -> "StereoEventStream":
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z, z, z, z, geometry)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[DvsEvent]:
        for i in range(len(self.t)):
            yield self[i]

    def __getitem__(self, i: int) -> DvsEvent:
        return DvsEvent(int(self.t[i]), int(self.x[i]), int(self.y[i]), int(self.p[i]), int(self.side[i]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StereoEventStream):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and len(self) == len(other)
            and bool(np.array_equal(self.t, other.t))
            and bool(np.array_equal(self.x, other.x))
            and bool(np.array_equal(self.y, other.y))
            and bool(np.array_equal(self.p, other.p))
            and bool(np.array_equal(self.side, other.side))
        )

    def __repr__(self) -> str:
        return (
            f"StereoEventStream(n={len(self)}, duration={self.duration}us, "
            f"geometry={self.geometry.width}x{self.geometry.height})"
        )

    def select(self, keep: np.ndarray) -> "StereoEventStream":
        """New stream with the given boolean mask applied; order is preserved.

        A subset of a valid, canonically ordered stream is valid and ordered
        too, so only the mask is checked."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (len(self),):
            raise ValueError(f"select needs a boolean mask of {len(self)} values, got {keep.dtype} {keep.shape}")
        return self._from_canonical(*(col[keep] for col in (self.t, self.x, self.y, self.p, self.side)), self.geometry)

    def sides_present(self) -> set[int]:
        counts = np.bincount(self.side, minlength=2)
        return {side for side in (LEFT, RIGHT) if counts[side]}


def _canonical_order(t, x, y, p, side, geometry: CameraGeometry) -> np.ndarray:
    """Indices that sort validated columns by (t, side, y, x, p). Where the
    time span allows, the five fields form one int64 key; a stable sort of it
    is fast on the nearly time-ordered input that cameras write."""
    h, w = geometry.height, geometry.width
    t0 = int(t.min())
    if (int(t.max()) - t0 + 1) * 4 * h * w >= 1 << 63:
        return np.lexsort((p, x, y, side, t))
    key = ((((t - t0) * 2 + side) * h + y) * w + x) * 2 + p
    return np.argsort(key, kind="stable")


def parse_event_file(path: str, geometry: CameraGeometry, side: int | None = None) -> StereoEventStream:
    """Parse an event CSV (header ``t_us,x,y,p,side``) into a validated stream.

    Files for a single camera may omit the ``side`` column, in which case the
    side must be given explicitly. Input row order is normalized to the
    canonical sort key.

    Plain files (one of the two headers, ASCII digits, ``L``/``R`` sides and
    ``\\n`` line ends) are parsed by a strict path: one pass of the compiled
    kernel (``_native``), or one ``np.loadtxt`` call where there is no
    compiler. Whatever that strict path declines goes through the line
    scan, ``CsvRows``, which accepts what ``int()`` accepts and reports the
    first bad line as ``<path>:<line>:``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    stream = _parse_plain_event_bytes(data, geometry, side)
    if stream is None:
        stream = _parse_event_lines(path, read_text(path, data), geometry, side)
    return stream


def read_text(path: str, data: bytes | None = None) -> str:
    """The text of the UTF-8 file ``path`` (``data``: its bytes, if read
    already). A byte that is not UTF-8 raises ``InputError`` with
    ``<path>:<line>: not UTF-8 text: ...``, its line counted as
    ``str.splitlines`` counts lines."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise InputError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


_HEADERS = {EVENT_CSV_HEADER: True, "t_us,x,y,p": False}  # whether a file of this header has a side column
_INT32_MAX = 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_plain_event_bytes(data: bytes, geometry: CameraGeometry, side: int | None) -> StereoEventStream | None:
    """The stream of a plain event file, or ``None`` when the file is not
    plain or not valid; the line scan then decides. Accepts only files the
    line scan accepts too, with an equal result."""
    end = data.find(b"\n")
    has_side = _HEADERS.get(data[:end].decode("latin-1")) if end >= 0 else None
    if has_side is None or not has_side and side not in (LEFT, RIGHT):
        return None
    x_end, y_end = min(geometry.width, _INT32_MAX + 1), min(geometry.height, _INT32_MAX + 1)
    from . import _native  # deferred, so that importing the package compiles and loads nothing

    lib = _native.kernel()
    if lib is None:
        return _parse_plain_numpy(data[end + 1:], has_side, side, x_end, y_end, geometry)
    cols = _native.parse_events(lib, data, end + 1, None if has_side else side, x_end, y_end)
    return None if cols is None else StereoEventStream(*cols, geometry)


def _parse_plain_numpy(
    body: bytes, has_side: bool, side: int | None, x_end: int, y_end: int, geometry: CameraGeometry
) -> StereoEventStream | None:
    """``_parse_plain_event_bytes`` without the compiled kernel: the rows
    after the header in one ``np.loadtxt`` call."""
    if not body.endswith(b"\n"):
        body += b"\n"
    rows = body.count(b"\n")
    if body.startswith(b"\n") or b"\n\n" in body:
        return None  # a blank line is a one-field row, which the scan rejects
    if body.translate(None, b"0123456789,\nLR" if has_side else b"0123456789,\n"):
        return None
    if has_side:
        # every row must end in a side letter; any other letter fails loadtxt
        if body.count(b",L\n") + body.count(b",R\n") != rows:
            return None
        body = body.replace(b",L\n", b",0\n").replace(b",R\n", b",1\n")
    try:
        cols = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2)
    except ValueError:  # an empty field, a ragged row or a value beyond int64
        return None
    if cols.shape[1] != (5 if has_side else 4):
        return None
    t, x, y, p = cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3]
    if (p > ON).any() or (x >= x_end).any() or (y >= y_end).any():
        return None
    s = cols[:, 4] if has_side else np.full(rows, side)
    return StereoEventStream(t, x, y, p, s, geometry)


def _parse_event_lines(path: str, text: str, geometry: CameraGeometry, side: int | None) -> StereoEventStream:
    """The line scan: ``CsvRows`` with the rules of the event format."""
    lines = text.splitlines()
    if not lines:
        raise InputError(f"{path}:1: empty file, expected header '{EVENT_CSV_HEADER}'")
    has_side = _HEADERS.get(lines[0].strip())
    if has_side is None:
        raise InputError(f"{path}:1: unrecognized header {lines[0].strip()!r}")
    if not has_side and side is None:
        raise InputError(f"{path}:1: file has no side column and no side was specified")

    rows = CsvRows(path, lines)
    t = rows.ints(0, "timestamp")
    x, y, p = rows.ints(1), rows.ints(2), rows.ints(3)  # beyond 64 bits: outside the frame, not 0/1
    rows.check((p != OFF) & (p != ON), lambda i: f"polarity must be 0 or 1, got {rows.column(3)[i]!r}")
    if has_side:
        s = np.fromiter(map(SIDE_CODES.get, map(str.strip, rows.column(4)), repeat(-1)), dtype=np.int8, count=rows.n)
        rows.check(s < 0, lambda i: f"side must be L or R, got {rows.column(4)[i]!r}")
    else:
        s = np.full(rows.n, side, dtype=np.int8)
    rows.check(t < 0, lambda i: f"negative timestamp {rows.column(0)[i]}")
    x_end, y_end = min(geometry.width, _INT32_MAX + 1), min(geometry.height, _INT32_MAX + 1)
    rows.check(
        (x < 0) | (x >= x_end) | (y < 0) | (y >= y_end),
        lambda i: f"coordinate ({rows.column(1)[i]},{rows.column(2)[i]}) outside {geometry.width}x{geometry.height}",
    )
    rows.finish()
    return StereoEventStream(t, x, y, p, s, geometry)


class CsvRows:
    """The rows after the header of CSV ``lines``, each with the header's
    number of fields: the row reader of every CSV input. ``finish`` raises ``InputError``
    with ``<path>:<line>:`` and the message of the first check that the
    first bad line fails, so no row after it matters: rows after one of the
    wrong width are dropped, and a column is read up to its first bad cell,
    which holds a placeholder like the cells after it."""

    def __init__(self, path: str, lines: list[str]) -> None:
        self.path, self.n_fields = path, lines[0].count(",") + 1
        self._fault: tuple[int, str] | None = None  # the first bad row yet, with its message
        commas = np.fromiter(map(operator.methodcaller("count", ","), lines[1:]), dtype=np.int64, count=len(lines) - 1)
        self.check(commas != self.n_fields - 1, lambda i: f"expected {self.n_fields} fields, got {commas[i] + 1}")
        self.n = len(commas) if self._fault is None else self._fault[0]
        self._cells = ",".join(lines[1:self.n + 1]).split(",") if self.n else []

    def column(self, j: int) -> list[str]:
        return self._cells[j::self.n_fields]

    def check(self, bad: np.ndarray, message) -> None:
        """Flag the rows where ``bad`` holds; ``message(i)`` describes row ``i``."""
        if bad.any():
            i = int(np.argmax(bad))
            if self._fault is None or i < self._fault[0]:
                self._fault = (i, message(i))

    def finish(self) -> None:
        if self._fault is not None:
            raise InputError(f"{self.path}:{self._fault[0] + 2}: {self._fault[1]}")

    def ints(self, j: int, name: str | None = None, where: np.ndarray | None = None) -> np.ndarray:
        """Column ``j`` as ``int()`` reads it (0 outside ``where``); beyond 64
        bits it fails, or without a ``name`` saturates for the format to reject."""

        def parse(cell: str) -> int:
            value = int(cell)
            if name is not None and not _INT64_MIN <= value <= _INT64_MAX:
                raise ValueError(f"{name} {cell} exceeds the 64-bit range")
            return min(max(value, _INT64_MIN), _INT64_MAX)

        return self._read(j, np.int64, parse, where, 0)

    def floats(self, j: int, name: str, where: np.ndarray | None = None) -> np.ndarray:
        """Column ``j`` as ``float()`` reads it (NaN outside ``where``); a value
        that is not finite fails."""

        def parse(cell: str) -> float:
            value = float(cell)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {cell!r}")
            return value

        return self._read(j, np.float64, parse, where, np.nan)

    def _read(self, j: int, dtype, parse, where: np.ndarray | None, fill) -> np.ndarray:
        """One array conversion, which numpy makes with ``int()`` or ``float()``
        on each cell; if it fails, cell by cell up to the first bad one."""
        cells = self.column(j) if where is None else list(compress(self.column(j), where))
        try:
            values = np.array(cells, dtype=dtype)
            if not np.isfinite(values).all():
                raise ValueError
        except (ValueError, OverflowError):
            values = np.full(len(cells), fill, dtype=dtype)
            for k, cell in enumerate(cells):
                try:
                    values[k] = parse(cell)
                except ValueError as exc:
                    row = k if where is None else int(np.flatnonzero(where)[k])
                    self.check(np.arange(self.n) == row, lambda i: str(exc))
                    break
        if where is None:
            return values
        out = np.full(self.n, fill, dtype=dtype)
        out[where] = values
        return out


def read_csv(path: str, header: str, what: str | None = None) -> CsvRows:
    """The rows of CSV file ``path`` after ``header``; at least one if ``what`` names them."""
    lines = read_text(path).splitlines()
    if not lines or lines[0] != header:
        raise InputError(f"{path}:1: expected header '{header}'")
    if what is not None and len(lines) == 1:
        raise InputError(f"{path}:1: no {what} rows after the header")
    return CsvRows(path, lines)


def write_event_file(stream: StereoEventStream, path: str) -> None:
    """Write a stream as event CSV; ``parse_event_file`` round-trips exactly."""
    write_csv(path, EVENT_CSV_HEADER, [stream.t, stream.x, stream.y, stream.p, (SIDE_NAMES, stream.side)])


def write_csv(path: str, header: str, columns: Sequence) -> None:
    """Write ``header`` and one row per position of the equal-length
    ``columns`` with ``atomic_write``; no rows give a header-only file. A
    column is an array of integers or floats, or a ``(names, codes)`` pair,
    whose cell is ``names[code]``. The number format of every artifact: a
    float cell is the shortest round-trip ``repr``, or empty for NaN (a
    missing value); an integer cell is ``str``. Both writers take the columns
    as ``_coded_columns`` codes them: the compiled kernel (``_native``) where
    one loads, else ``_python_rows``; both give the same bytes."""
    from . import _native  # deferred, so that importing the package compiles and loads nothing

    coded = _coded_columns(columns)
    lib = _native.kernel()
    body = _python_rows(coded) if lib is None else _native.format_rows(lib, coded)
    atomic_write(path, header.encode() + b"\n" + body)


def _python_rows(coded: list[tuple[np.ndarray, list[str] | None]]) -> bytes:
    """The CSV body of ``_coded_columns`` in Python: the reference for the
    kernel. A code outside its names raises IndexError, as the kernel does."""

    def cells(values: np.ndarray, names: list[str] | None) -> list[str]:
        if names is None:
            return list(map(str, values.tolist()))
        if len(values) and not 0 <= values.min() <= values.max() < len(names):
            raise IndexError("CSV rows: a code outside its names")
        return [names[k] for k in values.tolist()]

    rows = map(",".join, zip(*(cells(values, names) for values, names in coded), strict=True))
    return "".join(row + "\n" for row in rows).encode()


def _coded_columns(columns: Sequence) -> list[tuple[np.ndarray, list[str] | None]]:
    """``columns`` as both writers take them: integer values, each with None
    (printed in decimal) or with the names its values index. A float column
    becomes codes into the cells of its distinct bit patterns, so each
    distinct value is formatted once."""
    coded = []
    for col in columns:
        names, values = col if isinstance(col, tuple) else (None, col)
        a = np.asarray(values)
        if a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64):
            coded.append((a, None if names is None else [str(name) for name in names]))
        elif a.dtype.kind == "f" and names is None:
            coded.append(_float_codes(np.ascontiguousarray(a, dtype=np.float64)))
        else:
            raise TypeError(f"a CSV column must hold integers or floats, or codes into names, got {a.dtype}")
    return coded


def _float_codes(a: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Codes into the cells of the distinct bit patterns of ``a``: ``repr``,
    or empty for NaN. A sort, not ``np.unique``, which imports ``numpy.ma``."""
    bits = a.view(np.int64)
    order = np.argsort(bits, kind="stable")
    ranked = bits[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    codes = np.empty(len(a), dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes, ["" if v != v else repr(v) for v in ranked[new].view(np.float64).tolist()]


def atomic_write(path: str, data: str | bytes) -> None:
    """Write ``data``, a ``str`` as UTF-8 with ``\\n`` line ends, to a
    per-process temp name, then rename it onto ``path``: the file is either
    whole or absent, also under concurrent writers. The temp file is removed
    if the write fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def merge_streams(left: StereoEventStream, right: StereoEventStream) -> StereoEventStream:
    """Merge two single-sided streams into one canonical stereo stream.

    Both inputs are valid and in canonical order, so one stable sort of the
    concatenated times, which puts LEFT first on equal times, gives the
    canonical order of the merge, and nothing needs validating again."""
    if left.geometry != right.geometry:
        raise ValueError(f"geometry mismatch: {left.geometry} vs {right.geometry}")
    if len(left) and left.sides_present() != {LEFT}:
        raise ValueError("left stream contains non-LEFT events")
    if len(right) and right.sides_present() != {RIGHT}:
        raise ValueError("right stream contains non-RIGHT events")
    order = np.argsort(np.concatenate([left.t, right.t]), kind="stable")
    cols = (np.concatenate([getattr(left, f), getattr(right, f)])[order] for f in ("t", "x", "y", "p", "side"))
    return StereoEventStream._from_canonical(*cols, left.geometry)
