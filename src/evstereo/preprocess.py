"""Event-stream preprocessing: IR-region masking, hot-pixel removal,
background-activity filtering, uniform downscaling, and cropping.

Every stage is a pure filter+remap over an immutable stream: it never creates
events and never touches timestamps. A filter keeps the canonical order of
its input (``StereoEventStream.select``), and so does the translation of
``crop``. ``downscale`` is the one stage that can change the order of the
events of one (t, side): (11, 0) and (0, 1) on a 12x12 frame become (1, 0)
and (0, 0) with factor 6. So it builds its stream through the sorting
constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .events import LEFT, RIGHT, CameraGeometry, StereoEventStream


@dataclass(frozen=True)
class Rect:
    """Pixel rectangle [x, x+w) x [y, y+h) in the coordinates of its stage."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"rectangle must have positive size, got {self.w}x{self.h}")

    def contains(self, x: int, y: int) -> bool:
        return self.x <= x < self.x + self.w and self.y <= y < self.y + self.h

    def inside(self, geometry: CameraGeometry) -> bool:
        return (
            self.x >= 0
            and self.y >= 0
            and self.x + self.w <= geometry.width
            and self.y + self.h <= geometry.height
        )


@dataclass
class PreprocessConfig:
    """Full preprocessing schedule; filters default to the standard DVS
    denoising rules with all parameters configurable.

    ``hot_pixel_factor=None`` / ``background_window_us=None`` disable those
    stages. ``crop_origin=None`` requires auto-crop at run time.
    """

    mask_rects: list[Rect] = field(default_factory=list)
    hot_pixel_factor: float | None = 10.0
    background_window_us: int | None = 5000
    background_radius: int = 1
    background_include_same_pixel: bool = False
    downscale_factor: int = 6
    crop_origin: tuple[int, int] | None = None
    crop_size: tuple[int, int] = (16, 16)

    def validate(self, geometry: CameraGeometry) -> None:
        for rect in self.mask_rects:
            if not rect.inside(geometry):
                raise ValueError(f"mask rectangle {rect} exceeds geometry {geometry}")
        if self.downscale_factor < 1:
            raise ValueError(f"downscale_factor must be >= 1, got {self.downscale_factor}")
        window = self.background_window_us
        if window is not None and not (
            isinstance(window, int) and not isinstance(window, bool) and 1 <= window < 1 << 62
        ):
            raise ValueError(f"background_window_us must be an integer in [1, 2**62), got {window!r}")
        if self.background_radius < 0:
            raise ValueError("background_radius must be >= 0")
        if window is not None and self.background_radius == 0 and not self.background_include_same_pixel:
            raise ValueError(
                "background_radius=0 with background_include_same_pixel=false keeps no event: "
                "no pixel can support another"
            )
        factor = self.hot_pixel_factor
        if factor is not None and not (
            isinstance(factor, (int, float)) and not isinstance(factor, bool) and math.isfinite(factor) and factor > 0
        ):
            raise ValueError(f"hot_pixel_factor must be a finite number > 0, got {factor!r}")
        cw, ch = self.crop_size
        reduced = self.downscaled_geometry(geometry)
        if cw <= 0 or ch <= 0 or cw > reduced.width or ch > reduced.height:
            raise ValueError(f"crop size {self.crop_size} does not fit in {reduced}")
        if self.crop_origin is not None:
            ox, oy = self.crop_origin
            if ox < 0 or oy < 0 or ox + cw > reduced.width or oy + ch > reduced.height:
                raise ValueError(f"crop {self.crop_origin}+{self.crop_size} exceeds {reduced}")

    def downscaled_geometry(self, geometry: CameraGeometry) -> CameraGeometry:
        return CameraGeometry(geometry.width // self.downscale_factor, geometry.height // self.downscale_factor)


def mask_regions(stream: StereoEventStream, regions: list[Rect]) -> StereoEventStream:
    """Drop every event whose pixel lies inside any of the rectangles."""
    if not regions:
        return stream
    for rect in regions:
        if not rect.inside(stream.geometry):
            raise ValueError(f"mask rectangle {rect} exceeds geometry {stream.geometry}")
    keep = np.ones(len(stream), dtype=bool)
    for r in regions:
        keep &= ~((stream.x >= r.x) & (stream.x < r.x + r.w) & (stream.y >= r.y) & (stream.y < r.y + r.h))
    return stream.select(keep)


def _pixel_index(side, y, x, geometry: CameraGeometry) -> np.ndarray:
    """Index ``(side*H + y)*W + x`` of each pixel in the two frames of
    ``geometry``, LEFT then RIGHT, laid end to end."""
    return (np.asarray(side, dtype=np.int64) * geometry.height + y) * geometry.width + x


def detect_hot_pixels(stream: StereoEventStream, factor: float) -> set[tuple[int, int, int]]:
    """Pixels whose event count exceeds factor x median nonzero per-pixel
    count, statistics taken per camera side. Returns {(x, y, side)}."""
    hot: set[tuple[int, int, int]] = set()
    h, w = stream.geometry.height, stream.geometry.width
    counts = np.bincount(_pixel_index(stream.side, stream.y, stream.x, stream.geometry), minlength=2 * h * w)
    for side, side_counts in enumerate(counts.reshape(2, h * w)):
        nonzero = side_counts[side_counts > 0]
        if len(nonzero) == 0:
            continue
        threshold = factor * float(np.median(nonzero))
        for idx in np.flatnonzero(side_counts > threshold):
            hot.add((int(idx % w), int(idx // w), side))
    return hot


def remove_pixels(stream: StereoEventStream, pixels: set[tuple[int, int, int]]) -> StereoEventStream:
    """Drop every event whose ``(x, y, side)`` is in ``pixels``; entries
    outside the geometry match nothing."""
    h, w = stream.geometry.height, stream.geometry.width
    inside = [(s, y, x) for x, y, s in pixels if 0 <= x < w and 0 <= y < h and s in (LEFT, RIGHT)]
    if not inside:
        return stream
    flagged = np.zeros(2 * h * w, dtype=bool)
    flagged[_pixel_index(*np.array(inside, dtype=np.int64).T, stream.geometry)] = True
    return stream.select(~flagged[_pixel_index(stream.side, stream.y, stream.x, stream.geometry)])


#: Largest padded grid ``2 * (W + 2r) * (H + 2r)`` the compiled background
#: filter allocates (one int64 per cell, 32 MiB); beyond it numpy filters.
_BACKGROUND_GRID_CELLS = 1 << 22


def filter_background(
    stream: StereoEventStream,
    window_us: int,
    radius: int,
    include_same_pixel: bool = False,
) -> StereoEventStream:
    """Background-activity filter: an event survives iff some strictly earlier
    event on the same side occurred within Chebyshev distance <= radius in the
    preceding ``window_us`` (``t_prev >= t - window_us``). The same pixel
    counts as support only when ``include_same_pixel`` is set.

    The compiled kernel (``_native``) makes one pass over the time-ordered
    events with the latest timestamp of every pixel (Delbruck 2008). The
    numpy filter ``_background_keep`` gives the same result; it runs where
    there is no compiler and on geometries whose padded grid exceeds
    ``_BACKGROUND_GRID_CELLS``.
    """
    if window_us <= 0:
        raise ValueError("window_us must be > 0")
    if len(stream) == 0:
        return stream
    keep = None
    cells = 2 * (stream.geometry.width + 2 * radius) * (stream.geometry.height + 2 * radius)
    if radius >= 0 and cells <= _BACKGROUND_GRID_CELLS and window_us < 1 << 63:
        from . import _native  # deferred, so that importing the package compiles and loads nothing

        lib = _native.kernel()
        if lib is not None:
            keep = _native.background(lib, stream, window_us, radius, include_same_pixel)
    if keep is None:
        keep = _background_keep(stream, window_us, radius, include_same_pixel)
    return stream.select(keep)


def _background_keep(stream: StereoEventStream, window_us: int, radius: int, include_same_pixel: bool) -> np.ndarray:
    """The keep mask of ``filter_background`` in array code.

    Each event gets the key ``pixel * n_times + rank(t)``, where ``pixel``
    numbers ``(side, y, x)`` on a frame padded by ``radius`` on every edge (so
    no neighbour wraps across a row or into the other side) and ``rank`` is
    the dense rank of the timestamp. For one neighbour offset the queries are
    the sorted keys shifted by a constant, so one ``searchsorted`` finds, for
    every event at once, the latest strictly earlier event at that neighbour.
    """
    n = len(stream)
    hp, wp = stream.geometry.height + 2 * radius, stream.geometry.width + 2 * radius
    times, rank = np.unique(stream.t, return_inverse=True)
    m = len(times)
    # exact Python-integer keys where int64 keys could overflow
    dtype = np.int64 if 2 * hp * wp * m < 1 << 62 else object
    key = ((stream.side.astype(dtype) * hp + stream.y + radius) * wp + stream.x + radius) * m + rank
    order = np.argsort(key)  # equal keys are equal (side, x, y, t): their order does not matter
    key = key[order]
    first = key - rank[order]  # key of rank 0 at the event's own pixel
    before = np.concatenate([np.full(1, -1, dtype=key.dtype), key])  # key[i - 1] at index i
    # max over offsets of (latest strictly earlier key at the neighbour) - shift;
    # it reaches `first` iff some neighbour holds such a key
    best = first - 1
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0 and not include_same_pixel:
                continue
            shift = (dy * wp + dx) * m
            prev = before[np.searchsorted(key, key + shift, side="left")]
            np.maximum(best, prev - shift, out=best)
    latest = (best - first).astype(np.int64)  # rank of the latest support time; < 0 for none
    keep = np.empty(n, dtype=bool)
    keep[order] = (latest >= 0) & (times[np.maximum(latest, 0)] >= stream.t[order] - window_us)
    return keep


def downscale(stream: StereoEventStream, factor: int) -> StereoEventStream:
    """Floor-divide coordinates by ``factor``; events falling on the remainder
    strip of a non-divisible geometry are dropped."""
    if factor < 1:
        raise ValueError(f"downscale factor must be >= 1, got {factor}")
    if factor == 1:
        return stream
    geom = CameraGeometry(stream.geometry.width // factor, stream.geometry.height // factor)
    x = stream.x // factor
    y = stream.y // factor
    keep = (x < geom.width) & (y < geom.height)
    return StereoEventStream(stream.t[keep], x[keep], y[keep], stream.p[keep], stream.side[keep], geom)


def crop(stream: StereoEventStream, origin: tuple[int, int], size: tuple[int, int]) -> StereoEventStream:
    """Keep events inside the rectangle and re-base coordinates to its origin."""
    ox, oy = origin
    w, h = size
    rect = Rect(ox, oy, w, h)
    if not rect.inside(stream.geometry):
        raise ValueError(f"crop {origin}+{size} exceeds geometry {stream.geometry}")
    keep = (stream.x >= ox) & (stream.x < ox + w) & (stream.y >= oy) & (stream.y < oy + h)
    cols = (stream.t[keep], stream.x[keep] - ox, stream.y[keep] - oy, stream.p[keep], stream.side[keep])
    return StereoEventStream._from_canonical(*cols, CameraGeometry(w, h))


def auto_crop_origin(downscaled: StereoEventStream, crop_size: tuple[int, int]) -> tuple[int, int]:
    """Crop origin centring the window on the event centroid of the first
    second of (downscaled) data; falls back to the full stream when the first
    second is empty, and to the frame centre when the stream is."""
    w, h = crop_size
    geom = downscaled.geometry
    m = downscaled.t <= 1_000_000
    if not m.any():
        m = np.ones(len(downscaled), dtype=bool)
    if len(downscaled) == 0:
        cx, cy = geom.width / 2, geom.height / 2
    else:
        cx = float(downscaled.x[m].mean())
        cy = float(downscaled.y[m].mean())
    ox = int(round(cx - w / 2))
    oy = int(round(cy - h / 2))
    ox = min(max(ox, 0), geom.width - w)
    oy = min(max(oy, 0), geom.height - h)
    return (ox, oy)


def preprocess_pipeline_resolved(
    stream: StereoEventStream, config: PreprocessConfig
) -> tuple[StereoEventStream, tuple[int, int]]:
    """mask -> hot-pixel removal -> background filter -> downscale -> crop.

    Returns the stream and the crop origin actually used (needed to map
    ground truth into the same frame under auto-crop)."""
    config.validate(stream.geometry)
    out = mask_regions(stream, config.mask_rects)
    if config.hot_pixel_factor is not None:
        out = remove_pixels(out, detect_hot_pixels(out, config.hot_pixel_factor))
    if config.background_window_us is not None:
        out = filter_background(
            out,
            config.background_window_us,
            config.background_radius,
            config.background_include_same_pixel,
        )
    out = downscale(out, config.downscale_factor)
    origin = config.crop_origin
    if origin is None:
        origin = auto_crop_origin(out, config.crop_size)
    return crop(out, origin, config.crop_size), origin
