"""Synthetic stereo stimuli with exact known disparity.

Generation runs on a 1 ms lattice: at each step every active pixel of the
shape draws one Bernoulli emission (probability rate/1000), producing a LEFT
event and its RIGHT twin at x + round(d(t)), each independently jittered by
a clamped seeded Gaussian. ``stimulus_trace`` gives the exact disparity at
the analysis window centres, over any number of windows: a run scores the
windows of its spikes, which may outlast the stimulus.

The emission loop runs compiled where the kernel library links numpy's
random C library (see ``_native``): it draws from the Generator's own bit
generator through numpy's own functions, in the order of the Python loop
``_emit``, so the stream is the same; elsewhere ``_emit`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import LEFT, RIGHT, CameraGeometry, StereoEventStream
from .groundtruth import DisparityTrace
from .simulator import window_centers_us, window_count

BAR = "BAR"
DOT = "DOT"
CLOUD = "CLOUD"

LATTICE_US = 1000


@dataclass(repr=False, eq=False)
class DisparityProfile:
    """Piecewise-linear disparity course plus the stimulus shape.

    ``keyframes`` maps times to disparities in downscaled pixels; between
    keyframes the disparity interpolates linearly and outside their span it
    clamps to the nearest end.
    """

    shape: str = DOT
    keyframes: tuple[tuple[int, float], ...] = ((0, 0.0),)
    x: int = 5  # left-view anchor column
    y: int = 8  # top row of the shape
    height: int = 1  # rows spanned (BAR/CLOUD)
    dots_per_row: int = 3  # CLOUD only
    rate_hz: float = 600.0
    jitter_sigma_us: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shape not in (BAR, DOT, CLOUD):
            raise ValueError(f"unknown shape {self.shape!r}")
        if not self.keyframes:
            raise ValueError("profile needs at least one keyframe")
        if any(self.keyframes[i][0] > self.keyframes[i + 1][0] for i in range(len(self.keyframes) - 1)):
            raise ValueError("keyframes must be time-sorted")
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be > 0")
        if self.height < 1 or self.dots_per_row < 1:
            raise ValueError("height and dots_per_row must be >= 1")
        if self.jitter_sigma_us < 0:
            raise ValueError("jitter_sigma_us must be >= 0")

    def d_at(self, t_us):
        """The disparity at the time ``t_us``, or at each of an array of times."""
        ts, ds = zip(*self.keyframes)
        return np.interp(t_us, ts, ds)

    @property
    def rows(self) -> range:
        return range(self.y, self.y + (self.height if self.shape != DOT else 1))


def _cloud_columns(profile: DisparityProfile, geometry: CameraGeometry) -> range:
    """The left-view columns a CLOUD dot may take: those that keep
    x + round(d(t)) in frame everywhere (piecewise-linear d attains its
    extremes at keyframes)."""
    ds = [int(round(d)) for _, d in profile.keyframes]
    cols = range(max(0, -min(ds)), geometry.width - max(0, max(ds)))
    if len(cols) < profile.dots_per_row:
        raise ValueError(
            f"only {len(cols)} columns stay in frame for this disparity course, need {profile.dots_per_row}"
        )
    return cols


def validate_profile_bounds(profile: DisparityProfile, geometry: CameraGeometry, duration_us: int) -> None:
    """Reject profiles whose shape would leave the frame at any lattice step,
    before any event is generated."""
    rows = profile.rows
    if any(y < 0 or y >= geometry.height for y in rows):
        raise ValueError(f"shape rows {list(rows)} outside geometry height {geometry.height}")
    if profile.shape == CLOUD:
        _cloud_columns(profile, geometry)
        return
    d = _lattice_disparity(profile, duration_us)
    x = profile.x
    outside = (x < 0) | (x >= geometry.width) | (x + d < 0) | (x + d >= geometry.width)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(
            f"shape leaves the frame at t={k * LATTICE_US}us (x={x}, d={d[k]}, width={geometry.width})"
        )


def _lattice_disparity(profile: DisparityProfile, duration_us: int) -> np.ndarray:
    """The disparity at each lattice step before ``duration_us``, rounded
    half to even as ``round`` does."""
    return np.rint(profile.d_at(np.arange(0, duration_us, LATTICE_US))).astype(np.int64)


def _emit(rng: np.random.Generator, steps: range, d: list[int], rows: list[int], cols: list[int],
          p_emit: float, sigma: float, duration_us: int) -> tuple[list[int], ...]:
    """The events (t, x, y, p, side columns) of every lattice step, with
    ``d[k]`` the rounded disparity of step k: each (row, column) emits with
    probability ``p_emit`` a LEFT event and its RIGHT twin at x + d, sharing
    one polarity and each jittered on its own. The reference for the
    compiled loop, which draws from ``rng`` in the same order."""
    t_list: list[int] = []
    x_list: list[int] = []
    y_list: list[int] = []
    p_list: list[int] = []
    s_list: list[int] = []

    def jittered(t: int) -> int:
        if sigma == 0:
            return t
        j = rng.normal(0.0, sigma)
        j = max(-3.0 * sigma, min(3.0 * sigma, j))
        return max(0, min(duration_us, t + int(round(j))))

    for t, dk in zip(steps, d):
        for y in rows:
            for x in cols:
                if p_emit < 1.0 and rng.random() >= p_emit:
                    continue
                pol = int(rng.integers(0, 2))  # twins share the brightness sign
                t_list.append(jittered(t))
                x_list.append(x)
                y_list.append(y)
                p_list.append(pol)
                s_list.append(LEFT)
                t_list.append(jittered(t))
                x_list.append(x + dk)
                y_list.append(y)
                p_list.append(pol)
                s_list.append(RIGHT)
    return t_list, x_list, y_list, p_list, s_list


def gen_stimulus(
    profile: DisparityProfile,
    geometry: CameraGeometry,
    duration_us: int,
    window_us: int,
) -> tuple[StereoEventStream, DisparityTrace]:
    """Generate the stereo stream, and its exact ground-truth trace over the
    stimulus's own windows."""
    if duration_us <= 0:
        raise ValueError("duration must be > 0")
    validate_profile_bounds(profile, geometry, duration_us)
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
    d = _lattice_disparity(profile, duration_us).tolist()
    from . import _native  # deferred, so that importing the package compiles and loads nothing

    lib = _native.kernel()
    events = None if lib is None else _native.synth(lib, rng, LATTICE_US, d, rows, cols, p_emit, sigma, duration_us)
    columns = _emit(rng, steps, d, rows, cols, p_emit, sigma, duration_us) if events is None else events.T
    stream = StereoEventStream(*columns, geometry)
    return stream, stimulus_trace(profile, duration_us, window_us, window_count(duration_us, window_us))


def stimulus_trace(profile: DisparityProfile, duration_us: int, window_us: int, n_windows: int) -> DisparityTrace:
    """The exact ground truth of a stimulus of ``duration_us`` over
    ``n_windows`` windows: the profile's disparity at each window centre,
    seen by one joint. The windows from ``window_count(duration_us,
    window_us)`` on come after the stimulus: NaN, with no joint."""
    windows = np.arange(n_windows)
    shown = windows < window_count(duration_us, window_us)
    d = np.where(shown, profile.d_at(window_centers_us(windows, window_us)), np.nan)
    return DisparityTrace(window_us, d, d.copy(), d.copy(), shown.astype(np.int64))
