"""Synthetic stereo stimuli with exact known disparity.

Generation runs on a 1 ms lattice of (step, row, column) cells: at each step
every active pixel of the shape emits with probability rate/1000, producing a
LEFT event and its RIGHT twin at x + round(d(t)), which share one polarity
and are each jittered by a clamped seeded Gaussian. ``stimulus_trace`` gives
the exact disparity at the analysis window centres, over any number of
windows: a run scores the windows of its spikes, which may outlast the
stimulus.

One Generator, seeded by the profile, draws in this order: a CLOUD's columns
(``choice``); one uniform per cell, where emission is not certain, and a cell
emits where it is below the emission probability; one polarity per emission,
emissions in (step, row, column) order; and, where the jitter sigma is not
0, a (2, emissions) normal array whose row 0 jitters the LEFT events and row
1 the RIGHT ones.
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
# the most lattice cells (steps x rows x columns) of one stimulus: its draws
# and events peak at up to about 150 bytes a cell
MAX_STIMULUS_CELLS = 2**22


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


def check_stimulus_size(profile: DisparityProfile, duration_us: int) -> None:
    """Reject a stimulus of more than ``MAX_STIMULUS_CELLS`` lattice cells,
    before anything is allocated."""
    steps = -(-duration_us // LATTICE_US)
    rows, cols = len(profile.rows), profile.dots_per_row if profile.shape == CLOUD else 1
    if steps * rows * cols > MAX_STIMULUS_CELLS:
        raise ValueError(
            f"duration_us {duration_us} gives {steps} lattice steps x {rows} rows x {cols} columns = "
            f"{steps * rows * cols} stimulus cells, more than {MAX_STIMULUS_CELLS}"
        )


def validate_profile_bounds(profile: DisparityProfile, geometry: CameraGeometry, duration_us: int) -> None:
    """Reject a stimulus too large to generate, or whose shape would leave
    the frame at any lattice step, before any event is generated."""
    check_stimulus_size(profile, duration_us)
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


def _jittered(t: np.ndarray, j: np.ndarray, sigma: float, duration_us: int) -> np.ndarray:
    """``t`` plus the jitter ``j`` clamped to 3 sigma and rounded half to
    even, clamped to ``[0, duration_us]``: the bits of Python's ``max(0,
    min(duration_us, t + int(round(j))))``. A jitter beyond ``duration_us +
    1`` clamps the same either way, so it is clamped there too; the sums
    then stay integers below 2**53 (``MAX_STIMULUS_CELLS`` bounds the
    duration), exact in float64."""
    bound = min(3.0 * sigma, duration_us + 1)
    return np.clip(np.rint(np.clip(j, -bound, bound)) + t, 0, duration_us).astype(np.int64)


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
    if profile.shape == CLOUD:
        valid = _cloud_columns(profile, geometry)
        cols = [valid[c] for c in sorted(rng.choice(len(valid), size=profile.dots_per_row, replace=False).tolist())]
    else:
        cols = [profile.x]
    rows = list(profile.rows)
    d = _lattice_disparity(profile, duration_us)
    per_step = len(rows) * len(cols)
    p_emit = min(profile.rate_hz * LATTICE_US * 1e-6, 1.0)
    sigma = profile.jitter_sigma_us
    # the emitting cells of the (step, row, column) lattice, by flat index
    n_cells = len(d) * per_step
    cell = np.flatnonzero(rng.random(n_cells) < p_emit) if p_emit < 1.0 else np.arange(n_cells)
    k, rc = np.divmod(cell, per_step)
    pol = rng.integers(0, 2, len(cell))  # twins share the brightness sign
    # each emission gives a LEFT event and then its RIGHT twin at x + d
    t = np.repeat(k * LATTICE_US, 2)
    if sigma != 0:
        t = _jittered(t, rng.normal(0.0, sigma, (2, len(cell))).T.ravel(), sigma, duration_us)
    x = np.repeat(np.tile(np.array(cols, dtype=np.int32), len(rows))[rc], 2)
    x[1::2] += d[k]
    y = np.repeat(np.repeat(np.array(rows, dtype=np.int32), len(cols))[rc], 2)
    side = np.tile(np.array([LEFT, RIGHT], dtype=np.int8), len(cell))
    stream = StereoEventStream(t, x, y, np.repeat(pol.astype(np.int8), 2), side, geometry)
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
