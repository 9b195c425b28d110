"""Ground-truth disparity from 3D marker trajectories.

Marker positions project through per-camera 3x4 matrices onto the full
resolution image planes, map into the downscaled/cropped frame of the
network input, and reduce to a per-window disparity trace d = u_right -
u_left (the same sign convention as the network's disparity coordinate).
Ground truth keeps sub-pixel precision end to end; only events are integer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .events import CameraGeometry, InputError, read_csv, read_text, write_csv
from .simulator import window_center_labels, window_centers_us, window_count

MARKER_CSV_HEADER = "t_us,joint,X_mm,Y_mm,Z_mm"
TRACE_CSV_HEADER = "window_i,t_center_us,d_mean,d_min,d_max,n_joints"


@dataclass
class MarkerTrack3D:
    joint: str
    t: np.ndarray  # int64 microseconds, sorted
    xyz: np.ndarray  # (n, 3) float64 millimetres

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.int64)
        self.xyz = np.asarray(self.xyz, dtype=np.float64)
        if self.xyz.shape != (len(self.t), 3):
            raise ValueError("xyz must be (n, 3)")
        if np.any(np.diff(self.t) < 0):
            raise ValueError(f"track {self.joint!r} not time-sorted")


@dataclass
class Track2D:
    """Projected track: pixel positions plus validity (w' > 0) and
    visibility (valid and inside the frame of its stage)."""

    joint: str
    t: np.ndarray
    uv: np.ndarray  # (n, 2) float64
    valid: np.ndarray  # (n,) bool
    visible: np.ndarray  # (n,) bool


@dataclass
class DisparityTrace:
    """Per-window ground-truth disparity in downscaled pixels; NaN marks
    windows with no visible joint."""

    window_us: int
    d_mean: np.ndarray
    d_min: np.ndarray
    d_max: np.ndarray
    n_joints: np.ndarray

    @property
    def n_windows(self) -> int:
        return len(self.d_mean)

    @property
    def defined(self) -> np.ndarray:
        return ~np.isnan(self.d_mean)


def check_projection_matrix(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=np.float64)
    if P.shape != (3, 4):
        raise ValueError(f"projection matrix must be 3x4, got {P.shape}")
    return P


def project_markers(tracks: list[MarkerTrack3D], P: np.ndarray, geometry: CameraGeometry) -> list[Track2D]:
    """Perspective projection (u, v) = (p0/p2, p1/p2) of homogeneous world
    points; samples with w' <= 0 are flagged invalid, samples landing outside
    the frame are flagged not visible. Nothing is dropped."""
    P = check_projection_matrix(P)
    out = []
    for track in tracks:
        n = len(track.t)
        homog = np.hstack([track.xyz, np.ones((n, 1))])
        proj = homog @ P.T  # (n, 3)
        wprime = proj[:, 2]
        valid = wprime > 0
        uv = np.full((n, 2), np.nan)
        uv[valid] = proj[valid, :2] / wprime[valid, None]
        visible = valid.copy()
        inside = (
            (uv[:, 0] >= 0) & (uv[:, 0] < geometry.width) & (uv[:, 1] >= 0) & (uv[:, 1] < geometry.height)
        )
        visible &= np.where(np.isnan(uv[:, 0]), False, inside)
        out.append(Track2D(joint=track.joint, t=track.t.copy(), uv=uv, valid=valid, visible=visible))
    return out


def to_downscaled_coords(
    track: Track2D,
    factor: int,
    crop_origin: tuple[int, int],
    crop_size: tuple[int, int],
) -> Track2D:
    """(u, v) -> (u/factor - crop_x, v/factor - crop_y), kept sub-pixel;
    visibility re-evaluated against the crop window."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    ox, oy = crop_origin
    w, h = crop_size
    uv = track.uv / factor - np.array([ox, oy], dtype=np.float64)
    visible = track.valid & ~np.isnan(uv[:, 0])
    inside = (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0) & (uv[:, 1] < h)
    visible &= np.where(np.isnan(uv[:, 0]), False, inside)
    return Track2D(joint=track.joint, t=track.t.copy(), uv=uv, valid=track.valid.copy(), visible=visible)


def _interp_visible(track: Track2D, t_center: np.ndarray) -> np.ndarray:
    """Horizontal position linearly interpolated at each of the times
    ``t_center``; NaN where a centre is outside the track or a bracketing
    sample is not visible."""
    t, u = track.t, track.uv[:, 0]
    out = np.full(len(t_center), np.nan)
    if len(t) == 0:
        return out
    at = np.flatnonzero((t_center >= t[0]) & (t_center <= t[-1]))
    hi = np.searchsorted(t, t_center[at], side="left")
    lo = np.where(t[hi] == t_center[at], hi, hi - 1)  # a sample at the centre brackets it alone
    shown = track.visible[lo] & track.visible[hi]
    at, lo, hi = at[shown], lo[shown], hi[shown]
    out[at] = u[lo]
    step = lo != hi
    at, lo, hi = at[step], lo[step], hi[step]
    frac = (t_center[at] - t[lo]) / (t[hi] - t[lo])
    out[at] = u[lo] + frac * (u[hi] - u[lo])
    return out


def disparity_trajectory(
    left_tracks: list[Track2D],
    right_tracks: list[Track2D],
    window_us: int,
    n_windows: int | None = None,
) -> DisparityTrace:
    """Per-joint disparity u_right - u_left interpolated to window centres,
    aggregated to mean/min/max over joints visible in both views."""
    lefts = {tr.joint: tr for tr in left_tracks}
    rights = {tr.joint: tr for tr in right_tracks}
    joints = tuple(sorted(set(lefts) & set(rights)))
    if not joints:
        raise ValueError("no joint appears in both views")
    if n_windows is None:
        horizon = max(
            int(tr.t[-1]) for tr in list(lefts.values()) + list(rights.values()) if len(tr.t)
        )
        n_windows = window_count(horizon, window_us)
    centers = window_centers_us(n_windows, window_us)
    # NaN, where a joint is not visible in a view, stays NaN
    per_joint = np.array([_interp_visible(rights[j], centers) - _interp_visible(lefts[j], centers) for j in joints])

    n_vis = np.sum(~np.isnan(per_joint), axis=0)
    if not n_vis.any():
        raise ValueError("no window has a joint visible in both views")
    d_mean = np.full(n_windows, np.nan)
    d_min = np.full(n_windows, np.nan)
    d_max = np.full(n_windows, np.nan)
    got = n_vis > 0
    d_mean[got] = np.nanmean(per_joint[:, got], axis=0)
    d_min[got] = np.nanmin(per_joint[:, got], axis=0)
    d_max[got] = np.nanmax(per_joint[:, got], axis=0)
    return DisparityTrace(window_us=window_us, d_mean=d_mean, d_min=d_min, d_max=d_max, n_joints=n_vis.astype(np.int64))


# ---------------------------------------------------------------- file I/O


def read_marker_csv(path: str) -> list[MarkerTrack3D]:
    """One track per joint, by name; its samples by time, in file order at equal times."""
    rows = read_csv(path, MARKER_CSV_HEADER, "marker")
    t = rows.ints(0, "timestamp")
    xyz = np.column_stack([rows.floats(j, name) for j, name in ((2, "X_mm"), (3, "Y_mm"), (4, "Z_mm"))])
    rows.finish()
    joints = rows.column(1)
    samples: dict[str, list[int]] = {}
    for i in np.argsort(t, kind="stable").tolist():
        samples.setdefault(joints[i], []).append(i)
    return [MarkerTrack3D(joint=joint, t=t[samples[joint]], xyz=xyz[samples[joint]]) for joint in sorted(samples)]


def read_calibration_json(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Calibration file: {"left": 3x4 nested list, "right": 3x4 nested list}
    of finite numbers, in UTF-8."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InputError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected an object with keys 'left' and 'right', got {_clip(data)}")
    return _projection_matrix(path, data, "left"), _projection_matrix(path, data, "right")


def _projection_matrix(path: str, data: dict, key: str) -> np.ndarray:
    if key not in data:
        raise InputError(f"{path}: missing projection matrix '{key}'")
    rows = data[key]
    if not (isinstance(rows, list) and len(rows) == 3 and all(isinstance(r, list) and len(r) == 4 for r in rows)):
        raise InputError(f"{path}: {key}: projection matrix must be 3 rows of 4 numbers, got {_clip(rows)}")
    if not all(type(v) in (int, float) for r in rows for v in r):
        raise InputError(f"{path}: {key}: projection matrix entries must be numbers, got {_clip(rows)}")
    try:
        P = np.array(rows, dtype=np.float64)
        finite = np.isfinite(P).all()
    except OverflowError:  # an integer beyond float64
        finite = False
    if not finite:
        raise InputError(f"{path}: {key}: projection matrix entries must be finite, got {_clip(rows)}")
    return P


def _clip(value, limit: int = 80) -> str:
    text = json.dumps(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def write_trace_csv(trace: DisparityTrace, path: str) -> None:
    """One row per window; the d cells are empty where no joint is visible."""
    centers = window_center_labels(trace.n_windows, trace.window_us)
    d = (np.where(trace.n_joints > 0, v, np.nan) for v in (trace.d_mean, trace.d_min, trace.d_max))
    window = np.arange(trace.n_windows)
    write_csv(path, TRACE_CSV_HEADER, [window, (centers, window), *d, trace.n_joints])


def read_trace_csv(path: str) -> DisparityTrace:
    """``window_i`` runs 0, 1, 2, ... with each window's centre; a row with an
    empty ``d_mean`` has no ground truth, and its later cells are not read."""
    rows = read_csv(path, TRACE_CSV_HEADER, "trace")
    window = rows.ints(0, "window_i")
    centers = rows.floats(1, "t_center_us")
    known = np.array([cell != "" for cell in rows.column(2)], dtype=bool)
    d_mean, d_min, d_max = (rows.floats(j, name, known) for j, name in ((2, "d_mean"), (3, "d_min"), (4, "d_max")))
    n_joints = rows.ints(5, "n_joints", known)
    rows.check(window != np.arange(rows.n), lambda i: f"window_i must be {i}, got {rows.column(0)[i]!r}")
    twice = float(centers[0]) * 2 if rows.n else 0.0
    window_us = max(1, round(twice)) if math.isfinite(twice) else 1
    rows.check(
        centers != window_centers_us(rows.n, window_us),
        lambda i: f"t_center_us must be {window_center_labels(i + 1, window_us)[i]}, the centre of window {i} "
        f"of {window_us}us, got {rows.column(1)[i]!r}",
    )
    rows.finish()
    return DisparityTrace(window_us=window_us, d_mean=d_mean, d_min=d_min, d_max=d_max, n_joints=n_joints)
