"""Workload inputs for the benchmark, generated from a seed.

Each ``make_*`` function writes the config files (and, for ``recording``, the
event, marker and calibration files) into a work directory and returns a
``Workload``. Every path inside a config is relative to that directory, so
the config echoed into ``metrics.json`` is the same on every repetition and
in every checkout.

Both workloads use the 16x16 retina with ``d_max=7`` (9,344 neurons,
133,504 synapses).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

D_MAX = 7
WINDOW_US = 50_000


@dataclass
class Workload:
    name: str
    configs: list[str]  # config files, relative to the work directory
    out_dirs: list[str]  # output_dir of each config, same order
    jobs: int  # --jobs of the measured runs; traced runs are serial
    raw_events: int | None  # raw input rows, or None to take input_events from metrics.json


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _synthetic_config(label: str, out: str, seed: int, synthetic: dict, duration_us: int) -> dict:
    return {
        "seed": seed,
        "sample_label": label,
        "output_dir": out,
        "input": {"synthetic": synthetic, "duration_us": duration_us},
        "topology": {"retina_width": 16, "retina_height": 16, "d_max": D_MAX},
        "analysis": {"window_us": WINDOW_US, "eps_d": 1.0},
    }


# ---------------------------------------------------------------- cloud

CLOUD_CONFIGS = 4
CLOUD_DURATION_US = 100_000


def make_cloud(workdir: str, seed: int) -> Workload:
    """Dense, ambiguous CLOUD stimuli: 12 rows x 4 dots with the disparity
    ramping from -3 to +3, as one batch of four configs with ``--jobs 2``.
    ``simulate`` dominates the run; per-config fixed costs (topology build,
    engine set-up, artifact writes) and the process pool make up the rest.
    Readout quality depends strongly on where the dots fall, so the four
    configs are four seeded dot layouts and the quality is their mean."""
    rng = np.random.default_rng([seed, 2])
    configs, outs = [], []
    for i in range(CLOUD_CONFIGS):
        out = f"out/c{i}"
        name = f"cloud_{i}.json"
        synthetic = {
            "shape": "CLOUD",
            "keyframes": [[0, -3.0], [CLOUD_DURATION_US, 3.0]],
            "y": 2,
            "height": 12,
            "dots_per_row": 4,
            "rate_hz": 600.0,
            "jitter_sigma_us": 300.0,
        }
        cfg = _synthetic_config(f"cloud-{i}", out, int(rng.integers(0, 2**31)), synthetic, CLOUD_DURATION_US)
        _write_json(os.path.join(workdir, name), cfg)
        configs.append(name)
        outs.append(out)
    return Workload("cloud", configs, outs, jobs=2, raw_events=None)


# ---------------------------------------------------------------- recording

FULL_W, FULL_H = 346, 260
DOWNSCALE = 6
CROP_ORIGIN = (20, 14)  # downscaled pixels; full-res window x 120..215, y 84..179
REC_DURATION_US = 1_000_000
FOCAL_PX = 300.0
BASELINE_MM = 60.0
CX, CY = 173.0, 132.0
MASK_RECT = (0, 0, 32, 24)  # full-res rectangle holding the IR sync LED
MARKER_START_US = 50_000


def _edge_draws(rng, n_steps, pixels, rate_hz):
    """Firing draws of an edge: at every 1 ms step each edge pixel fires with
    probability rate/1000. Returns (step index, pixel, polarity) per draw, so
    that both cameras can share them."""
    fire = rng.random((n_steps, len(pixels))) < rate_hz * 1e-3
    si, pi = np.nonzero(fire)
    return si, np.asarray(pixels)[pi], rng.integers(0, 2, len(si))


def _target_u_left(t_s):
    return 150.0 + 20.0 * np.sin(2 * np.pi * 1.0 * t_s + 1.0)


def _target_disparity(t_s):
    return 15.0 + 9.0 * np.sin(2 * np.pi * 1.5 * t_s + 2.0)


def _jitter(rng, t, sigma, t_max):
    j = np.clip(rng.normal(0.0, sigma, len(t)), -3 * sigma, 3 * sigma)
    return np.clip(t + np.round(j).astype(np.int64), 0, t_max)


def generate_recording(seed: int):
    """Full-resolution stereo recording of one vertical edge (the tracked
    target) moving in depth, plus what the preprocessing stages remove:

    - a blinking IR sync LED inside ``MASK_RECT`` (dropped by the mask);
    - two hot pixels per side firing at 2 kHz (hot-pixel removal);
    - uniform background activity, ~75 k events per side (background filter);
    - a distractor edge sweeping the bottom rows, outside the crop window,
      whose lowest rows fall in the 346x260 -> 57x43 remainder strip
      (downscale drops those, crop drops the rest).

    The target's 3D path is given in millimetres; the calibration holds the
    pinhole matrices P = K [I | t] that map it onto the edge's columns in
    each camera, so the projected markers agree with the events.
    Returns (left_rows, right_rows, marker_rows, calibration).
    """
    rng = np.random.default_rng([seed, 1])
    dur = REC_DURATION_US
    steps = np.arange(0, dur, 1000, dtype=np.int64)
    ts = steps * 1e-6

    # target: image column in the left view and disparity in full-res px;
    # the path is fixed so that readout quality varies little with the seed
    u_left = _target_u_left(ts)
    d_full = _target_disparity(ts)
    rows = list(range(int(CY) - 6, int(CY)))  # one downscaled row
    si, ry, pol = _edge_draws(rng, len(steps), rows, 300.0)
    t_base = steps[si]
    off = rng.integers(0, 2, len(si))  # the edge is two pixels wide
    xl = np.round(u_left[si]).astype(np.int64) + off
    xr = np.round(u_left[si] + d_full[si]).astype(np.int64) + off
    left = [(_jitter(rng, t_base, 300.0, dur), xl, ry, pol)]
    right = [(_jitter(rng, t_base, 300.0, dur), xr, ry, pol)]

    # distractor: horizontal edge moving through rows 239..259 at x 20..79
    y_dist = 249.0 + 10.0 * np.sin(2 * np.pi * 1.2 * ts)
    cols = list(range(20, 80))
    si, cx, pol = _edge_draws(rng, len(steps), cols, 150.0)
    yy = np.clip(np.round(y_dist[si]).astype(np.int64), 0, FULL_H - 1)
    for side in (left, right):
        side.append((_jitter(rng, steps[si], 300.0, dur), cx, yy, pol))

    # IR sync LED: a 3x3 block flashing at 100 Hz, both polarities per flash
    flashes = np.arange(0, dur, 10_000, dtype=np.int64)
    for side in (left, right):
        bx, by = int(rng.integers(4, 26)), int(rng.integers(4, 18))
        px = np.array([bx + dx for dx in (-1, 0, 1) for _ in (-1, 0, 1)])
        py = np.array([by + dy for _ in (-1, 0, 1) for dy in (-1, 0, 1)])
        for p_val, lag in ((1, 0), (0, 2000)):
            t = np.repeat(flashes + lag, 9)
            side.append((_jitter(rng, t, 100.0, dur), np.tile(px, len(flashes)), np.tile(py, len(flashes)),
                         np.full(len(t), p_val)))

    # hot pixels and background activity, independent per side
    for side in (left, right):
        for _ in range(2):
            hx, hy = int(rng.integers(220, FULL_W)), int(rng.integers(30, FULL_H))  # right of the crop
            t = np.sort(rng.integers(0, dur, 2000))
            side.append((t, np.full(len(t), hx), np.full(len(t), hy), rng.integers(0, 2, len(t))))
        n = 75_000
        side.append((rng.integers(0, dur, n), rng.integers(0, FULL_W, n), rng.integers(0, FULL_H, n),
                     rng.integers(0, 2, n)))

    def rows_of(parts):
        t = np.concatenate([p[0] for p in parts])
        x = np.concatenate([p[1] for p in parts])
        y = np.concatenate([p[2] for p in parts])
        p = np.concatenate([p[3] for p in parts])
        keep = (x >= 0) & (x < FULL_W) & (y >= 0) & (y < FULL_H)
        order = np.argsort(t[keep], kind="stable")  # cameras write in time order
        return t[keep][order], x[keep][order], y[keep][order], p[keep][order]

    # markers: the target centre, sampled at 100 Hz, from the same path.
    # Motion capture starts after the first analysis window, so the
    # network's start-up transient, which varies with the seed, is not scored.
    t_m = np.arange(MARKER_START_US, dur + 1, 10_000, dtype=np.int64)
    tm_s = t_m * 1e-6
    z = FOCAL_PX * BASELINE_MM / _target_disparity(tm_s)
    x = (_target_u_left(tm_s) - CX) * z / FOCAL_PX
    markers = [(int(t), "target", float(xx), 0.0, float(zz)) for t, xx, zz in zip(t_m, x, z)]

    k = np.array([[FOCAL_PX, 0.0, CX], [0.0, FOCAL_PX, CY], [0.0, 0.0, 1.0]])
    p_left = k @ np.hstack([np.eye(3), np.zeros((3, 1))])
    p_right = k @ np.hstack([np.eye(3), np.array([[BASELINE_MM], [0.0], [0.0]])])
    calibration = {"left": p_left.tolist(), "right": p_right.tolist()}
    return rows_of(left), rows_of(right), markers, calibration


def _write_side_csv(path: str, cols) -> int:
    t, x, y, p = cols
    body = "\n".join(f"{a},{b},{c},{d}" for a, b, c, d in zip(t.tolist(), x.tolist(), y.tolist(), p.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,x,y,p\n" + body + "\n")
    return len(t)


def make_recording(workdir: str, seed: int) -> Workload:
    """Full-resolution 346x260 left/right CSVs plus markers and calibration,
    run with every preprocessing stage on. Parsing and filtering dominate;
    the network sees only the small cropped remainder."""
    left, right, markers, calibration = generate_recording(seed)
    n = _write_side_csv(os.path.join(workdir, "left.csv"), left)
    n += _write_side_csv(os.path.join(workdir, "right.csv"), right)
    with open(os.path.join(workdir, "markers.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,joint,X_mm,Y_mm,Z_mm\n")
        fh.write("".join(f"{t},{j},{x!r},{y!r},{z!r}\n" for t, j, x, y, z in markers))
    _write_json(os.path.join(workdir, "calibration.json"), calibration)
    cfg = {
        "seed": seed,
        "sample_label": "recording",
        "output_dir": "out",
        "input": {
            "left_events": "left.csv",
            "right_events": "right.csv",
            "markers": "markers.csv",
            "calibration": "calibration.json",
        },
        "preprocess": {
            "mask_rects": [list(MASK_RECT)],
            # the median pixel holds one noise event; factor 50 flags the
            # 2 kHz hot pixels but not the target's pixels where it turns
            "hot_pixel_factor": 50.0,
            "background_window_us": 5000,
            "background_radius": 1,
            "downscale_factor": DOWNSCALE,
            "crop_origin": list(CROP_ORIGIN),
            "crop_size": [16, 16],
        },
        "topology": {"retina_width": 16, "retina_height": 16, "d_max": D_MAX},
        "analysis": {"window_us": WINDOW_US, "eps_d": 1.0},
    }
    _write_json(os.path.join(workdir, "recording.json"), cfg)
    return Workload("recording", ["recording.json"], ["out"], jobs=1, raw_events=n)


MAKERS = {"cloud": make_cloud, "recording": make_recording}
