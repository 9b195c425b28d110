"""Shared test oracles.

`membrane_trace` and `reference_simulate` re-implement the documented neuron
semantics by independent means (kernel superposition and 1-microsecond
stepping respectively); they deliberately share no code with the event-driven
engine so they can serve as oracles for it.

`oracle_matches` enumerates every binocular match of a stream by brute
force, the reference for the coincidence detectors.

`without_kernel` runs the numpy and Python references that stand in for the
compiled kernels on hosts without a compiler.

`id_of` is the id of a coincidence or disparity coordinate, the inverse of
``Topology.coord_of`` that only tests need.

`flagged_pixels` and `pixel_flags` turn the per-pixel flags of the hot-pixel
stage into a set of ``(x, y, side)`` and back, so that tests compare sets.

`two_step_projection` is the reference for ``project_markers``: the marker
projection into the full frame, then downscaled and cropped in a second
step, as the pipeline once computed it.

`split_rows` and `union_of_runs` state the row decomposition: rules R1-R4
connect only neurons of one retina row, so a run equals the union of the
runs on each row's events. `shifted`, `mirrored` and `transplanted` are the
other input maps that the network commutes with, and `spike_coords` names
its spikes by coordinate, so that runs on two topologies compare.
"""

import contextlib
import json
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from evstereo import _native
from evstereo.events import LEFT, RIGHT, CameraGeometry, DvsEvent, StereoEventStream
from evstereo.metrics import MetricsReport
from evstereo.simulator import LifParams, window_count
from evstereo.topology import NeuronCoord, Population, Topology


@contextlib.contextmanager
def without_kernel():
    """Inside the block, callers of ``_native.kernel`` see no compiled library."""
    with mock.patch.object(_native, "kernel", lambda: None):
        yield


def split_rows(stream: StereoEventStream) -> list[StereoEventStream]:
    """The events of each row that has any, one stream per row."""
    return [stream.select(stream.y == y) for y in np.unique(stream.y).tolist()]


def union_of_runs(runs) -> tuple[np.ndarray, np.ndarray, int]:
    """The (spike times, spike ids, deliveries) of several runs as one run:
    the spikes in ``(t, nid)`` order and the deliveries summed."""
    times = np.concatenate([np.zeros(0, dtype=np.int64), *(r[0] for r in runs)])
    ids = np.concatenate([np.zeros(0, dtype=np.int64), *(r[1] for r in runs)])
    order = np.lexsort((ids, times))
    return times[order], ids[order], sum(r[2] for r in runs)


def shifted(stream: StereoEventStream, dt: int) -> StereoEventStream:
    """Every event ``dt`` microseconds later."""
    return StereoEventStream(stream.t + dt, stream.x, stream.y, stream.p, stream.side, stream.geometry)


def mirrored(stream: StereoEventStream) -> StereoEventStream:
    """The stream seen in a mirror: sides swapped and ``x -> W - 1 - x``.
    A match ``(d, x_cyc)`` becomes ``(d, 2 (W - 1) - x_cyc)``."""
    x = stream.geometry.width - 1 - stream.x
    return StereoEventStream(stream.t, x, stream.y, stream.p, 1 - stream.side, stream.geometry)


def transplanted(row: StereoEventStream) -> StereoEventStream:
    """The events of one row, moved to row 0 of a one-row retina."""
    geometry = CameraGeometry(row.geometry.width, 1)
    return StereoEventStream(row.t, row.x, np.zeros_like(row.y), row.p, row.side, geometry)


def spike_coords(topology: Topology, times: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Each spike as a row (t, population, channel, d, x_cyc, y), which
    names it on any topology that holds its coordinate."""
    pop = topology.pop_code[ids].astype(np.int64)
    first = np.array([topology.offsets[p] for p in Population])[pop]
    channel = np.where(pop == Population.DISPARITY, 0, (ids - first) // topology.n_triplets)
    return np.stack([times, pop, channel, topology.d[ids], topology.x_cyc[ids], topology.y[ids]], axis=1)


def id_of(topology: Topology, population: Population, coord: NeuronCoord, channel: int = 0) -> int:
    """The id of the ``population`` neuron at ``coord`` on ``channel``;
    KeyError where the topology has none."""
    if population not in (Population.COINC_EXC, Population.COINC_INH, Population.DISPARITY):
        raise KeyError(f"id_of expects a coincidence/disparity population, got {population}")
    cell = (coord.d + topology.d_max, coord.y, coord.x_cyc)
    index = topology._index
    idx = int(index[cell]) if all(0 <= i < n for i, n in zip(cell, index.shape)) else -1
    if idx < 0:
        raise KeyError(f"coordinate {(coord.x_cyc, coord.y, coord.d)} (x_cyc, y, d) not in topology")
    if population is Population.DISPARITY:
        if channel != 0:
            raise KeyError("disparity population has a single channel")
        return topology.offsets[population] + idx
    if not 0 <= channel < topology.n_channels:
        raise KeyError(f"channel {channel} out of range")
    return topology.offsets[population] + channel * topology.n_triplets + idx


def flagged_pixels(flags: np.ndarray, geometry: CameraGeometry) -> set[tuple[int, int, int]]:
    """The ``(x, y, side)`` of every flagged pixel of the two frames."""
    side, pixel = np.divmod(np.flatnonzero(flags), geometry.width * geometry.height)
    y, x = np.divmod(pixel, geometry.width)
    return set(zip(x.tolist(), y.tolist(), side.tolist()))


def pixel_flags(pixels, geometry: CameraGeometry) -> np.ndarray:
    """One flag per pixel of the two frames, set at each ``(x, y, side)``."""
    flags = np.zeros((2, geometry.height, geometry.width), dtype=bool)
    for x, y, side in pixels:
        flags[side, y, x] = True
    return flags.ravel()


def two_step_projection(track, P: np.ndarray, factor: int, origin, size):
    """(uv, visible) of a ``MarkerTrack3D`` in two steps: projected into the
    full frame (NaN and invalid where ``w' <= 0``), then divided by
    ``factor``, shifted by ``origin`` and checked against the crop of
    ``size``."""
    n = len(track.t)
    proj = np.hstack([track.xyz, np.ones((n, 1))]) @ np.asarray(P, dtype=np.float64).T
    wprime = proj[:, 2]
    valid = wprime > 0
    uv = np.full((n, 2), np.nan)
    uv[valid] = proj[valid, :2] / wprime[valid, None]
    uv = uv / factor - np.array(origin, dtype=np.float64)
    w, h = size
    visible = valid & ~np.isnan(uv[:, 0])
    inside = (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0) & (uv[:, 1] < h)
    visible &= np.where(np.isnan(uv[:, 0]), False, inside)
    return uv, visible


def event_sort_key(e: DvsEvent) -> tuple[int, int, int, int, int]:
    """The canonical order of a ``StereoEventStream``, event by event."""
    return (e.t, e.side, e.y, e.x, e.polarity)


def read_report(path: str) -> MetricsReport:
    """The ``MetricsReport`` of a written ``metrics.json``."""
    with open(path, "r", encoding="utf-8") as fh:
        return MetricsReport(**json.load(fh))


def kernel_gain(tau_m: float, tau_s: float) -> float:
    if tau_m == tau_s:
        return math.e / tau_m
    a = tau_m * tau_s / (tau_m - tau_s)
    t_star = math.log(tau_m / tau_s) * a
    return 1.0 / (a * (math.exp(-t_star / tau_m) - math.exp(-t_star / tau_s)))


def epsp_kernel(dt: float, tau_m: float, tau_s: float) -> float:
    """Peak-normalized response at dt after a unit-weight input spike."""
    if dt < 0:
        return 0.0
    g = kernel_gain(tau_m, tau_s)
    if tau_m == tau_s:
        return g * dt * math.exp(-dt / tau_m)
    a = tau_m * tau_s / (tau_m - tau_s)
    return g * a * (math.exp(-dt / tau_m) - math.exp(-dt / tau_s))


def membrane_trace(arrivals, tau_m, tau_s, t_grid):
    """Superposed membrane trace (no reset): arrivals = [(t, weight), ...]."""
    return np.array(
        [sum(w * epsp_kernel(t - ta, tau_m, tau_s) for ta, w in arrivals) for t in t_grid]
    )


def first_crossing_us(arrivals, tau_m, tau_s, theta, horizon_us):
    """First integer microsecond at which the superposed trace reaches theta."""
    for t in range(0, horizon_us + 1):
        v = sum(w * epsp_kernel(t - ta, tau_m, tau_s) for ta, w in arrivals if ta <= t)
        if v >= theta:
            return t
    return None


def reference_simulate(topology: Topology, stream, params: LifParams, horizon_us: int):
    """1-microsecond-stepped reference implementation of the neuron model.

    Exact exponential decay per step; spike condition checked at every
    integer microsecond; deliveries (external and from same-step spikes)
    apply after the step's spike check, mirroring the current-based rule
    that an arrival at t cannot influence v(t).
    """
    n = topology.n_neurons
    pops = [topology.population_of(i) for i in range(n)]
    pp = {p: params.for_population(p) for p in Population}
    tau_m = np.array([pp[p].tau_m for p in pops])
    tau_s = np.array([pp[p].tau_s for p in pops])
    gain = np.array([kernel_gain(pp[p].tau_m, pp[p].tau_s) for p in pops])
    theta = np.array([pp[p].threshold for p in pops])
    reset = np.array([pp[p].reset for p in pops])
    refr = np.array([pp[p].refractory_us for p in pops])
    floor = np.array([pp[p].v_floor for p in pops])

    dm = np.exp(-1.0 / tau_m)
    ds = np.exp(-1.0 / tau_s)
    equal = tau_m == tau_s
    # one-step update v' = (v - c*s)*dm + c*s*ds for distinct taus
    c = np.where(equal, 0.0, gain * tau_m * tau_s / np.where(equal, 1.0, tau_s - tau_m))

    v = np.zeros(n)
    s = np.zeros(n)
    refr_until = np.full(n, -1, dtype=np.int64)

    # synapse tables grouped by presynaptic neuron
    syn_by_pre: dict[int, list[int]] = {}
    for k in range(topology.n_synapses):
        syn_by_pre.setdefault(int(topology.syn_pre[k]), []).append(k)
    sat_value = np.zeros(topology.n_synapses)
    sat_time = np.zeros(topology.n_synapses, dtype=np.int64)

    events_at: dict[int, list[int]] = {}
    separated = topology.n_channels == 2
    for i in range(len(stream)):
        rid = topology.id_of_retina(
            int(stream.side[i]), int(stream.x[i]), int(stream.y[i]),
            int(stream.p[i]) if separated else 0,
        )
        events_at.setdefault(int(stream.t[i]), []).append(rid)

    def deliver(pre: int, t: int) -> None:
        for k in syn_by_pre.get(pre, ()):
            post = int(topology.syn_post[k])
            w = float(topology.syn_weight[k]) * int(topology.syn_sign[k])
            if topology.syn_saturating[k]:
                lingering = sat_value[k] * math.exp(-(t - sat_time[k]) / tau_s[post])
                s[post] += w - lingering
                sat_value[k] = w
                sat_time[k] = t
            else:
                s[post] += w

    spikes = []
    for t in range(0, horizon_us + 1):
        can_fire = (v >= theta) & (t >= refr_until)
        for nid in np.flatnonzero(can_fire):
            spikes.append((t, int(nid)))
            v[nid] = reset[nid]
            refr_until[nid] = t + refr[nid]
        for nid in np.flatnonzero(can_fire):
            deliver(int(nid), t)
        for rid in events_at.get(t, ()):
            deliver(rid, t)
        # advance t -> t+1
        v_next = np.where(equal, (v + gain * s) * dm, (v - c * s) * dm + c * s * ds)
        v = np.where(t + 1 <= refr_until, reset, np.maximum(v_next, floor))
        s = s * ds
    return spikes


@dataclass(frozen=True)
class OracleMatch:
    left_index: int
    right_index: int
    dt_us: int  # t_right - t_left
    disparity: int  # x_right - x_left
    y: int


def oracle_matches(
    stream: StereoEventStream,
    window_us: int,
    analysis_window_us: int,
    n_windows: int | None = None,
) -> tuple[list[OracleMatch], np.ndarray, int]:
    """Exhaustively enumerate binocular matches: every (LEFT, RIGHT) event
    pair with equal y and |dt| <= window is a match.

    Returns (matches, histogram, d_offset): histogram[window, d + d_offset]
    counts matches binned by the midpoint of the pair's timestamps.
    """
    if window_us <= 0:
        raise ValueError("window must be > 0")
    if n_windows is None:
        n_windows = window_count(stream.duration, analysis_window_us)
    w = stream.geometry.width
    d_offset = w - 1
    hist = np.zeros((n_windows, 2 * w - 1), dtype=np.int64)
    matches: list[OracleMatch] = []

    left_idx = np.flatnonzero(stream.side == LEFT)
    right_idx = np.flatnonzero(stream.side == RIGHT)
    by_row_left: dict[int, np.ndarray] = {}
    by_row_right: dict[int, np.ndarray] = {}
    for y in np.unique(stream.y):
        by_row_left[int(y)] = left_idx[stream.y[left_idx] == y]
        by_row_right[int(y)] = right_idx[stream.y[right_idx] == y]

    for y, lids in by_row_left.items():
        rids = by_row_right.get(y)
        if rids is None or len(rids) == 0:
            continue
        rt = stream.t[rids]
        lo_ptr = 0
        hi_ptr = 0
        for li in lids:
            tl = int(stream.t[li])
            while lo_ptr < len(rids) and rt[lo_ptr] < tl - window_us:
                lo_ptr += 1
            if hi_ptr < lo_ptr:
                hi_ptr = lo_ptr
            while hi_ptr < len(rids) and rt[hi_ptr] <= tl + window_us:
                hi_ptr += 1
            for k in range(lo_ptr, hi_ptr):
                ri = int(rids[k])
                dt = int(stream.t[ri]) - tl
                disp = int(stream.x[ri]) - int(stream.x[li])
                matches.append(OracleMatch(int(li), ri, dt, disp, int(y)))
                wi = ((tl + int(stream.t[ri])) // 2) // analysis_window_us
                if 0 <= wi < n_windows:
                    hist[wi, disp + d_offset] += 1
    return matches, hist, d_offset


def oracle_disparity_estimate(hist: np.ndarray, d_offset: int) -> np.ndarray:
    """Count-weighted mean disparity per analysis window; NaN when empty."""
    d_values = np.arange(hist.shape[1], dtype=np.float64) - d_offset
    totals = hist.sum(axis=1)
    out = np.full(hist.shape[0], np.nan)
    nz = totals > 0
    out[nz] = (hist[nz] @ d_values) / totals[nz]
    return out
