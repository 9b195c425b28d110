"""Shared test oracles.

`membrane_trace` and `reference_simulate` re-implement the documented neuron
semantics by independent means (kernel superposition and 1-microsecond
stepping respectively); they deliberately share no code with the event-driven
engine so they can serve as oracles for it.

`oracle_matches` enumerates every binocular match of a stream by brute
force, the reference for the coincidence detectors.

`without_kernel` runs the numpy and Python references that stand in for the
compiled kernels on hosts without a compiler.
"""

import contextlib
import json
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from evstereo import _native
from evstereo.events import LEFT, RIGHT, DvsEvent, StereoEventStream
from evstereo.metrics import MetricsReport
from evstereo.simulator import LifParams, window_count
from evstereo.topology import Population, Topology


@contextlib.contextmanager
def without_kernel():
    """Inside the block, callers of ``_native.kernel`` see no compiled library."""
    with mock.patch.object(_native, "kernel", lambda: None):
        yield


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
