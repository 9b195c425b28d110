"""Exact event-driven simulation of current-based LIF neurons over the
stereo topology.

Model per neuron: a single signed synaptic drive s decays with tau_s; the
membrane v leaks with tau_m and integrates g*s, where the gain g normalizes
a lone EPSP of weight w to peak exactly at w. Between events both evolve in
closed form, so there is no time-step discretization anywhere. Additive
synapses add their weight to s on delivery; saturating synapses (retina to
coincidence) re-arm their own decayed contribution to exactly w, which caps
any single afferent's drive at one EPSP regardless of its firing rate.

Threshold crossings are predicted analytically: v(dt) is a two-exponential
(or critically damped) curve with at most one interior maximum, so the first
integer microsecond with v >= theta is found by closed-form argmax plus
integer bisection. Spikes are stamped at that microsecond; simultaneous
crossings and zero-delay cascades resolve in ascending neuron id, giving
bit-identical spike records for identical inputs.

The event loop runs compiled: ``_engine.c`` is built with the system ``cc``
on the first call and cached in this package's ``__pycache__/`` (see
``_native``). It performs the operations of ``_Engine`` in the same order
and calls the same libm ``exp``/``log`` (a decay over fewer than 2**16
microseconds comes from a table of exactly those ``exp`` values); compiled
with ``-ffp-contract=off`` and without ``-ffast-math``, it rounds exactly as
CPython does, so its spikes are bit-identical. Without a compiler, or in the
corner cases only Python arithmetic reproduces (a time beyond int64, a float
division by zero), ``simulate`` runs ``_Engine``, the Python loop, which is
also the reference the tests compare the compiled loop against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import repeat

import numpy as np

from .events import StereoEventStream, read_csv, write_csv
from .topology import Population, Topology

SPIKE_CSV_HEADER = "t_us,neuron_id,population"


@dataclass(repr=False, eq=False)
class NeuronParams:
    """Resolved LIF parameters of one population."""

    tau_m: float
    tau_s: float
    threshold: float
    reset: float
    refractory_us: int
    v_floor: float

    def validate(self) -> None:
        if not (self.tau_m > 0 and self.tau_s > 0):
            raise ValueError("tau_m and tau_s must be > 0")
        if not all(map(math.isfinite, (self.tau_m, self.tau_s, self.threshold, self.reset, self.v_floor))):
            raise ValueError("non-finite neuron parameter")
        if not self.threshold > self.reset:
            raise ValueError("threshold must exceed reset")
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.refractory_us < 0:
            raise ValueError("refractory must be >= 0")
        if self.v_floor >= self.threshold:
            raise ValueError("v_floor must lie below threshold")

    @property
    def gain(self) -> float:
        """Drive gain normalizing a unit-weight EPSP to unit peak."""
        tm, ts = self.tau_m, self.tau_s
        if tm == ts:
            return math.e / tm
        a = tm * ts / (tm - ts)
        t_star = math.log(tm / ts) * a
        return 1.0 / (a * (math.exp(-t_star / tm) - math.exp(-t_star / ts)))


@dataclass(repr=False, eq=False)
class LifParams:
    """Base LIF parameters plus optional per-population overrides.

    The defaults give coincidence neurons a fast membrane with slow
    saturating retinal synapses (so one eye alone can never fire them) and
    disparity neurons a slower integrating membrane.
    """

    tau_m: float = 2000.0
    tau_s: float = 10000.0
    threshold: float = 1.0
    reset: float = 0.0
    refractory_us: int = 1000
    v_floor: float = -1.0
    overrides: dict[Population, dict[str, float]] = field(
        default_factory=lambda: {Population.DISPARITY: {"tau_m": 10000.0, "tau_s": 5000.0}}
    )

    def for_population(self, population: Population) -> NeuronParams:
        values = {
            "tau_m": self.tau_m,
            "tau_s": self.tau_s,
            "threshold": self.threshold,
            "reset": self.reset,
            "refractory_us": self.refractory_us,
            "v_floor": self.v_floor,
        }
        values.update(self.overrides.get(population, {}))
        if values["refractory_us"] != int(values["refractory_us"]):
            raise ValueError(f"refractory_us must be an integer, got {values['refractory_us']}")
        params = NeuronParams(
            tau_m=float(values["tau_m"]),
            tau_s=float(values["tau_s"]),
            threshold=float(values["threshold"]),
            reset=float(values["reset"]),
            refractory_us=int(values["refractory_us"]),
            v_floor=float(values["v_floor"]),
        )
        params.validate()
        return params


@dataclass(repr=False, eq=False)
class MismatchModel:
    """Optional seeded emulation of analog device mismatch: multiplicative
    Gaussian jitter on synaptic weights and per-neuron thresholds."""

    seed: int = 0
    weight_sigma: float = 0.0
    threshold_sigma: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.weight_sigma > 0 or self.threshold_sigma > 0

    def validate(self) -> None:
        for name in ("weight_sigma", "threshold_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


@dataclass(repr=False, eq=False)
class SpikeRecord:
    """The spikes of a run, in ``(t, neuron_id)`` order, and its counters."""

    times: np.ndarray  # int64, sorted by (t, neuron_id)
    neuron_ids: np.ndarray  # int64
    populations: np.ndarray  # int8 Population codes, parallel to times
    duration_us: int
    input_events: int
    deliveries: int

    def __len__(self) -> int:
        return len(self.times)

    @property
    def counts(self) -> dict[Population, int]:
        """Spikes of each coincidence and disparity population, in that order."""
        per_pop = np.bincount(self.populations, minlength=len(Population))
        return {p: int(per_pop[p]) for p in (Population.COINC_EXC, Population.COINC_INH, Population.DISPARITY)}


def window_count(duration_us: int, window_us: int) -> int:
    """Windows tiling [0, duration] so the final timestamp always lands in
    the last window."""
    if window_us <= 0:
        raise ValueError("window length must be > 0")
    return duration_us // window_us + 1


def window_centers_us(windows, window_us: int) -> np.ndarray:
    """The centre of each window of the window indices ``windows``."""
    return np.asarray(windows, dtype=np.float64) * window_us + window_us / 2


def window_center_labels(windows, window_us: int) -> list[str]:
    """The ``t_center_us`` cells of the CSV artifacts, one per index of ``windows``."""
    return list(map("{:.1f}".format, window_centers_us(windows, window_us).tolist()))


# ---------------------------------------------------------------- engine


class _Network:
    """Per-neuron parameters and the efferent adjacency (CSR) of one run, as
    numpy arrays: the set-up shared by the compiled and the Python loop."""

    def __init__(self, topology: Topology, params: LifParams, mismatch: MismatchModel | None):
        pop_params = [params.for_population(p) for p in Population]
        sizes = [topology.counts[p] for p in Population]  # the populations are contiguous id ranges

        def per_neuron(values, dtype=np.float64) -> np.ndarray:
            return np.repeat(np.array(values, dtype=dtype), sizes)

        self.tau_m = per_neuron([pp.tau_m for pp in pop_params])
        self.tau_s = per_neuron([pp.tau_s for pp in pop_params])
        # the distinct time constants, and each neuron's index into them
        taus = list(dict.fromkeys(tau for pp in pop_params for tau in (pp.tau_m, pp.tau_s)))
        self.taus = np.array(taus)
        self.tau_m_idx = per_neuron([taus.index(pp.tau_m) for pp in pop_params], np.int64)
        self.tau_s_idx = per_neuron([taus.index(pp.tau_s) for pp in pop_params], np.int64)
        self.gain = per_neuron([pp.gain for pp in pop_params])
        self.theta = per_neuron([pp.threshold for pp in pop_params])
        self.reset = per_neuron([pp.reset for pp in pop_params])
        self.refr = per_neuron([pp.refractory_us for pp in pop_params], np.int64)
        self.floor = per_neuron([pp.v_floor for pp in pop_params])
        self.equal_tau = per_neuron([pp.tau_m == pp.tau_s for pp in pop_params], bool)
        # g*tau_m*tau_s/(tau_s - tau_m) for the biexponential
        self.coef = per_neuron(
            [0.0 if pp.tau_m == pp.tau_s else pp.gain * pp.tau_m * pp.tau_s / (pp.tau_s - pp.tau_m) for pp in pop_params]
        )

        n = topology.n_neurons
        if mismatch is not None and mismatch.enabled:
            rng = np.random.default_rng(mismatch.seed)
            if mismatch.threshold_sigma > 0:
                jittered = self.theta * (1.0 + mismatch.threshold_sigma * rng.standard_normal(n))
                lowest = np.maximum(self.reset, 0.0) + 1e-9  # theta > max(reset, 0), as validate() requires
                self.theta = np.where(lowest > jittered, lowest, jittered)

        # the topology stores its synapses sorted by pre, in delivery order
        self.adj_post = topology.syn_post
        weights = topology.syn_weight * topology.syn_sign
        if mismatch is not None and mismatch.enabled and mismatch.weight_sigma > 0:
            rng_w = np.random.default_rng(mismatch.seed + 1)
            weights = weights * np.maximum(1.0 + mismatch.weight_sigma * rng_w.standard_normal(len(weights)), 0.0)
        self.adj_weight = weights
        self.adj_sat = topology.syn_saturating
        self.adj_start = topology.syn_start
        self.twins, self.twin_synapses = self._merged_twins(topology)

    def _merged_twins(self, topology: Topology) -> tuple[np.ndarray, np.ndarray]:
        """The coincidence twins the compiled loop runs as one neuron: rows
        (COINC_EXC id, COINC_INH id), and rows (synapse into the first,
        synapse into the second) pairing their inputs. A pair merges when its
        parameters are equal bit for bit and its inputs pair up: by structure
        (``Topology.twin_inputs``, once per topology) and in the weight bits
        of this run. Then both twins take the same deliveries at the same
        instants, and no spike reaches one of them between their spikes at
        one microsecond."""
        exc = topology.population_ids(Population.COINC_EXC)
        inh = exc + len(exc)
        synapses, pair_of, paired = topology.twin_inputs
        same = paired & (self.refr[exc] == self.refr[inh]) & (self.equal_tau[exc] == self.equal_tau[inh])
        for values in (self.tau_m, self.tau_s, self.gain, self.theta, self.reset, self.floor, self.coef):
            bits = values.view(np.uint64)
            same &= bits[exc] == bits[inh]
        weight = self.adj_weight.view(np.uint64)
        same[pair_of[weight[synapses[:, 0]] != weight[synapses[:, 1]]]] = False
        return np.stack([exc[same], inh[same]], axis=1), synapses[same[pair_of]]


class _Engine:
    """The event loop in Python: the engine on hosts without a C compiler,
    and the byte-equality reference for the compiled loop in the tests."""

    def __init__(self, net: _Network):
        # plain lists: fastest scalar access
        self.tau_m, self.tau_s, self.gain = net.tau_m.tolist(), net.tau_s.tolist(), net.gain.tolist()
        self.theta, self.reset_v = net.theta.tolist(), net.reset.tolist()
        self.refr, self.floor = net.refr.tolist(), net.floor.tolist()
        self.equal_tau, self.coef = net.equal_tau.tolist(), net.coef.tolist()
        self.adj_start, self.adj_post = net.adj_start.tolist(), net.adj_post.tolist()
        self.adj_weight, self.adj_sat = net.adj_weight.tolist(), net.adj_sat.tolist()

        # per-synapse state for saturating synapses (value at last arming time)
        m = len(self.adj_post)
        self.sat_value = [0.0] * m
        self.sat_time = [0] * m

        # neuron state
        n = len(self.tau_m)
        self.v = [0.0] * n
        self.s = [0.0] * n
        self.t_last = [0] * n
        self.refr_until = [-1] * n
        self.stamp = [0] * n

        self.deliveries = 0
        self.spike_t: list[int] = []
        self.spike_id: list[int] = []

    # -------------------------------------------------------- closed form

    def _v_at(self, nid: int, v0: float, s0: float, dt: float) -> float:
        """Membrane after dt with no further input (no floor, no refractory)."""
        if self.equal_tau[nid]:
            em = math.exp(-dt / self.tau_m[nid])
            return (v0 + self.gain[nid] * s0 * dt) * em
        a = self.coef[nid] * s0
        return (v0 - a) * math.exp(-dt / self.tau_m[nid]) + a * math.exp(-dt / self.tau_s[nid])

    def advance(self, nid: int, t: int) -> None:
        """Advance neuron state to time t, handling refractory pinning and
        the membrane floor at update instants."""
        t0 = self.t_last[nid]
        if t == t0:
            return
        ru = self.refr_until[nid]
        if ru > t0:
            tr = ru if ru < t else t
            self.s[nid] *= math.exp(-(tr - t0) / self.tau_s[nid])
            self.v[nid] = self.reset_v[nid]
            t0 = tr
        if t > t0:
            v = self._v_at(nid, self.v[nid], self.s[nid], t - t0)
            fl = self.floor[nid]
            self.v[nid] = v if v > fl else fl
            self.s[nid] *= math.exp(-(t - t0) / self.tau_s[nid])
        self.t_last[nid] = t

    def predict_crossing(self, nid: int) -> int | None:
        """Smallest integer t with v(t) >= theta absent further input, or
        None. For refractory neurons the search starts at the microsecond
        refractoriness ends, from the reset potential."""
        t0 = self.t_last[nid]
        ru = self.refr_until[nid]
        theta = self.theta[nid]
        if ru > t0:
            v0 = self.reset_v[nid]
            s0 = self.s[nid] * math.exp(-(ru - t0) / self.tau_s[nid])
            base = ru
        else:
            v0, s0, base = self.v[nid], self.s[nid], t0
        if v0 >= theta:
            return base
        g = self.gain[nid]
        tm, ts = self.tau_m[nid], self.tau_s[nid]
        # with a non-positive initial slope the trajectory either decays or
        # rises toward 0 from below; neither path reaches theta > max(v0, 0)
        if g * s0 - v0 / tm <= 0.0:
            return None
        # continuous argmax of the rising-then-falling trajectory
        if self.equal_tau[nid]:
            if s0 == 0.0:
                return None
            t_peak = tm - v0 / (g * s0)
        else:
            a = self.coef[nid] * s0
            b = v0 - a
            # v'(dt)=0  =>  exp(dt*(1/ts-1/tm)) = -(a*tm)/(b*ts)
            ratio = -(a * tm) / (b * ts) if b != 0.0 else 0.0
            if ratio <= 0.0:
                # no interior critical point: rising toward 0 from below
                return None
            t_peak = math.log(ratio) / (1.0 / ts - 1.0 / tm)
        if t_peak <= 0.0 or not math.isfinite(t_peak):
            return None
        kf = math.floor(t_peak)
        kc = kf + 1
        if self._v_at(nid, v0, s0, kf) >= theta:
            lo, hi = 1, kf  # v is monotone rising on [0, t_peak]
            while lo < hi:
                mid = (lo + hi) // 2
                if self._v_at(nid, v0, s0, mid) >= theta:
                    hi = mid
                else:
                    lo = mid + 1
            return base + lo
        if self._v_at(nid, v0, s0, kc) >= theta:
            return base + kc
        return None

    def run(self, ev_t: list[int], ev_src: list[int]) -> tuple[np.ndarray, np.ndarray, int]:
        """Deliver the input events in order; returns spike times, spike ids
        and the delivery count."""
        heap: list[tuple[int, int, int]] = []  # (t_pred, neuron_id, stamp)
        dirty: list[int] = []
        in_dirty = [False] * len(self.v)

        adj_start, adj_post = self.adj_start, self.adj_post
        adj_weight, adj_sat = self.adj_weight, self.adj_sat
        sat_value, sat_time = self.sat_value, self.sat_time
        tau_s = self.tau_s
        n_events = len(ev_t)

        def mark_dirty(nid: int) -> None:
            self.stamp[nid] += 1
            if not in_dirty[nid]:
                in_dirty[nid] = True
                dirty.append(nid)

        def deliver_from(pre: int, t: int) -> None:
            lo, hi = adj_start[pre], adj_start[pre + 1]
            for k in range(lo, hi):
                post = adj_post[k]
                self.advance(post, t)
                w = adj_weight[k]
                if adj_sat[k]:
                    lingering = sat_value[k] * math.exp(-(t - sat_time[k]) / tau_s[post])
                    self.s[post] += w - lingering
                    sat_value[k] = w
                    sat_time[k] = t
                else:
                    self.s[post] += w
                mark_dirty(post)
            self.deliveries += hi - lo

        i_evt = 0
        while True:
            if dirty:
                for nid in dirty:
                    in_dirty[nid] = False
                    pred = self.predict_crossing(nid)
                    if pred is not None:
                        heappush(heap, (pred, nid, self.stamp[nid]))
                dirty.clear()
            while heap and heap[0][2] != self.stamp[heap[0][1]]:
                heappop(heap)
            t_ext = ev_t[i_evt] if i_evt < n_events else None
            if heap and (t_ext is None or heap[0][0] <= t_ext):
                t_sp, nid, _ = heappop(heap)
                self.advance(nid, t_sp)
                # stamp matched, so the state is exactly the predicted one
                self.spike_t.append(t_sp)
                self.spike_id.append(nid)
                self.v[nid] = self.reset_v[nid]
                self.refr_until[nid] = t_sp + self.refr[nid]
                mark_dirty(nid)  # may cross again once refractoriness ends
                deliver_from(nid, t_sp)
            elif t_ext is not None:
                deliver_from(ev_src[i_evt], t_ext)
                i_evt += 1
            else:
                break
        return np.array(self.spike_t, dtype=np.int64), np.array(self.spike_id, dtype=np.int64), self.deliveries


def _input_ids(topology: Topology, stream: StereoEventStream) -> np.ndarray:
    """Retina neuron id of each input event; the stream's coordinates and
    polarities are already validated against a geometry equal to the retina."""
    channel = stream.p.astype(np.int64) if topology.n_channels == 2 else 0
    return (
        stream.side.astype(np.int64) * topology.n_retina_per_side
        + (channel * topology.retina_height + stream.y.astype(np.int64)) * topology.retina_width
        + stream.x
    )


def simulate(
    topology: Topology,
    stream: StereoEventStream,
    params: LifParams | None = None,
    mismatch: MismatchModel | None = None,
    duration_us: int | None = None,
) -> SpikeRecord:
    """Run the event-driven simulation and record every spike of every
    non-retina population."""
    if stream.geometry.width != topology.retina_width or stream.geometry.height != topology.retina_height:
        raise ValueError(
            f"stream geometry {stream.geometry.width}x{stream.geometry.height} does not match "
            f"retina {topology.retina_width}x{topology.retina_height}"
        )
    net = _Network(topology, params or LifParams(), mismatch)
    ev_src = _input_ids(topology, stream)

    from . import _native  # deferred, so that importing the package compiles and loads nothing

    lib = _native.kernel()
    result = _native.run(lib, net, stream.t, ev_src) if lib is not None else None
    if result is None:
        result = _Engine(net).run(stream.t.tolist(), ev_src.tolist())
    times, ids, deliveries = result

    dur = stream.duration if duration_us is None else duration_us
    if len(times):
        dur = max(dur, int(times.max()))
    return SpikeRecord(
        times=times,
        neuron_ids=ids,
        populations=topology.pop_code[ids],
        duration_us=dur,
        input_events=len(stream),
        deliveries=deliveries,
    )


# ---------------------------------------------------------------- rates


def instantaneous_rates(
    record: SpikeRecord, window_us: int, n_windows: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spike count of each (neuron, window) that holds spikes, over the
    windows [i*dt, (i+1)*dt): int64 columns ``(neuron_ids, windows, counts)``,
    sorted by neuron id, then window. Windows from ``n_windows`` on are
    dropped. Every neuron shares the window length, so a rate in Hz is
    ``counts / (window_us * 1e-6)``. One sort of the key ``id * n_windows +
    window``, which int64 holds while the neurons times the windows do."""
    if n_windows is None:
        n_windows = window_count(record.duration_us, window_us)
    windows = record.times // window_us
    keep = windows < n_windows  # spikes past the analysis horizon are dropped
    keys, counts = np.unique(record.neuron_ids[keep] * n_windows + windows[keep], return_counts=True)
    ids, windows = np.divmod(keys, n_windows)
    return ids, windows, counts


# ---------------------------------------------------------------- spike CSV


def write_spike_csv(record: SpikeRecord, path: str) -> None:
    write_csv(path, SPIKE_CSV_HEADER, [record.times, record.neuron_ids, (POPULATION_CODE_NAMES, record.populations)])


POPULATION_CODE_NAMES = np.array([p.name for p in Population])  # indexed by Population code
POPULATION_NAME_CODES = {p.name: int(p) for p in Population}


def read_spike_csv(path: str, topology: Topology, duration_us: int | None = None) -> SpikeRecord:
    """Load a spike CSV back into a SpikeRecord, checking every row against
    the topology. Input-event and delivery counters are not stored in the
    CSV and read back as zero."""
    rows = read_csv(path, SPIKE_CSV_HEADER)

    def row(what: str):
        return lambda i: f"{what}: {','.join(rows.column(j)[i] for j in range(3))!r}"

    times = rows.ints(0, "t_us")
    ids = rows.ints(1, "neuron_id")
    pops = np.fromiter(map(POPULATION_NAME_CODES.get, rows.column(2), repeat(-1)), dtype=np.int8, count=rows.n)
    rows.check(pops < 0, row(f"population must be one of {', '.join(POPULATION_NAME_CODES)}"))
    rows.check(times < 0, row("negative spike time"))
    outside = (ids < 0) | (ids >= topology.n_neurons)
    rows.check(outside, row(f"neuron id outside 0..{topology.n_neurons - 1}"))
    mismatch = topology.pop_code[np.where(outside, 0, ids)] != pops
    rows.check(mismatch, row("neuron id does not belong to the named population"))
    rows.finish()

    dur = duration_us if duration_us is not None else (int(times.max()) if rows.n else 0)
    return SpikeRecord(times=times, neuron_ids=ids, populations=pops, duration_us=dur, input_events=0, deliveries=0)
