"""Disparity readout metrics: population centre of mass, RMSE against the
ground-truth trace, true/false-disparity spike labelling with the percentage
of correct disparities, and a spike-count energy estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .events import atomic_write, write_csv
from .groundtruth import DisparityTrace
from .simulator import RateMatrix, SpikeRecord, instantaneous_rates, window_center_labels
from .topology import Population, Topology

COM_CSV_HEADER = "window_i,t_center_us,com_c,com_d,d_mean,d_min,d_max"

PCD_GLOBAL = "global"
PCD_PER_WINDOW_MEAN = "per-window-mean"


@dataclass
class CoMTrace:
    """Firing-rate weighted mean encoded disparity per window; NaN where the
    window carries no spikes."""

    window_us: int
    values: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return ~np.isnan(self.values)


@dataclass
class SpikeLabelCounts:
    td: np.ndarray  # int64 per window
    fd: np.ndarray

    @property
    def total_td(self) -> int:
        return int(self.td.sum())

    @property
    def total_fd(self) -> int:
        return int(self.fd.sum())


@dataclass(frozen=True)
class EnergyCoefficients:
    """Picojoules per elementary operation. Placeholder magnitudes typical of
    mixed-signal neuromorphic processors; configure per target hardware."""

    e_input_pj: float = 30.0
    e_spike_pj: float = 900.0
    e_delivery_pj: float = 120.0


def center_of_mass(rates: RateMatrix, d_values: np.ndarray) -> CoMTrace:
    """com[t_i] = sum_n r_n[t_i] d_n / sum_n r_n[t_i], undefined at 0/0."""
    d_values = np.asarray(d_values, dtype=np.float64)
    if len(d_values) != rates.rates_hz.shape[0]:
        raise ValueError("one disparity value per neuron required")
    totals = rates.rates_hz.sum(axis=0)
    values = np.full(rates.n_windows, np.nan)
    nz = totals > 0
    values[nz] = (d_values @ rates.rates_hz[:, nz]) / totals[nz]
    return CoMTrace(window_us=rates.window_us, values=values)


def rmse(com: CoMTrace, trace: DisparityTrace) -> float:
    """Root mean square error over windows where both the CoM and the ground
    truth are defined."""
    if com.window_us != trace.window_us:
        raise ValueError("window length mismatch between CoM and ground truth")
    n = min(len(com.values), trace.n_windows)
    both = com.defined[:n] & trace.defined[:n]
    if not both.any():
        raise ValueError("no window has both a CoM and a ground-truth value")
    err = com.values[:n][both] - trace.d_mean[:n][both]
    return float(np.sqrt(np.mean(err * err)))


def label_spikes(
    record: SpikeRecord,
    topology: Topology,
    trace: DisparityTrace,
    eps_d: float,
    populations: tuple[Population, ...],
) -> SpikeLabelCounts:
    """Label each spike TD iff its neuron's encoded disparity lies in the
    closed band [d_min - eps, d_max + eps] of its window; spikes in windows
    with no ground truth are excluded from both counts."""
    if eps_d < 0:
        raise ValueError("eps_d must be >= 0")
    n_windows = trace.n_windows
    td = np.zeros(n_windows, dtype=np.int64)
    fd = np.zeros(n_windows, dtype=np.int64)
    mask = record.for_population(*populations)
    if mask.any():
        d_n = topology.disparity_of_ids(record.neuron_ids[mask]).astype(np.float64)
        wi = record.times[mask] // trace.window_us
        ok = (wi >= 0) & (wi < n_windows)
        d_n, wi = d_n[ok], wi[ok]
        covered = trace.defined[wi]
        wi, d_n = wi[covered], d_n[covered]
        is_td = (d_n >= trace.d_min[wi] - eps_d) & (d_n <= trace.d_max[wi] + eps_d)
        np.add.at(td, wi[is_td], 1)
        np.add.at(fd, wi[~is_td], 1)
    return SpikeLabelCounts(td=td, fd=fd)


def pcd(counts: SpikeLabelCounts, mode: str = PCD_GLOBAL) -> float:
    """Percentage of correct disparities.

    ``global`` (default): sum TD / sum (TD + FD) over all windows.
    ``per-window-mean``: average of the per-window fraction over windows
    with at least one labelled spike.
    """
    total = counts.total_td + counts.total_fd
    if total == 0:
        raise ValueError("no labelled spikes")
    if mode == PCD_GLOBAL:
        return counts.total_td / total
    if mode == PCD_PER_WINDOW_MEAN:
        per = counts.td + counts.fd
        nz = per > 0
        return float(np.mean(counts.td[nz] / per[nz]))
    raise ValueError(f"unknown PCD mode {mode!r}")


def estimate_energy(record: SpikeRecord, coefficients: EnergyCoefficients) -> float:
    """Average power in microwatts: (E_in*N_in + E_spike*N_spikes +
    E_syn*N_deliveries) / duration. pJ per µs equals µW exactly."""
    if record.duration_us <= 0:
        raise ValueError("recording duration must be > 0")
    total_pj = (
        coefficients.e_input_pj * record.input_events
        + coefficients.e_spike_pj * len(record)
        + coefficients.e_delivery_pj * record.deliveries
    )
    return total_pj / record.duration_us


@dataclass
class MetricsReport:
    sample_label: str
    window_us: int
    eps_d: float
    n_windows: int
    pcd_d: float | None
    rmse_d: float | None
    pcd_c: float | None
    rmse_c: float | None
    pcd_mode: str
    com_d: list
    com_c: list
    gt_mean: list
    gt_min: list
    gt_max: list
    td_d: list
    fd_d: list
    td_c: list
    fd_c: list
    spike_counts: dict
    input_events: int
    deliveries: int
    energy_uw: float | None
    config: dict = field(default_factory=dict)

    def write_json(self, path: str) -> None:
        atomic_write(path, json.dumps(self.__dict__, indent=1, allow_nan=False) + "\n")


def _nan_to_none(values: np.ndarray) -> list:
    return [None if np.isnan(v) else float(v) for v in values]


def build_report(
    record: SpikeRecord,
    topology: Topology,
    trace: DisparityTrace,
    window_us: int,
    eps_d: float,
    coefficients: EnergyCoefficients | None = None,
    config: dict | None = None,
    sample_label: str = "run",
    pcd_mode: str = PCD_GLOBAL,
    with_energy: bool = True,
    rates: dict[Population, RateMatrix] | None = None,
) -> MetricsReport:
    """Single report with disparity-population headline metrics, coincidence
    metrics for diagnosis, label counts, and the energy estimate. ``rates``
    holds the COINC_EXC, COINC_INH and DISPARITY rate matrices over the
    trace's windows, if the caller has them already."""
    if trace.window_us != window_us:
        raise ValueError(
            f"analysis window {window_us}us does not match ground truth {trace.window_us}us"
        )
    n_windows = trace.n_windows
    if rates is None:
        pops = (Population.COINC_EXC, Population.COINC_INH, Population.DISPARITY)
        rates = {pop: instantaneous_rates(record, window_us, pop, topology, n_windows) for pop in pops}

    rates_d = rates[Population.DISPARITY]
    d_vals_d = topology.disparity_of_ids(rates_d.neuron_ids)
    com_d = center_of_mass(rates_d, d_vals_d)

    rates_ce, rates_ci = rates[Population.COINC_EXC], rates[Population.COINC_INH]
    rates_c = RateMatrix(
        window_us=window_us,
        neuron_ids=np.concatenate([rates_ce.neuron_ids, rates_ci.neuron_ids]),
        rates_hz=np.vstack([rates_ce.rates_hz, rates_ci.rates_hz]),
    )
    d_vals_c = topology.disparity_of_ids(rates_c.neuron_ids)
    com_c = center_of_mass(rates_c, d_vals_c)

    labels_d = label_spikes(record, topology, trace, eps_d, (Population.DISPARITY,))
    labels_c = label_spikes(record, topology, trace, eps_d, (Population.COINC_EXC, Population.COINC_INH))

    def safe_pcd(counts):
        try:
            return pcd(counts, pcd_mode)
        except ValueError:
            return None

    def safe_rmse(com):
        try:
            return rmse(com, trace)
        except ValueError:
            return None

    energy = None
    if with_energy and record.duration_us > 0:  # a record of 0 us has no average power
        energy = estimate_energy(record, coefficients or EnergyCoefficients())

    return MetricsReport(
        sample_label=sample_label,
        window_us=window_us,
        eps_d=eps_d,
        n_windows=n_windows,
        pcd_d=safe_pcd(labels_d),
        rmse_d=safe_rmse(com_d),
        pcd_c=safe_pcd(labels_c),
        rmse_c=safe_rmse(com_c),
        pcd_mode=pcd_mode,
        com_d=_nan_to_none(com_d.values),
        com_c=_nan_to_none(com_c.values),
        gt_mean=_nan_to_none(trace.d_mean),
        gt_min=_nan_to_none(trace.d_min),
        gt_max=_nan_to_none(trace.d_max),
        td_d=labels_d.td.tolist(),
        fd_d=labels_d.fd.tolist(),
        td_c=labels_c.td.tolist(),
        fd_c=labels_c.fd.tolist(),
        spike_counts={p.name: int(c) for p, c in record.counts.items()},
        input_events=record.input_events,
        deliveries=record.deliveries,
        energy_uw=energy,
        config=config or {},
    )


def write_com_csv(report: MetricsReport, path: str) -> None:
    """One row per window; an undefined CoM or ground truth is an empty cell."""
    centers = window_center_labels(report.n_windows, report.window_us)
    values = np.array([report.com_c, report.com_d, report.gt_mean, report.gt_min, report.gt_max], dtype=np.float64)
    window = np.arange(report.n_windows)
    write_csv(path, COM_CSV_HEADER, [window, (centers, window), *values])
