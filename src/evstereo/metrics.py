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
from .simulator import SpikeRecord, instantaneous_rates, window_center_labels
from .topology import Population, Topology

COM_CSV_HEADER = "window_i,t_center_us,com_c,com_d,d_mean,d_min,d_max"

PCD_GLOBAL = "global"
PCD_PER_WINDOW_MEAN = "per-window-mean"


@dataclass(repr=False, eq=False)
class EnergyCoefficients:
    """Picojoules per elementary operation. Placeholder magnitudes typical of
    mixed-signal neuromorphic processors; configure per target hardware."""

    e_input_pj: float = 30.0
    e_spike_pj: float = 900.0
    e_delivery_pj: float = 120.0


def center_of_mass(weighted: np.ndarray, total: np.ndarray) -> np.ndarray:
    """com[t_i] = sum_n d_n c_n[t_i] / sum_n c_n[t_i] from the per-window sums
    of d*count (``weighted``) and of count (``total``); NaN where a window has
    no spikes. The rates' shared window length cancels, and both sums are
    exact integers in float64, so each value is the correctly rounded
    quotient."""
    values = np.full(len(total), np.nan)
    nz = total > 0
    values[nz] = weighted[nz] / total[nz]
    return values


def rmse(com: np.ndarray, trace: DisparityTrace) -> float:
    """Root mean square error over windows where both the CoM and the ground
    truth are defined."""
    n = min(len(com), trace.n_windows)
    both = ~np.isnan(com[:n]) & trace.defined[:n]
    if not both.any():
        raise ValueError("no window has both a CoM and a ground-truth value")
    err = com[:n][both] - trace.d_mean[:n][both]
    return float(np.sqrt(np.mean(err * err)))


def _rows(table: tuple, topology: Topology, populations: tuple[Population, ...]) -> tuple[np.ndarray, ...]:
    """The windows, spike counts and encoded disparities of the rows of the
    count table (``instantaneous_rates``) whose neurons belong to
    ``populations``."""
    ids, windows, counts = table
    rows = np.isin(topology.pop_code[ids], populations)
    return windows[rows], counts[rows], topology.disparity_of_ids(ids[rows])


def label_spikes(
    table: tuple,
    topology: Topology,
    trace: DisparityTrace,
    eps_d: float,
    populations: tuple[Population, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """The TD and FD spike counts per window of the trace, from the count
    table over the trace's windows: a spike is TD iff its neuron's encoded
    disparity lies in the closed band [d_min - eps, d_max + eps] of its
    window. Spikes in windows with no ground truth are in neither count."""
    if eps_d < 0:
        raise ValueError("eps_d must be >= 0")
    n_windows = trace.n_windows
    windows, counts, d = _rows(table, topology, populations)
    labelled = trace.defined[windows]
    in_band = (d >= trace.d_min[windows] - eps_d) & (d <= trace.d_max[windows] + eps_d)
    td = np.bincount(windows, counts * (labelled & in_band), n_windows)
    fd = np.bincount(windows, counts * (labelled & ~in_band), n_windows)
    return td.astype(np.int64), fd.astype(np.int64)


def pcd(td: np.ndarray, fd: np.ndarray, mode: str = PCD_GLOBAL) -> float:
    """Percentage of correct disparities from the TD and FD counts per window.

    ``global`` (default): sum TD / sum (TD + FD) over all windows.
    ``per-window-mean``: average of the per-window fraction over windows
    with at least one labelled spike.
    """
    total_td = int(td.sum())
    total = total_td + int(fd.sum())
    if total == 0:
        raise ValueError("no labelled spikes")
    if mode == PCD_GLOBAL:
        return total_td / total
    if mode == PCD_PER_WINDOW_MEAN:
        per = td + fd
        nz = per > 0
        return float(np.mean(td[nz] / per[nz]))
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


@dataclass(repr=False)
class MetricsReport:
    """Everything ``metrics.json`` holds, in its key order."""

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


def _or_none(metric, *args) -> float | None:
    """``metric(*args)``, or None where there is nothing to score (it raises ValueError)."""
    try:
        return metric(*args)
    except ValueError:
        return None


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
) -> MetricsReport:
    """Single report with disparity-population headline metrics, coincidence
    metrics for diagnosis, label counts, and the energy estimate, all read
    from one spike count table over the trace's windows."""
    if trace.window_us != window_us:
        raise ValueError(
            f"analysis window {window_us}us does not match ground truth {trace.window_us}us"
        )
    n_windows = trace.n_windows
    table = instantaneous_rates(record, window_us, n_windows)

    def readout(populations):
        windows, counts, d = _rows(table, topology, populations)
        com = center_of_mass(np.bincount(windows, d * counts, n_windows), np.bincount(windows, counts, n_windows))
        td, fd = label_spikes(table, topology, trace, eps_d, populations)
        return com, td, fd, _or_none(pcd, td, fd, pcd_mode), _or_none(rmse, com, trace)

    com_d, td_d, fd_d, pcd_d, rmse_d = readout((Population.DISPARITY,))
    com_c, td_c, fd_c, pcd_c, rmse_c = readout((Population.COINC_EXC, Population.COINC_INH))

    energy = None
    if with_energy and record.duration_us > 0:  # a record of 0 us has no average power
        energy = estimate_energy(record, coefficients or EnergyCoefficients())

    return MetricsReport(
        sample_label=sample_label,
        window_us=window_us,
        eps_d=eps_d,
        n_windows=n_windows,
        pcd_d=pcd_d,
        rmse_d=rmse_d,
        pcd_c=pcd_c,
        rmse_c=rmse_c,
        pcd_mode=pcd_mode,
        com_d=_nan_to_none(com_d),
        com_c=_nan_to_none(com_c),
        gt_mean=_nan_to_none(trace.d_mean),
        gt_min=_nan_to_none(trace.d_min),
        gt_max=_nan_to_none(trace.d_max),
        td_d=td_d.tolist(),
        fd_d=fd_d.tolist(),
        td_c=td_c.tolist(),
        fd_c=fd_c.tolist(),
        spike_counts={p.name: int(c) for p, c in record.counts.items()},
        input_events=record.input_events,
        deliveries=record.deliveries,
        energy_uw=energy,
        config=config or {},
    )


def write_com_csv(report: MetricsReport, path: str) -> None:
    """One row per window; an undefined CoM or ground truth is an empty cell."""
    centers = window_center_labels(np.arange(report.n_windows), report.window_us)
    values = np.array([report.com_c, report.com_d, report.gt_mean, report.gt_min, report.gt_max], dtype=np.float64)
    window = np.arange(report.n_windows)
    write_csv(path, COM_CSV_HEADER, [window, (centers, window), *values])
