import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_report
from evstereo.groundtruth import DisparityTrace
from evstereo.metrics import (
    CoMTrace,
    EnergyCoefficients,
    SpikeLabelCounts,
    build_report,
    center_of_mass,
    estimate_energy,
    label_spikes,
    pcd,
    rmse,
    write_com_csv,
)
from evstereo.simulator import RateMatrix, SpikeRecord
from evstereo.topology import Population, build_topology

DT = 50_000


def rate_matrix(rates_by_d, n_windows=1):
    """RateMatrix over synthetic neurons with given d values."""
    d = np.array(sorted(rates_by_d), dtype=np.float64)
    rates = np.zeros((len(d), n_windows))
    for i, dv in enumerate(d):
        rates[i, :] = rates_by_d[dv]
    return RateMatrix(window_us=DT, neuron_ids=np.arange(len(d)), rates_hz=rates), d


def flat_trace(d_mean, d_min=None, d_max=None, n=1):
    d_mean = np.full(n, float(d_mean))
    return DisparityTrace(
        window_us=DT,
        d_mean=d_mean,
        d_min=np.full(n, float(d_min if d_min is not None else d_mean[0])),
        d_max=np.full(n, float(d_max if d_max is not None else d_mean[0])),
        n_joints=np.ones(n, dtype=np.int64),
    )


def spike_record(spikes, topology, duration):
    """spikes: list of (t, neuron_id)."""
    spikes = sorted(spikes)
    times = np.array([s[0] for s in spikes], dtype=np.int64)
    ids = np.array([s[1] for s in spikes], dtype=np.int64)
    pops = np.array([int(topology.population_of(int(i))) for i in ids], dtype=np.int8)
    return SpikeRecord(
        times=times, neuron_ids=ids, populations=pops, duration_us=duration, input_events=0, deliveries=0,
    )


# ------------------------------------------------------------- CoM (exact)

def test_com_weighted_mean_exact():
    rates, d = rate_matrix({2.0: 1.0, 4.0: 3.0})
    com = center_of_mass(rates, d)
    assert com.values[0] == (2 * 1 + 4 * 3) / 4  # 3.5 exactly


def test_com_single_active_neuron():
    rates, d = rate_matrix({-3.0: 5.0, 1.0: 0.0})
    assert center_of_mass(rates, d).values[0] == -3.0


def test_com_zero_window_undefined():
    rates, d = rate_matrix({0.0: 0.0, 1.0: 0.0})
    com = center_of_mass(rates, d)
    assert np.isnan(com.values[0])
    assert not com.defined[0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 10_000)), min_size=1, max_size=10),
    st.floats(0.1, 100.0),
)
def test_com_scale_invariance_and_hull(pairs, scale):
    # rates as a run produces them: a spike count over the window
    by_d = {}
    for d, count in pairs:
        by_d[float(d)] = by_d.get(float(d), 0) + count
    rates, d = rate_matrix({dv: count / (DT * 1e-6) for dv, count in by_d.items()})
    com = center_of_mass(rates, d)
    scaled = RateMatrix(rates.window_us, rates.neuron_ids, rates.rates_hz * scale)
    com2 = center_of_mass(scaled, d)
    if com.defined[0]:
        active = d[rates.rates_hz[:, 0] > 0]
        assert active.min() - 1e-9 <= com.values[0] <= active.max() + 1e-9
        assert com2.values[0] == pytest.approx(com.values[0], abs=1e-9)
    else:
        assert not com2.defined[0]


# ------------------------------------------------------------- RMSE (exact)

def test_rmse_zero_when_identical():
    trace = flat_trace(2.0, n=5)
    com = CoMTrace(DT, trace.d_mean.copy())
    assert rmse(com, trace) == 0.0


def test_rmse_constant_offset_is_one():
    trace = flat_trace(2.0, n=8)
    com = CoMTrace(DT, trace.d_mean + 1.0)
    assert rmse(com, trace) == 1.0


def test_rmse_hand_computed_fixture():
    # windows: com = [1, 2, 3, NaN, 5]; gt = [0, 2, 5, 5, 4]
    # defined pairs -> errors (1, 0, -2, 1): sqrt((1+0+4+1)/4) = sqrt(1.5)
    gt = DisparityTrace(
        window_us=DT,
        d_mean=np.array([0.0, 2.0, 5.0, 5.0, 4.0]),
        d_min=np.zeros(5),
        d_max=np.zeros(5),
        n_joints=np.ones(5, dtype=np.int64),
    )
    com = CoMTrace(DT, np.array([1.0, 2.0, 3.0, np.nan, 5.0]))
    assert rmse(com, gt) == pytest.approx(np.sqrt(1.5), abs=1e-12)


def test_rmse_is_symmetric():
    a = CoMTrace(DT, np.array([1.0, 2.0, np.nan, 4.0]))
    b_trace = flat_trace(3.0, n=4)
    b_as_com = CoMTrace(DT, b_trace.d_mean.copy())
    a_as_trace = DisparityTrace(
        window_us=DT, d_mean=a.values, d_min=a.values, d_max=a.values,
        n_joints=(~np.isnan(a.values)).astype(np.int64),
    )
    assert rmse(a, b_trace) == pytest.approx(rmse(b_as_com, a_as_trace), abs=1e-15)


def test_rmse_errors_without_joint_window():
    trace = flat_trace(1.0, n=3)
    com = CoMTrace(DT, np.full(3, np.nan))
    with pytest.raises(ValueError, match="no window"):
        rmse(com, trace)


# ------------------------------------------------------------- labelling

@pytest.fixture(scope="module")
def small_topology():
    return build_topology(8, 2, 5)


def d_neuron(topology, d, y=0):
    ids = topology.population_ids(Population.DISPARITY)
    for nid in ids:
        _, c, _ = topology.coord_of(int(nid))
        if c.d == d and c.y == y:
            return int(nid)
    raise LookupError(d)


def test_label_all_td_inside_band(small_topology):
    nid = d_neuron(small_topology, 2)
    record = spike_record([(1000 * k, nid) for k in range(1, 6)], small_topology, DT - 1)
    trace = flat_trace(2.0, d_min=1.0, d_max=3.0)
    counts = label_spikes(record, small_topology, trace, 1.0, (Population.DISPARITY,))
    assert counts.total_td == 5 and counts.total_fd == 0


def test_label_boundaries_closed_interval(small_topology):
    # band [1,3], eps 1: d=4 is TD (inclusive), d=5 is FD (exclusive above 4)
    trace = flat_trace(2.0, d_min=1.0, d_max=3.0)
    rec4 = spike_record([(100, d_neuron(small_topology, 4))], small_topology, DT - 1)
    rec5 = spike_record([(100, d_neuron(small_topology, 5))], small_topology, DT - 1)
    c4 = label_spikes(rec4, small_topology, trace, 1.0, (Population.DISPARITY,))
    c5 = label_spikes(rec5, small_topology, trace, 1.0, (Population.DISPARITY,))
    assert (c4.total_td, c4.total_fd) == (1, 0)
    assert (c5.total_td, c5.total_fd) == (0, 1)


def test_label_skips_uncovered_windows(small_topology):
    nid = d_neuron(small_topology, 0)
    trace = flat_trace(0.0, n=2)
    trace.d_mean[1] = np.nan
    trace.n_joints[1] = 0
    record = spike_record([(10, nid), (DT + 10, nid)], small_topology, 2 * DT - 1)
    counts = label_spikes(record, small_topology, trace, 1.0, (Population.DISPARITY,))
    assert counts.total_td + counts.total_fd == 1


def test_label_partition_property(small_topology):
    rng = np.random.default_rng(8)
    ids = small_topology.population_ids(Population.DISPARITY)
    spikes = [(int(rng.integers(0, 5 * DT)), int(rng.choice(ids))) for _ in range(500)]
    record = spike_record(spikes, small_topology, 5 * DT - 1)
    trace = flat_trace(1.0, d_min=0.0, d_max=2.0, n=5)
    counts = label_spikes(record, small_topology, trace, 1.0, (Population.DISPARITY,))
    assert counts.total_td + counts.total_fd == len(spikes)
    assert np.all(counts.td + counts.fd == 100 * np.bincount(record.times // DT, minlength=5) / 100)


# ------------------------------------------------------------- PCD (exact)

def make_counts(per_window):
    td = np.array([w[0] for w in per_window], dtype=np.int64)
    fd = np.array([w[1] for w in per_window], dtype=np.int64)
    return SpikeLabelCounts(td, fd)


def test_pcd_all_td():
    assert pcd(make_counts([(5, 0), (3, 0)])) == 1.0


def test_pcd_symmetric_half():
    counts = make_counts([(4, 4), (2, 2)])
    assert pcd(counts, "global") == 0.5
    assert pcd(counts, "per-window-mean") == 0.5


def test_pcd_modes_fixture():
    counts = make_counts([(3, 1), (0, 4)])
    assert pcd(counts, "global") == 3 / 8
    assert pcd(counts, "per-window-mean") == pytest.approx((0.75 + 0.0) / 2, abs=1e-15)


def test_pcd_zero_spikes_errors():
    with pytest.raises(ValueError):
        pcd(make_counts([(0, 0)]))


def test_pcd_invariant_to_window_rebinning():
    # same spikes regrouped across windows leave the global ratio unchanged
    a = make_counts([(3, 1), (1, 3)])
    b = make_counts([(4, 4)])
    assert pcd(a, "global") == pcd(b, "global")


# ------------------------------------------------------------- energy

def zero_record(duration=1_000_000):
    return SpikeRecord(
        times=np.zeros(0, dtype=np.int64),
        neuron_ids=np.zeros(0, dtype=np.int64),
        populations=np.zeros(0, dtype=np.int8),
        duration_us=duration,
        input_events=0,
        deliveries=0,
    )


def test_energy_zero_activity():
    assert estimate_energy(zero_record(), EnergyCoefficients()) == 0.0


def test_energy_linearity():
    rec = zero_record()
    rec.input_events = 1000
    rec.deliveries = 5000
    coeffs = EnergyCoefficients(e_input_pj=10.0, e_spike_pj=100.0, e_delivery_pj=1.0)
    p1 = estimate_energy(rec, coeffs)
    rec2 = zero_record()
    rec2.input_events = 2000
    rec2.deliveries = 10_000
    assert estimate_energy(rec2, coeffs) == pytest.approx(2 * p1, abs=1e-15)


def test_energy_units_pj_per_us_is_uw():
    rec = zero_record(duration=1_000_000)  # one second
    rec.input_events = 1_000_000
    coeffs = EnergyCoefficients(e_input_pj=1.0, e_spike_pj=0.0, e_delivery_pj=0.0)
    # 1e6 events/s at 1 pJ each = 1 uW
    assert estimate_energy(rec, coeffs) == 1.0


# ------------------------------------------------------------- report

def test_report_perfect_run(small_topology):
    nid = d_neuron(small_topology, 2)
    spikes = [(1000 * k + w * DT, nid) for w in range(4) for k in range(1, 9)]
    record = spike_record(spikes, small_topology, 4 * DT - 1)
    trace = flat_trace(2.0, n=4)
    report = build_report(record, small_topology, trace, DT, eps_d=1.0, sample_label="perfect")
    assert report.pcd_d == 1.0
    assert report.rmse_d == 0.0
    assert report.eps_d == 1.0 and report.window_us == DT
    assert report.spike_counts["DISPARITY"] == len(spikes)


def test_report_roundtrips_serialization(tmp_path, small_topology):
    nid = d_neuron(small_topology, 1)
    record = spike_record([(500, nid), (DT + 700, nid)], small_topology, 2 * DT - 1)
    trace = flat_trace(1.0, n=2)
    report = build_report(
        record, small_topology, trace, DT, eps_d=2.0,
        config={"analysis": {"window_us": DT, "eps_d": 2.0}}, sample_label="rt",
    )
    path = tmp_path / "metrics.json"
    report.write_json(str(path))
    back = read_report(str(path))
    assert back == report


def test_report_window_mismatch_rejected(small_topology):
    record = zero_record()
    trace = flat_trace(1.0, n=2)
    with pytest.raises(ValueError, match="window"):
        build_report(record, small_topology, trace, DT * 2, eps_d=1.0)


def test_com_csv_layout(tmp_path, small_topology):
    nid = d_neuron(small_topology, 1)
    record = spike_record([(500, nid)], small_topology, DT - 1)
    trace = flat_trace(1.0)
    report = build_report(record, small_topology, trace, DT, eps_d=1.0)
    path = tmp_path / "com.csv"
    write_com_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "window_i,t_center_us,com_c,com_d,d_mean,d_min,d_max"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == 1.0  # CoM(D) on the only active neuron
