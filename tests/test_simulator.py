import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_crossing_us, membrane_trace, reference_simulate, transplanted
from evstereo.events import LEFT, ON, RIGHT, CameraGeometry, DvsEvent, StereoEventStream
from evstereo.simulator import (
    LifParams,
    MismatchModel,
    SpikeRecord,
    _Network,
    instantaneous_rates,
    read_spike_csv,
    simulate,
    window_count,
    write_spike_csv,
)
from evstereo.synth import CLOUD, DisparityProfile, gen_stimulus
from evstereo.topology import NeuronCoord, Population, build_topology

GEOM16 = CameraGeometry(16, 16)


def stream_of(events, geometry=GEOM16):
    return StereoEventStream.from_events(events, geometry)


def coincidence_coords_fired(topology, record):
    mask = np.isin(record.populations, (Population.COINC_EXC, Population.COINC_INH))
    coords = set()
    for nid in record.neuron_ids[mask]:
        _, c, _ = topology.coord_of(int(nid))
        coords.add((c.x_cyc, c.y, c.d))
    return coords


# ------------------------------------------------------------- basic gating

def test_single_left_event_no_spikes():
    topo = build_topology(16, 16, 7)
    record = simulate(topo, stream_of([DvsEvent(1000, 3, 2, ON, LEFT)]))
    assert len(record) == 0


def test_coincident_pair_fires_matching_coordinate_only():
    # equal-tau configuration pinned by this fixture
    params = LifParams(tau_m=5000.0, tau_s=5000.0, overrides={})
    topo = build_topology(16, 16, 7)
    events = [DvsEvent(1000, 3, 2, ON, LEFT), DvsEvent(1200, 5, 2, ON, RIGHT)]
    record = simulate(topo, stream_of(events), params)
    fired = coincidence_coords_fired(topo, record)
    assert fired == {(8, 2, 2)}

    # oracle: superposed two-EPSP closed-form trace crosses theta, and the
    # engine's spike lands exactly on the first integer crossing
    crossing = first_crossing_us([(1000, 0.6), (1200, 0.6)], 5000.0, 5000.0, 1.0, 60_000)
    assert crossing is not None
    c_mask = np.isin(record.populations, (Population.COINC_EXC, Population.COINC_INH))
    assert set(record.times[c_mask].tolist()) == {crossing}


def test_pair_separated_by_ten_tau_m_is_silent():
    params = LifParams(tau_m=5000.0, tau_s=5000.0, overrides={})
    topo = build_topology(16, 16, 7)
    events = [DvsEvent(1000, 3, 2, ON, LEFT), DvsEvent(51_000, 5, 2, ON, RIGHT)]
    record = simulate(topo, stream_of(events), params)
    assert len(record) == 0
    trace = membrane_trace([(1000, 0.6), (51_000, 0.6)], 5000.0, 5000.0, np.arange(0, 120_000, 10))
    assert trace.max() < 1.0


def test_monocular_burst_cannot_fire_coincidence():
    # worst case for temporal summation: one pixel hammered at maximum rate
    topo = build_topology(16, 16, 7)
    events = [DvsEvent(t, 3, 2, ON, LEFT) for t in range(0, 100_000, 100)]
    record = simulate(topo, stream_of(events))
    assert len(record) == 0


@settings(max_examples=30, deadline=None)
@given(
    side=st.sampled_from((LEFT, RIGHT)),
    data=st.lists(
        st.tuples(st.integers(0, 300_000), st.integers(0, 15), st.integers(0, 15), st.integers(0, 1)),
        min_size=1,
        max_size=300,
    ),
)
def test_monocular_silence_property(side, data):
    topo = build_topology(16, 16, 7)
    events = [DvsEvent(t, x, y, p, side) for t, x, y, p in data]
    record = simulate(topo, stream_of(events))
    assert len(record) == 0


# ------------------------------------------------------------- invariants

def probe_pair_stream(d, n_pairs=8, y=4, x_left=5, spacing=120_000, dt=200, geometry=GEOM16):
    events = []
    for k in range(n_pairs):
        t = 10_000 + k * spacing
        events.append(DvsEvent(t, x_left, y, ON, LEFT))
        events.append(DvsEvent(t + dt, x_left + d, y, ON, RIGHT))
    return stream_of(events, geometry)


def test_disparity_equivariance_under_right_shift():
    topo = build_topology(16, 16, 7)
    base = simulate(topo, probe_pair_stream(d=2))
    shifted = simulate(topo, probe_pair_stream(d=3))
    coords0 = coincidence_coords_fired(topo, base)
    coords1 = coincidence_coords_fired(topo, shifted)
    assert coords0 and coords1
    assert {(x + 1, y, d + 1) for x, y, d in coords0} == coords1


def test_refractory_spacing_everywhere():
    topo = build_topology(8, 4, 3)
    rng = np.random.default_rng(5)
    events = []
    for k in range(400):
        t = int(rng.integers(0, 500_000))
        x = int(rng.integers(0, 5))
        events.append(DvsEvent(t, x, 1, ON, LEFT))
        events.append(DvsEvent(t + int(rng.integers(0, 800)), x + 2, 1, ON, RIGHT))
    record = simulate(topo, stream_of(events, CameraGeometry(8, 4)))
    assert len(record) > 0
    refractory = LifParams().refractory_us
    for nid in np.unique(record.neuron_ids):
        ts = record.times[record.neuron_ids == nid]
        if len(ts) > 1:
            assert np.diff(np.sort(ts)).min() >= refractory


def test_spike_record_sorted_and_counts_consistent():
    topo = build_topology(8, 4, 3)
    record = simulate(topo, probe_pair_stream(d=1, y=2, x_left=3, geometry=CameraGeometry(8, 4)))
    order = np.lexsort((record.neuron_ids, record.times))
    assert np.array_equal(order, np.arange(len(record)))
    assert sum(record.counts.values()) == len(record)
    per_neuron = {int(n): int(c) for n, c in zip(*np.unique(record.neuron_ids, return_counts=True))}
    assert sum(per_neuron.values()) == len(record)


def test_spike_counts_follow_the_populations():
    """``counts`` is read from ``populations``, in the order metrics.json
    lists it, and keyed by Population."""
    ci, d = Population.COINC_INH, Population.DISPARITY
    record = SpikeRecord(
        times=np.arange(5, dtype=np.int64), neuron_ids=np.zeros(5, dtype=np.int64),
        populations=np.array([d, ci, d, ci, ci], dtype=np.int8), duration_us=5, input_events=0, deliveries=0,
    )
    assert list(record.counts.items()) == [(Population.COINC_EXC, 0), (ci, 3), (d, 2)]
    record.populations = record.populations[:1]
    assert list(record.counts.values()) == [0, 0, 1]
    record.populations = np.zeros(0, dtype=np.int8)
    assert list(record.counts.values()) == [0, 0, 0]


def test_determinism_bit_identical():
    topo = build_topology(16, 16, 5)
    stream = probe_pair_stream(d=2, n_pairs=20, spacing=30_000)
    a = simulate(topo, stream)
    b = simulate(topo, stream)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.neuron_ids, b.neuron_ids)
    assert a.deliveries == b.deliveries


def test_geometry_mismatch_rejected():
    topo = build_topology(16, 16, 5)
    with pytest.raises(ValueError, match="geometry"):
        simulate(topo, stream_of([], CameraGeometry(8, 8)))


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        LifParams(tau_m=0.0).for_population(Population.COINC_EXC)
    with pytest.raises(ValueError):
        LifParams(threshold=0.0, reset=-1.0).for_population(Population.COINC_EXC)
    with pytest.raises(ValueError):
        LifParams(tau_s=float("nan")).for_population(Population.COINC_EXC)


def test_polarity_separated_mode_gates_on_matching_polarity():
    from evstereo.events import OFF

    topo = build_topology(16, 16, 7, polarity_mode="separated")
    mixed = stream_of([DvsEvent(1000, 3, 2, ON, LEFT), DvsEvent(1200, 5, 2, OFF, RIGHT)])
    assert len(simulate(topo, mixed)) == 0  # opposite polarities never meet
    matched = stream_of([DvsEvent(1000, 3, 2, OFF, LEFT), DvsEvent(1200, 5, 2, OFF, RIGHT)])
    record = simulate(topo, matched)
    assert coincidence_coords_fired(topo, record) == {(8, 2, 2)}


# ------------------------------------------------------------- reference oracle

REF_PARAMS = LifParams(v_floor=-1e9, overrides={Population.DISPARITY: {"tau_m": 10000.0, "tau_s": 5000.0, "v_floor": -1e9}})


def random_binocular_stream(seed, n_pairs, geometry, max_t=40_000):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(n_pairs):
        t = int(rng.integers(0, max_t))
        y = int(rng.integers(0, geometry.height))
        xl = int(rng.integers(0, geometry.width - 2))
        d = int(rng.integers(0, 3))
        events.append(DvsEvent(t, xl, y, int(rng.integers(0, 2)), LEFT))
        events.append(DvsEvent(t + int(rng.integers(0, 2500)), xl + d, y, int(rng.integers(0, 2)), RIGHT))
    return stream_of(events, geometry)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_stepped_reference(seed):
    geom = CameraGeometry(4, 2)
    topo = build_topology(4, 2, 2)
    stream = random_binocular_stream(seed, n_pairs=25, geometry=geom)
    record = simulate(topo, stream, REF_PARAMS)
    got = list(zip(record.times.tolist(), record.neuron_ids.tolist()))
    expected = reference_simulate(topo, stream, REF_PARAMS, horizon_us=stream.duration + 80_000)
    assert got == expected


def test_engine_matches_reference_equal_tau():
    geom = CameraGeometry(4, 2)
    topo = build_topology(4, 2, 2)
    params = LifParams(tau_m=4000.0, tau_s=4000.0, v_floor=-1e9, overrides={})
    stream = random_binocular_stream(3, n_pairs=20, geometry=geom)
    record = simulate(topo, stream, params)
    got = list(zip(record.times.tolist(), record.neuron_ids.tolist()))
    expected = reference_simulate(topo, stream, params, horizon_us=stream.duration + 60_000)
    assert got == expected


def test_engine_matches_stepped_reference_on_a_full_size_row():
    # one row of a benchmark-sized CLOUD stimulus (0.1 s, 12 rows x 4 dots), alone on a 16x1 retina with
    # d_max 7: 584 neurons. With the row transplant (test_engine.py) it stands for the whole 16x16 network
    profile = DisparityProfile(
        shape=CLOUD, keyframes=((0, -3.0), (100_000, 3.0)), y=2, height=12, dots_per_row=4, rate_hz=600.0,
        jitter_sigma_us=300.0, seed=0,
    )
    stream, _ = gen_stimulus(profile, GEOM16, 100_000, 50_000)
    row = transplanted(stream.select(stream.y == 5))
    topo = build_topology(16, 1, 7)
    record = simulate(topo, row, REF_PARAMS)
    got = list(zip(record.times.tolist(), record.neuron_ids.tolist()))
    assert len(got) > 1000
    assert got == reference_simulate(topo, row, REF_PARAMS, horizon_us=row.duration + 80_000)


# ------------------------------------------------------------- rates

def test_rates_five_spikes_in_window():
    topo = build_topology(4, 2, 1)
    did = int(topo.population_ids(Population.DISPARITY)[0])
    record = SpikeRecord(
        times=np.array([1000, 2000, 3000, 4000, 5000], dtype=np.int64),
        neuron_ids=np.full(5, did, dtype=np.int64),
        populations=np.full(5, int(Population.DISPARITY), dtype=np.int8),
        duration_us=49_999,
        input_events=0,
        deliveries=0,
    )
    ids, windows, counts = instantaneous_rates(record, 50_000)
    assert (ids.tolist(), windows.tolist(), counts.tolist()) == ([did], [0], [5])
    assert counts[0] / (50_000 * 1e-6) == pytest.approx(100.0)


def test_rates_empty_record_all_zero():
    topo = build_topology(4, 2, 1)
    record = simulate(topo, stream_of([], CameraGeometry(4, 2)), duration_us=200_000)
    for column in instantaneous_rates(record, 50_000):
        assert column.dtype == np.int64 and len(column) == 0


def test_rates_match_brute_force_window_counts():
    topo = build_topology(8, 4, 3)
    stream = probe_pair_stream(d=2, n_pairs=30, y=2, x_left=3, spacing=17_000, geometry=CameraGeometry(8, 4))
    record = simulate(topo, stream)
    dt = 25_000
    for n_windows in (None, 5):
        table = instantaneous_rates(record, dt, n_windows)
        # O(spikes * windows) re-count, in the table's order: by neuron id, then window
        brute = {}
        for t, nid in zip(record.times.tolist(), record.neuron_ids.tolist()):
            if n_windows is None or t // dt < n_windows:
                brute[nid, t // dt] = brute.get((nid, t // dt), 0) + 1
        assert [list(column) for column in table] == [list(c) for c in zip(*sorted((*k, n) for k, n in brute.items()))]


# ------------------------------------------------------------- mismatch model

def test_mismatch_seeded_and_off_by_default():
    topo = build_topology(8, 4, 3)
    stream = probe_pair_stream(d=1, y=1, x_left=2, n_pairs=10, spacing=20_000, geometry=CameraGeometry(8, 4))
    base_a = simulate(topo, stream)
    base_b = simulate(topo, stream, mismatch=MismatchModel())
    assert np.array_equal(base_a.times, base_b.times)

    noisy1 = simulate(topo, stream, mismatch=MismatchModel(seed=7, weight_sigma=0.2, threshold_sigma=0.1))
    noisy2 = simulate(topo, stream, mismatch=MismatchModel(seed=7, weight_sigma=0.2, threshold_sigma=0.1))
    assert np.array_equal(noisy1.times, noisy2.times)
    assert np.array_equal(noisy1.neuron_ids, noisy2.neuron_ids)


# ------------------------------------------------------------- CSV round trip

def test_spike_csv_roundtrip(tmp_path):
    topo = build_topology(8, 4, 3)
    stream = probe_pair_stream(d=2, y=3, x_left=1, n_pairs=6, spacing=15_000, geometry=CameraGeometry(8, 4))
    record = simulate(topo, stream)
    path = tmp_path / "spikes.csv"
    write_spike_csv(record, str(path))
    back = read_spike_csv(str(path), topo, duration_us=record.duration_us)
    assert np.array_equal(back.times, record.times)
    assert np.array_equal(back.neuron_ids, record.neuron_ids)
    assert np.array_equal(back.populations, record.populations)
    assert back.counts == record.counts


def test_large_threshold_jitter_keeps_theta_positive_with_negative_reset():
    # theta below zero used to make such a network fire every few
    # microseconds for as long as it had drive
    topo = build_topology(4, 2, 2)
    params = LifParams(reset=-0.3, refractory_us=0)
    mismatch = MismatchModel(seed=0, threshold_sigma=1.5)
    net = _Network(topo, params, mismatch)
    assert (net.theta > np.maximum(net.reset, 0.0)).all()
    events = [
        DvsEvent(100, 1, 0, ON, LEFT), DvsEvent(150, 1, 0, ON, RIGHT), DvsEvent(2000, 2, 1, ON, LEFT),
        DvsEvent(2100, 2, 1, ON, RIGHT), DvsEvent(4000, 0, 0, ON, LEFT),
    ]
    record = simulate(topo, stream_of(events, CameraGeometry(4, 2)), params, mismatch)
    assert 0 < len(record) < 5000
