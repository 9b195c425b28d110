"""The compiled event loop against the Python loop it reproduces: exact
equality of spike times, ids and delivery counts and bitwise equality of the
final neuron and synapse state over random small networks, the fallback
without a compiler, concurrent builds, and a warning-free build of the
kernel source. Both loops also keep the network's invariants: a run is the
union of the runs on each retina row's events, each row runs alone on a
one-row retina, and a run commutes with a time shift and with the mirror."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import evstereo
from conftest import mirrored, shifted, spike_coords, split_rows, transplanted, union_of_runs
from evstereo import _native
from evstereo.events import LEFT, RIGHT, CameraGeometry, DvsEvent, StereoEventStream
from evstereo.simulator import LifParams, MismatchModel, _Engine, _input_ids, _Network, simulate
from evstereo.synth import CLOUD, DisparityProfile, gen_stimulus
from evstereo.topology import RECTIFIED, SEPARATED, Population, WeightParams, build_topology


@pytest.fixture(scope="module")
def lib():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("no C compiler on this host")
    return lib


def run_both(lib, topology, stream, params, mismatch, max_deliveries=None):
    """Both loops' (spike times, spike ids, deliveries), after checking that
    their final v, s and saturating-synapse values agree bit for bit."""
    net = _Network(topology, params, mismatch)
    ev_src = _input_ids(topology, stream)
    final_state = np.empty(2 * len(net.tau_m) + len(net.adj_post))
    compiled = _native.run(lib, net, stream.t, ev_src, final_state)
    if max_deliveries is not None:
        # a low threshold with no refractory period can fire for a whole
        # tau_s; such cases would take the Python loop seconds each
        assume(compiled[2] <= max_deliveries)
    engine = _Engine(net)
    python = engine.run(stream.t.tolist(), ev_src.tolist())
    python_state = np.array(engine.v + engine.s + engine.sat_value)
    assert np.array_equal(final_state.view(np.uint64), python_state.view(np.uint64))
    return compiled, python


taus = st.sampled_from([500.0, 2000.0, 5000.0, 10000.0])


@st.composite
def networks(draw):
    width = draw(st.integers(2, 5))
    height = draw(st.integers(1, 3))
    topology = build_topology(
        width,
        height,
        draw(st.integers(0, width - 1)),
        WeightParams(*(draw(st.floats(0.2, 1.2)) for _ in range(4))),
        polarity_mode=draw(st.sampled_from([RECTIFIED, SEPARATED])),
        continuity_radius=draw(st.none() | st.integers(0, 3)),
    )
    tau_m = draw(taus)
    # equal time constants, a negative reset and a refractory period of
    # about 740 tau: after a spike s decays to a subnormal value, or to 0,
    # and g * s may underflow to 0, which leaves no crossing
    underflow = draw(st.integers(0, 4)) == 0
    equal = underflow or draw(st.booleans())
    overrides = {}
    for pop in draw(st.sets(st.sampled_from([Population.COINC_EXC, Population.DISPARITY]))):
        tm = draw(taus)
        overrides[pop] = {"tau_m": tm, "tau_s": tm if draw(st.booleans()) else draw(taus)}
    params = LifParams(
        tau_m=tau_m,
        tau_s=tau_m if equal else draw(taus),
        threshold=draw(st.floats(0.5, 1.5)),
        reset=draw(st.sampled_from([-0.3, -0.5] if underflow else [0.0, -0.3])),
        refractory_us=round(tau_m * draw(st.floats(736.0, 748.0))) if underflow
        else draw(st.sampled_from([0, 1, 300, 1000])),
        v_floor=draw(st.sampled_from([-1e9, -1.0, -0.4, -0.35])),
        overrides=overrides,
    )
    mismatch = MismatchModel(
        seed=draw(st.integers(0, 1000)),
        weight_sigma=draw(st.sampled_from([0.0, 0.2])),
        threshold_sigma=draw(st.sampled_from([0.0, 0.1, 0.25])),
    )
    # (t, x, y, p, sides): sides 2 makes simultaneous LEFT and RIGHT events;
    # the sparse times leave gaps beyond the kernel's 2**16 us decay table
    raw = draw(st.lists(
        st.tuples(st.integers(0, 20_000) | st.integers(0, 400_000), st.integers(0, width - 1),
                  st.integers(0, height - 1), st.integers(0, 1), st.integers(0, 2)),
        max_size=80,
    ))
    events = []
    for t, x, y, p, sides in raw:
        for side in ((LEFT, RIGHT) if sides == 2 else (sides,)):
            x_side = x if side == LEFT else draw(st.integers(0, width - 1))
            events.append(DvsEvent(t, x_side, y, p, side))
    stream = StereoEventStream.from_events(events, CameraGeometry(width, height))
    return topology, stream, params, mismatch


@settings(max_examples=400, deadline=None)
@given(networks())
def test_compiled_loop_equals_python_loop(lib, case):
    compiled, python = run_both(lib, *case, max_deliveries=50_000)
    times, ids, deliveries = compiled
    assert np.array_equal(times, python[0]) and times.dtype == python[0].dtype
    assert np.array_equal(ids, python[1]) and ids.dtype == python[1].dtype
    assert deliveries == python[2]


@st.composite
def row_cases(draw, max_side: int, max_duration_us: int, with_mismatch: bool = True):
    """A retina up to ``max_side`` square with ``d_max`` up to 7 in either
    polarity mode, with or without mismatch, and a CLOUD stimulus over some
    of its rows plus uniform noise."""
    sides = st.just(max_side) | st.integers(1, max_side)  # the full size in about half the cases
    width, height = draw(sides), draw(sides)
    d_max = draw(st.integers(0, min(7, width - 1)))
    topology = build_topology(width, height, d_max, polarity_mode=draw(st.sampled_from([RECTIFIED, SEPARATED])))
    mismatch = draw(st.none() | st.builds(
        MismatchModel, st.integers(0, 1000), st.sampled_from([0.1, 0.2]), st.sampled_from([0.0, 0.1])
    )) if with_mismatch else None
    d = draw(st.integers(-d_max, d_max))
    y = draw(st.integers(0, height - 1))
    profile = DisparityProfile(
        shape=CLOUD,
        keyframes=((0, float(d)),),
        y=y,
        height=draw(st.just(height - y) | st.integers(1, height - y)),
        dots_per_row=draw(st.integers(1, min(3, width - abs(d)))),
        rate_hz=draw(st.sampled_from([300.0, 800.0])),
        jitter_sigma_us=draw(st.sampled_from([0.0, 300.0])),
        seed=draw(st.integers(0, 1000)),
    )
    geometry = CameraGeometry(width, height)
    duration = draw(st.just(max_duration_us) | st.integers(1_000, max_duration_us))
    cloud, _ = gen_stimulus(profile, geometry, duration, duration)
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    n = draw(st.integers(0, 40))
    noise = (rng.integers(0, duration, n), rng.integers(0, width, n), rng.integers(0, height, n),
             rng.integers(0, 2, n), rng.integers(0, 2, n))
    columns = [np.concatenate([a, b]) for a, b in zip((cloud.t, cloud.x, cloud.y, cloud.p, cloud.side), noise)]
    return topology, StereoEventStream(*columns, geometry), mismatch


def runner(lib, topology, mismatch=None):
    """``run(stream)``, the (spike times, spike ids, deliveries) of the
    compiled loop over ``topology``, or of the Python loop where ``lib`` is
    None."""
    net = _Network(topology, LifParams(), mismatch)

    def run(stream):
        ev_src = _input_ids(topology, stream)
        if lib is None:
            return _Engine(net).run(stream.t.tolist(), ev_src.tolist())
        return _native.run(lib, net, stream.t, ev_src)

    return run


def assert_union_of_rows(lib, topology, stream, mismatch):
    """A run gives its spikes in ``(t, nid)`` order, and equals the union of
    the runs on each row's events."""
    run = runner(lib, topology, mismatch)
    times, ids, deliveries = run(stream)
    assert np.array_equal(np.lexsort((ids, times)), np.arange(len(times)))
    row_times, row_ids, row_deliveries = union_of_runs([run(row) for row in split_rows(stream)])
    assert np.array_equal(times, row_times)
    assert np.array_equal(ids, row_ids)
    assert deliveries == row_deliveries


def assert_time_shift(lib, topology, stream, mismatch, dt):
    """Events ``dt`` later give the same spikes ``dt`` later."""
    run = runner(lib, topology, mismatch)
    times, ids, deliveries = run(stream)
    later = run(shifted(stream, dt))
    assert np.array_equal(later[0], times + dt)
    assert np.array_equal(later[1], ids)
    assert later[2] == deliveries


def assert_mirror(lib, topology, stream):
    """The mirrored stream gives the mirrored spikes, ``x_cyc -> 2 (W - 1) -
    x_cyc``, as a multiset."""
    run = runner(lib, topology)
    times, ids, deliveries = run(stream)
    m_times, m_ids, m_deliveries = run(mirrored(stream))
    spikes, mirror = spike_coords(topology, times, ids), spike_coords(topology, m_times, m_ids)
    mirror[:, 4] = 2 * (topology.retina_width - 1) - mirror[:, 4]
    assert sorted(map(tuple, mirror.tolist())) == sorted(map(tuple, spikes.tolist()))
    assert m_deliveries == deliveries


def assert_row_transplant(lib, topology, stream):
    """Each row's events, moved to a one-row retina, give that row's spikes
    in order, named by coordinate; the deliveries sum to the full run's."""
    times, ids, deliveries = runner(lib, topology)(stream)
    spikes = spike_coords(topology, times, ids)
    one_row = build_topology(topology.retina_width, 1, topology.d_max, polarity_mode=topology.polarity_mode)
    run_row = runner(lib, one_row)
    rows, total = split_rows(stream), 0
    for row in rows:
        row_times, row_ids, row_deliveries = run_row(transplanted(row))
        moved = spike_coords(one_row, row_times, row_ids)
        moved[:, 5] = row.y[0]
        assert np.array_equal(moved, spikes[spikes[:, 5] == row.y[0]].reshape(-1, 6))
        total += row_deliveries
    assert total == deliveries
    assert set(spikes[:, 5].tolist()) <= {int(row.y[0]) for row in rows}


@settings(max_examples=150, deadline=None)
@given(row_cases(16, 100_000))
def test_compiled_run_is_the_union_of_its_rows(lib, case):
    assert_union_of_rows(lib, *case)


@settings(max_examples=60, deadline=None)
@given(row_cases(6, 30_000))
def test_python_run_is_the_union_of_its_rows(case):
    assert_union_of_rows(None, *case)


@settings(max_examples=40, deadline=None)
@given(row_cases(16, 100_000), st.integers(1, 10**7))
def test_compiled_run_commutes_with_a_time_shift(lib, case, dt):
    assert_time_shift(lib, *case, dt)


@settings(max_examples=20, deadline=None)
@given(row_cases(6, 30_000), st.integers(1, 10**7))
def test_python_run_commutes_with_a_time_shift(case, dt):
    assert_time_shift(None, *case, dt)


@settings(max_examples=40, deadline=None)
@given(row_cases(16, 100_000, with_mismatch=False))
def test_compiled_run_commutes_with_the_mirror(lib, case):
    assert_mirror(lib, *case[:2])


@settings(max_examples=20, deadline=None)
@given(row_cases(6, 30_000, with_mismatch=False))
def test_python_run_commutes_with_the_mirror(case):
    assert_mirror(None, *case[:2])


@settings(max_examples=40, deadline=None)
@given(row_cases(16, 100_000, with_mismatch=False))
def test_compiled_rows_run_alone_on_a_one_row_retina(lib, case):
    assert_row_transplant(lib, *case[:2])


@settings(max_examples=20, deadline=None)
@given(row_cases(6, 30_000, with_mismatch=False))
def test_python_rows_run_alone_on_a_one_row_retina(case):
    assert_row_transplant(None, *case[:2])


def busy_stream(n: int, duration_us: int) -> StereoEventStream:
    """``n`` random events in row 4 of a 12x8 retina."""
    rng = np.random.default_rng(3)
    events = [
        DvsEvent(int(t), int(x), 4, 1, int(side))
        for t, x, side in zip(np.sort(rng.integers(0, duration_us, n)), rng.integers(0, 12, n), rng.integers(0, 2, n))
    ]
    return StereoEventStream.from_events(events, CameraGeometry(12, 8))


def test_compiled_loop_equals_python_loop_on_a_busy_network(lib):
    # enough spikes to grow the kernel's spike buffer and heap several times
    topology = build_topology(12, 8, 5)
    compiled, python = run_both(lib, topology, busy_stream(6000, 300_000), LifParams(), MismatchModel(1, 0.2, 0.1))
    assert len(python[0]) > 10_000
    assert np.array_equal(compiled[0], python[0])
    assert np.array_equal(compiled[1], python[1])
    assert compiled[2] == python[2]


@pytest.mark.parametrize(
    "params,mismatch,all_merge",
    [
        pytest.param(LifParams(), MismatchModel(), True, id="mismatch-off"),
        pytest.param(
            LifParams(overrides={**LifParams().overrides, Population.COINC_INH: {"threshold": 1.1}}),
            MismatchModel(), False, id="coinc-inh-override",
        ),
        pytest.param(LifParams(), MismatchModel(1, 0.0, 0.1), False, id="threshold-jitter"),
    ],
)
def test_merged_twins_equal_the_python_loop(lib, params, mismatch, all_merge):
    # the kernel runs a twin pair with equal parameters and input as one
    # neuron; the Python loop never merges
    topology = build_topology(12, 8, 5)
    twins = _Network(topology, params, mismatch).twins
    exc = topology.population_ids(Population.COINC_EXC)
    if all_merge:
        assert np.array_equal(twins, np.stack([exc, exc + len(exc)], axis=1))
    else:
        assert len(twins) == 0
    compiled, python = run_both(lib, topology, busy_stream(1500, 300_000), params, mismatch)
    assert python[1][np.isin(python[1], exc + len(exc))].size > 1000  # the shadows fire
    assert np.array_equal(compiled[0], python[0])
    assert np.array_equal(compiled[1], python[1])
    assert compiled[2] == python[2]


def test_simulate_falls_back_to_python_loop_without_compiler(lib, monkeypatch, tmp_path):
    topology = build_topology(6, 2, 3)
    events = [DvsEvent(1000 * k, k % 4, k % 2, 1, LEFT) for k in range(40)]
    events += [DvsEvent(1000 * k + 150, k % 4 + 1, k % 2, 1, RIGHT) for k in range(40)]
    stream = StereoEventStream.from_events(events, CameraGeometry(6, 2))
    expected = simulate(topology, stream)
    assert len(expected) > 0

    _native.kernel.cache_clear()
    monkeypatch.setattr(_native, "_find_compiler", lambda: None)
    monkeypatch.setattr(_native, "CACHE_DIR", str(tmp_path))  # empty: nothing prebuilt to load
    try:
        with pytest.warns(RuntimeWarning, match="Python loop"):
            got = simulate(topology, stream)
        assert _native.kernel() is None
    finally:
        _native.kernel.cache_clear()
    for name in ("times", "neuron_ids", "populations"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))
    assert (got.deliveries, got.counts, got.duration_us) == (expected.deliveries, expected.counts, expected.duration_us)


def test_concurrent_builds_into_empty_cache_both_load(lib, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(evstereo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from evstereo import _native; _native.build(sys.argv[1]).evstereo_free(None); print('loaded')"
    procs = [
        subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [p.communicate(timeout=120)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outputs == ["loaded\n", "loaded\n"]
    names = [f.name for f in tmp_path.iterdir()]
    assert len(names) == 1 and names[0].startswith("_engine-") and names[0].endswith(".so")  # no temp files left


def test_kernel_source_compiles_without_warnings(tmp_path):
    cc = _native._find_compiler()
    if cc is None:
        pytest.skip("no C compiler on this host")
    cmd = _native.compile_command(cc, str(tmp_path / "engine.so"))
    proc = subprocess.run([cmd[0], "-Wall", "-Wextra", "-Werror", *cmd[1:]], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
