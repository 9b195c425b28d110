"""The compiled event loop against the Python loop it reproduces: exact
equality of spike times, ids and delivery counts and bitwise equality of the
final neuron and synapse state over random small networks, the fallback
without a compiler, concurrent builds, and a warning-free build of the
kernel source."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import evstereo
from evstereo import _native
from evstereo.events import LEFT, RIGHT, CameraGeometry, DvsEvent, StereoEventStream
from evstereo.simulator import LifParams, MismatchModel, _Engine, _input_ids, _Network, simulate
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
    assert compiled is not None
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
    equal = draw(st.booleans())
    overrides = {}
    for pop in draw(st.sets(st.sampled_from([Population.COINC_EXC, Population.DISPARITY]))):
        tm = draw(taus)
        overrides[pop] = {"tau_m": tm, "tau_s": tm if draw(st.booleans()) else draw(taus)}
    params = LifParams(
        tau_m=tau_m,
        tau_s=tau_m if equal else draw(taus),
        threshold=draw(st.floats(0.5, 1.5)),
        reset=draw(st.sampled_from([0.0, -0.3])),
        refractory_us=draw(st.sampled_from([0, 1, 300, 1000])),
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
