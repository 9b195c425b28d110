"""Acceptance suite: every exit criterion with its stated tolerance.

Run ``pytest tests/test_acceptance.py -s`` to see one pass line per
criterion; a pytest failure is the fail line.
"""

import json
import time

import numpy as np
import pytest

from conftest import epsp_kernel, event_sort_key, flagged_pixels, id_of, oracle_matches
from evstereo.cli import main as cli_main
from evstereo.events import LEFT, ON, RIGHT, CameraGeometry, DvsEvent, StereoEventStream
from evstereo.groundtruth import DisparityTrace
from evstereo.metrics import (
    build_report,
    center_of_mass,
    label_spikes,
    pcd,
    rmse,
)
from evstereo.preprocess import (
    crop,
    detect_hot_pixels,
    downscale,
    filter_background,
    mask_regions,
    Rect,
)
from evstereo.simulator import LifParams, instantaneous_rates, simulate
from evstereo.synth import DisparityProfile, gen_stimulus
from evstereo.topology import NeuronCoord, Population, build_topology
from test_metrics import flat_trace, spike_record, window_sums
from test_preprocess import background_oracle, random_stream
from test_topology import rule_oracle

GEOM = CameraGeometry(16, 16)
WINDOW_US = 50_000
EPS_D = 1.0
D_MAX = 7


def passline(criterion: str, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: PASS  ({detail})")


def run_synthetic(profile: DisparityProfile, duration_us: int):
    topo = build_topology(16, 16, D_MAX)
    stream, trace = gen_stimulus(profile, GEOM, duration_us, WINDOW_US)
    record = simulate(topo, stream, duration_us=duration_us)
    report = build_report(record, topo, trace, WINDOW_US, EPS_D)
    return topo, stream, trace, record, report


def com_array(report) -> np.ndarray:
    return np.array([np.nan if v is None else v for v in report.com_d], dtype=float)


# =====================================================================
# A1: fixed-disparity tracking
# =====================================================================

@pytest.mark.parametrize("d", [-4, -2, 0, 2, 4])
def test_a1_fixed_disparity_tracking(d):
    start = time.monotonic()
    profile = DisparityProfile(
        shape="DOT", keyframes=((0, float(d)),), x=8, y=8,
        rate_hz=600.0, jitter_sigma_us=500.0, seed=100 + d,
    )
    _, _, _, record, report = run_synthetic(profile, 2_000_000)
    elapsed = time.monotonic() - start
    assert report.pcd_d is not None and report.pcd_d >= 0.95
    med = float(np.nanmedian(com_array(report)))
    assert abs(med - d) <= 0.5
    assert elapsed <= 10.0
    passline(
        f"A1[d={d:+d}]",
        f"PCD(D)={report.pcd_d:.3f} >= 0.95, |median CoM - d|={abs(med - d):.3g} <= 0.5, "
        f"runtime {elapsed:.2f}s <= 10s",
    )


# =====================================================================
# A2: depth-change tracking (large sweep)
# =====================================================================

def test_a2_depth_sweep_tracking():
    profile = DisparityProfile(
        shape="BAR", keyframes=((0, 0.0), (2_000_000, 6.0)), x=4, y=5, height=6,
        rate_hz=500.0, jitter_sigma_us=500.0, seed=202,
    )
    _, _, trace, record, report = run_synthetic(profile, 2_000_000)
    assert report.rmse_d is not None and report.rmse_d <= 2.0

    centers = np.arange(trace.n_windows) * WINDOW_US + WINDOW_US / 2
    gt_cross = float(centers[np.argmax(trace.d_mean >= 3.0)])
    com = com_array(report)
    crossed = np.flatnonzero(~np.isnan(com) & (com >= 3.0))
    assert len(crossed) > 0
    com_cross = float(centers[crossed[0]])
    assert abs(com_cross - gt_cross) <= 200_000
    passline(
        "A2",
        f"RMSE={report.rmse_d:.3f} <= 2.0, CoM crossed d=3 at {com_cross / 1e6:.3f}s vs "
        f"ground truth {gt_cross / 1e6:.3f}s (|delta|={abs(com_cross - gt_cross) / 1e3:.0f}ms <= 200ms)",
    )


# =====================================================================
# A3: near-constant depth
# =====================================================================

def test_a3_near_constant_depth():
    # +-0.5 px triangle wobble around d = 2
    keyframes = tuple(
        (t * 250_000, 2.0 + (0.5 if i % 2 else -0.5)) for i, t in enumerate(range(9))
    )
    profile = DisparityProfile(
        shape="DOT", keyframes=keyframes, x=6, y=8,
        rate_hz=600.0, jitter_sigma_us=500.0, seed=303,
    )
    _, _, _, record, report = run_synthetic(profile, 2_000_000)
    assert report.rmse_d is not None and report.rmse_d <= 1.0
    passline("A3", f"RMSE={report.rmse_d:.3f} <= 1.0 under +-0.5 px wobble")


# =====================================================================
# A4: oracle soundness on sparse probe streams
# =====================================================================

def coincidence_window_bound(w: float, tau_m: float, tau_s: float) -> int:
    """Largest pair separation (us) at which two EPSPs of weight w still
    reach threshold 1, by scanning the superposed closed-form trace."""

    def crosses(delta: int) -> bool:
        horizon = delta + 12 * int(max(tau_m, tau_s))
        ts = np.arange(0, horizon, 25)
        v = np.array([w * epsp_kernel(t, tau_m, tau_s) + w * epsp_kernel(t - delta, tau_m, tau_s) for t in ts])
        return bool((v >= 1.0).any())

    lo, hi = 0, 30_000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if crosses(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def sparse_probe_stream(seed: int, duration_us: int = 1_000_000):
    """One candidate pair every other analysis window per row; events on a
    given row are >= 10 * tau_m apart (tau_m = 2 ms for coincidence cells)."""
    rng = np.random.default_rng(seed)
    events = []
    for y in range(16):
        for wi in range(0, duration_us // WINDOW_US, 2):
            if rng.random() < 0.35:
                continue
            base = wi * WINDOW_US + int(rng.integers(15_000, 28_000))
            x_l = int(rng.integers(0, 16))
            d = int(rng.integers(max(-D_MAX, -x_l), min(D_MAX, 15 - x_l) + 1))
            dt = int(rng.integers(-2500, 2501))
            events.append(DvsEvent(base, x_l, y, ON, LEFT))
            events.append(DvsEvent(max(0, base + dt), x_l + d, y, ON, RIGHT))
    return StereoEventStream.from_events(events, GEOM)


def test_a4_oracle_soundness_100_fixtures():
    params = LifParams()
    cp = params.for_population(Population.COINC_EXC)
    bound = coincidence_window_bound(0.6, cp.tau_m, cp.tau_s)
    oracle_window = bound + 200
    topo = build_topology(16, 16, D_MAX)

    total_spikes = 0
    covered_bins = 0
    total_bins = 0
    for seed in range(100):
        stream = sparse_probe_stream(seed)
        record = simulate(topo, stream, params, duration_us=1_000_000)
        matches, _, _ = oracle_matches(stream, oracle_window, WINDOW_US)
        match_bins = set()
        for m in matches:
            wi = ((int(stream.t[m.left_index]) + int(stream.t[m.right_index])) // 2) // WINDOW_US
            match_bins.add((wi, m.y, m.disparity))
        spike_bins = set()
        mask = np.isin(record.populations, (Population.COINC_EXC, Population.COINC_INH))
        for t, nid in zip(record.times[mask], record.neuron_ids[mask]):
            _, c, _ = topo.coord_of(int(nid))
            key = (int(t) // WINDOW_US, c.y, c.d)
            assert key in match_bins, f"seed {seed}: C spike {key} has no oracle match"
            spike_bins.add(key)
            total_spikes += 1
        covered_bins += len(spike_bins)
        total_bins += len(match_bins)
    coverage = covered_bins / total_bins if total_bins else 0.0
    passline(
        "A4",
        f"100% of {total_spikes} C spikes across 100 fixtures map to oracle matches "
        f"(window bound {bound}us); coverage {coverage:.2f} reported, not asserted",
    )


# =====================================================================
# A5: ambiguity suppression on CLOUD stimuli
# =====================================================================

def test_a5_cloud_ambiguity_suppression():
    wins = 0
    results = []
    for seed in range(20):
        d = int(np.random.default_rng(1000 + seed).integers(-2, 3))
        profile = DisparityProfile(
            shape="CLOUD", keyframes=((0, float(d)),), y=6, height=3, dots_per_row=3,
            rate_hz=400.0, jitter_sigma_us=300.0, seed=seed,
        )
        _, _, _, _, report = run_synthetic(profile, 800_000)
        assert report.pcd_d is not None and report.pcd_c is not None
        win = report.pcd_d >= report.pcd_c
        wins += win
        results.append((seed, report.pcd_d, report.pcd_c, win))
    assert wins >= 18, results
    passline("A5", f"PCD(D) >= PCD(C) in {wins}/20 fixtures (need >= 18)")


# =====================================================================
# A6: end-to-end determinism through the CLI
# =====================================================================

def test_a6_determinism(tmp_path):
    cfg = {
        "seed": 6,
        "output_dir": str(tmp_path / "out"),
        "input": {
            "synthetic": {"shape": "DOT", "keyframes": [[0, 2.0]], "x": 6, "y": 8,
                           "rate_hz": 500.0, "jitter_sigma_us": 400.0},
            "duration_us": 500_000,
        },
        "topology": {"d_max": D_MAX},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    spikes_1 = (out / "spikes.csv").read_bytes()
    metrics_1 = (out / "metrics.json").read_bytes()
    assert cli_main(["run", "-c", str(path)]) == 0
    assert (out / "spikes.csv").read_bytes() == spikes_1
    assert (out / "metrics.json").read_bytes() == metrics_1
    passline("A6", "repeated cmd_run produced byte-identical spikes.csv and metrics.json")


# =====================================================================
# A7: metric fixtures, exact
# =====================================================================

def test_a7_metric_fixtures_exact():
    # CoM fixtures
    assert center_of_mass(*window_sums({2.0: 1, 4.0: 3}))[0] == 3.5
    assert center_of_mass(*window_sums({-3.0: 4}))[0] == -3.0
    assert np.isnan(center_of_mass(*window_sums({0.0: 0}))[0])

    # RMSE fixtures
    trace5 = flat_trace(2.0, n=5)
    assert rmse(trace5.d_mean.copy(), trace5) == 0.0
    assert rmse(trace5.d_mean + 1.0, trace5) == 1.0
    gt = flat_trace(0.0, n=5)
    gt.d_mean[:] = [0.0, 2.0, 5.0, 5.0, 4.0]
    com = np.array([1.0, 2.0, 3.0, np.nan, 5.0])
    assert abs(rmse(com, gt) - np.sqrt(1.5)) <= 1e-12

    # TD/FD labelling fixtures on a real topology
    topo = build_topology(8, 1, 5)

    def d_id(dv):
        for nid in topo.population_ids(Population.DISPARITY):
            if topo.coord_of(int(nid))[1].d == dv:
                return int(nid)
        raise LookupError(dv)

    band = flat_trace(2.0, d_min=1.0, d_max=3.0)
    rec = spike_record([(100, d_id(2)), (200, d_id(4)), (300, d_id(5))], topo, WINDOW_US - 1)
    td, fd = label_spikes(instantaneous_rates(rec, WINDOW_US), topo, band, 1.0, (Population.DISPARITY,))
    assert (td.sum(), fd.sum()) == (2, 1)  # d=4 inclusive, d=5 out

    # PCD fixtures (exact rationals)
    c = (np.array([3, 0]), np.array([1, 4]))
    assert pcd(*c, "global") == 3 / 8
    assert pcd(*c, "per-window-mean") == 0.375
    allt = (np.array([5]), np.array([0]))
    assert pcd(*allt) == 1.0
    half = (np.array([2, 3]), np.array([2, 3]))
    assert pcd(*half, "global") == 0.5 and pcd(*half, "per-window-mean") == 0.5
    passline("A7", "CoM/RMSE/PCD/TD-FD fixtures reproduced exactly (<=1e-12 where irrational)")


# =====================================================================
# A8: topology rules against the exhaustive oracle
# =====================================================================

def test_a8_topology_rules_and_bijection():
    checked = 0
    for (w, h, d_max) in [(1, 1, 0), (2, 1, 1), (2, 2, 1), (3, 2, 2), (4, 4, 3), (4, 3, 2)]:
        topo = build_topology(w, h, d_max)
        built = set(zip(topo.syn_pre.tolist(), topo.syn_post.tolist(), topo.syn_sign.tolist(), topo.syn_kind.tolist()))
        assert built == rule_oracle(topo), (w, h, d_max)
        checked += 1
        # coordinate bijection over every valid pair
        for y in range(h):
            for xl in range(w):
                for xr in range(w):
                    c = NeuronCoord.from_pair(xl, xr, y)
                    assert (c.x_left, c.x_right, c.y) == (xl, xr, y)
                    if abs(c.d) <= d_max:
                        for pop in (Population.COINC_EXC, Population.COINC_INH, Population.DISPARITY):
                            nid = id_of(topo, pop, c)
                            assert topo.coord_of(nid) == (pop, c, 0)
    passline("A8", f"R1-R4 match the O(N^2) re-evaluation on {checked} builds <= 4x4; bijection holds")


# =====================================================================
# A9: monocular silence and refractory invariants
# =====================================================================

def test_a9_monocular_silence_and_refractory():
    topo = build_topology(16, 16, D_MAX)
    params = LifParams()
    refractory = params.for_population(Population.DISPARITY).refractory_us
    for seed in range(10):
        rng = np.random.default_rng(seed)
        side = LEFT if seed % 2 == 0 else RIGHT
        n = 1000
        stream = StereoEventStream(
            rng.integers(0, 1_000_000, n),
            rng.integers(0, 16, n),
            rng.integers(0, 16, n),
            rng.integers(0, 2, n),
            np.full(n, side),
            GEOM,
        )
        record = simulate(topo, stream, params)
        assert len(record) == 0, f"monocular stream (seed {seed}) produced spikes"

    # refractory floor on an accepted (binocular, spiking) run
    profile = DisparityProfile(shape="DOT", keyframes=((0, 2.0),), x=6, y=8,
                               rate_hz=900.0, jitter_sigma_us=200.0, seed=909)
    _, _, _, record, _ = run_synthetic(profile, 1_000_000)
    assert len(record) > 0
    violations = 0
    for nid in np.unique(record.neuron_ids):
        ts = np.sort(record.times[record.neuron_ids == nid])
        if len(ts) > 1 and np.diff(ts).min() < refractory:
            violations += 1
    assert violations == 0
    passline(
        "A9",
        "zero C/D spikes on 10x1000-event single-sided streams; "
        f"all inter-spike intervals >= {refractory}us on the spiking run",
    )


# =====================================================================
# A10: preprocessing equivalence against brute force, exact
# =====================================================================

def test_a10_preprocessing_oracles_exact():
    geom = CameraGeometry(24, 18)
    s = random_stream(42, 10_000, geometry=geom, max_t=80_000)

    region = Rect(4, 3, 9, 8)
    assert list(mask_regions(s, [region])) == [e for e in s if not region.contains(e.x, e.y)]

    factor = 4.0
    got_hot = flagged_pixels(detect_hot_pixels(s, factor), geom)
    oracle_hot = set()
    for side in (LEFT, RIGHT):
        counts = {}
        for e in s:
            if e.side == side:
                counts[(e.x, e.y)] = counts.get((e.x, e.y), 0) + 1
        if counts:
            med = float(np.median(sorted(counts.values())))
            oracle_hot |= {(x, y, side) for (x, y), c in counts.items() if c > factor * med}
    assert got_hot == oracle_hot

    filtered = filter_background(s, window_us=600, radius=1)
    assert list(filtered) == background_oracle(s, 600, 1, False)

    ds = downscale(s, 5)
    oracle_ds = [
        DvsEvent(e.t, e.x // 5, e.y // 5, e.polarity, e.side)
        for e in s
        if e.x // 5 < geom.width // 5 and e.y // 5 < geom.height // 5
    ]
    # pixel merging re-derives the canonical tie-break within a timestamp
    assert list(ds) == sorted(oracle_ds, key=event_sort_key)

    cr = crop(s, (5, 2), (16, 16))
    oracle_cr = [
        DvsEvent(e.t, e.x - 5, e.y - 2, e.polarity, e.side)
        for e in s
        if 5 <= e.x < 21 and 2 <= e.y < 18
    ]
    assert list(cr) == oracle_cr
    passline("A10", "mask/hot-pixel/background/downscale/crop all equal their oracles on 10^4 events")
