import dataclasses
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evstereo
from conftest import read_report
from evstereo import _native
from evstereo.cli import main
from evstereo.config import (
    TABLE,
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
)
from evstereo.events import InputError


def synthetic_config(tmp_path, **extra):
    cfg = {
        "seed": 42,
        "sample_label": "dot-fixture",
        "output_dir": str(tmp_path / "out"),
        "input": {
            "synthetic": {
                "shape": "DOT",
                "keyframes": [[0, 2.0]],
                "x": 5,
                "y": 8,
                "rate_hz": 500.0,
                "jitter_sigma_us": 300.0,
            },
            "duration_us": 400_000,
        },
        "topology": {"retina_width": 16, "retina_height": 16, "d_max": 5},
        "analysis": {"window_us": 50_000, "eps_d": 1.0},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


ARTIFACTS = [
    "input_events.csv",
    "spikes.csv",
    "rates.csv",
    "com.csv",
    "disparity_trace.csv",
    "mean_rates.csv",
    "disparity_hist.csv",
    "metrics.json",
]


def test_run_synthetic_produces_all_artifacts(tmp_path, capsys):
    path, cfg = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    report = read_report(str(out / "metrics.json"))
    assert report.pcd_d is not None and report.pcd_d >= 0.95
    assert report.sample_label == "dot-fixture"
    printed = capsys.readouterr().out
    assert "PCD" in printed and "RMSE" in printed


def test_run_missing_event_file_exit_2(tmp_path, capsys):
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "input": {
            "left_events": str(tmp_path / "nope_left.csv"),
            "right_events": str(tmp_path / "nope_right.csv"),
            "markers": str(tmp_path / "m.csv"),
            "calibration": str(tmp_path / "c.json"),
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "-c", str(path)]) == 2
    assert "nope_left.csv" in capsys.readouterr().err


def test_run_twice_byte_identical(tmp_path):
    path, _ = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    first = {name: (out / name).read_bytes() for name in ("spikes.csv", "metrics.json")}
    assert main(["run", "-c", str(path)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_set_override_changes_run(tmp_path):
    path, _ = synthetic_config(tmp_path)
    out2 = tmp_path / "out2"
    assert main(["run", "-c", str(path), "--set", f"output_dir={out2}", "--set", "analysis.eps_d=2"]) == 0
    report = read_report(str(out2 / "metrics.json"))
    assert report.eps_d == 2.0
    assert report.config["analysis"]["eps_d"] == 2.0


def test_config_echo_reproduces_run(tmp_path):
    path, _ = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path)]) == 0
    report = read_report(str(tmp_path / "out" / "metrics.json"))
    echo = tmp_path / "echo.json"
    echoed = dict(report.config)
    echoed["output_dir"] = str(tmp_path / "out_echo")
    echo.write_text(json.dumps(echoed))
    assert main(["run", "-c", str(echo)]) == 0
    a = (tmp_path / "out" / "spikes.csv").read_bytes()
    b = (tmp_path / "out_echo" / "spikes.csv").read_bytes()
    assert a == b


def test_synth_writes_fixture_files(tmp_path):
    path, _ = synthetic_config(tmp_path)
    assert main(["synth", "-c", str(path)]) == 0
    out = tmp_path / "out"
    for name in ("left.csv", "right.csv", "trace.csv"):
        assert (out / name).exists()
    assert main(["synth", "-c", str(path)]) == 0  # same seed -> same bytes
    left1 = (out / "left.csv").read_bytes()
    assert main(["synth", "-c", str(path)]) == 0
    assert (out / "left.csv").read_bytes() == left1


def test_synth_out_of_frame_profile_exit_errors_before_files(tmp_path):
    path, cfg = synthetic_config(tmp_path)
    cfg["input"]["synthetic"]["keyframes"] = [[0, 0.0], [400_000, 14.0]]
    path.write_text(json.dumps(cfg))
    rc = main(["synth", "-c", str(path)])
    assert rc == 2  # config error, no artifact written
    assert not (tmp_path / "out" / "left.csv").exists()
    assert main(["run", "-c", str(path)]) == 2


def test_topology_command_reports_constraints(tmp_path, capsys):
    path, _ = synthetic_config(tmp_path)
    assert main(["topology", "-c", str(path), "--set", "topology.d_max=0", "--set", "topology.retina_width=1", "--set", "topology.retina_height=1"]) == 0
    assert "pass" in capsys.readouterr().out
    assert (tmp_path / "out" / "topology.json").exists()

    assert main(["topology", "-c", str(path), "--set", "topology.d_max=15"]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" in printed  # budget failure reported, still advisory


def test_topology_hardware_budget_preset(tmp_path, capsys):
    path, _ = synthetic_config(tmp_path)
    assert main(["topology", "-c", str(path), "--hardware-budget"]) == 0
    printed = capsys.readouterr().out
    assert "largest feasible d_max" in printed
    data = json.loads((tmp_path / "out" / "topology.json").read_text())
    assert data["populations"]["DISPARITY"] > 0


def test_eval_on_existing_artifacts(tmp_path, capsys):
    path, _ = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    eval_out = tmp_path / "eval_out"
    rc = main([
        "eval", "-c", str(path),
        "--spikes", str(out / "spikes.csv"),
        "--trace", str(out / "disparity_trace.csv"),
        "--set", f"output_dir={eval_out}",
    ])
    assert rc == 0
    evaluated = read_report(str(eval_out / "metrics.json"))
    original = read_report(str(out / "metrics.json"))
    assert evaluated.pcd_d == original.pcd_d
    assert evaluated.rmse_d == pytest.approx(original.rmse_d, abs=1e-12)
    assert evaluated.energy_uw is None  # counters are not persisted


def test_eval_missing_spikes_exit_2(tmp_path):
    path, _ = synthetic_config(tmp_path)
    rc = main(["eval", "-c", str(path), "--spikes", str(tmp_path / "no.csv"), "--trace", str(tmp_path / "no2.csv")])
    assert rc == 2


def test_metrics_json_refuses_a_number_json_does_not_have(tmp_path):
    path, _ = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path)]) == 0
    report = read_report(str(tmp_path / "out" / "metrics.json"))
    report.rmse_d = float("inf")
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.write_json(str(tmp_path / "metrics.json"))
    assert not (tmp_path / "metrics.json").exists()


# ------------------------------------------------------------- file inputs

def write_file_fixture(tmp_path, t_offset=0):
    """Full-resolution stereo recording of a flickering 2x2 cluster with a
    matching marker track and projection pair (disparity 12 full-res px =
    2 downscaled px)."""
    rng = np.random.default_rng(99)
    duration = 1_000_000
    rows_l, rows_r = [], []
    cluster = [(75, 51), (76, 51), (75, 52), (76, 52)]
    for t in range(0, duration, 2000):
        for (x, y) in cluster:
            jl = int(rng.normal(0, 300))
            jr = int(rng.normal(0, 300))
            rows_l.append((max(0, t + jl) + t_offset, x, y, int(rng.integers(0, 2))))
            rows_r.append((max(0, t + jr) + t_offset, x + 12, y, int(rng.integers(0, 2))))
    left = tmp_path / "left_full.csv"
    right = tmp_path / "right_full.csv"
    left.write_text("t_us,x,y,p\n" + "\n".join(f"{t},{x},{y},{p}" for t, x, y, p in rows_l) + "\n")
    right.write_text("t_us,x,y,p\n" + "\n".join(f"{t},{x},{y},{p}" for t, x, y, p in rows_r) + "\n")

    markers = tmp_path / "markers.csv"
    rows = ["t_us,joint,X_mm,Y_mm,Z_mm"]
    for t in range(0, duration + 1, 100_000):
        rows.append(f"{t + t_offset},torso,75.5,51.5,1.0")
    markers.write_text("\n".join(rows) + "\n")

    calib = tmp_path / "calib.json"
    p_left = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    p_right = [[1, 0, 0, 12], [0, 1, 0, 0], [0, 0, 1, 0]]
    calib.write_text(json.dumps({"left": p_left, "right": p_right}))
    return left, right, markers, calib


def file_config(tmp_path, left, right, markers, calib, out="out_file", crop_origin=(0, 0)):
    cfg = {
        "sample_label": "file-fixture",
        "output_dir": str(tmp_path / out),
        "input": {
            "left_events": str(left),
            "right_events": str(right),
            "markers": str(markers),
            "calibration": str(calib),
        },
        "preprocess": {
            "downscale_factor": 6,
            "crop_origin": list(crop_origin) if crop_origin else None,
            "crop_size": [16, 16],
            "background_radius": 1,
        },
        "topology": {"d_max": 5},
        "analysis": {"window_us": 50_000, "eps_d": 1.0},
    }
    path = tmp_path / "file_config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_file_inputs_end_to_end(tmp_path):
    fixture = write_file_fixture(tmp_path)
    path = file_config(tmp_path, *fixture)
    assert main(["run", "-c", str(path)]) == 0
    report = read_report(str(tmp_path / "out_file" / "metrics.json"))
    assert report.pcd_d is not None and report.pcd_d >= 0.9
    assert report.rmse_d is not None and report.rmse_d <= 0.25
    assert report.energy_uw is not None and report.energy_uw > 0


def test_run_file_inputs_auto_crop(tmp_path):
    fixture = write_file_fixture(tmp_path)
    path = file_config(tmp_path, *fixture, out="out_auto", crop_origin=None)
    assert main(["run", "-c", str(path), "--auto-crop"]) == 0
    report = read_report(str(tmp_path / "out_auto" / "metrics.json"))
    # ground truth shares the resolved origin, so metrics are origin-invariant
    assert report.pcd_d is not None and report.pcd_d >= 0.9
    assert report.rmse_d is not None and report.rmse_d <= 0.25


def test_run_file_inputs_epoch_rebased(tmp_path):
    base = write_file_fixture(tmp_path)
    path_a = file_config(tmp_path, *base, out="out_epoch0")
    assert main(["run", "-c", str(path_a)]) == 0
    shifted = write_file_fixture(tmp_path, t_offset=777_000)
    path_b = file_config(tmp_path, *shifted, out="out_epoch1")
    assert main(["run", "-c", str(path_b)]) == 0
    a = read_report(str(tmp_path / "out_epoch0" / "metrics.json"))
    b = read_report(str(tmp_path / "out_epoch1" / "metrics.json"))
    assert b.pcd_d == a.pcd_d
    assert b.rmse_d == pytest.approx(a.rmse_d, abs=1e-12)


def test_run_file_inputs_without_preprocessing(tmp_path, capsys):
    """With ``preprocess.enabled=false`` a 16x16 recording feeds the 16x16
    retina as it is: the default downscale factor (8), which would leave no
    room for the 16x16 crop, is not checked. A recording whose geometry is
    not the retina's still exits 2."""
    pulses = [(t, x, t // 2000 % 2) for t in range(0, 400_000, 2000) for x in (5, 6)]  # disparity 2 in row 8
    left, right = tmp_path / "left.csv", tmp_path / "right.csv"
    left.write_text("t_us,x,y,p\n" + "".join(f"{t},{x},8,{p}\n" for t, x, p in pulses))
    right.write_text("t_us,x,y,p\n" + "".join(f"{t + 100},{x + 2},8,{p}\n" for t, x, p in pulses))
    markers = tmp_path / "markers.csv"
    rows = [f"{t},torso,5.5,8.5,1.0" for t in range(0, 500_000, 100_000)]
    markers.write_text("\n".join(["t_us,joint,X_mm,Y_mm,Z_mm", *rows]) + "\n")
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps({"left": IDENTITY, "right": [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]]}))
    inputs = {"left_events": left, "right_events": right, "markers": markers, "calibration": calib}
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "input": {key: str(path) for key, path in inputs.items()},
        "preprocess": {"enabled": False, "full_geometry": [16, 16]},
        "topology": {"d_max": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "-c", str(path)]) == 0
    report = read_report(str(tmp_path / "out" / "metrics.json"))
    assert set(report.gt_mean) - {None} == {2.0}
    assert report.pcd_d is not None and report.pcd_d >= 0.9

    capsys.readouterr()
    assert main(["run", "-c", str(path), "--set", "topology.retina_width=12"]) == 2
    assert "does not match the retina" in capsys.readouterr().err


def test_file_ground_truth_covers_the_windows_of_spikes_after_the_last_event(tmp_path):
    """Events end at 398 ms and the markers run to 600 ms: a spike after
    400 ms opens window 8, whose ground truth comes from the markers."""
    pulses = [(t, x, t // 2000 % 2) for t in range(0, 400_000, 2000) for x in (5, 6)]  # disparity 2 in row 8
    left, right = tmp_path / "left.csv", tmp_path / "right.csv"
    left.write_text("t_us,x,y,p\n" + "".join(f"{t},{x},8,{p}\n" for t, x, p in pulses))
    right.write_text("t_us,x,y,p\n" + "".join(f"{t},{x + 2},8,{p}\n" for t, x, p in pulses))
    markers = tmp_path / "markers.csv"
    rows = [f"{t},torso,5.5,8.5,1.0" for t in range(0, 700_000, 100_000)]
    markers.write_text("\n".join(["t_us,joint,X_mm,Y_mm,Z_mm", *rows]) + "\n")
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps({"left": IDENTITY, "right": [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]]}))
    inputs = {"left_events": left, "right_events": right, "markers": markers, "calibration": calib}
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "input": {key: str(path) for key, path in inputs.items()},
        "preprocess": {"enabled": False, "full_geometry": [16, 16]},
        "topology": {"d_max": 5},
        "analysis": {"window_us": 50_000},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "-c", str(path)]) == 0
    _, spikes = read_rows(tmp_path / "out" / "spikes.csv")
    assert max(int(t) for t, _, _ in spikes) >= 400_000
    report = read_report(str(tmp_path / "out" / "metrics.json"))
    assert report.n_windows == 9
    assert report.gt_mean == [2.0] * 9
    assert report.td_d[8] > 0
    _, trace = read_rows(tmp_path / "out" / "disparity_trace.csv")
    assert [row[:3] for row in trace[8:]] == [["8", "425000.0", "2.0"]]


def test_run_whose_events_all_leave_the_crop_writes_every_artifact(tmp_path):
    """The record lasts 0 us, so it has no average power: ``energy_uw`` is null."""
    for name, dx in (("left.csv", 0), ("right.csv", 4)):
        rows = "".join(f"{t},{x + dx},10,1\n" for t in range(0, 200_000, 2000) for x in (10, 11))
        (tmp_path / name).write_text("t_us,x,y,p\n" + rows)
    markers = "".join(f"{t},torso,40.0,40.0,1.0\n" for t in range(0, 300_001, 50_000))  # inside the crop
    (tmp_path / "markers.csv").write_text("t_us,joint,X_mm,Y_mm,Z_mm\n" + markers)
    p_left = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    p_right = [[1, 0, 0, 4], [0, 1, 0, 0], [0, 0, 1, 0]]
    (tmp_path / "calib.json").write_text(json.dumps({"left": p_left, "right": p_right}))
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "input": {
            "left_events": str(tmp_path / "left.csv"),
            "right_events": str(tmp_path / "right.csv"),
            "markers": str(tmp_path / "markers.csv"),
            "calibration": str(tmp_path / "calib.json"),
        },
        "preprocess": {"full_geometry": [64, 64], "downscale_factor": 2, "crop_origin": [16, 16]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "-c", str(path)]) == 0
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == sorted(ARTIFACTS)
    assert (tmp_path / "out" / "input_events.csv").read_text() == "t_us,x,y,p,side\n"
    report = read_report(str(tmp_path / "out" / "metrics.json"))
    assert report.energy_uw is None and report.input_events == 0 and report.gt_mean[0] == 2.0


def test_run_without_a_compiler_writes_the_same_artifacts(tmp_path, monkeypatch):
    # the numpy parser and background filter and the Python event loop give
    # the compiled kernels' artifacts byte for byte
    if _native.kernel() is None:
        pytest.skip("no C compiler on this host")
    path = file_config(tmp_path, *write_file_fixture(tmp_path))
    out = tmp_path / "out_file"
    assert main(["run", "-c", str(path)]) == 0
    compiled = {f.name: f.read_bytes() for f in out.iterdir()}
    shutil.rmtree(out)
    _native.kernel.cache_clear()
    monkeypatch.setattr(_native, "_find_compiler", lambda: None)
    monkeypatch.setattr(_native, "CACHE_DIR", str(tmp_path / "empty_cache"))
    try:
        with pytest.warns(RuntimeWarning, match="compiled kernels unavailable"):
            assert main(["run", "-c", str(path)]) == 0
        assert _native.kernel() is None
    finally:
        _native.kernel.cache_clear()
    assert len(compiled) == 8
    assert {f.name: f.read_bytes() for f in out.iterdir()} == compiled


@pytest.mark.parametrize("missing", ["random library", "compiler"])
def test_synthetic_run_and_synth_write_the_same_files_without_the_random_library_or_a_compiler(
    tmp_path, monkeypatch, missing
):
    # without numpy's random C library the kernel library has no stimulus
    # loop, and without a compiler there is no library: either way the
    # Python references write the compiled kernels' files byte for byte
    if _native.kernel() is None:
        pytest.skip("no C compiler on this host")
    path, _ = synthetic_config(tmp_path)
    out = tmp_path / "out"

    def run_and_synth() -> dict:
        assert main(["run", "-c", str(path)]) == 0
        assert main(["synth", "-c", str(path)]) == 0
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        shutil.rmtree(out)
        return files

    compiled = run_and_synth()
    _native.kernel.cache_clear()
    monkeypatch.setattr(_native, "CACHE_DIR", str(tmp_path / "empty_cache"))
    try:
        if missing == "compiler":
            monkeypatch.setattr(_native, "_find_compiler", lambda: None)
            with pytest.warns(RuntimeWarning, match="compiled kernels unavailable"):
                assert run_and_synth() == compiled
            assert _native.kernel() is None
        else:
            monkeypatch.setattr(_native, "NPYRANDOM", str(tmp_path / "no_such_archive.a"))
            assert run_and_synth() == compiled
            assert not hasattr(_native.kernel(), "evstereo_synth")
    finally:
        _native.kernel.cache_clear()
    assert sorted(compiled) == sorted(ARTIFACTS + ["left.csv", "right.csv", "trace.csv"])


def test_run_multiple_configs_with_jobs(tmp_path):
    path1, _ = synthetic_config(tmp_path)
    cfg2_path = tmp_path / "config2.json"
    cfg2 = json.loads(path1.read_text())
    cfg2["output_dir"] = str(tmp_path / "out_b")
    cfg2["input"]["synthetic"]["keyframes"] = [[0, -2.0]]
    cfg2_path.write_text(json.dumps(cfg2))
    rc = main(["run", "-c", str(path1), "-c", str(cfg2_path), "--jobs", "2"])
    assert rc == 0
    assert (tmp_path / "out" / "metrics.json").exists()
    assert (tmp_path / "out_b" / "metrics.json").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_sharing_a_topology_writes_the_files_of_single_runs(tmp_path, jobs):
    # a and b share one topology, which a process builds once; c has another d_max
    from evstereo import cli

    _, cfg = synthetic_config(tmp_path)
    paths = []
    for name, d, d_max in (("a", 2.0, 5), ("b", -2.0, 5), ("c", 1.0, 4)):
        one = json.loads(json.dumps(cfg))
        one["input"]["synthetic"]["keyframes"] = [[0, d]]
        one["topology"]["d_max"] = d_max
        one["output_dir"] = str(tmp_path / name)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(one))

    def files() -> dict:
        found = {f"{name}/{f.name}": f.read_bytes() for name in "abc" for f in (tmp_path / name).iterdir()}
        for name in "abc":
            shutil.rmtree(tmp_path / name)
        return found

    for path in paths:
        cli._topology.cache_clear()
        assert main(["run", "-c", str(path)]) == 0
    single = files()
    cli._topology.cache_clear()
    assert main(["run", *(a for path in paths for a in ("-c", str(path))), "--jobs", str(jobs)]) == 0
    if jobs == 1:
        assert cli._topology.cache_info().hits == 1
    assert len(single) == 3 * len(ARTIFACTS)
    assert files() == single


def test_run_multiple_configs_aggregates_failures(tmp_path):
    path1, _ = synthetic_config(tmp_path)
    missing = tmp_path / "missing.json"
    rc = main(["run", "-c", str(path1), "-c", str(missing)])
    assert rc == 2
    assert (tmp_path / "out" / "metrics.json").exists()


def batch_configs(tmp_path, names):
    """A synthetic config per name, each writing to ``tmp_path / name``; the
    ``-c`` arguments of a batch of them."""
    _, cfg = synthetic_config(tmp_path)
    args = []
    for k, name in enumerate(names):
        one = json.loads(json.dumps(cfg))
        one["input"]["synthetic"]["keyframes"] = [[0, float(k - 1)]]
        one["output_dir"] = str(tmp_path / name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(one))
        args += ["-c", str(path)]
    return args


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="--jobs runs serially without os.fork")


@needs_fork
def test_worker_killed_mid_config_fails_only_that_config(tmp_path, monkeypatch, capfd):
    from evstereo import cli

    run_one, victim, pid_file = cli._run_one, str(tmp_path / "b.json"), tmp_path / "killed.pid"

    def run_or_die(config_path, overrides, auto_crop):
        if config_path == victim:
            pid_file.write_text(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        return run_one(config_path, overrides, auto_crop)

    monkeypatch.setattr(cli, "_run_one", run_or_die)
    assert main(["run", *batch_configs(tmp_path, "abc"), "--jobs", "2"]) == 1
    err = capfd.readouterr().err
    assert f"error (run): worker {pid_file.read_text()} killed by signal {int(signal.SIGKILL)}" in err, err
    for name in "ac":
        assert sorted(f.name for f in (tmp_path / name).iterdir()) == sorted(ARTIFACTS)
    assert not (tmp_path / "b").exists()


@needs_fork
def test_output_buffered_before_a_batch_prints_once(tmp_path, monkeypatch, capfd):
    # block-buffered, unlike the capture's own stream: what the parent has
    # not flushed before it forks, each worker would print again
    buffered = io.TextIOWrapper(open(os.dup(1), "wb"))
    monkeypatch.setattr(sys, "stdout", buffered)
    try:
        print("printed before the batch")
        assert main(["run", *batch_configs(tmp_path, "ab"), "--jobs", "2"]) == 0
    finally:
        monkeypatch.undo()
        buffered.close()
    out = capfd.readouterr().out
    assert out.count("printed before the batch") == 1
    assert out.count("sample: dot-fixture") == 2


@needs_fork
def test_more_jobs_than_configs_runs_each_config_once(tmp_path, monkeypatch):
    from evstereo import cli

    log = tmp_path / "log"

    def record(config_path, overrides, auto_crop):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, f"{os.getpid()} {config_path}\n".encode())
        os.close(fd)
        return 0

    monkeypatch.setattr(cli, "_run_one", record)
    assert main(["run", *batch_configs(tmp_path, "ab"), "--jobs", "8"]) == 0
    pids, paths = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
    assert sorted(paths) == [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert os.getpid() not in map(int, pids) and len(set(pids)) <= 2


def test_jobs_without_fork_runs_serially(tmp_path, monkeypatch):
    from evstereo import cli

    ran = []
    monkeypatch.setattr(cli, "_run_one", lambda config_path, overrides, auto_crop: ran.append(config_path) or 0)
    monkeypatch.delattr(os, "fork", raising=False)
    assert main(["run", *batch_configs(tmp_path, "ab"), "--jobs", "2"]) == 0
    assert ran == [str(tmp_path / "a.json"), str(tmp_path / "b.json")]


def src_on_path() -> dict:
    """The environment of a child interpreter that imports this evstereo."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(evstereo.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_module_entry_exits_with_the_code_of_main(tmp_path):
    cmd = [sys.executable, "-m", "evstereo.cli", "run", "-c", str(tmp_path / "missing.json")]
    proc = subprocess.run(cmd, env=src_on_path(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error (run): ")


def test_batch_loads_no_process_pool(tmp_path):
    code = (
        "import sys\n"
        "from evstereo.cli import main\n"
        "def pools():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing'))\n"
        "print('imported', pools())\n"
        "rc = main(sys.argv[1:])\n"
        "print('ran', rc, pools())\n"
    )
    argv = ["run", *batch_configs(tmp_path, "ab"), "--jobs", "2"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=src_on_path(), capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert (lines[0], lines[-1]) == ("imported []", "ran 0 []")
    assert all((tmp_path / name / "metrics.json").exists() for name in "ab")


def test_file_run_loads_neither_hashlib_nor_ctypeslib(tmp_path):
    # OpenSSL and numpy.ctypeslib each cost milliseconds to import
    code = (
        "import sys\n"
        "from evstereo.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('ran', rc, sorted(m for m in sys.modules if m in ('hashlib', '_hashlib', 'numpy.ctypeslib')))\n"
    )
    config = file_config(tmp_path, *write_file_fixture(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "-c", str(config)], env=src_on_path(), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ran 0 []"
    assert (tmp_path / "out_file" / "metrics.json").exists()


def test_import_stays_small():
    code = "import sys\nimport evstereo.cli\nprint(len(sys.modules))\nprint(*sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=src_on_path(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, names = proc.stdout.splitlines()
    assert int(count) <= 232
    unused = ("subprocess", "hashlib", "numpy.random", "concurrent", "multiprocessing")
    assert [m for m in names.split() if m in unused or m.startswith(tuple(u + "." for u in unused))] == []


@pytest.mark.parametrize("names,jobs", [("a", 1), ("ab", 2)])
def test_module_entry_prints_each_headline_once_to_a_pipe(tmp_path, names, jobs):
    # a pipe makes stdout block-buffered, so the exit must flush it
    cmd = [sys.executable, "-m", "evstereo.cli", "run", *batch_configs(tmp_path, names), "--jobs", str(jobs)]
    proc = subprocess.run(cmd, env=src_on_path(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("sample: dot-fixture\n") == len(names)
    assert proc.stdout.count("population |") == len(names)


# ------------------------------------------------------------- config unit

def test_apply_overrides_parses_json_values():
    data = apply_overrides({}, ["a.b=2", "a.c=[1,2]", "d=text", "e.f=null"])
    assert data == {"a": {"b": 2, "c": [1, 2]}, "d": "text", "e": {"f": None}}
    with pytest.raises(InputError):
        apply_overrides({}, ["missing_equals"])


def test_unknown_keys_rejected():
    with pytest.raises(InputError, match="unknown"):
        config_from_dict({"nope": 1})
    with pytest.raises(InputError, match="unknown"):
        config_from_dict({"topology": {"bogus": 3}})


def test_config_round_trip_dict():
    raw = {
        "seed": 7,
        "input": {"synthetic": {"shape": "BAR", "keyframes": [[0, 0.0], [1000, 3.0]], "height": 4}, "duration_us": 1000},
        "simulator": {"overrides": {"DISPARITY": {"tau_m": 9000.0, "tau_s": 4000.0}}},
    }
    cfg = config_from_dict(raw)
    echoed = config_to_dict(cfg)
    cfg2 = config_from_dict(json.loads(json.dumps(echoed)))
    assert config_to_dict(cfg2) == echoed
    assert cfg2.input.synthetic.height == 4
    assert cfg2.simulator.overrides[list(cfg2.simulator.overrides)[0]]["tau_m"] == 9000.0


def test_load_config_missing_file():
    with pytest.raises(InputError, match="not found"):
        load_config("/definitely/not/here.json")


# ------------------------------------------------------------- bad inputs

@pytest.mark.parametrize(
    "row, message",
    [
        ("10,70", "expected 3 fields"),
        ("10,70,DISPARITY,1", "expected 3 fields"),
        ("1.5,70,DISPARITY", "invalid literal for int() with base 10: '1.5'"),
        ("10,x,DISPARITY", "invalid literal for int() with base 10: 'x'"),
        ("10,99999999999999999999,DISPARITY", "neuron_id 99999999999999999999 exceeds the 64-bit range"),
        ("10,70,BOGUS", "population must be one of"),
        ("-10,70,DISPARITY", "negative spike time"),
        ("10,999999,DISPARITY", "neuron id outside"),
        ("10,70,DISPARITY", "does not belong to the named population"),
    ],
)
def test_eval_malformed_spike_csv_exit_2_with_line(tmp_path, capsys, row, message):
    path, _ = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    spikes = tmp_path / "bad_spikes.csv"
    good = (out / "spikes.csv").read_text().splitlines()
    spikes.write_text("\n".join([good[0], good[1], row, *good[2:]]) + "\n")
    capsys.readouterr()
    rc = main(["eval", "-c", str(path), "--spikes", str(spikes), "--trace", str(out / "disparity_trace.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{spikes}:3:" in err and message in err


@pytest.mark.parametrize("keyframes", [5, [[0]], [[0, 1.0, 2.0]], [["a", 1.0]], [[0, None]], [[0, True]], "0,1"])
def test_malformed_keyframes_are_config_errors(keyframes):
    raw = {"input": {"synthetic": {"shape": "DOT", "keyframes": keyframes}, "duration_us": 1000}}
    with pytest.raises(InputError, match="keyframes"):
        config_from_dict(raw)


@pytest.mark.parametrize("jobs", [1, 2])
def test_bad_config_does_not_abort_batch(tmp_path, jobs):
    good, cfg = synthetic_config(tmp_path)
    bad_cfg = json.loads(json.dumps(cfg))
    bad_cfg["output_dir"] = str(tmp_path / "out_bad")
    bad_cfg["input"]["synthetic"]["keyframes"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_cfg))
    rc = main(["run", "-c", str(bad), "-c", str(good), "--jobs", str(jobs)])
    assert rc == 2
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).exists(), name


@pytest.mark.parametrize("command", ["run", "topology", "eval"])
@pytest.mark.parametrize(
    "override,message",
    [
        pytest.param(override, message, id=override)
        for override, message in [
            ("topology.polarity_mode=bogus", "topology: "),
            ("topology.d_max=16", "topology: "),
            ("topology.continuity_radius=-1", "topology: "),
            ("topology.continuity_radius=abc", "topology.continuity_radius must be an integer or null, got 'abc'"),
        ]
    ],
)
def test_invalid_topology_is_config_error(tmp_path, capsys, command, override, message):
    path, _ = synthetic_config(tmp_path)
    files = ["--spikes", str(tmp_path / "s.csv"), "--trace", str(tmp_path / "t.csv")] if command == "eval" else []
    assert main([command, "-c", str(path), "--set", override, *files]) == 2
    assert f"config error ({command}): {message}" in capsys.readouterr().err


def test_invalid_topology_does_not_abort_batch(tmp_path, capfd):
    good, cfg = synthetic_config(tmp_path)
    bad_cfg = dict(cfg, output_dir=str(tmp_path / "out_bad"), topology=dict(cfg["topology"], d_max=16))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_cfg))
    assert main(["run", "-c", str(bad), "-c", str(good), "--jobs", "2"]) == 2
    assert "d_max must be in [0, 15], got 16" in capfd.readouterr().err
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).exists(), name
    assert not (tmp_path / "out_bad" / "metrics.json").exists()


@pytest.mark.parametrize(
    "override,message",
    [
        pytest.param(override, message, id=override)
        for override, message in [
            ("preprocess.background_window_us=18446744073709551616", "preprocess: "),
            ("preprocess.background_window_us=9223372036854775807", "preprocess: "),
            (
                "preprocess.background_window_us=abc",
                "preprocess.background_window_us must be an integer or null, got 'abc'",
            ),
            ("preprocess.hot_pixel_factor=abc", "preprocess.hot_pixel_factor must be a number or null, got 'abc'"),
            ("preprocess.hot_pixel_factor=NaN", "preprocess.hot_pixel_factor must be a number or null, got nan"),
        ]
    ],
)
def test_invalid_preprocess_values_are_config_errors(tmp_path, capsys, override, message):
    path = file_config(tmp_path, *write_file_fixture(tmp_path))
    assert main(["run", "-c", str(path), "--set", override]) == 2
    assert f"config error (run): {message}" in capsys.readouterr().err


def test_background_filter_that_keeps_no_event_is_config_error(tmp_path, capsys):
    path = file_config(tmp_path, *write_file_fixture(tmp_path))
    assert main(["run", "-c", str(path), "--set", "preprocess.background_radius=0"]) == 2
    err = capsys.readouterr().err
    assert "config error (run): preprocess: background_radius=0 with background_include_same_pixel=false" in err
    assert not (tmp_path / "out_file").exists()


def bad_event_file_config(tmp_path):
    fixture = write_file_fixture(tmp_path)
    left = fixture[0]
    rows = left.read_text().splitlines()
    left.write_text("\n".join([rows[0], "10,5,3,7", *rows[1:]]) + "\n")
    return file_config(tmp_path, *fixture, out="out_bad"), left


def test_run_malformed_event_file_exit_2_with_line(tmp_path, capsys):
    path, left = bad_event_file_config(tmp_path)
    assert main(["run", "-c", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error (run): {left}:2: polarity must be 0 or 1, got '7'" in err


def test_malformed_event_file_does_not_abort_batch(tmp_path, capfd):
    bad, left = bad_event_file_config(tmp_path)
    good, _ = synthetic_config(tmp_path)
    rc = main(["run", "-c", str(bad), "-c", str(good), "--jobs", "2"])
    assert rc == 2
    assert f"{left}:2: polarity" in capfd.readouterr().err
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).exists(), name
    assert not (tmp_path / "out_bad" / "metrics.json").exists()


def test_unexpected_error_in_one_config_is_reported_per_config(tmp_path, monkeypatch, capsys):
    from evstereo import cli

    def explode(config_path, overrides, auto_crop):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_run_one", explode)
    assert cli._run_one_safe(str(tmp_path / "c.json"), [], False) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error (run {tmp_path / 'c.json'}): RuntimeError: boom"


def test_each_error_line_is_one_write(tmp_path, monkeypatch):
    """On an unbuffered stderr, the workers of a batch could interleave the
    writes of one line."""
    from evstereo import cli

    class Stderr(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    run_one, faults = cli._run_one, {"value": ValueError("bad value"), "runtime": RuntimeError("boom")}

    def run_or_raise(config_path, overrides, auto_crop):
        if Path(config_path).stem in faults:
            raise faults[Path(config_path).stem]
        return run_one(config_path, overrides, auto_crop)

    monkeypatch.setattr(cli, "_run_one", run_or_raise)
    stderr = Stderr()
    monkeypatch.setattr(sys, "stderr", stderr)
    missing, value, runtime = (str(tmp_path / f"{name}.json") for name in ("missing", "value", "runtime"))
    assert main(["run", "-c", missing, "-c", value, "-c", runtime]) == 2
    assert main(["eval", "-c", missing, "--spikes", "s.csv", "--trace", "t.csv"]) == 2
    assert stderr.getvalue().splitlines() == [
        f"config error (run {missing}): config file not found: {missing}",
        f"error (run {value}): bad value",
        f"error (run {runtime}): RuntimeError: boom",
        f"config error (eval): config file not found: {missing}",
    ]
    assert stderr.writes == 4


# ------------------------------------------------------------- config values


def test_config_that_is_not_an_object_exit_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("[1]")
    assert main(["run", "-c", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error (run): config must be an object, got [1]")


def test_config_integer_too_long_to_convert_exit_2(tmp_path, capsys):
    digits = "1" + "0" * 5000
    path = tmp_path / "c.json"
    path.write_text('{"seed": %s}' % digits)
    assert main(["run", "-c", str(path)]) == 2
    assert f"config error (run): {path}: invalid JSON: Exceeds the limit" in capsys.readouterr().err
    path.write_text("{}")
    assert main(["run", "-c", str(path), "--set", f"seed={digits}"]) == 2
    assert "config error (run): seed must be an integer, got '1000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,key",
    [
        ("seed=abc", "seed"),
        ('input.duration_us="abc"', "input.duration_us"),
        ("preprocess.full_geometry=[1]", "preprocess.full_geometry"),
        ('preprocess.full_geometry=[346,"abc"]', "preprocess.full_geometry"),
        ("topology.retina_width=abc", "topology.retina_width"),
        ("topology.retina_height=abc", "topology.retina_height"),
        ("topology.d_max=abc", "topology.d_max"),
        ("simulator.tau_m=abc", "simulator.tau_m"),
        ("simulator.tau_s=abc", "simulator.tau_s"),
        ("simulator.threshold=abc", "simulator.threshold"),
        ("simulator.reset=abc", "simulator.reset"),
        ("simulator.refractory_us=abc", "simulator.refractory_us"),
        ("simulator.refractory_us=1e999", "simulator.refractory_us"),
        ("simulator.v_floor=abc", "simulator.v_floor"),
        ('simulator.overrides={"DISPARITY":{"tau_m":"x"}}', "simulator.overrides.DISPARITY.tau_m"),
        ('simulator.mismatch={"seed":"x"}', "simulator.mismatch.seed"),
        ('simulator.mismatch={"weight_sigma":"x"}', "simulator.mismatch.weight_sigma"),
        ('simulator.mismatch={"threshold_sigma":"x"}', "simulator.mismatch.threshold_sigma"),
        ("simulator.mismatch=5", "simulator.mismatch must be an object, got 5"),
        ("simulator.overrides=5", "simulator.overrides must be an object, got 5"),
        ('simulator.overrides={"DISPARITY":5}', "simulator.overrides.DISPARITY must be an object, got 5"),
        ("topology=5", "topology must be an object, got 5"),
        ("topology.weights=5", "topology.weights must be an object, got 5"),
        ('topology.weights={"w_rc":"abc"}', "topology.weights.w_rc must be a number, got 'abc'"),
        ("analysis.window_us=abc", "analysis.window_us"),
        ("analysis.eps_d=abc", "analysis.eps_d"),
        ("energy.e_input_pj=abc", "energy.e_input_pj"),
        ("energy.e_spike_pj=abc", "energy.e_spike_pj"),
        ("energy.e_delivery_pj=abc", "energy.e_delivery_pj"),
        ('input.synthetic.x="a"', "input.synthetic.x must be an integer, got 'a'"),
        ("input.synthetic.seed=1.5", "input.synthetic.seed must be an integer, got 1.5"),
        ('simulator.overrides={"DISPARITY":{"bogus":1.0}}', "simulator.overrides.DISPARITY: unknown keys ['bogus']"),
        (
            'simulator.overrides={"DISPARITY":{"refractory_us":800.7}}',
            "simulator.overrides.DISPARITY.refractory_us must be an integer, got 800.7",
        ),
        ('preprocess.enabled="no"', "preprocess.enabled must be a boolean, got 'no'"),
        ("simulator.tau_m=true", "simulator.tau_m must be a number, got True"),
        ("seed=1.5", "seed must be an integer, got 1.5"),
        ("sample_label=null", "sample_label must be a string, got None"),
        (
            "input.synthetic.keyframes=[[0,Infinity]]",
            "input.synthetic.keyframes must be a list of [t_us, d] pairs of finite numbers, got [[0, inf]]",
        ),
        (
            "input.synthetic.keyframes=[[0,NaN]]",
            "input.synthetic.keyframes must be a list of [t_us, d] pairs of finite numbers, got [[0, nan]]",
        ),
        ("analysis.eps_d=Infinity", "analysis.eps_d must be a number, got inf"),
        ("energy.e_spike_pj=NaN", "energy.e_spike_pj must be a number, got nan"),
        ("topology.weights.w_rc=1e400", "topology.weights.w_rc must be a number, got inf"),
    ],
)
def test_invalid_config_value_exit_2_names_key(tmp_path, capsys, override, key):
    path, _ = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error (run): {key}"), err
    assert not (tmp_path / "out").exists()


# a wrong-typed --set value for each kind of leaf key; sections take 5
WRONG_TYPED = {
    "an integer": '"a"',
    "an integer or null": "1.5",
    "a number": "true",
    "a number or null": '"a"',
    "a boolean": '"no"',
    "a string": "null",
    "a string or null": "5",
    "a list of 2 integers": '[16,"a"]',
    "a list of 2 integers or null": "[1]",
    "a list of [t_us, d] pairs of finite numbers": '[[0,"a"]]',
    "a list of [x, y, w, h] lists": '[[1,2,"a",4]]',
}


@pytest.mark.parametrize(
    "key,value",
    [(row.key, WRONG_TYPED[row.kind.what] if hasattr(row.kind, "what") else "5") for row in TABLE]
    + [("simulator.overrides.DISPARITY.tau_m", '"x"')],
)
def test_every_config_key_rejects_a_wrong_type(tmp_path, capsys, key, value):
    path, _ = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error (run): {key} must be "), (key, value)


def test_config_table_has_one_row_per_dataclass_field():
    sections = {RunConfig} | {row.kind.cls for row in TABLE if hasattr(row.kind, "cls")}
    expected = sorted((cls.__name__, f.name) for cls in sections for f in dataclasses.fields(cls))
    assert sorted((row.owner.__name__, row.field) for row in TABLE) == expected


def test_readme_config_block_is_the_default_echo():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert json.loads(re.sub(r"//.*", "", block)) == config_to_dict(config_from_dict({}))


# ------------------------------------------------- trace and marker CSV input


def run_and_trace(tmp_path):
    path, _ = synthetic_config(tmp_path)
    assert main(["run", "-c", str(path)]) == 0
    return path, tmp_path / "out" / "spikes.csv", tmp_path / "out" / "disparity_trace.csv"


@pytest.mark.parametrize(
    "edit,line,message",
    [
        (lambda rows: ["window_i,t_center_us,d_mean"] + rows[1:], 1, "expected header"),
        (lambda rows: rows[:1], 1, "no trace rows after the header"),
        (lambda rows: rows[:2] + ["1,75000.0,2.0"] + rows[3:], 3, "expected 6 fields, got 3"),
        (lambda rows: rows[:2] + ["1,75000.0,abc,1.0,3.0,1"] + rows[3:], 3, "could not convert string to float: 'abc'"),
        (lambda rows: rows[:2] + ["1,abc,,,,0"] + rows[3:], 3, "could not convert string to float: 'abc'"),
        (lambda rows: rows[:2] + ["1,75000.0,2.0,2.0,2.0,x"] + rows[3:], 3, "invalid literal for int()"),
        (lambda rows: rows[:1] + ["0,nan,,,,0"] + rows[2:], 2, "t_center_us must be finite, got 'nan'"),
        (lambda rows: rows[:2] + ["1,inf,,,,0"] + rows[3:], 3, "t_center_us must be finite, got 'inf'"),
        (lambda rows: rows[:1] + ["0,-inf,,,,0"] + rows[2:], 2, "t_center_us must be finite, got '-inf'"),
        (lambda rows: rows[:2] + rows[3:], 3, "window_i must be 1, got '2'"),
        (lambda rows: rows[:2] + ["1,75000.0,inf,inf,inf,1"] + rows[3:], 3, "d_mean must be finite, got 'inf'"),
        (
            lambda rows: rows[:5] + ["4,225001.0,,,,0"] + rows[6:],
            6,
            "t_center_us must be 225000.0, the centre of window 4 of 50000us, got '225001.0'",
        ),
    ],
    ids=[
        "header", "no-rows", "ragged", "d-not-a-number", "centre-not-a-number", "n-joints-not-an-integer",
        "centre-nan", "centre-inf", "centre-minus-inf", "row-deleted", "d-inf", "centre-off-its-window",
    ],
)
def test_eval_malformed_trace_exit_2_with_line(tmp_path, capsys, edit, line, message):
    path, spikes, trace = run_and_trace(tmp_path)
    trace.write_text("\n".join(edit(trace.read_text().splitlines())) + "\n")
    capsys.readouterr()
    rc = main(["eval", "-c", str(path), "--spikes", str(spikes), "--trace", str(trace)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error (eval): {trace}:{line}: {message}" in err, err


@pytest.mark.parametrize(
    "row,message",
    [
        ("abc,torso,75.5,51.5,1.0", "invalid literal for int() with base 10: 'abc'"),
        ("5,torso,75.5,abc,1.0", "could not convert string to float: 'abc'"),
        ("5,torso,75.5,51.5", "expected 5 fields, got 4"),
        ("99999999999999999999,torso,1,2,3", "timestamp 99999999999999999999 exceeds the 64-bit range"),
        ("5,torso,nan,51.5,1.0", "X_mm must be finite, got 'nan'"),
        ("5,torso,75.5,inf,1.0", "Y_mm must be finite, got 'inf'"),
        ("5,torso,75.5,51.5,-inf", "Z_mm must be finite, got '-inf'"),
        ("5,torso,1e400,51.5,1.0", "X_mm must be finite, got '1e400'"),
    ],
)
def test_run_malformed_marker_csv_exit_2_with_line(tmp_path, capsys, row, message):
    left, right, markers, calib = write_file_fixture(tmp_path)
    rows = markers.read_text().splitlines()
    markers.write_text("\n".join(rows[:3] + [row] + rows[3:]) + "\n")
    path = file_config(tmp_path, left, right, markers, calib)
    assert main(["run", "-c", str(path)]) == 2
    assert f"config error (run): {markers}:4: {message}" in capsys.readouterr().err


def test_run_marker_csv_bad_header_exit_2(tmp_path, capsys):
    left, right, markers, calib = write_file_fixture(tmp_path)
    markers.write_text("t,joint,X,Y,Z\n" + "\n".join(markers.read_text().splitlines()[1:]) + "\n")
    path = file_config(tmp_path, left, right, markers, calib)
    assert main(["run", "-c", str(path)]) == 2
    assert f"config error (run): {markers}:1: expected header" in capsys.readouterr().err


def test_run_header_only_marker_csv_exit_2(tmp_path, capsys):
    left, right, markers, calib = write_file_fixture(tmp_path)
    markers.write_text("t_us,joint,X_mm,Y_mm,Z_mm\n")
    path = file_config(tmp_path, left, right, markers, calib)
    assert main(["run", "-c", str(path)]) == 2
    assert f"config error (run): {markers}:1: no marker rows after the header" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["config", "markers", "calibration", "trace", "spikes"])
def test_non_utf8_input_exit_2_with_line(tmp_path, capsys, which):
    """Every text input names the line of its first byte that is not UTF-8."""
    if which in ("trace", "spikes"):
        config, spikes, trace = run_and_trace(tmp_path)
        bad = trace if which == "trace" else spikes
        argv = ["eval", "-c", str(config), "--spikes", str(spikes), "--trace", str(trace)]
    else:
        left, right, markers, calib = write_file_fixture(tmp_path)
        config = file_config(tmp_path, left, right, markers, calib)
        bad = {"config": config, "markers": markers, "calibration": calib}[which]
        argv = ["run", "-c", str(config)]
    if bad.suffix == ".json":
        bad.write_text(json.dumps(json.loads(bad.read_text()), indent=1))  # one value a line
    rows = bad.read_bytes().splitlines()
    bad.write_bytes(b"\n".join(rows[:2] + [b"\xff"] + rows[2:]) + b"\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error ({argv[0]}): {bad}:3: not UTF-8 text: invalid start byte at byte " in err, err


IDENTITY = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param('{"left": ', "not a JSON document: ", id="broken-json"),
        pytest.param("[1,2]", "expected an object with keys 'left' and 'right', got [1, 2]", id="not-an-object"),
        pytest.param(json.dumps({"left": IDENTITY}), "missing projection matrix 'right'", id="missing-right"),
        pytest.param(json.dumps({"right": IDENTITY}), "missing projection matrix 'left'", id="missing-left"),
        pytest.param(
            json.dumps({"left": "abc", "right": IDENTITY}),
            'left: projection matrix must be 3 rows of 4 numbers, got "abc"', id="not-a-matrix",
        ),
        pytest.param(
            json.dumps({"left": IDENTITY, "right": [[1, 0, 0, "a"], [0, 1, 0, 0], [0, 0, 1, 0]]}),
            "right: projection matrix entries must be numbers", id="non-numeric",
        ),
        pytest.param(
            json.dumps({"left": IDENTITY, "right": [[1, 0, 0, True], [0, 1, 0, 0], [0, 0, 1, 0]]}),
            "right: projection matrix entries must be numbers", id="boolean",
        ),
        pytest.param(
            json.dumps({"left": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0]], "right": IDENTITY}),
            "left: projection matrix must be 3 rows of 4 numbers", id="ragged",
        ),
        pytest.param(
            json.dumps({"left": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "right": IDENTITY}),
            "left: projection matrix must be 3 rows of 4 numbers", id="wrong-shape",
        ),
        pytest.param(
            '{"left": [[1, 0, 0, NaN], [0, 1, 0, 0], [0, 0, 1, 0]], "right": %s}' % IDENTITY,
            "left: projection matrix entries must be finite", id="nan",
        ),
        pytest.param(
            '{"left": %s, "right": [[1, 0, 0, 1e400], [0, 1, 0, 0], [0, 0, 1, 0]]}' % IDENTITY,
            "right: projection matrix entries must be finite", id="overflowing-float",
        ),
        pytest.param(
            '{"left": %s, "right": [[1, 0, 0, 1%s], [0, 1, 0, 0], [0, 0, 1, 0]]}' % (IDENTITY, "0" * 400),
            "right: projection matrix entries must be finite", id="overflowing-integer",
        ),
    ],
)
def test_run_malformed_calibration_exit_2_naming_the_key(tmp_path, capsys, text, message):
    left, right, markers, calib = write_file_fixture(tmp_path)
    calib.write_text(text)
    path = file_config(tmp_path, left, right, markers, calib)
    assert main(["run", "-c", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error (run): {calib}: {message}" in err, err


# ---------------------------------------------------- readout artifact content


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_readout_csvs_agree_with_spikes(tmp_path):
    """rates.csv, mean_rates.csv and disparity_hist.csv recomputed from
    spikes.csv and the topology's coordinates."""
    from collections import Counter

    from evstereo.topology import Population, build_topology

    path, cfg = synthetic_config(tmp_path, topology={"retina_width": 8, "retina_height": 4, "d_max": 3})
    cfg["input"]["synthetic"].update(x=3, y=1, keyframes=[[0, 1.0]])
    path.write_text(json.dumps(cfg))
    assert main(["run", "-c", str(path)]) == 0
    out = tmp_path / "out"
    topo = build_topology(8, 4, 3)
    window_us = cfg["analysis"]["window_us"]
    n_windows = read_report(str(out / "metrics.json")).n_windows
    _, spikes = read_rows(out / "spikes.csv")
    spikes = [(int(t), int(n), pop) for t, n, pop in spikes]
    assert spikes and all(t // window_us < n_windows for t, _, _ in spikes)
    coord = {n: topo.coord_of(n)[1] for n in range(topo.offsets[Population.COINC_EXC], topo.n_neurons)}

    header, rows = read_rows(out / "rates.csv")
    assert header == "window_i,t_center_us,population,neuron_id,rate_hz"
    per_window = Counter((n, t // window_us) for t, n, _ in spikes)
    names = {n: pop for _, n, pop in spikes}
    expected = [
        [str(w), f"{(w + 0.5) * window_us:.1f}", names[n], str(n), repr(c / (window_us * 1e-6))]
        for (n, w), c in sorted(per_window.items())
    ]
    assert rows == expected

    header, rows = read_rows(out / "mean_rates.csv")
    assert header == "population,neuron_id,d,x_cyc,y,mean_rate_hz"
    duration_s = max(cfg["input"]["duration_us"], max(t for t, _, _ in spikes)) * 1e-6
    totals = Counter(n for _, n, _ in spikes)
    assert [int(r[1]) for r in rows] == sorted(coord)
    for pop, nid, d, x_cyc, y, rate in rows:
        c = coord[int(nid)]
        assert pop == topo.population_of(int(nid)).name
        assert (int(d), int(x_cyc), int(y)) == (c.d, c.x_cyc, c.y)
        assert rate == repr(totals[int(nid)] / duration_s)

    header, rows = read_rows(out / "disparity_hist.csv")
    assert header == "population,window_i,d,count"
    tag = {"COINC_EXC": "C", "COINC_INH": "C", "DISPARITY": "D"}
    hist = Counter((tag[pop], t // window_us, coord[n].d) for t, n, pop in spikes)
    assert rows == [[k[0], str(k[1]), str(k[2]), str(c)] for k, c in sorted(hist.items())]


def test_disparity_hist_drops_windows_past_the_horizon(tmp_path):
    from evstereo import cli
    from evstereo.simulator import SpikeRecord
    from evstereo.topology import Population, build_topology

    topo = build_topology(4, 2, 2)
    exc = int(topo.population_ids(Population.COINC_EXC)[0])
    disp = int(topo.population_ids(Population.DISPARITY)[-1])
    times = np.array([5, 15, 15, 25, 40], dtype=np.int64)
    ids = np.array([disp, exc, disp, exc, exc], dtype=np.int64)
    record = SpikeRecord(times, ids, topo.pop_code[ids], 40, 0, 0)
    cli._write_disparity_hist_csv(record, topo, 10, 2, str(tmp_path / "h.csv"))
    d_exc, d_disp = topo.d[exc], topo.d[disp]
    assert (tmp_path / "h.csv").read_text() == (
        f"population,window_i,d,count\nC,1,{d_exc},1\nD,0,{d_disp},1\nD,1,{d_disp},1\n"
    )


def test_readout_csvs_of_an_empty_record(tmp_path):
    from evstereo import cli
    from evstereo.simulator import SpikeRecord
    from evstereo.topology import build_topology

    topo = build_topology(2, 1, 1)
    empty = np.zeros(0, dtype=np.int64)
    record = SpikeRecord(empty, empty, empty.astype(np.int8), 0, 0, 0)
    cli.write_spike_csv(record, str(tmp_path / "spikes.csv"))
    cli._write_rates_csv(cli._population_rates(record, topo, 50_000, 3), topo, str(tmp_path / "rates.csv"))
    cli._write_disparity_hist_csv(record, topo, 50_000, 3, str(tmp_path / "hist.csv"))
    cli._write_mean_rates_csv(record, topo, str(tmp_path / "mean.csv"))
    assert (tmp_path / "spikes.csv").read_text() == "t_us,neuron_id,population\n"
    assert (tmp_path / "rates.csv").read_text() == "window_i,t_center_us,population,neuron_id,rate_hz\n"
    assert (tmp_path / "hist.csv").read_text() == "population,window_i,d,count\n"
    # 2x1 retina, d_max=1: triplets (d, x_cyc) = (-1,1), (0,0), (0,2), (1,1)
    coords = ["-1,1,0", "0,0,0", "0,2,0", "1,1,0"]
    pops = ["COINC_EXC"] * 4 + ["COINC_INH"] * 4 + ["DISPARITY"] * 4
    rows = [f"{pop},{4 + i},{coords[i % 4]},0.0" for i, pop in enumerate(pops)]
    expected = "\n".join(["population,neuron_id,d,x_cyc,y,mean_rate_hz", *rows]) + "\n"
    assert (tmp_path / "mean.csv").read_text() == expected


def test_readout_floats_in_exponent_form(tmp_path):
    from evstereo import cli
    from evstereo.simulator import SpikeRecord
    from evstereo.topology import build_topology

    topo = build_topology(2, 1, 1)
    window_us = 10**11  # one spike in a window of 1e5 s is 1e-05 Hz
    ids = np.array([5], dtype=np.int64)
    record = SpikeRecord(np.array([3], dtype=np.int64), ids, topo.pop_code[ids], window_us, 0, 0)
    cli._write_rates_csv(cli._population_rates(record, topo, window_us, 1), topo, str(tmp_path / "rates.csv"))
    cli._write_mean_rates_csv(record, topo, str(tmp_path / "mean.csv"))
    assert (tmp_path / "rates.csv").read_text().splitlines()[1:] == ["0,50000000000.0,COINC_EXC,5,1e-05"]
    assert (tmp_path / "mean.csv").read_text().splitlines()[2] == "COINC_EXC,5,0,0,0,1e-05"
