"""Smoke runs of the experiment scripts, which call ``build_topology`` and
``simulate`` directly rather than through the CLI."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("disparity_sweep.py", ["--disparities", "0", "2", "--duration-s", "0.2"], "PCD(D)"),
        ("coincidence_window_scan.py", ["--step-us", "1000"], "delta_us | fires"),
    ],
)
def test_script_runs(script, args, header):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout
