"""Smoke runs of the experiment scripts, which call ``build_topology`` and
``simulate`` directly rather than through the CLI, and of the benchmark's
traced harness, which wraps ``evstereo`` functions by name."""

import ast
import json
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


def _writer_spans() -> tuple[str, ...]:
    """``WRITER_SPANS`` of ``perfbench/run.py``, read without importing it."""
    with open(os.path.join(ROOT, "perfbench", "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRITER_SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no WRITER_SPANS")


def test_traced_harness_records_every_writer_span(tmp_path):
    config = {
        "seed": 3,
        "output_dir": "out",
        "input": {
            "synthetic": {"shape": "DOT", "keyframes": [[0, 1.0]], "x": 3, "y": 1, "rate_hz": 500.0},
            "duration_us": 100_000,
        },
        "topology": {"retina_width": 6, "retina_height": 3, "d_max": 2},
        "analysis": {"window_us": 50_000, "eps_d": 1.0},
    }
    (tmp_path / "dot.json").write_text(json.dumps(config))
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced.py"), "spans.json", "run", "-c", "dot.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["rc"] == 0
    names = {span[0] for span in spans["spans"]}
    writers = _writer_spans()
    assert len(writers) == 8
    assert set(writers) <= names, sorted(set(writers) - names)
