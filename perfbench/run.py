#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``evstereo run``.

    python3 perfbench/run.py --workload cloud --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout (the directory holding ``src/`` and
``BENCHMARK.json``). It generates the workload's inputs from ``--seed`` into
``.perfbench_work/<workload>/``, then runs ``evstereo run`` on them again and
again, each time in a fresh process and each run starting when the previous
one ends (closed loop), until ``--seconds`` have passed (at least three runs).

Every run is checked: exit code 0, all eight artifacts present, PCD and RMSE
defined, ``spikes.csv`` and ``metrics.json`` byte-identical to the first run,
and the engine's delivery count equal to the R1-R4 sum recomputed here from
the topology's out-degrees, the written input events and the written spikes.

``--trace 0`` reports the end-to-end metrics, medians over the runs.
``--trace 1`` cycles through untraced runs and traced ones (``traced.py``),
which record a span around every call into a layer and run the configs
serially; it reports per-layer self times and counts (medians over the
traced runs). For a batch launched with ``--jobs``, the cycle also holds an
untraced serial run, so that tracing overhead compares like with like.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those listed in ``BENCHMARK.json``. The lines before it are a readable
report, including the sha256 of every ``spikes.csv`` and ``metrics.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import D_MAX, MAKERS  # noqa: E402

ARTIFACTS = (
    "input_events.csv",
    "spikes.csv",
    "rates.csv",
    "com.csv",
    "disparity_trace.csv",
    "mean_rates.csv",
    "disparity_hist.csv",
    "metrics.json",
)
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_PROBES = 2
FIXED_PROBES = 5
# spans whose duration is an artifact write (cli.artifacts_s)
WRITER_SPANS = (
    "events.write",
    "simulator.write_spikes",
    "cli.write_rates",
    "groundtruth.write_trace",
    "metrics.write_com",
    "cli.write_mean_rates",
    "cli.write_disparity_hist",
    "metrics.write_json",
)
PREPROCESS_STAGES = ("mask", "hot_pixel", "background", "downscale", "crop")


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------- one run


class Runner:
    """Launches runs of one workload and checks their outputs."""

    def __init__(self, root: str, workdir: str, workload) -> None:
        self.workdir = workdir
        self.wl = workload
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # setup_s is timed with warm bytecode caches
        self.reference: list[tuple[str, str]] | None = None  # per config (spikes, metrics)
        self.checked: dict[tuple, dict] = {}  # digests -> cross-check result
        self.problems: list[str] = []
        from evstereo.topology import build_topology

        self.topology = build_topology(16, 16, D_MAX)  # shared by every config

    def _command(self, traced_to: str | None, jobs: int) -> list[str]:
        cfgs = [a for c in self.wl.configs for a in ("-c", c)]
        if traced_to is not None:
            return [sys.executable, os.path.join(HERE, "traced.py"), traced_to, "run", *cfgs]
        cmd = [sys.executable, "-m", "evstereo.cli", "run", *cfgs]
        return cmd + (["--jobs", str(jobs)] if jobs > 1 else [])

    def run_once(self, traced: bool, jobs: int) -> dict:
        """One closed-loop run; returns wall time, peak RSS, and the checked
        outputs (``ok`` is False if any check failed)."""
        out_root = os.path.join(self.workdir, "out")
        shutil.rmtree(out_root, ignore_errors=True)
        spans_path = os.path.join(self.workdir, "spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        with open(os.path.join(self.workdir, "stderr.log"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                self._command(spans_path if traced else None, jobs),
                cwd=self.workdir,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, which also gives the peak RSS
        run = {
            "traced": traced,
            "jobs": jobs,
            "wall": t1 - t0,
            "rss_mb": usage.ru_maxrss / 1024.0,  # largest single process, KiB -> MiB
            "ok": True,
        }
        run.update(self._check(proc.returncode))
        if traced and run["ok"]:
            with open(spans_path, encoding="utf-8") as fh:
                run["spans"] = json.load(fh)["spans"]
        return run

    def _problem(self, message: str) -> dict:
        self.problems.append(message)
        return {"ok": False}

    def _check(self, returncode: int) -> dict:
        if returncode != 0:
            with open(os.path.join(self.workdir, "stderr.log"), encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            return self._problem(f"exit code {returncode}: {tail}")
        reports, digests = [], []
        for out in self.wl.out_dirs:
            d = os.path.join(self.workdir, out)
            missing = [a for a in ARTIFACTS if not os.path.isfile(os.path.join(d, a))]
            if missing:
                return self._problem(f"{out}: missing artifacts {missing}")
            with open(os.path.join(d, "metrics.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            if report["pcd_d"] is None or report["rmse_d"] is None:
                return self._problem(f"{out}: pcd_d or rmse_d undefined")
            reports.append(report)
            digests.append(tuple(sha256(os.path.join(d, a)) for a in ("spikes.csv", "metrics.json", "input_events.csv")))
        key = tuple(digests)
        if self.reference is None:
            self.reference = [dg[:2] for dg in digests]
        elif [dg[:2] for dg in digests] != self.reference:
            return self._problem("spikes.csv or metrics.json differ from the first run")
        if key not in self.checked:
            self.checked[key] = self._cross_check(reports)
        cross = self.checked[key]
        if not cross["ok"]:
            return self._problem(cross["message"])
        return {"reports": reports, "cross": cross}

    # ------------------------------------------------------------ R1..R4

    def _cross_check(self, reports: list[dict]) -> dict:
        """Deliveries recomputed outside the engine: R1 = out-degree summed
        over input events; R2/R3/R4 = COINC_INH/COINC_EXC/DISPARITY spikes
        weighted by out-degree. Their sum must equal ``deliveries``."""
        topo = self.topology
        out_degree = np.bincount(topo.syn_pre, minlength=topo.n_neurons)
        sums = np.zeros(4, dtype=np.int64)
        for out, report in zip(self.wl.out_dirs, reports):
            d = os.path.join(self.workdir, out)
            with open(os.path.join(d, "input_events.csv"), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            sides = {"L": 0, "R": 1}
            src = [topo.id_of_retina(sides[r[4]], int(r[1]), int(r[2]), int(r[3]) if topo.n_channels == 2 else 0)
                   for r in rows]
            r = np.zeros(4, dtype=np.int64)
            r[0] = int(out_degree[np.array(src, dtype=np.int64)].sum()) if src else 0
            with open(os.path.join(d, "spikes.csv"), encoding="utf-8") as fh:
                spikes = [line.split(",") for line in fh.read().splitlines()[1:]]
            for k, pop in ((1, "COINC_INH"), (2, "COINC_EXC"), (3, "DISPARITY")):
                ids = np.array([int(s[1]) for s in spikes if s[2] == pop], dtype=np.int64)
                r[k] = int(out_degree[ids].sum()) if len(ids) else 0
            if int(r.sum()) != report["deliveries"]:
                return {"ok": False, "message": f"{out}: R1-R4 sum {int(r.sum())} != deliveries {report['deliveries']}"}
            sums += r
        return {"ok": True, "r": [int(v) for v in sums]}


# ---------------------------------------------------------------- probes


def probe_setup_s(env: dict, workdir: str, n: int) -> list[float]:
    """Wall times of ``n`` fresh interpreters each importing ``evstereo.cli``."""
    cmd = [sys.executable, "-c", "import evstereo.cli"]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=workdir, check=True)
        times.append(time.perf_counter() - t0)
    return times


def probe_fixed_s(topology) -> float:
    """Median time of ``simulate`` on an empty stream: the engine's set-up
    cost for this topology."""
    from evstereo.events import CameraGeometry, StereoEventStream
    from evstereo.simulator import simulate

    empty = StereoEventStream.empty(CameraGeometry(topology.retina_width, topology.retina_height))
    times = []
    for _ in range(FIXED_PROBES):
        t0 = time.perf_counter()
        simulate(topology, empty)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------- spans


def span_table(run: dict) -> dict:
    """Self time per span name, counts per span name, and the accounting of
    the traced run's wall time."""
    spans = run["spans"]
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, dict[str, int]] = {}
    nested = True
    for i, (name, start, end, _, cnt) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children.get(i, []), key=lambda j: spans[j][1]):
            cs, ce = spans[c][1], spans[c][2]
            if cs < start or ce > end:
                nested = False
            lo, hi = max(cs, cursor), min(ce, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        agg = counts.setdefault(name, {})
        for k, v in cnt.items():
            agg[k] = agg.get(k, 0) + v
    root_start, root_end = spans[0][1], spans[0][2]
    outside = run["wall"] - (root_end - root_start)  # interpreter start and exit
    layers: dict[str, float] = {}
    for name, v in self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v
    layers["cli"] = layers.get("cli", 0.0) + outside
    accounted = sum(layers.values())
    return {
        "self": self_s,
        "total": total_s,
        "counts": counts,
        "layers": layers,
        "accounted": accounted,
        "nested": nested and abs(accounted - run["wall"]) <= 1e-3,
        "config_s": total_s.get("cli.config", 0.0),
    }


def layer_metrics(table: dict, cross_r: list[int]) -> dict[str, float]:
    s, c = table["self"], table["counts"]

    def t(name):
        return s.get(name, 0.0)

    def n(name, key):
        return c.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    m["events.parse_s"] = t("events.parse")
    m["events.parse_rows"] = n("events.parse", "rows")
    m["events.parse_us_per_event"] = 1e6 * t("events.parse") / m["events.parse_rows"] if m["events.parse_rows"] else 0.0
    m["events.merge_s"] = t("events.merge")
    m["events.write_s"] = t("events.write")
    m["events.write_rows"] = n("events.write", "rows")
    for st in PREPROCESS_STAGES:
        m[f"preprocess.{st}_s"] = t(f"preprocess.{st}")
        m[f"preprocess.{st}_in"] = n(f"preprocess.{st}", "in")
        m[f"preprocess.{st}_out"] = n(f"preprocess.{st}", "out")
    p_in = n("preprocess.pipeline", "in")
    m["preprocess.kept_frac"] = n("preprocess.pipeline", "out") / p_in if p_in else 0.0
    for g in ("markers", "project", "trajectory", "write_trace"):
        m[f"groundtruth.{g}_s"] = t(f"groundtruth.{g}")
    m["synth.gen_s"] = t("synth.gen")
    m["synth.events"] = n("synth.gen", "events")
    m["topology.build_s"] = t("topology.build")
    m["topology.synapses"] = n("topology.build", "synapses")
    m["topology.disparity_of_ids_s"] = t("topology.disparity_of_ids")
    m["topology.disparity_of_ids_ids"] = n("topology.disparity_of_ids", "ids")
    sim = "simulator.simulate"
    m["simulator.simulate_s"] = t(sim)
    m["simulator.input_events"] = n(sim, "input_events")
    for p in ("coinc_exc", "coinc_inh", "disparity"):
        m[f"simulator.spikes_{p}"] = n(sim, f"spikes_{p}")
    m["simulator.deliveries"] = n(sim, "deliveries")
    for k in range(4):
        m[f"simulator.deliveries_r{k + 1}"] = cross_r[k]
    m["simulator.deliveries_per_s"] = m["simulator.deliveries"] / t(sim) if t(sim) else 0.0
    sim_seconds = n(sim, "duration_us") * 1e-6
    m["simulator.host_per_sim_s"] = t(sim) / sim_seconds if sim_seconds else 0.0
    m["simulator.rates_s"] = t("simulator.rates")
    m["simulator.write_spikes_s"] = t("simulator.write_spikes")
    m["metrics.build_report_s"] = t("metrics.build_report")
    m["metrics.write_json_s"] = t("metrics.write_json")
    m["metrics.write_com_s"] = t("metrics.write_com")
    m["cli.artifacts_s"] = sum(table["total"].get(w, 0.0) for w in WRITER_SPANS)
    m["cli.self_s"] = table["layers"]["cli"]
    return m


# ---------------------------------------------------------------- main


def measure(runner: Runner, seconds: float, traced: bool, setup_times: list[float]) -> list[dict]:
    """Closed loop: start the next run when the previous one ends, and stop
    when another run would not end within ``seconds`` (after a minimum).
    Untimed by the runs themselves, ``setup_s`` probes go before each run in
    ``--trace 0`` mode, so that they sample the same host phases."""
    jobs = runner.wl.jobs
    if traced:
        kinds = [(False, jobs)] + ([(False, 1)] if jobs > 1 else []) + [(True, 1)]
        minimum = MIN_TRACED_RUNS * len(kinds)
    else:
        kinds, minimum = [(False, jobs)], MIN_RUNS
    runs: list[dict] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not traced:
            setup_times.extend(probe_setup_s(runner.env, runner.workdir, SETUP_PROBES))
        run = runner.run_once(*kinds[len(runs) % len(kinds)])
        run["cost"] = time.perf_counter() - t0
        runs.append(run)
        next_cost = statistics.median(r["cost"] for r in runs)
        if len(runs) >= minimum and time.perf_counter() - t_start + next_cost > seconds:
            return runs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "evstereo", "cli.py")):
        fail_setup("no src/evstereo/cli.py here; run from the root of an evstereo checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        fail_setup("no BENCHMARK.json here; run from the root of an evstereo checkout")
    sys.path.insert(0, os.path.join(root, "src"))

    workdir = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t_setup = time.perf_counter()
    wl = MAKERS[args.workload](workdir, args.seed)
    runner = Runner(root, workdir, wl)
    print(f"workload {wl.name}  seed {args.seed}  configs {len(wl.configs)}  jobs {wl.jobs}  "
          f"inputs made in {time.perf_counter() - t_setup:.2f} s")

    metrics: dict[str, float] = {}
    checks: list[str] = []
    setup_times: list[float] = []
    if args.trace == 0:
        probe_setup_s(runner.env, workdir, 1)  # warm-up: writes the bytecode caches
    runs = measure(runner, args.seconds, bool(args.trace), setup_times)
    good = [r for r in runs if r["ok"]]
    plain = [r for r in good if not r["traced"] and r["jobs"] == wl.jobs]
    failed = len(runs) - len(good)

    if args.trace == 0 and plain:
        reports = plain[0]["reports"]
        raw = wl.raw_events if wl.raw_events is not None else sum(r["input_events"] for r in reports)
        walls = [r["wall"] for r in plain]
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["run_s"] = statistics.median(walls)
        metrics["events_per_s"] = raw / metrics["run_s"]
        metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in plain)
        metrics["pcd_d"] = statistics.fmean(r["pcd_d"] for r in reports)
        metrics["rmse_d"] = statistics.fmean(r["rmse_d"] for r in reports)
        print(f"runs {len(walls)}: wall min {min(walls):.3f} s  max {max(walls):.3f} s")
    traced_runs = [r for r in good if r["traced"]]
    if args.trace == 1 and traced_runs and plain:
        tables = [span_table(r) for r in traced_runs]
        per_run = [layer_metrics(tb, good[0]["cross"]["r"]) for tb in tables]
        for name in per_run[0]:
            metrics[name] = statistics.median(m[name] for m in per_run)
        metrics["simulator.fixed_s"] = probe_fixed_s(runner.topology)
        plain_wall = statistics.median(r["wall"] for r in plain)
        # compare each traced run with the untraced serial run just before
        # it, so that slow phases of the host cancel
        ratios = [b["wall"] / a["wall"] for a, b in zip(runs, runs[1:])
                  if b["traced"] and a["ok"] and b["ok"] and a["jobs"] == 1]
        if ratios:
            metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        config_s = statistics.median(tb["config_s"] for tb in tables)
        metrics["cli.jobs_efficiency"] = config_s / (wl.jobs * plain_wall)
        for tb, r in zip(tables, traced_runs):
            if not tb["nested"]:
                checks.append(f"self times add up to {tb['accounted']:.4f} s, traced run_s is {r['wall']:.4f} s")
        if wl.name == "recording":
            for st in PREPROCESS_STAGES:
                if not metrics[f"preprocess.{st}_out"] < metrics[f"preprocess.{st}_in"]:
                    checks.append(f"preprocess stage {st} dropped no events")
        tb = tables[0]
        print(f"traced run_s {traced_runs[0]['wall']:.4f} s = sum of layer self times:")
        for layer, v in sorted(tb["layers"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:12s} {v:9.4f} s  {v / traced_runs[0]['wall']:6.1%}")
        print(f"  {'total':12s} {tb['accounted']:9.4f} s")

    for out, dg in zip(wl.out_dirs, runner.reference or []):
        print(f"sha256 {out}/spikes.csv {dg[0]}")
        print(f"sha256 {out}/metrics.json {dg[1]}")
    for p in dict.fromkeys(runner.problems):
        print(f"FAILED run: {p}")
    for c in checks:
        print(f"FAILED check: {c}")

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for name in missing:
        print(f"FAILED check: metric {name} not measured")
    print(f"attempted {len(runs)}  failed {failed}  failed_frac {failed / len(runs):.3f}")
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']:34s} {metrics[m['name']]:>16.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not checks and not missing,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
