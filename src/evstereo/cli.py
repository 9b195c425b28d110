"""Command-line pipeline driver.

Subcommands: ``run`` (preprocess -> simulate -> ground truth -> metrics),
``synth`` (write stimulus fixtures), ``topology`` (build, check, export),
``eval`` (metrics over existing spike/trace files).

Exit codes: 0 ok, 1 runtime failure, 2 config/input error. Artifact files
are written to a temp name and renamed, so each is fully written or absent.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import NoReturn

import numpy as np

from .config import RunConfig, config_to_dict, load_config, window_count_of
from .events import (
    LEFT,
    RIGHT,
    InputError,
    StereoEventStream,
    merge_streams,
    parse_event_file,
    write_csv,
    write_event_file,
)
from .groundtruth import (
    disparity_trajectory,
    project_markers,
    read_calibration_json,
    read_marker_csv,
    read_trace_csv,
    write_trace_csv,
)
from .metrics import build_report, write_com_csv
from .preprocess import preprocess_pipeline_resolved
from .simulator import (
    MAX_SPAN_US,
    POPULATION_CODE_NAMES,
    SpikeRecord,
    instantaneous_rates,
    read_spike_csv,
    simulate,
    window_center_labels,
    write_spike_csv,
)
from .synth import gen_stimulus, stimulus_trace
from .topology import (
    Population,
    Topology,
    WeightParams,
    build_topology,
    check_hardware_constraints,
    largest_feasible_d_max,
)


def _build_topology(cfg: RunConfig) -> Topology:
    t = cfg.topology
    return _topology(t.retina_width, t.retina_height, t.d_max, t.weights, t.polarity_mode, t.continuity_radius)


@functools.lru_cache(maxsize=1)
def _topology(
    width: int, height: int, d_max: int, weights: WeightParams, polarity_mode: str, continuity_radius: int | None
) -> Topology:
    """The most recent topology, kept: the configs of a batch usually share
    one, so each process (each ``--jobs`` worker) builds it once. A
    ``Topology`` is immutable."""
    return build_topology(
        width, height, d_max, weights, polarity_mode=polarity_mode, continuity_radius=continuity_radius
    )


def _load_file_stream(cfg: RunConfig) -> StereoEventStream:
    """The recording, refused where it spans more than ``MAX_SPAN_US``; the
    message names the file of its last event."""
    inp = cfg.input
    if inp.events is not None:
        stream = parse_event_file(inp.events, cfg.full_geometry)
    else:
        left = parse_event_file(inp.left_events, cfg.full_geometry, side=LEFT)
        right = parse_event_file(inp.right_events, cfg.full_geometry, side=RIGHT)
        stream = merge_streams(left, right)
    span = int(stream.t[-1]) - int(stream.t[0]) if len(stream) else 0
    if span > MAX_SPAN_US:
        path = inp.events or (inp.right_events if stream.side[-1] == RIGHT else inp.left_events)
        raise InputError(f"{path}: the last event comes {span} us after the first, more than 2**60")
    return stream


def _marker_tracks(cfg: RunConfig, origin: tuple[int, int], t_offset: int):
    """The projected marker tracks of the left and the right view, in the
    network's frame."""
    tracks3d = read_marker_csv(cfg.input.markers)
    if t_offset:
        for tr in tracks3d:
            tr.t = tr.t - t_offset  # markers share the recording clock
    factor = cfg.preprocess.downscale_factor if cfg.preprocess_enabled else 1
    size = (cfg.topology.retina_width, cfg.topology.retina_height)
    return [project_markers(tracks3d, p, factor, origin, size) for p in read_calibration_json(cfg.input.calibration)]


def _write_rates_csv(record: SpikeRecord, topology: Topology, window_us: int, n_windows: int, path: str) -> None:
    """Long-format rate export (nonzero entries only): one row per
    (window, neuron) with activity, by neuron id, then window. Only the
    windows that hold spikes are labelled."""
    ids, window, counts = instantaneous_rates(record, window_us, n_windows)
    present, code = np.unique(window, return_inverse=True)
    population = (POPULATION_CODE_NAMES, topology.pop_code[ids])
    columns = [window, (window_center_labels(present, window_us), code), population, ids, counts / (window_us * 1e-6)]
    write_csv(path, "window_i,t_center_us,population,neuron_id,rate_hz", columns)


def _write_mean_rates_csv(record: SpikeRecord, topology: Topology, path: str) -> None:
    """Whole-recording mean rate per neuron with its coordinates (feeds the
    per-row rate-map and disparity-histogram plots)."""
    duration_s = record.duration_us * 1e-6 if record.duration_us else 1.0
    ids = np.arange(topology.offsets[Population.COINC_EXC], topology.n_neurons)  # coincidence, then disparity
    rate = np.bincount(record.neuron_ids, minlength=topology.n_neurons)[ids] / duration_s
    population = (POPULATION_CODE_NAMES, topology.pop_code[ids])
    columns = [population, ids, topology.d[ids], topology.x_cyc[ids], topology.y[ids], rate]
    write_csv(path, "population,neuron_id,d,x_cyc,y,mean_rate_hz", columns)


def _write_disparity_hist_csv(record: SpikeRecord, topology: Topology, window_us: int, n_windows: int, path: str) -> None:
    """Spike counts by population tag (C: both coincidence copies, D: disparity),
    window and encoded disparity, in that order; windows from ``n_windows`` on are dropped."""
    mask = record.populations >= Population.COINC_EXC
    tag = (record.populations[mask] == Population.DISPARITY).astype(np.int64)
    window = record.times[mask] // window_us
    d = topology.disparity_of_ids(record.neuron_ids[mask]) + topology.d_max
    span = 2 * topology.d_max + 1
    hist = np.bincount(((tag * n_windows + window) * span + d)[window < n_windows])
    key = np.flatnonzero(hist)
    tag, window = np.divmod(key // span, n_windows)
    columns = [(["C", "D"], tag), window, key % span - topology.d_max, hist[key]]
    write_csv(path, "population,window_i,d,count", columns)


def _print_headline(report) -> None:
    """The summary table in one write, which batch workers on an unbuffered stdout cannot interleave."""

    def fmt(v, spec):
        return ("%" + spec) % v if v is not None else "       n/a"

    energy = fmt(report.energy_uw, "15.2f")
    sys.stdout.write(
        f"sample: {report.sample_label}\n"
        + "population |   PCD (eps_d=%g) |   RMSE [px] | est. power [uW]\n" % report.eps_d
        + f"     D     | {fmt(report.pcd_d, '16.4f')} | {fmt(report.rmse_d, '11.4f')} | {energy}\n"
        + f"     C     | {fmt(report.pcd_c, '16.4f')} | {fmt(report.rmse_c, '11.4f')} |\n"
    )


# ---------------------------------------------------------------- commands


def _run_one(config_path: str, overrides: list[str]) -> int:
    cfg = load_config(config_path, overrides)
    cfg.validate_for_run()
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)

    if cfg.input.is_synthetic:
        duration = cfg.input.duration_us
        stream, _ = gen_stimulus(cfg.input.synthetic, cfg.topology.geometry, duration, cfg.analysis.window_us)
    else:
        raw = _load_file_stream(cfg)
        # recordings normalize to start at t = 0; the marker clock shifts too
        t_offset = int(raw.t[0]) if len(raw) else 0
        if t_offset:
            raw = StereoEventStream._from_canonical(raw.t - t_offset, raw.x, raw.y, raw.p, raw.side, raw.geometry)
        if cfg.preprocess_enabled:
            stream, origin = preprocess_pipeline_resolved(raw, cfg.preprocess)
        else:  # the config holds the retina's geometry
            stream, origin = raw, (0, 0)
        duration = stream.duration
        window_count_of(cfg, duration)  # before the run, which the spikes' windows check again
        tracks = _marker_tracks(cfg, origin, t_offset)

    topology = _build_topology(cfg)
    record = simulate(topology, stream, cfg.simulator, cfg.mismatch, duration_us=duration)
    # the windows run to the last spike, which may come after the last event
    n_windows = window_count_of(cfg, record.duration_us)
    if cfg.input.is_synthetic:
        trace = stimulus_trace(cfg.input.synthetic, duration, cfg.analysis.window_us, n_windows)
    else:
        try:
            trace = disparity_trajectory(*tracks, cfg.analysis.window_us, n_windows)
        except ValueError as exc:  # the markers give no window a disparity
            raise InputError(f"{cfg.input.markers}: {exc}") from None

    report = build_report(
        record,
        topology,
        trace,
        cfg.analysis.window_us,
        cfg.analysis.eps_d,
        cfg.energy,
        config=config_to_dict(cfg),
        sample_label=cfg.sample_label,
        pcd_mode=cfg.analysis.pcd_mode,
    )

    write_event_file(stream, os.path.join(out, "input_events.csv"))
    write_spike_csv(record, os.path.join(out, "spikes.csv"))
    _write_rates_csv(record, topology, cfg.analysis.window_us, n_windows, os.path.join(out, "rates.csv"))
    write_trace_csv(trace, os.path.join(out, "disparity_trace.csv"))
    write_com_csv(report, os.path.join(out, "com.csv"))
    _write_mean_rates_csv(record, topology, os.path.join(out, "mean_rates.csv"))
    _write_disparity_hist_csv(
        record, topology, cfg.analysis.window_us, n_windows, os.path.join(out, "disparity_hist.csv")
    )
    report.write_json(os.path.join(out, "metrics.json"))
    _print_headline(report)
    return 0


def _exit_code(exc: Exception, where: str) -> int:
    """The exit code of a command that raised ``exc`` at ``where``: 2 for an
    ``InputError``, else 1. Its stderr line is one write, which the workers
    of a batch cannot interleave."""
    if isinstance(exc, InputError):
        code, line = 2, f"config error ({where}): {exc}"
    elif isinstance(exc, (ValueError, OSError)):
        code, line = 1, f"error ({where}): {exc}"
    else:
        code, line = 1, f"error ({where}): {type(exc).__name__}: {exc}"
    sys.stderr.write(line + "\n")
    return code


def _run_one_safe(config_path: str, overrides: list[str]) -> int:
    try:
        return _run_one(config_path, overrides)
    except Exception as exc:  # one failing config must not abort its siblings
        return _exit_code(exc, f"run {config_path}")


def _run_forked(configs: list[str], overrides: list[str], jobs: int) -> int:
    """Run ``configs`` on up to ``jobs`` forked workers, each taking the
    next config index from one pipe (4-byte records) until end-of-file; the
    largest exit code. A worker that dies fails only the config it ran."""
    sys.stdout.flush()  # else each worker would inherit, and print again, what is buffered
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pids = []
    # the forked workers share the parent's heap until they write to it;
    # frozen, its objects are left out of the workers' garbage collections,
    # which would otherwise copy every page they visit
    gc.freeze()
    try:
        for _ in range(min(jobs, len(configs))):
            try:
                pid = os.fork()
            except OSError:
                if not pids:
                    raise
                break  # the workers already running take every config
            if pid == 0:
                code = 1  # also where an exception escapes _run_one_safe
                try:
                    os.close(write_fd)  # else this worker's own copy would hold off end-of-file
                    worst = 0
                    while record := os.read(read_fd, 4):
                        i = int.from_bytes(record, "little")
                        worst = max(worst, _run_one_safe(configs[i], overrides))
                    code = worst
                finally:
                    _exit(code)  # a worker never returns into the caller
            pids.append(pid)
    finally:
        gc.unfreeze()
        os.close(read_fd)
        # written once the workers run, so a batch larger than the pipe's buffer
        # cannot block; in writes of 512 bytes, which POSIX makes atomic, so no
        # worker reads part of a record
        records = b"".join(i.to_bytes(4, "little") for i in range(len(configs)))
        try:
            for start in range(0, len(records), 512):
                os.write(write_fd, records[start:start + 512])
        except BrokenPipeError:  # no worker is left to read; waitpid reports them
            pass
        finally:
            os.close(write_fd)
    codes = [0]
    for pid in pids:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code not in (0, 1, 2):
            how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
            code = _exit_code(ChildProcessError(f"worker {pid} {how}"), "run")
        codes.append(code)
    return max(codes)


def cmd_run(args: argparse.Namespace) -> int:
    """Run each ``-c`` config; the largest exit code. A single config runs
    in this process and its errors propagate to ``main``. A batch reports
    each failing config and goes on with the rest: serially, or with
    ``--jobs N`` on up to N forked workers (serially where ``os.fork`` does
    not exist)."""
    configs: list[str] = args.config
    overrides = args.set or []
    if len(configs) == 1:
        return _run_one(configs[0], overrides)
    if args.jobs > 1 and hasattr(os, "fork"):
        return _run_forked(configs, overrides, args.jobs)
    return max(_run_one_safe(c, overrides) for c in configs)


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set or [])
    if not cfg.input.is_synthetic:
        raise InputError("synth requires an input.synthetic profile")
    cfg.validate_for_run()
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    stream, trace = gen_stimulus(
        cfg.input.synthetic, cfg.topology.geometry, cfg.input.duration_us, cfg.analysis.window_us
    )
    left = stream.select(stream.side == LEFT)
    right = stream.select(stream.side == RIGHT)
    write_event_file(left, os.path.join(out, "left.csv"))
    write_event_file(right, os.path.join(out, "right.csv"))
    write_trace_csv(trace, os.path.join(out, "trace.csv"))
    print(f"wrote {len(left)} left / {len(right)} right events and {trace.n_windows} trace windows to {out}")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set or [])
    if args.hardware_budget:
        best = largest_feasible_d_max(cfg.topology.retina_width, cfg.topology.retina_height, cfg.topology.weights)
        if best is None:
            print("no disparity band fits the hardware budget")
            return 1
        print(f"largest feasible d_max under hardware limits: {best}")
        cfg.topology.d_max = best
    topology = _build_topology(cfg)
    report = check_hardware_constraints(topology)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    topology.write_json(os.path.join(out, "topology.json"))
    for line in report.summary_lines():
        print(line)
    print(f"constraint check: {'pass' if report.passed else 'FAIL (advisory)'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args.set or [])
    topology = _build_topology(cfg)
    if not os.path.exists(args.spikes):
        raise InputError(f"spike file not found: {args.spikes}")
    if not os.path.exists(args.trace):
        raise InputError(f"trace file not found: {args.trace}")
    trace = read_trace_csv(args.trace)
    if trace.window_us != cfg.analysis.window_us:
        raise InputError(
            f"trace window {trace.window_us}us does not match analysis.window_us={cfg.analysis.window_us}"
        )
    duration = trace.n_windows * trace.window_us - 1
    record = read_spike_csv(args.spikes, topology, duration_us=duration)
    # energy needs input/delivery counters that spike CSVs do not carry
    report = build_report(
        record,
        topology,
        trace,
        cfg.analysis.window_us,
        cfg.analysis.eps_d,
        config=config_to_dict(cfg),
        sample_label=cfg.sample_label,
        pcd_mode=cfg.analysis.pcd_mode,
        with_energy=False,
    )
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    report.write_json(os.path.join(out, "metrics.json"))
    write_com_csv(report, os.path.join(out, "com.csv"))
    _print_headline(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evstereo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", required=True, help="JSON config file")
    common.add_argument(
        "--set", action="append", metavar="SECTION.KEY=VALUE", help="override a config key"
    )

    run = sub.add_parser("run", help="full pipeline: events -> spikes -> metrics")
    run.add_argument(
        "-c", "--config", action="append", required=True,
        help="JSON config file (repeatable; independent runs)",
    )
    run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE", help="override a config key")
    run.add_argument(
        "--jobs", type=int, default=1,
        help="run the configs on up to N forked workers, each taking the next config in turn "
        "(serially where os.fork does not exist)",
    )
    sub.add_parser("synth", parents=[common], help="generate stimulus event files + ground truth")
    topo = sub.add_parser("topology", parents=[common], help="build/check/export the network")
    topo.add_argument(
        "--hardware-budget",
        action="store_true",
        help="pick the largest d_max passing the hardware constraint check",
    )
    ev = sub.add_parser("eval", parents=[common], help="metrics over existing spike/trace files")
    ev.add_argument("--spikes", required=True, help="spike CSV from a previous run")
    ev.add_argument("--trace", required=True, help="disparity trace CSV")
    return parser


COMMANDS = {
    "run": cmd_run,
    "synth": cmd_synth,
    "topology": cmd_topology,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # any other exception is a fault of the program
        return _exit_code(exc, args.command)


def _exit(code: int) -> NoReturn:
    """End the process with ``code`` at once: flush both standard streams,
    then ``os._exit``, which skips the interpreter's teardown (a garbage
    collection over the whole heap). Every file a command writes is closed
    by then."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(code)


def console_main() -> NoReturn:
    """The ``evstereo`` command (and ``python -m evstereo.cli``): ``main``,
    then ``_exit`` with its code."""
    _exit(main())


if __name__ == "__main__":
    console_main()
