"""Run ``evstereo`` in-process with a span recorder around every call into a
layer, and write the spans to a JSON file.

    python3 traced.py SPANS_JSON run -c config.json ...

The recorder replaces the module-global names that ``evstereo.cli`` and
``evstereo.preprocess`` call (and two methods at class level) with wrappers;
no code under ``src/`` changes. Each span is ``[name, start, end, parent,
counts]`` with ``time.perf_counter()`` stamps, which share the monotonic
clock with the launching process. Span 0 (``cli.process``) starts when this
script starts and ends just before it writes the file.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


class Tracer:
    def __init__(self, t_start: float) -> None:
        self.spans: list[list] = [["cli.process", t_start, None, -1, {}]]
        self.stack = [0]

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name``; ``count(args, result)`` returns counts to attach to it."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, None, stack[-1], {}])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                spans[idx][4] = count(args, result)
            return result

        setattr(owner, attr, wrapper)


def _simulate_counts(args, record) -> dict:
    from evstereo.topology import Population

    return {
        "input_events": record.input_events,
        "deliveries": record.deliveries,
        "duration_us": record.duration_us,
        "spikes_coinc_exc": record.counts[Population.COINC_EXC],
        "spikes_coinc_inh": record.counts[Population.COINC_INH],
        "spikes_disparity": record.counts[Population.DISPARITY],
    }


def install(tracer: Tracer) -> None:
    from evstereo import cli, metrics, preprocess
    from evstereo.metrics import MetricsReport
    from evstereo.topology import Topology

    def n_in(args, result):
        return {"in": len(args[0])}

    def n_out(args, result):
        return {"out": len(result)}

    def n_in_out(args, result):
        return {"in": len(args[0]), "out": len(result)}

    w = tracer.wrap
    w(cli, "_run_one", "cli.config")
    w(cli, "parse_event_file", "events.parse", lambda a, r: {"rows": len(r)})
    w(cli, "merge_streams", "events.merge")
    w(cli, "write_event_file", "events.write", lambda a, r: {"rows": len(a[0])})
    w(cli, "preprocess_pipeline_resolved", "preprocess.pipeline",
      lambda a, r: {"in": len(a[0]), "out": len(r[0])})
    w(preprocess, "mask_regions", "preprocess.mask", n_in_out)
    w(preprocess, "detect_hot_pixels", "preprocess.hot_pixel", n_in)
    w(preprocess, "remove_pixels", "preprocess.hot_pixel", n_out)
    w(preprocess, "filter_background", "preprocess.background", n_in_out)
    w(preprocess, "downscale", "preprocess.downscale", n_in_out)
    w(preprocess, "crop", "preprocess.crop", n_in_out)
    w(cli, "read_marker_csv", "groundtruth.markers")
    w(cli, "project_markers", "groundtruth.project")
    w(cli, "disparity_trajectory", "groundtruth.trajectory")
    w(cli, "write_trace_csv", "groundtruth.write_trace")
    w(cli, "gen_stimulus", "synth.gen", lambda a, r: {"events": len(r[0])})
    w(cli, "build_topology", "topology.build", lambda a, r: {"synapses": r.n_synapses})
    w(Topology, "disparity_of_ids", "topology.disparity_of_ids", lambda a, r: {"ids": len(a[1])})
    w(cli, "simulate", "simulator.simulate", _simulate_counts)
    w(cli, "instantaneous_rates", "simulator.rates")
    w(metrics, "instantaneous_rates", "simulator.rates")
    w(cli, "write_spike_csv", "simulator.write_spikes")
    w(cli, "build_report", "metrics.build_report")
    w(MetricsReport, "write_json", "metrics.write_json")
    w(cli, "write_com_csv", "metrics.write_com")
    w(cli, "_write_rates_csv", "cli.write_rates")
    w(cli, "_write_mean_rates_csv", "cli.write_mean_rates")
    w(cli, "_write_disparity_hist_csv", "cli.write_disparity_hist")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(T_START)
    install(tracer)
    from evstereo import cli

    rc = cli.main(cli_args)
    tracer.spans[0][2] = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
