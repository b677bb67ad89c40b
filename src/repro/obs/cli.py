"""``repro-obs`` — run one traced/metered single-cell simulation from the shell.

Two subcommands:

* ``repro-obs trace`` — run one cell with ``REPRO_PIPE_TRACE=1`` and export the
  event buffer as Perfetto trace-event JSON (``--perfetto``) and/or Konata
  O3PipeView text (``--konata``).  The exported JSON is validated against the
  trace-event schema before it is written, so CI can rely on the exit status.
* ``repro-obs metrics`` — run one cell with ``REPRO_METRICS=1`` and print the
  drained metrics payload as a ``repro-report``-style table or as JSON.

Also reachable as ``python -m repro.obs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs.metrics import METRICS_ENV_VAR, metrics_report
from repro.obs.tracer import (
    PIPE_TRACE_BUFFER_ENV_VAR,
    PIPE_TRACE_ENV_VAR,
    to_konata,
    to_trace_events,
    validate_trace_events,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Pipeline-event tracing and metrics for single-cell simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cell_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default="EOLE_4_64", help="named pipeline configuration")
        p.add_argument("--workload", default="gcc", help="workload name from the suite")
        p.add_argument("--max-uops", type=int, default=4000)
        p.add_argument("--warmup-uops", type=int, default=1000)

    trace = sub.add_parser("trace", help="run one traced cell and export the event buffer")
    add_cell_arguments(trace)
    trace.add_argument(
        "--buffer", type=int, default=None, help="ring-buffer capacity (events)"
    )
    trace.add_argument("--perfetto", metavar="PATH", help="write Perfetto trace-event JSON")
    trace.add_argument("--konata", metavar="PATH", help="write Konata/O3PipeView text")

    metrics = sub.add_parser("metrics", help="run one metered cell and dump the metrics")
    add_cell_arguments(metrics)
    metrics.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def _simulate(args) -> "tuple":
    """Run one cell exactly as the campaign executor would, returning the simulator.

    Imports are deferred so ``repro.obs`` stays import-light for the hot paths.
    """
    from repro.pipeline.config import named_config
    from repro.pipeline.simulator import Simulator
    from repro.trace.cache import shared_trace_cache
    from repro.workloads.suite import workload

    config = named_config(args.config)
    wl = workload(args.workload)
    simulator = Simulator(
        config,
        shared_trace_cache.trace_for(wl, args.max_uops, config),
        args.max_uops,
        args.warmup_uops,
    )
    result = simulator.run()
    return simulator, result


def _with_env(overrides: dict, fn):
    """Run ``fn`` with environment overrides, restoring the previous values.

    The CLI is also exercised in-process by the tests, so mutating ``os.environ``
    without restoring it would leak tracing into unrelated simulations.
    """
    previous = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        return fn()
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _cmd_trace(args) -> int:
    overrides = {PIPE_TRACE_ENV_VAR: "1"}
    if args.buffer is not None:
        overrides[PIPE_TRACE_BUFFER_ENV_VAR] = str(args.buffer)
    simulator, result = _with_env(overrides, lambda: _simulate(args))
    tracer = simulator.tracer
    if tracer is None:  # pragma: no cover - env override failed
        print("error: tracer was not enabled", file=sys.stderr)
        return 1
    metadata = {
        "config": args.config,
        "workload": args.workload,
        "max_uops": args.max_uops,
        "warmup_uops": args.warmup_uops,
        "ipc": result.ipc,
    }
    print(
        f"{args.config}/{args.workload}: {tracer.emitted} events emitted, "
        f"{len(tracer)} retained, {tracer.dropped} dropped "
        f"(buffer {tracer.capacity})"
    )
    if args.perfetto:
        payload = to_trace_events(tracer, metadata)
        validate_trace_events(payload)
        with open(args.perfetto, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        print(f"perfetto: {args.perfetto} ({len(payload['traceEvents'])} trace events)")
    if args.konata:
        text = to_konata(tracer)
        with open(args.konata, "w") as fh:
            fh.write(text)
        print(f"konata: {args.konata} ({text.count(chr(10))} lines)")
    return 0


def _cmd_metrics(args) -> int:
    _, result = _with_env({METRICS_ENV_VAR: "1"}, lambda: _simulate(args))
    payload = result.extra.get("metrics")
    if payload is None:  # pragma: no cover - env override failed
        print("error: metrics were not enabled", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(metrics_report(payload))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"trace": _cmd_trace, "metrics": _cmd_metrics}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # pragma: no cover - shell pipeline closed early
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
