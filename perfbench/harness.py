"""The benchmark's workloads, and the processes that run them.

``run.py`` starts this file as a fresh child process per workload run::

    python3 perfbench/harness.py child --workload W --seed N --passes P \
        --workdir DIR --result FILE [--setup-only] [--spans FILE]
    python3 perfbench/harness.py worker --service DIR --probes FILE [--spans FILE]

A child imports :mod:`repro`, runs the workload's set-up (program builds and
pre-captures), then its timed phase (``P`` passes over the workload's grid, one
client issuing cells back to back), and writes a JSON result: per-cell host
seconds, simulated µ-ops/cycles and result digests, the timed wall time, the
host-speed scales (:class:`SpeedProbe`), peak RSS and, with ``--spans``, the
per-layer metrics of :mod:`spans`.  ``worker`` is one fleet worker
(``repro.campaign.coordinator.work_loop``) spawned by the ``fleet`` workload.

The simulator only ever receives the generated grid: ``--seed N`` becomes
``Campaign(seed=N)`` (per-cell predictor seeds) or, for the predictor study,
``derive_seed(N, family, workload)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402
from repro.analysis import predictor_eval  # noqa: E402
from repro.analysis.metrics import geometric_mean  # noqa: E402
from repro.campaign import coordinator, executor  # noqa: E402
from repro.campaign.coordinator import CampaignService  # noqa: E402
from repro.campaign.spec import BENCH_SUBSET, Campaign, derive_seed  # noqa: E402
from repro.campaign.store import ResultStore  # noqa: E402
from repro.pipeline.config import NAMED_CONFIGS, PREDICTOR_FACTORIES  # noqa: E402
from repro.trace.cache import shared_trace_cache  # noqa: E402
from repro.trace.store import TRACE_STORE_ENV_VAR  # noqa: E402
from repro.vp.confidence import SCALED_FPC_VECTOR  # noqa: E402
from repro.workloads.suite import SUITE_ORDER, workload  # noqa: E402

#: The paper's four headline machines (Figs. 6 and 12).
HEADLINE_CONFIGS = (
    "Baseline_6_64",
    "Baseline_VP_6_64",
    "EOLE_4_64",
    "EOLE_4_64_4ports_4banks",
)

#: Value-predictor families of the trace-level study (Section 4.2).
PREDICTOR_FAMILIES = ("vtage-2dstride", "vtage", "2dstride", "stride", "lvp", "fcm")

#: A fleet worker that has not exited this long after the grid finished is killed.
WORKER_JOIN_SECONDS = 30.0

#: How often fleet workers and ``serve`` poll the service directory.
FLEET_POLL_SECONDS = 0.1

#: Duration of one host-speed probe on the reference host while nothing else
#: loads it (seconds): the speed the end-to-end times are normalised to.
PROBE_REFERENCE_SECONDS = 0.0033

#: Least time between two host-speed probes during a timed phase, and the
#: probes taken after each set-up.
PROBE_INTERVAL_SECONDS = 0.5
SETUP_PROBES = 3


def probe_kernel() -> int:
    """A fixed interpreter-bound loop; its duration tracks the host's speed."""
    total = 0
    for i in range(60_000):
        total += i * i
    return total


class SpeedProbe:
    """Host-speed samples taken between units of work.

    The reference host is shared: its speed drifts by up to a half over minutes,
    far more than the changes the benchmark must detect.  Probing between cells
    and dividing the measured times by the probe's slowdown cancels the drift
    (on a 10-minute trace, the spread of 15 s throughput windows fell from 16.7 %
    to 3.2 % of the median).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self, tracer: spans.Tracer | None = None, force: bool = False) -> None:
        """Time one probe, unless the last one is less than the interval ago."""
        if not force and time.monotonic() - self._last < PROBE_INTERVAL_SECONDS:
            return
        with spans.span(tracer, "bench.probe"):
            started = time.perf_counter()
            probe_kernel()
            self.samples.append(time.perf_counter() - started)
        self._last = time.monotonic()

    def scale(self) -> float:
        """Reference probe time over the mean measured one (1.0 on a calm host).

        The mean, not the median: work between the probes is slowed by the
        host's bursts as well as by its steady state.
        """
        return PROBE_REFERENCE_SECONDS / statistics.fmean(self.samples)


def digest(payload: dict) -> str:
    """16-hex SHA-256 of the sorted-JSON form of a result dict."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def simulation_record(cell, payload: dict | None, seconds: float | None) -> dict:
    """One timing-model cell as the benchmark reports it.

    ``ok`` holds the seed-independent invariants of a correct result: exactly the
    requested µ-ops committed, and an IPC inside (0, commit width].
    """
    record = {"id": cell.describe(), "seeded": cell.config.value_prediction}
    if payload is None:
        return {**record, "error": "missing"}
    full, window = payload["full_stats"], payload["stats"]
    ipc = window["committed_uops"] / window["cycles"] if window["cycles"] else 0.0
    ok = (
        full["committed_uops"] == cell.max_uops
        and window["committed_uops"] == cell.max_uops - cell.warmup_uops
        and 0.0 < ipc <= cell.config.commit_width
    )
    return {
        **record,
        "seconds": seconds,
        "uops": full["committed_uops"],
        "cycles": full["cycles"],
        "ipc": ipc,
        "digest": digest(payload),
        "ok": ok,
    }


@dataclass
class Context:
    """What a workload's set-up and passes share within one child process."""

    seed: int
    workdir: Path
    tracer: spans.Tracer | None = None
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    state: dict = field(default_factory=dict)

    def span(self, name: str, **args):
        return spans.span(self.tracer, name, **args)

    def sample_speed(self) -> None:
        self.probe.sample(self.tracer)


# ---------------------------------------------------------------------- workloads
class Definition:
    """One benchmark workload: a set-up, then passes over its grid."""

    def setup(self, ctx: Context) -> None:
        """Prepare what every pass reuses (timed as set-up)."""

    def run_pass(self, ctx: Context, index: int) -> list[dict]:
        """Run the grid once; one record per cell (see :func:`simulation_record`)."""
        raise NotImplementedError

    def extra(self, records: list[dict]) -> dict:
        """Named results printed with the run besides the metrics."""
        return {}


@dataclass
class FigureGrid(Definition):
    """Regenerate the figures' grid from scratch through ``run_campaign``.

    Each pass gets a fresh result store and trace store and a cold in-process
    trace cache, so capture, trace save, simulate and store append all run per
    cell, as they do the first time a figure is produced.  The grid is issued
    one workload row per ``run_campaign`` call, so the host speed can be
    probed between rows.
    """

    configs: tuple[str, ...] = HEADLINE_CONFIGS
    workloads: tuple[str, ...] = SUITE_ORDER
    max_uops: int = 8000
    warmup_uops: int = 2500

    def setup(self, ctx: Context) -> None:
        for name in self.workloads:
            workload(name).program

    def run_pass(self, ctx: Context, index: int) -> list[dict]:
        root = ctx.workdir / f"figure_grid-{index}"
        os.environ[TRACE_STORE_ENV_VAR] = str(root / "traces")
        shared_trace_cache.clear()
        store = ResultStore(root / "results.jsonl")
        records = []
        for name in self.workloads:
            row = Campaign.from_names(
                self.configs, (name,), self.max_uops, self.warmup_uops,
                seed=ctx.seed, name="figure_grid",
            )
            executor.run_campaign(row, store=store, workers=1)
            records.extend(stored_records(row, store))
            ctx.sample_speed()
        return records

    def extra(self, records: list[dict]) -> dict:
        """Geomean of |ln(simulated / Table 3 IPC)| over the ``Baseline_6_64`` cells."""
        errors = {
            r["id"]: abs(math.log(r["ipc"] / workload(r["id"].split("/")[1]).spec.paper_ipc))
            for r in records
            if r["id"].startswith("Baseline_6_64/") and "ipc" in r
        }
        return {"paper_ipc_err": geometric_mean(errors.values())} if errors else {}


@dataclass
class LongWindow(Definition):
    """Long simulations of pre-captured traces: the timing model's steady state."""

    configs: tuple[str, ...] = HEADLINE_CONFIGS
    workloads: tuple[str, ...] = BENCH_SUBSET
    max_uops: int = 30000
    warmup_uops: int = 7500

    def campaign(self, ctx: Context) -> Campaign:
        return Campaign.from_names(
            self.configs, self.workloads, self.max_uops, self.warmup_uops,
            seed=ctx.seed, name="long_window",
        )

    def setup(self, ctx: Context) -> None:
        for cell in self.campaign(ctx).cells():
            shared_trace_cache.trace_for(workload(cell.workload_name), cell.max_uops, cell.config)

    def run_pass(self, ctx: Context, index: int) -> list[dict]:
        records = []
        for cell in self.campaign(ctx).cells():
            started = time.monotonic()
            result = executor.simulate_cell(cell, workload(cell.workload_name))
            seconds = time.monotonic() - started
            records.append(simulation_record(cell, result.to_dict(), seconds))
            ctx.sample_speed()
        return records


@dataclass
class PredictorStudy(Definition):
    """Trace-level value-predictor evaluation over a filled trace store."""

    families: tuple[str, ...] = PREDICTOR_FAMILIES
    workloads: tuple[str, ...] = SUITE_ORDER
    max_uops: int = 20000

    def setup(self, ctx: Context) -> None:
        os.environ[TRACE_STORE_ENV_VAR] = str(ctx.workdir / "traces")
        lengths = ctx.state["trace_lengths"] = {}
        for name in self.workloads:
            trace = shared_trace_cache.trace_for_length(workload(name), self.max_uops)
            lengths[name] = len(trace)
        shared_trace_cache.clear()

    def run_pass(self, ctx: Context, index: int) -> list[dict]:
        shared_trace_cache.clear()  # every pass loads its traces from the store
        records = []
        for name in self.workloads:
            wl = workload(name)
            for family in self.families:
                predictor = PREDICTOR_FACTORIES[family](
                    derive_seed(ctx.seed, family, name), SCALED_FPC_VECTOR
                )
                if ctx.tracer is not None:
                    spans.wrap_predictor(ctx.tracer, predictor)
                started = time.monotonic()
                evaluation = predictor_eval.evaluate_predictor(predictor, wl, self.max_uops)
                seconds = time.monotonic() - started
                ok = (
                    evaluation.eligible_uops > 0
                    and 0.0 <= evaluation.coverage <= 1.0
                    and 0.0 <= evaluation.accuracy <= 1.0
                )
                records.append(
                    {
                        "id": f"{family}/{name}",
                        "seeded": True,
                        "seconds": seconds,
                        "uops": min(self.max_uops, ctx.state["trace_lengths"][name]),
                        "cycles": None,
                        "digest": digest(evaluation.to_dict()),
                        "ok": ok,
                    }
                )
                ctx.sample_speed()
        return records


@dataclass
class Fleet(Definition):
    """A fresh distributed service per pass: submit, spawn workers, serve."""

    configs: tuple[str, ...] = tuple(NAMED_CONFIGS)
    workloads: tuple[str, ...] = BENCH_SUBSET
    max_uops: int = 8000
    warmup_uops: int = 2500
    lease_width: int = 2
    workers: int = 2
    timeout_seconds: float = 150.0

    def run_pass(self, ctx: Context, index: int) -> list[dict]:
        root = ctx.workdir / f"fleet-{index}"
        service = CampaignService(root)
        campaign = Campaign.from_names(
            self.configs, self.workloads, self.max_uops, self.warmup_uops,
            seed=ctx.seed, name="fleet",
        )
        worker_spans = []
        with ctx.span("fleet.pass", workers=self.workers):
            with ctx.span("coord.submit"):
                service.submit(campaign, lease_width=self.lease_width)
            processes = []
            try:
                for k in range(self.workers):
                    command = [
                        sys.executable, str(Path(__file__).resolve()), "worker",
                        "--service", str(root), "--probes", str(root / f"worker-{k}.probes"),
                    ]
                    if ctx.tracer is not None:
                        worker_spans.append(root / f"worker-{k}.spans.json")
                        command += ["--spans", str(worker_spans[-1])]
                    with ctx.span("coord.spawn") as record, open(
                        root / f"worker-{k}.log", "wb"
                    ) as log:
                        processes.append(
                            subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
                        )
                        record["args"]["worker_pid"] = processes[-1].pid
                with ctx.span("coord.serve"):
                    coordinator.serve(
                        service, campaign, lease_width=self.lease_width,
                        poll_seconds=FLEET_POLL_SECONDS, progress=False,
                        timeout_seconds=self.timeout_seconds,
                    )
            finally:
                with ctx.span("coord.join"):
                    stop_processes(processes)
        # The workers probe the host between leases; this process only waits.
        for path in root.glob("worker-*.probes"):
            ctx.probe.samples.extend(json.loads(path.read_text()))
        for path in worker_spans:
            if path.exists():
                ctx.tracer.spans.extend(json.loads(path.read_text()))
        return stored_records(campaign, service.result_store())


def stop_processes(processes: list[subprocess.Popen]) -> None:
    """Wait for every process; kill the ones still running after the grace time."""
    deadline = time.monotonic() + WORKER_JOIN_SECONDS
    for process in processes:
        try:
            process.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def stored_records(campaign: Campaign, store: ResultStore) -> list[dict]:
    """Per-cell records from a result store (host time = telemetry wall seconds)."""
    records = []
    for cell in campaign.cells():
        row = store.get_record(cell.fingerprint)
        if row is None:
            records.append(simulation_record(cell, None, None))
            continue
        records.append(
            simulation_record(cell, row["result"], row["telemetry"]["wall_seconds"])
        )
    return records


#: Workload name → definition (the order is the order ``run.py`` runs them in).
WORKLOADS = {
    "figure_grid": FigureGrid(),
    "long_window": LongWindow(),
    "predictor_study": PredictorStudy(),
    "fleet": Fleet(),
}


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_child(
    definition, seed: int, passes: int, workdir: Path, setup_only: bool = False,
    tracer: spans.Tracer | None = None,
) -> dict:
    """Set up ``definition`` and run ``passes`` timed passes (in this process).

    ``setup_scale`` and ``host_scale`` are the :meth:`SpeedProbe.scale` of the
    probes taken right after set-up and during the timed phase.
    """
    ctx = Context(seed=seed, workdir=workdir, tracer=tracer)
    with ctx.span("bench.setup"):
        definition.setup(ctx)
    setup_end = time.monotonic()
    setup_probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        setup_probe.sample(tracer, force=True)
    if setup_only:
        return {"setup_end": setup_end, "setup_scale": setup_probe.scale()}
    records: list[dict] = []
    with ctx.span("bench.timed"):
        started = time.monotonic()
        for index in range(passes):
            records.extend(definition.run_pass(ctx, index))
        timed_s = time.monotonic() - started
    return {
        "setup_end": setup_end,
        "setup_scale": setup_probe.scale(),
        "timed_s": timed_s,
        "host_scale": ctx.probe.scale(),
        "probes": len(ctx.probe.samples),
        "cells": records,
        "extra": definition.extra(records),
        "peak_rss_mb": peak_rss_mb(),
    }


def child_main(args: argparse.Namespace) -> int:
    tracer = spans.Tracer() if args.spans else None
    undo = spans.install(tracer) if tracer is not None else None
    try:
        result = run_child(
            WORKLOADS[args.workload], args.seed, args.passes, Path(args.workdir),
            setup_only=args.setup_only, tracer=tracer,
        )
    finally:
        if undo is not None:
            undo()
    if tracer is not None and not args.setup_only:
        result["layers"] = spans.layer_metrics(tracer.spans)
        Path(args.spans).write_text(json.dumps(spans.to_chrome(tracer.spans)))
    Path(args.result).write_text(json.dumps(result))
    return 0


def worker_main(args: argparse.Namespace) -> int:
    tracer = spans.Tracer() if args.spans else None
    if tracer is not None:
        spans.install(tracer)
    probe = SpeedProbe()
    process_lease = coordinator.process_lease

    def probed_lease(*lease_args, **kwargs):
        try:
            return process_lease(*lease_args, **kwargs)
        finally:
            probe.sample(tracer)

    coordinator.process_lease = probed_lease
    service = CampaignService(args.service)
    with spans.span(tracer, "coord.worker"):
        coordinator.work_loop(service, poll_seconds=FLEET_POLL_SECONDS)
    Path(args.probes).write_text(json.dumps(probe.samples))
    if tracer is not None:
        Path(args.spans).write_text(json.dumps(tracer.spans))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    child = sub.add_parser("child", help="run one workload (set-up + timed passes)")
    child.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--passes", type=int, default=1)
    child.add_argument("--workdir", required=True)
    child.add_argument("--result", required=True)
    child.add_argument("--setup-only", action="store_true")
    child.add_argument("--spans", default=None, help="trace the run; write spans here")
    worker = sub.add_parser("worker", help="one fleet worker")
    worker.add_argument("--service", required=True)
    worker.add_argument("--probes", required=True, help="write host-speed samples here")
    worker.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    return child_main(args) if args.mode == "child" else worker_main(args)


if __name__ == "__main__":
    sys.exit(main())
