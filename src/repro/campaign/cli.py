"""Command-line front-end: ``python -m repro.campaign`` (or ``repro-campaign``).

Seven subcommands::

    run      simulate a (configs × workloads) grid, persisting results to a store
             (--workers N > 1 runs a local fleet of N forked workers)
    status   report done/missing cells for a grid against a store (no simulation)
    report   tabulate stored results (IPC by default, speedups with --baseline,
             per-cell execution telemetry with --metrics;
             --format json|csv for downstream plotting)
    compact  rewrite the store dropping superseded/corrupt rows (optionally capped
             with --max-mb, evicting oldest rows; REPRO_RESULT_STORE_MAX_MB applies
             the same cap automatically after every append)
    serve    submit a grid to a shared service directory as leased work and stream
             progress/telemetry while a worker fleet completes it (optionally
             forking --local-workers N on this host)
    work     run one worker against a service directory: lease cells, heartbeat,
             simulate, append to the shared store; exits when the queue completes
             (SIGTERM/SIGINT release the held lease back to the queue first)
    fsck     audit a service directory or bare store for crash residue — torn or
             corrupt rows, bad trace blobs, orphaned temp files, wedged leases —
             and optionally --repair it back to a resumable state

Examples::

    python -m repro.campaign run --configs Baseline_6_64,EOLE_4_64 \\
        --workloads subset --store results/campaign.jsonl --workers 4
    python -m repro.campaign status --store results/campaign.jsonl \\
        --configs Baseline_6_64,EOLE_4_64 --workloads subset
    python -m repro.campaign report --store results/campaign.jsonl \\
        --baseline Baseline_6_64
    python -m repro.campaign serve --service /shared/fleet \\
        --configs Baseline_6_64,EOLE_4_64 --workloads subset --local-workers 2
    python -m repro.campaign work --service /shared/fleet     # on any fleet host
    python -m repro.campaign fsck --service /shared/fleet --repair
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from repro.campaign.coordinator import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    CampaignService,
    default_worker_id,
    local_fleet,
    serve,
    work_loop,
)
from repro.campaign.executor import campaign_status, default_workers, run_campaign
from repro.campaign.fsck import (
    DEFAULT_TMP_AGE_SECONDS,
    fsck_service,
    fsck_store,
    render_table,
)
from repro.campaign.spec import WORKLOAD_SETS, Campaign
from repro.campaign.store import MAX_MB_ENV_VAR, STORE_ENV_VAR, ResultStore
from repro.errors import ReproError
from repro.pipeline.config import NAMED_CONFIGS
from repro.pipeline.stats import SimStats


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--configs",
        required=True,
        help=f"comma-separated named configurations (known: {', '.join(NAMED_CONFIGS)})",
    )
    parser.add_argument(
        "--workloads",
        default="all",
        help=f"named set ({', '.join(WORKLOAD_SETS)}) or comma-separated workload names",
    )
    parser.add_argument(
        "--max-uops",
        type=int,
        default=int(os.environ.get("REPRO_SIM_UOPS", "12000")),
        help="committed-µ-op budget per cell (default: env REPRO_SIM_UOPS or 12000)",
    )
    parser.add_argument(
        "--warmup-uops",
        type=int,
        default=int(os.environ.get("REPRO_SIM_WARMUP", "3000")),
        help="warm-up µ-ops per cell (default: env REPRO_SIM_WARMUP or 3000)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="campaign seed for per-cell predictor seeds (default: configs' own seeds)",
    )


def _add_store_argument(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--store",
        default=os.environ.get(STORE_ENV_VAR),
        required=required and not os.environ.get(STORE_ENV_VAR),
        help=f"result-store path (default: env {STORE_ENV_VAR})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Parallel simulation campaigns with a persistent result store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="simulate a configs × workloads grid")
    _add_grid_arguments(run_parser)
    _add_store_argument(run_parser, required=False)
    run_parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(os.cpu_count() or 1),
        help="worker processes; more than one runs a local fleet "
        "(default: env REPRO_CAMPAIGN_WORKERS or all cores, currently %(default)s)",
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    status_parser = commands.add_parser("status", help="done/missing cells for a grid")
    _add_grid_arguments(status_parser)
    _add_store_argument(status_parser, required=True)

    compact_parser = commands.add_parser(
        "compact", help="rewrite the store dropping superseded/corrupt rows"
    )
    _add_store_argument(compact_parser, required=True)
    compact_parser.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="size cap in MB: evict oldest rows until the store fits "
        f"(default: env {MAX_MB_ENV_VAR}, else no cap)",
    )

    serve_parser = commands.add_parser(
        "serve", help="submit a grid to a service directory and stream fleet progress"
    )
    _add_grid_arguments(serve_parser)
    serve_parser.add_argument(
        "--service", required=True, help="shared service directory (NFS-safe)"
    )
    serve_parser.add_argument(
        "--lease-seconds",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        help=f"lease heartbeat deadline (default {DEFAULT_LEASE_SECONDS:.0f}s); a "
        "worker that stops heartbeating for this long forfeits its lease",
    )
    serve_parser.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        help=f"claims per lease before its cells are marked failed "
        f"(default {DEFAULT_MAX_ATTEMPTS})",
    )
    serve_parser.add_argument(
        "--backoff-seconds",
        type=float,
        default=DEFAULT_BACKOFF_SECONDS,
        help="base of the exponential requeue backoff "
        f"(default {DEFAULT_BACKOFF_SECONDS:.0f}s)",
    )
    serve_parser.add_argument(
        "--lease-width",
        type=int,
        default=None,
        help="max cells per lease (default: one lease per workload)",
    )
    serve_parser.add_argument(
        "--local-workers",
        type=int,
        default=0,
        help="fork N workers on this host (default 0: external fleet)",
    )
    serve_parser.add_argument(
        "--poll-seconds", type=float, default=0.5, help="store/queue poll interval"
    )
    serve_parser.add_argument(
        "--timeout-seconds",
        type=float,
        default=None,
        help="give up (exit 2) if the grid is incomplete after this long",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    work_parser = commands.add_parser(
        "work", help="run one worker against a service directory"
    )
    work_parser.add_argument(
        "--service", required=True, help="shared service directory (NFS-safe)"
    )
    work_parser.add_argument(
        "--worker-id",
        default=None,
        help=f"fleet-unique worker name (default host:pid, e.g. {default_worker_id()})",
    )
    work_parser.add_argument(
        "--poll-seconds", type=float, default=0.5, help="claim poll interval"
    )
    work_parser.add_argument(
        "--once", action="store_true", help="process at most one lease, then exit"
    )
    work_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-lease progress lines"
    )

    fsck_parser = commands.add_parser(
        "fsck", help="audit (and optionally repair) a service directory or store"
    )
    fsck_target = fsck_parser.add_mutually_exclusive_group(required=True)
    fsck_target.add_argument(
        "--service", help="campaign service directory to audit end to end"
    )
    fsck_target.add_argument(
        "--store", help="bare result-store JSONL file to audit (no queue/traces)"
    )
    fsck_parser.add_argument(
        "--repair",
        action="store_true",
        help="fix what can be fixed: compact quarantined store rows, "
        "quarantine corrupt trace blobs and lease records, sweep orphaned temp "
        "files, requeue wedged leases, re-cover orphaned grid cells",
    )
    fsck_parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: human table)",
    )
    fsck_parser.add_argument(
        "--tmp-age",
        type=float,
        default=DEFAULT_TMP_AGE_SECONDS,
        help="seconds before a .*.tmp staging file counts as an orphan "
        f"(default {DEFAULT_TMP_AGE_SECONDS:.0f}; live writers are younger)",
    )

    report_parser = commands.add_parser("report", help="tabulate stored results")
    _add_store_argument(report_parser, required=True)
    report_parser.add_argument(
        "--baseline",
        default=None,
        help="config name to normalise against (reports speedups instead of IPCs)",
    )
    report_parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format: human table (default), or json/csv for downstream plotting",
    )
    report_parser.add_argument(
        "--metrics",
        action="store_true",
        help="report per-cell execution telemetry (wall-clock, µops/s, trace-cache "
        "hits) instead of IPCs",
    )
    return parser


def _campaign_from_args(args: argparse.Namespace) -> Campaign:
    return Campaign.from_names(
        config_names=args.configs,
        workload_selector=args.workloads,
        max_uops=args.max_uops,
        warmup_uops=args.warmup_uops,
        seed=args.seed,
    )


# ---------------------------------------------------------------------- subcommands
def _cmd_run(args: argparse.Namespace) -> int:
    campaign = _campaign_from_args(args)
    store = ResultStore(args.store) if args.store else None
    outcome = run_campaign(
        campaign, store=store, workers=args.workers, progress=not args.quiet
    )
    grid = outcome.by_config()
    workload_names = campaign.workload_names
    label_width = max(len(name) for name in workload_names) + 2
    print(f"campaign: {len(campaign.configs)} configs × {len(workload_names)} workloads")
    for config in campaign.configs:
        print(f"\n{config.name}")
        for name in workload_names:
            result = grid.get(config.name, {}).get(name)
            if result is not None:
                print(f"  {name.ljust(label_width)} IPC={result.ipc:.3f}")
            else:
                error = outcome.failed.get((config.name, name), {})
                print(
                    f"  {name.ljust(label_width)} FAILED"
                    f" ({error.get('type', '?')}: {error.get('message', '?')})"
                )
    failed_note = f", {outcome.failures} FAILED" if outcome.failed else ""
    print(
        f"\n{outcome.simulated} simulated, {outcome.from_store} from store{failed_note}, "
        f"{outcome.elapsed_seconds:.1f}s elapsed"
        + (f", store: {store.path}" if store is not None else ", no store (transient)")
    )
    return 1 if outcome.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    campaign = _campaign_from_args(args)
    service = CampaignService(args.service)
    # Submit before forking: a worker's first claim needs the submitted grid.
    service.submit(
        campaign,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        backoff_seconds=args.backoff_seconds,
        lease_width=args.lease_width,
    )
    with local_fleet(service, args.local_workers):
        summary = serve(
            service,
            campaign,
            lease_seconds=args.lease_seconds,
            max_attempts=args.max_attempts,
            backoff_seconds=args.backoff_seconds,
            lease_width=args.lease_width,
            poll_seconds=args.poll_seconds,
            progress=not args.quiet,
            timeout_seconds=args.timeout_seconds,
        )
    failed = summary["failed"]
    print(
        f"served {summary['campaign']}: {len(summary['results'])}/{summary['cells']} "
        f"cells done, {len(failed)} failed, {len(summary['missing'])} missing, "
        f"{summary['elapsed_seconds']:.1f}s elapsed, store: {service.store_path}"
    )
    for row in failed.values():
        error = row["error"]
        print(
            f"  FAILED {row['config']}/{row['workload']}: "
            f"{error.get('type')}: {error.get('message')}"
        )
    return 1 if failed or summary["missing"] else 0


def _cmd_work(args: argparse.Namespace) -> int:
    service = CampaignService(args.service)
    # handle_signals: a drained/redeployed worker (SIGTERM from an orchestrator,
    # Ctrl-C at a terminal) releases its held lease back to pending immediately
    # instead of forcing the fleet to wait out the lease timeout.
    counts = work_loop(
        service,
        worker_id=args.worker_id,
        poll_seconds=args.poll_seconds,
        once=args.once,
        progress=not args.quiet,
        handle_signals=True,
    )
    interrupted = counts.get("interrupted")
    if not args.quiet:
        print(
            f"worker done: {counts['processed']} leases processed, "
            f"{counts['requeued']} requeued, {counts['lost']} lost, "
            f"{counts['released']} released"
            + (f" (interrupted by {interrupted})" if interrupted else "")
        )
    return 130 if interrupted else 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    if args.service:
        report = fsck_service(args.service, repair=args.repair, tmp_age=args.tmp_age)
    else:
        report = fsck_store(args.store, repair=args.repair, tmp_age=args.tmp_age)
    if report.findings and report.findings[0].check == "target":
        print(f"error: {report.findings[0].detail}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_table(report))
    return 0 if report.clean else 1


def _cmd_compact(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    max_bytes = int(args.max_mb * 1024 * 1024) if args.max_mb else None
    outcome = store.compact(max_bytes)
    print(
        f"store {store.path}: {outcome['bytes_before']} -> {outcome['bytes_after']} bytes, "
        f"{outcome['records']} records kept "
        f"({outcome['superseded_dropped']} superseded, {outcome['corrupt_dropped']} corrupt, "
        f"{outcome['evicted']} evicted)"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    campaign = _campaign_from_args(args)
    store = ResultStore(args.store)
    status = campaign_status(campaign, store)
    print(
        f"store {store.path}: {len(store)} records "
        f"({store.skipped_lines} corrupt lines skipped)"
    )
    print(f"grid: {status['done']}/{status['total']} cells done, {status['missing']} missing")
    for cell_id in status["missing_cells"]:
        print(f"  missing {cell_id}")
    return 0 if status["missing"] == 0 else 1


def _report_values(
    ipcs: dict[str, dict[str, float]],
    configs: list[str],
    names: list[str],
    baseline: str | None,
) -> dict[str, dict[str, float | None]]:
    """Workload → config → value (IPC, or speedup over the baseline config)."""
    values: dict[str, dict[str, float | None]] = {}
    for name in names:
        row: dict[str, float | None] = {}
        for config in configs:
            value = ipcs[config].get(name)
            if value is not None and baseline:
                base = ipcs[baseline].get(name)
                value = value / base if base else None
            row[config] = value
        values[name] = row
    return values


def _metrics_rows(records: list[dict]) -> list[dict]:
    """Per-cell telemetry rows for ``report --metrics`` (missing telemetry → None)."""
    rows: list[dict] = []
    for record in records:
        stats = SimStats.from_dict(record["result"]["stats"])
        telemetry = record.get("telemetry") or {}
        trace_cache = telemetry.get("trace_cache") or {}
        hits = trace_cache.get("hits")
        store_hits = trace_cache.get("store_hits")
        rows.append(
            {
                "config": record["config"],
                "workload": record["workload"],
                "ipc": stats.ipc,
                "wall_seconds": telemetry.get("wall_seconds"),
                "uops_per_second": telemetry.get("uops_per_second"),
                "trace_captures": trace_cache.get("captures"),
                "trace_hits": (
                    hits + store_hits if hits is not None and store_hits is not None else None
                ),
            }
        )
    return rows


def _cmd_report_metrics(args: argparse.Namespace, store: ResultStore, records) -> int:
    rows = _metrics_rows(records)
    output_format = getattr(args, "format", "table")
    if output_format == "json":
        print(json.dumps({"store": str(store.path), "cells": rows}, indent=1, sort_keys=True))
        return 0
    columns = (
        "config",
        "workload",
        "ipc",
        "wall_seconds",
        "uops_per_second",
        "trace_captures",
        "trace_hits",
    )
    if output_format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in columns])
        return 0

    def fmt(row: dict, column: str) -> str:
        value = row[column]
        if value is None:
            return "—"
        if column == "ipc":
            return f"{value:.3f}"
        if column == "wall_seconds":
            return f"{value:.2f}"
        if column == "uops_per_second":
            return f"{value:,.0f}"
        return str(value)

    widths = {
        c: max(len(c), *(len(fmt(row, c)) for row in rows)) if rows else len(c)
        for c in columns
    }
    print(f"store {store.path}: per-cell execution telemetry")
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(fmt(row, c).ljust(widths[c]) for c in columns))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    records = store.records()
    if not records:
        print(f"store {store.path} is empty", file=sys.stderr)
        return 1
    if getattr(args, "metrics", False):
        return _cmd_report_metrics(args, store, records)
    ipcs: dict[str, dict[str, float]] = {}
    workload_names: dict[str, None] = {}
    for record in records:
        stats = SimStats.from_dict(record["result"]["stats"])
        ipcs.setdefault(record["config"], {})[record["workload"]] = stats.ipc
        workload_names.setdefault(record["workload"])
    baseline = args.baseline
    if baseline is not None and baseline not in ipcs:
        print(f"baseline config {baseline!r} not in store (has: {sorted(ipcs)})", file=sys.stderr)
        return 1
    configs = sorted(ipcs)
    names = list(workload_names)
    kind = f"speedup over {baseline}" if baseline else "IPC"
    values = _report_values(ipcs, configs, names, baseline)

    output_format = getattr(args, "format", "table")
    if output_format == "json":
        print(
            json.dumps(
                {
                    "store": str(store.path),
                    "metric": "speedup" if baseline else "ipc",
                    "baseline": baseline,
                    "configs": configs,
                    "workloads": names,
                    "values": values,
                },
                indent=1,
                sort_keys=True,
            )
        )
        return 0
    if output_format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["workload"] + configs)
        for name in names:
            writer.writerow(
                [name]
                + [
                    "" if values[name][config] is None else f"{values[name][config]:.6f}"
                    for config in configs
                ]
            )
        return 0

    label_width = max([len("workload")] + [len(n) for n in names]) + 2
    column_width = max([10] + [len(c) + 2 for c in configs])
    print(f"store {store.path}: {kind}")
    print("workload".ljust(label_width) + "".join(c.rjust(column_width) for c in configs))
    for name in names:
        row = name.ljust(label_width)
        for config in configs:
            value = values[name][config]
            row += (f"{value:.3f}" if value is not None else "—").rjust(column_width)
        print(row)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "status": _cmd_status,
        "report": _cmd_report,
        "compact": _cmd_compact,
        "serve": _cmd_serve,
        "work": _cmd_work,
        "fsck": _cmd_fsck,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # The stdout consumer (e.g. ``report --format csv | head``) closed the pipe;
        # suppress the noise and exit cleanly like a well-behaved filter.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
