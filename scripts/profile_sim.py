#!/usr/bin/env python3
"""cProfile entry point for simulator hot-loop work (see docs/performance.md).

Profiles one (configuration × workload) simulation and prints the top functions.
The trace is pre-captured outside the profiled region by default, so the report
shows the timing-model cost alone; ``--include-capture`` folds the architectural
emulation back in (what a cold campaign cell pays).

Examples::

    PYTHONPATH=src python scripts/profile_sim.py
    PYTHONPATH=src python scripts/profile_sim.py --config Baseline_VP_6_64 \\
        --workload mcf --max-uops 20000 --sort cumulative --limit 40
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.pipeline.config import NAMED_CONFIGS, named_config  # noqa: E402
from repro.pipeline.simulator import Simulator, simulate  # noqa: E402
from repro.trace.cache import shared_trace_cache  # noqa: E402
from repro.workloads.suite import SUITE_ORDER, workload  # noqa: E402


class StageTimedSimulator(Simulator):
    """Per-stage cumulative wall-clock accounting (``--stage-times``).

    Wraps every pipeline-stage entry point with ``perf_counter`` bookkeeping.
    The wrappers add a few hundred nanoseconds per stage call, so the absolute
    run is slower than an uninstrumented one — the split between stages is what
    matters.  Commit-side predictor/BPU training (batched per commit group) is
    timed separately under ``train`` and subtracted from ``commit``.
    """

    STAGES = ("fetch", "dispatch", "issue", "commit", "train", "completions")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stage_seconds = dict.fromkeys(self.STAGES, 0.0)
        self.stage_calls = dict.fromkeys(self.STAGES, 0)
        self._train_seconds_in_commit = 0.0
        if self.predictor is not None:
            inner_vp = self.predictor.train_commit_group
            def timed_vp_train(group, _inner=inner_vp):
                started = time.perf_counter()
                _inner(group)
                self._train_seconds_in_commit += time.perf_counter() - started
                self.stage_calls["train"] += 1
            self.predictor.train_commit_group = timed_vp_train
        inner_bpu = self.bpu.train_commit_group
        def timed_bpu_train(group, _inner=inner_bpu):
            started = time.perf_counter()
            _inner(group)
            self._train_seconds_in_commit += time.perf_counter() - started
            self.stage_calls["train"] += 1
        self.bpu.train_commit_group = timed_bpu_train

    def _timed(self, stage, inner):
        started = time.perf_counter()
        inner()
        self.stage_seconds[stage] += time.perf_counter() - started
        self.stage_calls[stage] += 1

    def _fetch(self):
        self._timed("fetch", super()._fetch)

    def _dispatch(self):
        self._timed("dispatch", super()._dispatch)

    def _issue(self):
        self._timed("issue", super()._issue)

    def _commit(self):
        before_train = self._train_seconds_in_commit
        started = time.perf_counter()
        super()._commit()
        elapsed = time.perf_counter() - started
        train_delta = self._train_seconds_in_commit - before_train
        self.stage_seconds["commit"] += elapsed - train_delta
        self.stage_seconds["train"] += train_delta
        self.stage_calls["commit"] += 1

    def _process_completions(self):
        self._timed("completions", super()._process_completions)

    def report(self) -> str:
        lines = ["per-stage cumulative wall clock (instrumented):"]
        total = sum(self.stage_seconds.values())
        for stage in self.STAGES:
            seconds = self.stage_seconds[stage]
            calls = self.stage_calls[stage]
            share = 100.0 * seconds / total if total else 0.0
            lines.append(
                f"  {stage:12s} {seconds:8.4f}s  {share:5.1f}%  ({calls} calls)"
            )
        lines.append(f"  {'total':12s} {total:8.4f}s")
        return "\n".join(lines)

    def report_dict(self) -> dict:
        """The ``report()`` breakdown as a machine-readable dict (``--format=json``)."""
        total = sum(self.stage_seconds.values())
        return {
            "stages": {
                stage: {
                    "seconds": self.stage_seconds[stage],
                    "calls": self.stage_calls[stage],
                    "share": self.stage_seconds[stage] / total if total else 0.0,
                }
                for stage in self.STAGES
            },
            "total_seconds": total,
        }

#: Every pstats sort key (plus the classic abbreviations pstats also accepts), so
#: profiles can be sliced any way pstats supports.
SORT_KEYS = sorted(
    {key.value for key in pstats.SortKey} | {"tottime", "cumtime", "ncalls"}
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="EOLE_4_64", choices=sorted(NAMED_CONFIGS))
    parser.add_argument("--workload", default="gcc", choices=list(SUITE_ORDER))
    parser.add_argument("--max-uops", type=int, default=12000)
    parser.add_argument("--warmup-uops", type=int, default=3000)
    parser.add_argument(
        "--sort", default="tottime", choices=SORT_KEYS,
        help="pstats sort key (default: tottime)",
    )
    parser.add_argument("--limit", type=int, default=30, help="rows to print")
    parser.add_argument(
        "--include-capture", action="store_true",
        help="profile the architectural trace capture too (cold-cell cost)",
    )
    parser.add_argument(
        "--stage-times", action="store_true",
        help="print a per-stage cumulative timing breakdown "
        "(fetch/dispatch/issue/commit/train) instead of a cProfile report",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format for --stage-times (json emits a machine-readable "
        "breakdown suitable for regression dashboards)",
    )
    parser.add_argument("--dump", default=None, help="write raw pstats to this file")
    args = parser.parse_args(argv)
    if args.format == "json" and not args.stage_times:
        parser.error("--format=json requires --stage-times")

    config = named_config(args.config)
    wl = workload(args.workload)
    if not args.include_capture:
        trace = shared_trace_cache.trace_for(wl, args.max_uops, config)
        trace.replay_view()  # expand outside the profiled region

    if args.stage_times:
        if args.include_capture:
            shared_trace_cache.clear()
            trace = shared_trace_cache.trace_for(wl, args.max_uops, config)
        simulator = StageTimedSimulator(config, trace, args.max_uops, args.warmup_uops)
        result = simulator.run()
        if args.format == "json":
            payload = {
                "config": args.config,
                "workload": args.workload,
                "max_uops": args.max_uops,
                "warmup_uops": args.warmup_uops,
                "ipc": result.ipc,
                **simulator.report_dict(),
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(simulator.report())
            print(result.summary())
        return 0

    profiler = cProfile.Profile()
    profiler.enable()
    if args.include_capture:
        shared_trace_cache.clear()
        trace = shared_trace_cache.trace_for(wl, args.max_uops, config)
    result = simulate(config, wl, args.max_uops, args.warmup_uops, trace)
    profiler.disable()

    stats = pstats.Stats(profiler)
    if args.dump:
        stats.dump_stats(args.dump)
    stats.sort_stats(args.sort).print_stats(args.limit)
    print(result.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
