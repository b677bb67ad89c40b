"""Span recording for the traced benchmark run, and the per-layer metrics it yields.

Spans are recorded from the benchmark's own files: :func:`install` replaces the
public entry points of each layer of :mod:`repro` with thin wrappers that open a
span around the original call, and the callable it returns restores them.
Nothing inside the simulator is edited.

Two kinds of measurement are kept in memory and written out when the run ends:

* **spans** — one per call at a layer boundary that happens a handful of times per
  cell (trace acquisition, capture, store I/O, ``Simulator.__init__``/``run``,
  lease transitions …), with id, parent, name, start/end (``time.monotonic_ns``,
  which is ``CLOCK_MONOTONIC`` and therefore comparable across the processes of a
  fleet), cell, pid and tid;
* **aggregates** — per-µ-op component calls (value-predictor lookup/train, branch
  predictor predict/train, memory-hierarchy accesses) are too frequent for one
  span each, so their call count and time are summed onto the innermost open span.

A span's *self time* is its duration minus the part of it covered by its child
spans (same thread) and by the aggregates charged to it.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

#: Aggregate names charged by the per-µ-op component wrappers.
VP_LOOKUP, VP_TRAIN, VP_RECOVER = "vp.lookup", "vp.train", "vp.recover"
BPU_PREDICT, BPU_TRAIN = "bpu.predict", "bpu.train"
MEM_ACCESS = "mem.access"


class Tracer:
    """In-memory span recorder for one process (thread-aware)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, cell: str | None = None, **args) -> dict:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": f"{self.pid}.{next(self._ids)}",
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "start": time.monotonic_ns(),
            "end": None,
            "cell": cell if cell is not None or parent is None else parent["cell"],
            "pid": self.pid,
            "tid": threading.get_native_id(),
            "args": args,
            "agg": {},
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic_ns()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        stack.pop()
        self.spans.append(span)

    def add(self, name: str, nanoseconds: int) -> None:
        """Charge one per-µ-op call of ``name`` to the innermost open span."""
        stack = self._stack()
        if not stack:
            raise RuntimeError(f"{name} called outside any span")
        entry = stack[-1]["agg"].get(name)
        if entry is None:
            stack[-1]["agg"][name] = [1, nanoseconds]
        else:
            entry[0] += 1
            entry[1] += nanoseconds


def span(tracer: Tracer | None, name: str, cell: str | None = None, **args):
    """A context manager recording ``name`` on ``tracer`` (no-op when None)."""
    if tracer is None:
        return nullcontext({"args": {}})
    return _span(tracer, name, cell, args)


@contextmanager
def _span(tracer: Tracer, name: str, cell: str | None, args: dict):
    record = tracer.begin(name, cell, **args)
    try:
        yield record
    finally:
        tracer.end(record)


# ---------------------------------------------------------------------- wrappers
def _spanned(tracer: Tracer, name: str, fn, cell=None, after=None):
    """``fn`` wrapped in a span; ``after(span, args, result)`` annotates it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.begin(name, cell(args) if cell is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(record)
        if after is not None:
            after(record, args, result)
        return result

    return wrapper


def _leaf(tracer: Tracer, name: str, fn):
    """``fn`` wrapped as a per-µ-op aggregate (count + time on the open span)."""
    clock = time.monotonic_ns
    add = tracer.add

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            add(name, clock() - started)

    return wrapper


def wrap_predictor(tracer: Tracer, predictor) -> None:
    """Aggregate the value predictor's lookup/train/recover calls (per instance)."""
    for attr, name in (
        ("lookup", VP_LOOKUP),
        ("validate_and_train", VP_TRAIN),
        ("train_commit_group", VP_TRAIN),
        ("train_commit_group_columns", VP_TRAIN),
        ("recover", VP_RECOVER),
    ):
        setattr(predictor, attr, _leaf(tracer, name, getattr(predictor, attr)))


def _wrap_components(tracer: Tracer, simulator) -> None:
    """Per-instance wrappers on a freshly built ``Simulator``.

    The fused loop looks these methods up on the component instances at every
    stage call, so instance attributes set right after ``__init__`` intercept
    every call without touching the loop.
    """
    if simulator.predictor is not None:
        wrap_predictor(tracer, simulator.predictor)
    bpu = simulator.bpu
    bpu.predict = _leaf(tracer, BPU_PREDICT, bpu.predict)
    for attr in ("train", "train_commit_group", "train_commit_group_columns"):
        setattr(bpu, attr, _leaf(tracer, BPU_TRAIN, getattr(bpu, attr)))
    hierarchy = simulator.hierarchy
    for attr in ("fetch", "load", "store"):
        setattr(hierarchy, attr, _leaf(tracer, MEM_ACCESS, getattr(hierarchy, attr)))


def install(tracer: Tracer):
    """Wrap every layer's public entry points; returns a callable that undoes it."""
    from repro.analysis import predictor_eval
    from repro.campaign import coordinator, executor
    from repro.campaign.coordinator import CampaignService
    from repro.campaign.store import ResultStore
    from repro.pipeline.simulator import Simulator
    from repro.trace import cache as trace_cache
    from repro.trace.cache import TraceCache
    from repro.trace.encoding import CapturedTrace
    from repro.trace.store import TraceStore
    from repro.workloads.suite import Workload

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def build_program(prop):
        def program(workload):
            # Only the first access builds; later ones return the cached program.
            if workload._program is not None:
                return prop.fget(workload)
            with _span(tracer, "workloads.build", workload.name, {}):
                return prop.fget(workload)

        return property(program, doc=prop.__doc__)

    def acquire(fn):
        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            captures = cache.captures
            record = tracer.begin("trace.acquire")
            try:
                return fn(cache, *args, **kwargs)
            finally:
                record["args"]["hit"] = cache.captures == captures
                tracer.end(record)

        return wrapper

    def sim_init(fn):
        @functools.wraps(fn)
        def wrapper(simulator, *args, **kwargs):
            with _span(tracer, "pipeline.init", None, {}):
                fn(simulator, *args, **kwargs)
            _wrap_components(tracer, simulator)

        return wrapper

    def run_stats(record, args, result):
        record["args"]["uops"] = result.full_stats.committed_uops
        record["args"]["cycles"] = result.full_stats.cycles

    def captured_uops(record, args, trace):
        record["args"]["uops"] = trace.length

    def plain(name, **kwargs):
        return lambda fn: _spanned(tracer, name, fn, **kwargs)

    patch(Workload, "program", build_program)
    patch(trace_cache, "capture_workload_trace", plain("isa.capture", after=captured_uops))
    for attr in ("trace_for", "trace_for_many", "trace_for_length"):
        patch(TraceCache, attr, acquire)
    patch(TraceStore, "load", plain("trace.store_load"))
    patch(TraceStore, "save", plain("trace.store_save"))
    patch(CapturedTrace, "instructions", plain("trace.materialize"))
    patch(Simulator, "__init__", sim_init)
    patch(Simulator, "run", plain("pipeline.run", after=run_stats))
    patch(ResultStore, "get", plain("store.lookup"))
    patch(ResultStore, "put", plain("store.append"))
    patch(ResultStore, "reload", plain("store.reload"))
    patch(executor, "run_campaign", plain("executor.run_campaign"))
    patch(
        executor,
        "simulate_cell",
        plain("executor.simulate_cell", cell=lambda args: args[0].describe()),
    )
    for attr in ("claim", "heartbeat", "complete", "requeue"):
        patch(CampaignService, attr, plain(f"coord.{attr}"))
    patch(coordinator, "process_lease", plain("coord.process_lease"))
    patch(
        predictor_eval,
        "evaluate_predictor",
        plain(
            "predictor_eval.evaluate",
            cell=lambda args: f"{args[0].name}/{args[1].name}",
        ),
    )

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return undo


# ---------------------------------------------------------------------- analysis
def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id → self time in ns (duration minus child spans and aggregates)."""
    children: dict[str, list[dict]] = defaultdict(list)
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].append(record)
    out = {}
    for record in spans:
        start, end = record["start"], record["end"]
        covered = 0
        cursor = start
        for child in sorted(children[record["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        aggregated = sum(ns for _, ns in record["agg"].values())
        out[record["id"]] = (end - start) - covered - aggregated
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric the benchmark reports, from a run's merged spans.

    Times are totals in seconds over the whole child process (set-up included),
    counts are call counts; layers a workload never crosses read 0.
    """
    by_name: dict[str, list[dict]] = defaultdict(list)
    aggregates: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for record in spans:
        by_name[record["name"]].append(record)
        for name, (count, ns) in record["agg"].items():
            aggregates[name][0] += count
            aggregates[name][1] += ns
    own = self_times(spans)

    def count(name: str) -> int:
        return len(by_name[name])

    def total_s(name: str) -> float:
        return sum(r["end"] - r["start"] for r in by_name[name]) / 1e9

    def self_s(*names: str) -> float:
        return sum(own[r["id"]] for name in names for r in by_name[name]) / 1e9

    def arg_sum(name: str, key: str) -> int:
        return sum(r["args"].get(key, 0) for r in by_name[name])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    captured = arg_sum("isa.capture", "uops")
    acquires = by_name["trace.acquire"]
    sim_uops = arg_sum("pipeline.run", "uops")
    sim_cycles = arg_sum("pipeline.run", "cycles")
    pipeline_self = self_s("pipeline.run")
    appends_ms = [(r["end"] - r["start"]) / 1e6 for r in by_name["store.append"]]

    # Fleet: worker processes are the pids that ran coord.worker spans.
    worker_spans = by_name["coord.worker"]
    worker_pids = {r["pid"] for r in worker_spans}
    first_claim: dict[int, int] = {}
    for record in by_name["coord.claim"]:
        pid = record["pid"]
        first_claim[pid] = min(first_claim.get(pid, record["start"]), record["start"])
    spawn_delays = [
        first_claim[r["args"]["worker_pid"]] - r["start"]
        for r in by_name["coord.spawn"]
        if r["args"].get("worker_pid") in first_claim
    ]
    simulate_in_workers = sum(
        r["end"] - r["start"]
        for r in by_name["executor.simulate_cell"]
        if r["pid"] in worker_pids
    )
    fleet_capacity = sum(
        (r["end"] - r["start"]) * r["args"].get("workers", 0) for r in by_name["fleet.pass"]
    )

    metrics = {
        "workloads.build_s": total_s("workloads.build"),
        "isa.capture_count": count("isa.capture"),
        "isa.capture_s": total_s("isa.capture"),
        "isa.capture_ns_per_uop": ratio(total_s("isa.capture") * 1e9, captured),
        "trace.acquire_count": len(acquires),
        "trace.hit_ratio": ratio(sum(1 for r in acquires if r["args"]["hit"]), len(acquires)),
        "trace.store_load_count": count("trace.store_load"),
        "trace.store_load_s": total_s("trace.store_load"),
        "trace.store_save_count": count("trace.store_save"),
        "trace.store_save_s": total_s("trace.store_save"),
        "trace.materialize_s": total_s("trace.materialize"),
        "pipeline.init_count": count("pipeline.init"),
        "pipeline.init_s": total_s("pipeline.init"),
        "pipeline.run_s": total_s("pipeline.run"),
        "pipeline.self_s": pipeline_self,
        "pipeline.sim_uops": sim_uops,
        "pipeline.sim_cycles": sim_cycles,
        "pipeline.self_ns_per_sim_uop": ratio(pipeline_self * 1e9, sim_uops),
        "pipeline.self_ns_per_sim_cycle": ratio(pipeline_self * 1e9, sim_cycles),
        "vp.lookup_count": aggregates[VP_LOOKUP][0],
        "vp.lookup_s": aggregates[VP_LOOKUP][1] / 1e9,
        "vp.train_count": aggregates[VP_TRAIN][0],
        "vp.train_s": aggregates[VP_TRAIN][1] / 1e9,
        "vp.recover_count": aggregates[VP_RECOVER][0],
        "bpu.predict_count": aggregates[BPU_PREDICT][0],
        "bpu.predict_s": aggregates[BPU_PREDICT][1] / 1e9,
        "bpu.train_count": aggregates[BPU_TRAIN][0],
        "bpu.train_s": aggregates[BPU_TRAIN][1] / 1e9,
        "mem.access_count": aggregates[MEM_ACCESS][0],
        "mem.access_s": aggregates[MEM_ACCESS][1] / 1e9,
        "store.lookup_count": count("store.lookup"),
        "store.lookup_s": total_s("store.lookup"),
        "store.append_count": count("store.append"),
        "store.append_s": total_s("store.append"),
        "store.append_ms_p50": statistics.median(appends_ms) if appends_ms else 0.0,
        "store.reload_count": count("store.reload"),
        "store.reload_s": total_s("store.reload"),
        "executor.self_s": self_s("executor.run_campaign", "executor.simulate_cell"),
        "coord.claim_count": count("coord.claim"),
        "coord.claim_s": total_s("coord.claim"),
        "coord.complete_count": count("coord.complete"),
        "coord.complete_s": total_s("coord.complete"),
        "coord.idle_s": self_s("coord.worker"),
        "coord.spawn_s": ratio(sum(spawn_delays) / 1e9, len(spawn_delays)),
        "coord.busy_frac": ratio(simulate_in_workers, fleet_capacity),
        "predictor_eval.self_s": self_s("predictor_eval.evaluate"),
        "bench.other_s": self_s("bench.timed"),
    }
    return metrics


def to_chrome(spans: list[dict]) -> dict:
    """Chrome/Perfetto trace-event JSON (``X`` events, µs since the first span)."""
    origin = min((record["start"] for record in spans), default=0)
    events = []
    for record in spans:
        args = dict(record["args"])
        args.update(id=record["id"], parent=record["parent"], cell=record["cell"])
        if record["agg"]:
            args["agg"] = {
                name: {"count": count, "ns": ns} for name, (count, ns) in record["agg"].items()
            }
        events.append(
            {
                "name": record["name"],
                "ph": "X",
                "pid": record["pid"],
                "tid": record["tid"],
                "ts": (record["start"] - origin) / 1e3,
                "dur": (record["end"] - record["start"]) / 1e3,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "CLOCK_MONOTONIC", "origin_ns": origin},
    }
