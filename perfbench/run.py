#!/usr/bin/env python3
"""The reproduction's benchmark: host cost of the EOLE simulator, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload figure_grid --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 0                  # all four workloads in turn
    python3 perfbench/run.py --workload fleet --seed 0 --trace 1 --spans fleet.json

Each workload runs in fresh child processes (``harness.py``).  With ``--trace 0``
the child is set up several times and timed once, and the end-to-end metrics of
``BENCHMARK.json`` are printed; with ``--trace 1`` an untraced run is followed by
a traced rerun of the same seed, and the per-layer metrics are printed along with
the tracing overhead.  Every cell's result is checked against the committed
golden digests (``perfbench/golden/seed-N.json``).  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--seconds`` sets the run length: the number of passes over the workload's grid
is ``--seconds`` divided by the pass's nominal duration on the reference host
(at least one), so both sides of a comparison do the same work.

End-to-end times are host seconds normalised to the reference host's speed with
a probe timed between cells (``harness.SpeedProbe``); the wall-clock time and the
scale are printed with every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
WORK_ROOT = ROOT / ".perfbench"

#: One pass of each workload on the reference host (2-vCPU Intel Xeon, CPython 3.11).
NOMINAL_PASS_SECONDS = {
    "figure_grid": 14.0,
    "long_window": 15.0,
    "predictor_study": 8.0,
    "fleet": 9.5,
}

#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Everything one invocation starts must have ended by then (seconds).
RUN_BUDGET_SECONDS = 170.0

#: The slowest cells listed in every run's output, and at most this many failures.
SLOWEST_SHOWN = 5
FAILURES_SHOWN = 10


class BenchError(RuntimeError):
    """A child process failed or ran out of time; no result can be printed."""


# ---------------------------------------------------------------------- statistics
def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies and the maximum (p100) is
    reported instead.
    """
    return (100 * (n - 10)) // n if n > 10 else 100


def nearest_rank(values: list[float], percentile: int) -> float:
    """The ``percentile``-th value of ``values`` by the nearest-rank method."""
    ordered = sorted(values)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1]


def cell_seconds(cells: list[dict]) -> dict[str, float]:
    """Cell id → its host seconds in its fastest pass (cells that completed)."""
    best: dict[str, float] = {}
    for cell in cells:
        if "seconds" in cell:
            best[cell["id"]] = min(best.get(cell["id"], cell["seconds"]), cell["seconds"])
    return best


def end_to_end(run: dict, setups: list[float]) -> dict:
    """The end-to-end metric values of one untraced child run (see BENCHMARK.json).

    Host times are normalised to the reference host's speed: multiplied by the
    run's ``host_scale`` (``harness.SpeedProbe``).  A cell's time is its fastest
    pass, which keeps a burst on the host during one pass out of the cell
    statistics.  ``setups`` are normalised set-up times.
    """
    scale = run["host_scale"]
    done = [cell for cell in run["cells"] if "seconds" in cell]
    seconds = [value * scale for value in cell_seconds(done).values()]
    return {
        "setup_s": statistics.median(setups),
        "uops_per_s": sum(cell["uops"] for cell in done) / (run["timed_s"] * scale),
        "cell_s_p50": statistics.median(seconds),
        "cell_s_tail": nearest_rank(seconds, tail_percentile(len(seconds))),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """The per-layer metric values of a traced run, plus the tracing overhead."""
    values = dict(traced["layers"])
    values["bench.trace_overhead_frac"] = (
        traced["timed_s"] * traced["host_scale"]
        / (untraced["timed_s"] * untraced["host_scale"]) - 1
    )
    return values


def emit(spec: dict, section: str, values: dict) -> dict:
    """Every metric of ``spec[section]`` (BENCHMARK.json) with its value and unit."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec[section]
    }


# ---------------------------------------------------------------------- correctness
def golden_path(seed: int) -> Path:
    return GOLDEN_DIR / f"seed-{seed}.json"


def load_golden(seed: int) -> dict | None:
    path = golden_path(seed)
    return json.loads(path.read_text()) if path.exists() else None


def check_cells(
    cells: list[dict], expected: dict[str, str], seeded_too: bool = True
) -> list[tuple[str, str]]:
    """(cell id, reason) for every cell run whose output is not correct.

    A cell fails when it raised or went missing, when its result breaks an
    invariant, or when its digest differs from ``expected`` (cell id → golden
    digest).  With ``seeded_too=False`` — a seed without a golden file, checked
    against seed 0's — only the cells that do not depend on the seed (machines
    without value prediction) are compared.
    """
    failures = []
    for cell in cells:
        if "error" in cell:
            failures.append((cell["id"], cell["error"]))
        elif not cell["ok"]:
            failures.append((cell["id"], "invariant violated"))
        elif cell["seeded"] and not seeded_too:
            continue
        elif expected.get(cell["id"]) != cell["digest"]:
            failures.append(
                (cell["id"], f"digest {cell['digest']} != golden {expected.get(cell['id'])}")
            )
    return failures


def write_golden(workload: str, seed: int, cells: list[dict]) -> None:
    digests: dict[str, str] = {}
    for cell in cells:
        if "digest" not in cell or not cell["ok"]:
            raise BenchError(f"cannot record a golden: {cell['id']} failed")
        if digests.setdefault(cell["id"], cell["digest"]) != cell["digest"]:
            raise BenchError(f"cannot record a golden: {cell['id']} differs between passes")
    golden = load_golden(seed) or {}
    golden[workload] = dict(sorted(digests.items()))
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path(seed).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------- children
def child_env(workdir: Path) -> dict:
    """The parent's environment minus every ``REPRO_*`` switch, plus ``src``.

    The string-hash seed is fixed: with a random one per process, the same cells
    took from 0.87x to 1.42x their median time from one process to the next on
    the reference host, which would swamp the differences the benchmark exists
    to detect.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def run_child(args: list[str], workroot: Path, deadline: float) -> tuple[float, dict]:
    """Run one ``harness.py child`` in a fresh directory; returns (spawn time, result)."""
    workdir = workroot / f"child-{time.monotonic_ns()}"
    workdir.mkdir()
    result_path = workdir / "result.json"
    command = [sys.executable, str(HERE / "harness.py"), "child", *args,
               "--workdir", str(workdir), "--result", str(result_path)]
    spawned = time.monotonic()
    # A session of its own, so that killing its process group also stops any
    # fleet worker it left behind.
    process = subprocess.Popen(
        command, env=child_env(workdir), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} exceeded the run budget") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        sys.stderr.write(output.decode(errors="replace"))
        raise BenchError(f"child {' '.join(args)} exited with {process.returncode}")
    return spawned, json.loads(result_path.read_text())


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_PASS_SECONDS[workload]))


# ---------------------------------------------------------------------- reporting
def report_cells(workload: str, cells: list[dict]) -> None:
    """Print the slowest cells: host seconds, simulated cycles, host ns per cycle."""
    done = sorted((c for c in cells if "seconds" in c), key=lambda c: -c["seconds"])
    print(f"[{workload}] {SLOWEST_SHOWN} slowest cells:")
    for cell in done[:SLOWEST_SHOWN]:
        if cell["cycles"]:
            detail = (f"{cell['cycles']:>9d} sim cycles  "
                      f"{cell['seconds'] * 1e9 / cell['cycles']:>9.0f} ns/cycle")
        else:
            detail = (f"{cell['uops']:>9d} uops walked "
                      f"{cell['seconds'] * 1e9 / cell['uops']:>9.0f} ns/uop")
        print(f"    {cell['id']:<36s} {cell['seconds']:8.3f} s  {detail}")


def run_workload(args: argparse.Namespace, workload: str, spec: dict, deadline: float) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    passes = passes_for(workload, args.seconds)
    workroot = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(workroot, ignore_errors=True)
    workroot.mkdir(parents=True)
    base = ["--workload", workload, "--seed", str(args.seed), "--passes", str(passes)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                spawned, result = run_child(base + ["--setup-only"], workroot, deadline)
                setups.append((result["setup_end"] - spawned) * result["setup_scale"])
        spawned, untraced = run_child(base, workroot, deadline)
        setups.append((untraced["setup_end"] - spawned) * untraced["setup_scale"])
        runs = [untraced]
        if args.trace:
            spans_path = Path(args.spans or WORK_ROOT / f"spans-{workload}-seed{args.seed}.json")
            _, traced = run_child(base + ["--spans", str(spans_path.resolve())], workroot, deadline)
            runs.append(traced)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    cells = [cell for run in runs for cell in run["cells"]]
    golden = load_golden(args.seed)
    expected = (golden or load_golden(0) or {}).get(workload, {})
    failures = check_cells(cells, expected, seeded_too=golden is not None)
    if args.write_golden:
        write_golden(workload, args.seed, cells)
    values = end_to_end(untraced, setups)
    n = sum(1 for cell in untraced["cells"] if "seconds" in cell)
    print(f"[{workload}] seed {args.seed}: {passes} pass(es), {n} cells, timed "
          f"{untraced['timed_s']:.2f} s on the wall clock; host scale "
          f"{untraced['host_scale']:.3f} from {untraced['probes']} probes; "
          f"normalised set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    if golden is None:
        print(f"[{workload}] no golden for seed {args.seed}: seed-independent cells "
              f"checked against seed 0, all cells against the invariants")
    for cell_id, reason in failures[:FAILURES_SHOWN]:
        print(f"[{workload}] FAILED {cell_id}: {reason}")
    if len(failures) > FAILURES_SHOWN:
        print(f"[{workload}] ... {len(failures) - FAILURES_SHOWN} more failed cells")
    report_cells(workload, untraced["cells"])
    print(f"[{workload}] cell_s_tail is p{tail_percentile(n)} of n={n}")
    for key, value in untraced["extra"].items():
        print(f"[{workload}] {key} = {value:.6f}")
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    for name, value in values.items():
        print(f"[{workload}] {name} = {value:.6g} {units[name]}")
    if args.trace:
        values = per_layer(untraced, traced)
        print(f"[{workload}] traced timed {traced['timed_s']:.2f} s; bench.other_s is "
              f"{values['bench.other_s'] / traced['timed_s']:.2%} of it")
    return {
        "correct": not failures,
        "attempted": len(cells),
        "failed": len(failures),
        "metrics": emit(spec, "per_layer" if args.trace else "end_to_end", values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*NOMINAL_PASS_SECONDS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where --trace 1 writes the Chrome trace (one workload)")
    parser.add_argument("--out", default=None,
                        help="also write each workload's result to a JSON file in this "
                        "directory (the input of compare.py)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's digests as the seed's golden")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} has no src/repro or BENCHMARK.json; run the benchmark "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(NOMINAL_PASS_SECONDS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_SECONDS * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name, spec, deadline)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, result in results.items():
            record = {"workload": name, "seed": args.seed, "trace": args.trace,
                      "recorded_unix": time.time(), **result}
            (out / f"{name}-seed{args.seed}-{time.time_ns()}.json").write_text(
                json.dumps(record, indent=1) + "\n")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
