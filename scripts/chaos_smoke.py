"""Chaos smoke: a worker fleet under injected faults still lands exact results.

The CI acceptance run for the fault-injection layer (``docs/robustness.md``):
submit the standard 4-configuration × 4-workload grid to a fresh service
directory and run three workers against it, two of them armed with
``REPRO_FAULTS``:

* **victim** — a trace-store crash between ``mkstemp`` and rename (leaves a
  ``.tmp`` orphan), then ``os._exit`` right after its first cell lands in the
  shared store (a SIGKILL-faithful death: no cleanup, no more heartbeats, lease
  left ``running`` until it lapses).
* **flaky** — a torn store append (half a JSONL row, then the "crash"), a
  silently corrupted store append (row written with mangled bytes, worker
  believes it succeeded), a corrupted trace blob on disk, and three dropped
  heartbeats.
* **clean** — no faults; guarantees the queue drains.

The script then asserts the full crash-recovery story:

1. the queue completes within the budget (takeover + bounded retries absorb
   every injected failure),
2. ``fsck`` *finds* the residue (quarantined rows, the tmp orphan, …),
3. ``fsck --repair`` plus one faults-off in-process resume pass restores a
   complete store (the resume re-simulates exactly the cells the silent
   corruption ate),
4. a final ``fsck`` is clean, and
5. every cell is byte-identical (as sorted JSON) to a serial ``run_campaign``
   of the same grid with no faults — fault injection perturbs durability
   plumbing and liveness only, never simulation results.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [--max-uops 8000]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign.coordinator import CampaignService  # noqa: E402
from repro.campaign.executor import run_campaign  # noqa: E402
from repro.campaign.fsck import fsck_service, render_table  # noqa: E402
from repro.campaign.spec import Campaign  # noqa: E402
from repro.faults.plan import DIE_EXIT_CODE, FAULTS_ENV_VAR  # noqa: E402
from repro.trace.store import TRACE_STORE_ENV_VAR  # noqa: E402

CONFIGS = ("Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64", "EOLE_6_64")
WORKLOADS = "gcc,mcf,milc,namd"

#: Per-worker fault schedules (deterministic: seeded, hit-counted per process).
FAULT_SPECS = {
    "victim": (
        "seed=1;trace.save.crash:at=1;worker.die.mid_lease:at=1"
    ),
    "flaky": (
        "seed=2;store.append.corrupt:at=1;store.append.torn:at=2;"
        "trace.save.corrupt:at=1;coord.heartbeat.drop:every=3:n=3"
    ),
    "clean": None,
}


def spawn_worker(service_dir: Path, worker_id: str) -> subprocess.Popen:
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    spec = FAULT_SPECS.get(worker_id)
    if spec:
        env[FAULTS_ENV_VAR] = spec
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.campaign",
            "work",
            "--service",
            str(service_dir),
            "--worker-id",
            worker_id,
            "--poll-seconds",
            "0.05",
        ],
        env=env,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-uops", type=int, default=8000)
    parser.add_argument("--warmup-uops", type=int, default=2000)
    parser.add_argument(
        "--timeout-seconds", type=float, default=600.0, help="overall completion budget"
    )
    args = parser.parse_args()

    # The smoke process itself must be faults-off: the repair/resume pass and the
    # serial reference grid below both run in this process.
    os.environ.pop(FAULTS_ENV_VAR, None)

    campaign = Campaign.from_names(
        CONFIGS,
        WORKLOADS,
        max_uops=args.max_uops,
        warmup_uops=args.warmup_uops,
        name="chaos-smoke",
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        service = CampaignService(Path(scratch) / "svc")
        # Short leases so the victim's orphaned lease lapses quickly; a generous
        # attempt budget absorbs the flaky worker's injected failures.
        leases = service.submit(
            campaign, lease_seconds=2.0, max_attempts=6, lease_width=1
        )
        print(f"submitted {leases} leases for {len(campaign.cells())} cells")

        workers = {name: spawn_worker(service.root, name) for name in FAULT_SPECS}
        try:
            deadline = time.time() + args.timeout_seconds
            while time.time() < deadline and not service.queue_complete():
                time.sleep(0.2)
            if not service.queue_complete():
                print("FAIL: queue incomplete within the budget", file=sys.stderr)
                return 1
        finally:
            for name, proc in workers.items():
                if proc.poll() is None:
                    try:
                        proc.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait(timeout=30)
                print(f"worker {name}: exit code {proc.returncode}")

        if workers["victim"].returncode != DIE_EXIT_CODE:
            print(
                f"FAIL: victim exited {workers['victim'].returncode}, expected the "
                f"injected death ({DIE_EXIT_CODE})",
                file=sys.stderr,
            )
            return 1

        status = service.status()
        print(f"fleet finished: {json.dumps(status['lease_states'])}")

        # 1) fsck must SEE the injected residue before any repair.
        audit = fsck_service(service.root, repair=False, tmp_age=0.0)
        print(render_table(audit))
        if not audit.unresolved:
            print(
                "FAIL: fsck found no residue — the fault schedule injected "
                "nothing observable",
                file=sys.stderr,
            )
            return 1

        # 2) Repair, then one faults-off resume pass over the shared store: the
        # silently-corrupted rows were quarantined, so their cells are missing
        # and get re-simulated (deterministically) right here.
        repaired = fsck_service(service.root, repair=True, tmp_age=0.0)
        print(render_table(repaired))
        os.environ[TRACE_STORE_ENV_VAR] = str(service.trace_dir)
        try:
            run_campaign(
                campaign, store=service.result_store(), workers=1, progress=False
            )
        finally:
            os.environ.pop(TRACE_STORE_ENV_VAR, None)

        # 3) After repair + resume the directory must audit clean.
        final = fsck_service(service.root, repair=False, tmp_age=0.0)
        if not final.clean:
            print(render_table(final), file=sys.stderr)
            print("FAIL: service directory still dirty after repair", file=sys.stderr)
            return 1

        store = service.result_store()
        if store.failures():
            print(f"FAIL: {len(store.failures())} failure rows", file=sys.stderr)
            return 1

        # 4) Byte-identity against a faults-off serial run of the same grid.
        print("running the serial reference grid in-process…")
        serial = run_campaign(campaign, store=None, workers=1)
        mismatches = 0
        for cell in campaign.cells():
            record = store.get_record(cell.fingerprint)
            if record is None:
                print(f"FAIL: missing {cell.describe()}", file=sys.stderr)
                mismatches += 1
                continue
            expected = serial.results[(cell.config.name, cell.workload_name)]
            if json.dumps(record["result"], sort_keys=True) != json.dumps(
                expected.to_dict(), sort_keys=True
            ):
                print(f"FAIL: result diverges for {cell.describe()}", file=sys.stderr)
                mismatches += 1
        if mismatches:
            return 1
        print(
            f"OK: {len(campaign.cells())} cells byte-identical to the serial run "
            f"under injected faults ({len(audit.findings)} fsck findings repaired)"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
