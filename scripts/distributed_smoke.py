"""Distributed-campaign smoke: two workers, one SIGKILL, byte-identical results.

The CI acceptance run for the leased-work-queue coordinator
(``docs/campaign.md``, *Distributed campaigns*): submit a 4-configuration ×
4-workload grid to a fresh service directory, run two ``repro-campaign work``
subprocesses against it, SIGKILL one mid-run, and verify that

* the surviving worker requeues the lapsed lease and completes the grid,
* no cell failed or went missing, and
* every stored result is byte-identical (as sorted JSON) to a serial
  ``run_campaign`` of the same grid in this process.

It then runs the same grid through ``repro-campaign run --workers 2`` (a local
fleet in a temporary service directory) and diffs every stored row against the
same serial reference.

Exit code 0 on success, 1 on any violation.  Usage::

    PYTHONPATH=src python scripts/distributed_smoke.py [--max-uops 8000]
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign.coordinator import CampaignService  # noqa: E402
from repro.campaign.executor import run_campaign  # noqa: E402
from repro.campaign.spec import Campaign  # noqa: E402
from repro.campaign.store import ResultStore  # noqa: E402

CONFIGS = ("Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64", "EOLE_6_64")
WORKLOADS = "gcc,mcf,milc,namd"


def spawn_worker(service_dir: Path, worker_id: str) -> subprocess.Popen:
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
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-uops", type=int, default=8000)
    parser.add_argument("--warmup-uops", type=int, default=2000)
    parser.add_argument(
        "--timeout-seconds", type=float, default=600.0, help="overall completion budget"
    )
    parser.add_argument(
        "--service-dir",
        default=None,
        help="use (and leave behind) this service directory instead of a "
        "self-cleaning temp dir — lets CI run `repro-campaign fsck` on the "
        "directory the fleet actually produced",
    )
    args = parser.parse_args()

    campaign = Campaign.from_names(
        CONFIGS,
        WORKLOADS,
        max_uops=args.max_uops,
        warmup_uops=args.warmup_uops,
        name="distributed-smoke",
    )
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as scratch:
        service = CampaignService(
            Path(args.service_dir) if args.service_dir else Path(scratch) / "svc"
        )
        # lease_width=1 → 16 single-cell leases, so the SIGKILL lands mid-grid
        # and the survivor demonstrably takes over the victim's leases.
        leases = service.submit(
            campaign, lease_seconds=3.0, max_attempts=4, lease_width=1
        )
        print(f"submitted {leases} leases for {len(campaign.cells())} cells")

        victim = spawn_worker(service.root, "victim")
        survivor = spawn_worker(service.root, "survivor")
        store = service.result_store()
        try:
            deadline = time.time() + args.timeout_seconds
            while time.time() < deadline:
                store.reload()
                if len(store) >= 2:
                    break
                time.sleep(0.01)
            else:
                print("FAIL: workers made no progress", file=sys.stderr)
                return 1
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            print(f"SIGKILLed the victim worker with {len(store)} cells stored")

            while time.time() < deadline and not service.queue_complete():
                time.sleep(0.2)
            if not service.queue_complete():
                print("FAIL: queue incomplete within the budget", file=sys.stderr)
                return 1
            survivor.wait(timeout=60)
        finally:
            for proc in (victim, survivor):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)

        status = service.status()
        print(f"fleet finished: {json.dumps(status['lease_states'])}")
        store.reload()
        if store.failures():
            print(f"FAIL: {len(store.failures())} failure rows", file=sys.stderr)
            return 1

        owners = {
            store.get_record(cell.fingerprint)["telemetry"]["worker"]
            for cell in campaign.cells()
            if store.get_record(cell.fingerprint)
        }
        if "survivor" not in owners:
            print("FAIL: the survivor processed nothing", file=sys.stderr)
            return 1

        print("running the serial reference grid in-process…")
        serial = run_campaign(campaign, store=None, workers=1)
        if diff_against_serial(campaign, store, serial):
            return 1
        print(
            f"OK: {len(campaign.cells())} cells byte-identical to the serial run "
            f"(workers seen: {sorted(owners)})"
        )

        # The CLI's local fleet (`run --workers 2`) must land the same grid.
        cli_store = Path(scratch) / "cli.jsonl"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.campaign", "run",
                "--configs", ",".join(CONFIGS), "--workloads", WORKLOADS,
                "--max-uops", str(args.max_uops), "--warmup-uops", str(args.warmup_uops),
                "--workers", "2", "--store", str(cli_store), "--quiet",
            ],
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
            timeout=args.timeout_seconds,
        )
        if completed.returncode != 0:
            print(f"FAIL: run --workers 2 exited {completed.returncode}", file=sys.stderr)
            return 1
        if diff_against_serial(campaign, ResultStore(cli_store), serial):
            return 1
        print(f"OK: run --workers 2 landed {len(campaign.cells())} byte-identical cells")
        return 0


def diff_against_serial(campaign: Campaign, store: ResultStore, serial) -> int:
    """Count the cells whose stored row is missing or differs from ``serial``."""
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
    return mismatches


if __name__ == "__main__":
    sys.exit(main())
