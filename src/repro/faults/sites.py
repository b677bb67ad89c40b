"""The injection-site catalog: every named place a fault can fire.

A *site* is a stable dotted name compiled into a durability-critical code path
(``store.py``, ``trace/store.py``, ``coordinator.py``, ``durable.py``).  The catalog is closed:
:func:`repro.faults.plan.FaultPlan.parse` rejects a ``REPRO_FAULTS`` clause naming a
site that is not listed here, so a typo in a chaos schedule fails loudly at startup
instead of silently injecting nothing.

Each entry maps the site name to what firing there *does* — the behaviours are
implemented at the hook sites themselves; the faults layer only decides *whether*
a given hit fires (see :class:`repro.faults.plan.FaultInjector`).
"""

from __future__ import annotations

# -------------------------------------------------------------- result-store sites
#: ``ResultStore._append``: write only a prefix of the JSONL row (no newline), then
#: crash — the classic torn append of a process killed mid-write.
STORE_APPEND_TORN = "store.append.torn"

#: ``ResultStore._append``: write a garbled (bit-rotted) row in full, silently —
#: the writer believes the append succeeded; only the per-row CRC catches it.
STORE_APPEND_CORRUPT = "store.append.corrupt"

#: ``ResultStore._rewrite`` (through :func:`repro.durable.publish`): crash after the
#: temp file is written and fsynced but before the atomic rename — the data file
#: survives untouched, the temp file becomes an orphan for ``fsck`` to sweep.
STORE_REWRITE_CRASH = "store.rewrite.crash"

# -------------------------------------------------------------- trace-store sites
#: ``TraceStore.save`` (through :func:`repro.durable.publish`): crash after the
#: blob is staged and before the atomic rename — no blob is published, a ``.tmp``
#: orphan is left behind.
TRACE_SAVE_CRASH = "trace.save.crash"

#: ``TraceStore.save``: publish a blob with payload bytes flipped (length intact) —
#: undetectable without the payload checksum.
TRACE_SAVE_CORRUPT = "trace.save.corrupt"

#: ``TraceStore.save``: publish only a prefix of the blob — a torn trace write on a
#: filesystem without atomic rename semantics.
TRACE_SAVE_TRUNCATED = "trace.save.truncated"

# -------------------------------------------------------------- coordinator sites
#: ``CampaignService.heartbeat``: drop the beat — report success to the worker but
#: never extend the deadline (a heartbeat lost on the wire / delayed by NFS).
COORD_HEARTBEAT_DROP = "coord.heartbeat.drop"

#: ``CampaignService.claim``: sleep ``delay`` seconds before taking the queue lock
#: (a slow lock acquisition under contention).
COORD_CLAIM_DELAY = "coord.claim.delay"

#: ``CampaignService.complete``: sleep ``delay`` seconds before taking the queue
#: lock — widens the window in which the lease can lapse underneath the worker.
COORD_COMPLETE_DELAY = "coord.complete.delay"

#: ``CampaignService.claim``: evaluate lease eligibility and deadlines against a
#: clock shifted by ``skew`` seconds (loosely NTP-synced fleet hosts).
COORD_CLOCK_SKEW = "coord.clock.skew"

# -------------------------------------------------------------- worker-death sites
#: ``work_loop``: die (``os._exit``, no cleanup, no heartbeat ever again)
#: immediately after claiming a lease.
WORKER_DIE_AFTER_CLAIM = "worker.die.after_claim"

#: ``process_lease``: die right after the first finished cell of the lease lands in
#: the shared store — the takeover worker must skip the stored cell and finish the
#: rest.
WORKER_DIE_MID_LEASE = "worker.die.mid_lease"

#: ``work_loop``: die after every cell of the lease is stored but before the lease
#: is marked done — the takeover claim finds nothing left to simulate.
WORKER_DIE_BEFORE_COMPLETE = "worker.die.before_complete"


#: Site name → one-line description (the ``fsck``/docs-facing catalog).
SITE_CATALOG: dict[str, str] = {
    STORE_APPEND_TORN: "torn JSONL append: partial row, then crash",
    STORE_APPEND_CORRUPT: "silent bit-rot of one appended JSONL row",
    STORE_REWRITE_CRASH: "crash between store-rewrite staging and rename",
    TRACE_SAVE_CRASH: "crash between trace-save staging and rename",
    TRACE_SAVE_CORRUPT: "publish a trace blob with flipped payload bytes",
    TRACE_SAVE_TRUNCATED: "publish a truncated trace blob",
    COORD_HEARTBEAT_DROP: "drop a heartbeat (deadline not extended)",
    COORD_CLAIM_DELAY: "delay before the claim lock acquire",
    COORD_COMPLETE_DELAY: "delay before the complete lock acquire",
    COORD_CLOCK_SKEW: "skew the claim-side clock by `skew` seconds",
    WORKER_DIE_AFTER_CLAIM: "worker dies right after claiming a lease",
    WORKER_DIE_MID_LEASE: "worker dies after storing one cell of its lease",
    WORKER_DIE_BEFORE_COMPLETE: "worker dies before marking its lease done",
}

#: Every valid injection-site name.
ALL_SITES = frozenset(SITE_CATALOG)
