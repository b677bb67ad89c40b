"""Deterministic fault injection for the distributed campaign fleet.

``REPRO_FAULTS=<spec>`` arms named injection sites compiled into the
durability-critical paths — the JSONL result store, the on-disk trace store, and
the lease coordinator — so crash-safety claims can be *tested* instead of assumed
(see ``docs/robustness.md``; ``scripts/chaos_smoke.py`` is the acceptance harness).

The package follows the repo's kill-switch discipline: with ``REPRO_FAULTS``
unset, :func:`~repro.faults.plan.active_faults` returns ``None`` and every hook
site is a single ``None`` check; results are byte-identical to a build without
the package.
"""
