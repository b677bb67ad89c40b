"""Deterministic, seeded fault plans: the ``REPRO_FAULTS`` grammar and injector.

Spec grammar (clauses separated by ``;``, selectors by ``:``)::

    REPRO_FAULTS = clause (';' clause)*
    clause       = 'seed=' INT                  # plan-wide PRNG seed (default 0)
                 | SITE selector*               # arm one injection site
    selector     = ':at=' INT                   # fire on exactly the Nth hit (1-based)
                 | ':every=' INT                # fire on every Nth hit
                 | ':p=' FLOAT                  # fire per hit with probability p
                 | ':n=' INT                    # max fires (0 = unlimited; default 1)
                 | ':delay=' FLOAT              # seconds, for *.delay sites
                 | ':skew=' FLOAT               # seconds, for the clock-skew site

Examples::

    REPRO_FAULTS="store.append.torn"                      # first append is torn
    REPRO_FAULTS="seed=7;coord.heartbeat.drop:every=2:n=4"
    REPRO_FAULTS="worker.die.mid_lease:at=2;trace.save.corrupt:p=0.5:n=1"

With no trigger selector a rule defaults to ``at=1`` (fire on the first hit).
Probability triggers draw from a per-site ``random.Random`` seeded by
``seed ^ crc32(site)``, so the same spec replays the same fault schedule in every
process that counts the same hits — determinism extends to the chaos itself.

The injector is *hit-counting*: each hook site calls
:meth:`FaultInjector.fires`/:meth:`crash_if`/:meth:`die_if` exactly once per pass,
and the rule decides from its own hit counter.  Counters are per-process (each
fleet worker parses its own ``REPRO_FAULTS`` and counts its own hits).

With ``REPRO_FAULTS`` unset, :func:`active_faults` returns ``None`` and every hook
site reduces to one global read plus a ``None`` check — the same zero-overhead
kill-switch discipline as ``REPRO_EVENT_DRIVEN``/``REPRO_WAKEUP_LISTS``.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.faults.sites import ALL_SITES

#: Environment variable holding the fault plan (unset/empty = injection off).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit code used by the ``worker.die.*`` sites (visible in the parent's reaping).
DIE_EXIT_CODE = 86


class FaultSpecError(ReproError):
    """A ``REPRO_FAULTS`` spec could not be parsed (unknown site, bad selector)."""


class InjectedFault(ReproError):
    """Raised by a crash-type injection site (stands in for a process death)."""


@dataclass
class FaultRule:
    """One armed injection site plus its trigger discipline."""

    site: str
    at: int | None = None
    every: int | None = None
    p: float | None = None
    n: int = 1
    delay: float = 0.0
    skew: float = 0.0
    hits: int = 0
    fired: int = 0
    _rng: random.Random | None = field(default=None, repr=False)

    def bind(self, seed: int) -> None:
        """Give probability triggers their deterministic per-site stream."""
        self._rng = random.Random(seed ^ zlib.crc32(self.site.encode()))

    def check(self) -> bool:
        """Count one hit at this rule's site; True when the fault fires."""
        self.hits += 1
        if self.n and self.fired >= self.n:
            return False
        if self.at is not None:
            fire = self.hits == self.at
        elif self.every is not None:
            fire = self.hits % self.every == 0
        elif self.p is not None:
            fire = self._rng.random() < self.p
        else:  # no trigger selector: the first hit fires
            fire = self.hits == 1
        if fire:
            self.fired += 1
        return fire


class FaultPlan:
    """A parsed ``REPRO_FAULTS`` spec: a seed plus one rule per armed site."""

    def __init__(self, seed: int, rules: list[FaultRule]) -> None:
        self.seed = seed
        self.rules = rules
        for rule in rules:
            rule.bind(seed)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the grammar above; raises :class:`FaultSpecError` on any mistake."""
        seed = 0
        rules: list[FaultRule] = []
        for raw_clause in spec.split(";"):
            clause = raw_clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[5:])
                except ValueError as error:
                    raise FaultSpecError(f"bad seed in {clause!r}") from error
                continue
            site, _, selector_text = clause.partition(":")
            if site not in ALL_SITES:
                raise FaultSpecError(
                    f"unknown injection site {site!r} (known: {', '.join(sorted(ALL_SITES))})"
                )
            rule = FaultRule(site=site)
            for selector in selector_text.split(":") if selector_text else ():
                key, _, value = selector.partition("=")
                try:
                    if key == "at":
                        rule.at = int(value)
                    elif key == "every":
                        rule.every = int(value)
                    elif key == "p":
                        rule.p = float(value)
                    elif key == "n":
                        rule.n = int(value)
                    elif key == "delay":
                        rule.delay = float(value)
                    elif key == "skew":
                        rule.skew = float(value)
                    else:
                        raise FaultSpecError(
                            f"unknown selector {key!r} in {clause!r} "
                            f"(known: at, every, p, n, delay, skew)"
                        )
                except ValueError as error:
                    raise FaultSpecError(f"bad value in {selector!r} of {clause!r}") from error
            triggers = sum(x is not None for x in (rule.at, rule.every, rule.p))
            if triggers > 1:
                raise FaultSpecError(f"{clause!r} mixes at/every/p triggers")
            rules.append(rule)
        return cls(seed, rules)


class FaultInjector:
    """The per-process fault machine the hook sites consult (see module docstring)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._by_site: dict[str, FaultRule] = {rule.site: rule for rule in plan.rules}

    def fires(self, site: str) -> FaultRule | None:
        """Count one hit at ``site``; the armed rule when this hit fires, else None."""
        rule = self._by_site.get(site)
        if rule is None:
            return None
        return rule if rule.check() else None

    def crash_if(self, site: str) -> None:
        """Raise :class:`InjectedFault` when ``site`` fires on this hit."""
        if self.fires(site) is not None:
            raise InjectedFault(f"injected fault at {site}")

    def die_if(self, site: str) -> None:
        """Kill the process (``os._exit`` — no cleanup, no atexit, no heartbeats)
        when ``site`` fires on this hit; the SIGKILL-faithful worker-death action."""
        if self.fires(site) is not None:
            os._exit(DIE_EXIT_CODE)

    def report(self) -> dict[str, dict[str, int]]:
        """Per-site hit/fire counters (test and telemetry hook)."""
        return {
            site: {"hits": rule.hits, "fired": rule.fired}
            for site, rule in self._by_site.items()
        }


# ------------------------------------------------------------------ the active plan
_active: FaultInjector | None = None
_active_spec: str | None = None


def active_faults() -> FaultInjector | None:
    """The process-wide injector for ``REPRO_FAULTS``, or ``None`` when unset.

    Cached per spec string so hit counters accumulate across calls; re-pointing the
    environment variable swaps (and re-seeds) the plan.  The off-path cost is one
    ``os.environ`` read — the hook sites only run on durability paths (file I/O,
    lease transitions), never in simulator loops.
    """
    global _active, _active_spec
    spec = os.environ.get(FAULTS_ENV_VAR)
    if not spec:
        _active = None
        _active_spec = None
        return None
    if _active is None or _active_spec != spec:
        _active = FaultInjector(FaultPlan.parse(spec))
        _active_spec = spec
    return _active


def reset_faults() -> None:
    """Drop the cached injector (tests re-arming the same spec need fresh counters)."""
    global _active, _active_spec
    _active = None
    _active_spec = None


def faults_enabled() -> bool:
    """True when a fault plan is armed in this process."""
    return active_faults() is not None
