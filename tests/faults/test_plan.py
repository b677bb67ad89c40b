"""Tests for the ``REPRO_FAULTS`` grammar and the deterministic fault injector."""

import pytest

from repro.faults.plan import (
    FAULTS_ENV_VAR,
    FaultInjector,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    active_faults,
)
from repro.faults.sites import (
    COORD_HEARTBEAT_DROP,
    SITE_CATALOG,
    STORE_APPEND_TORN,
    TRACE_SAVE_CORRUPT,
    WORKER_DIE_MID_LEASE,
)


def _injector(spec: str) -> FaultInjector:
    return FaultInjector(FaultPlan.parse(spec))


class TestGrammar:
    def test_bare_site_defaults_to_first_hit_once(self):
        plan = FaultPlan.parse(STORE_APPEND_TORN)
        (rule,) = plan.rules
        assert rule.site == STORE_APPEND_TORN
        assert rule.at is None and rule.every is None and rule.p is None
        assert rule.n == 1

    def test_full_clause_round_trip(self):
        plan = FaultPlan.parse(
            f"seed=7;{COORD_HEARTBEAT_DROP}:every=3:n=4;{STORE_APPEND_TORN}:at=2"
        )
        assert plan.seed == 7
        by_site = {rule.site: rule for rule in plan.rules}
        assert by_site[COORD_HEARTBEAT_DROP].every == 3
        assert by_site[COORD_HEARTBEAT_DROP].n == 4
        assert by_site[STORE_APPEND_TORN].at == 2

    def test_unknown_site_is_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown injection site"):
            FaultPlan.parse("store.append.sideways")

    def test_unknown_selector_is_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown selector"):
            FaultPlan.parse(f"{STORE_APPEND_TORN}:when=later")

    def test_bad_value_is_rejected(self):
        with pytest.raises(FaultSpecError, match="bad value"):
            FaultPlan.parse(f"{STORE_APPEND_TORN}:at=soon")

    def test_mixed_triggers_are_rejected(self):
        with pytest.raises(FaultSpecError, match="mixes"):
            FaultPlan.parse(f"{STORE_APPEND_TORN}:at=1:p=0.5")

    def test_bad_seed_is_rejected(self):
        with pytest.raises(FaultSpecError, match="bad seed"):
            FaultPlan.parse("seed=lucky")

    def test_every_site_constant_is_parseable(self):
        for site in SITE_CATALOG:
            assert FaultPlan.parse(site).rules[0].site == site


class TestTriggers:
    def test_at_fires_exactly_the_nth_hit(self):
        injector = _injector(f"{STORE_APPEND_TORN}:at=3")
        fires = [injector.fires(STORE_APPEND_TORN) is not None for _ in range(6)]
        assert fires == [False, False, True, False, False, False]

    def test_every_fires_periodically_up_to_n(self):
        injector = _injector(f"{COORD_HEARTBEAT_DROP}:every=2:n=2")
        fires = [injector.fires(COORD_HEARTBEAT_DROP) is not None for _ in range(8)]
        assert fires == [False, True, False, True, False, False, False, False]

    def test_n_zero_means_unlimited(self):
        injector = _injector(f"{COORD_HEARTBEAT_DROP}:every=2:n=0")
        fired = sum(
            injector.fires(COORD_HEARTBEAT_DROP) is not None for _ in range(10)
        )
        assert fired == 5

    def test_probability_schedule_is_deterministic_per_seed(self):
        spec = f"seed=5;{TRACE_SAVE_CORRUPT}:p=0.5:n=0"

        def schedule() -> list[bool]:
            injector = _injector(spec)
            return [injector.fires(TRACE_SAVE_CORRUPT) is not None for _ in range(32)]

        schedule_a, schedule_b = schedule(), schedule()
        assert schedule_a == schedule_b
        assert any(schedule_a) and not all(schedule_a)

    def test_different_seeds_give_different_probability_schedules(self):
        def schedule(seed: int) -> list[bool]:
            injector = _injector(f"seed={seed};{TRACE_SAVE_CORRUPT}:p=0.5:n=0")
            return [injector.fires(TRACE_SAVE_CORRUPT) is not None for _ in range(64)]

        assert any(schedule(1) != schedule(seed) for seed in (2, 3, 4))

    def test_unarmed_site_never_fires_but_armed_counters_accumulate(self):
        injector = _injector(f"{STORE_APPEND_TORN}:at=2")
        assert injector.fires(WORKER_DIE_MID_LEASE) is None
        injector.fires(STORE_APPEND_TORN)
        injector.fires(STORE_APPEND_TORN)
        report = injector.report()
        assert report == {STORE_APPEND_TORN: {"hits": 2, "fired": 1}}

    def test_crash_if_raises_injected_fault(self):
        injector = _injector(STORE_APPEND_TORN)
        with pytest.raises(InjectedFault, match=STORE_APPEND_TORN):
            injector.crash_if(STORE_APPEND_TORN)
        injector.crash_if(STORE_APPEND_TORN)  # n=1 spent: silent from now on


class TestActivePlan:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert active_faults() is None

    def test_cached_per_spec_and_reset(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, f"{STORE_APPEND_TORN}:at=2")
        first = active_faults()
        assert first is active_faults()  # same injector: counters accumulate
        first.fires(STORE_APPEND_TORN)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert active_faults() is None  # unset drops the cached injector
        monkeypatch.setenv(FAULTS_ENV_VAR, f"{STORE_APPEND_TORN}:at=2")
        fresh = active_faults()
        assert fresh is not first
        assert fresh.report()[STORE_APPEND_TORN]["hits"] == 0

    def test_changing_the_spec_swaps_the_plan(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, STORE_APPEND_TORN)
        first = active_faults()
        monkeypatch.setenv(FAULTS_ENV_VAR, f"{STORE_APPEND_TORN}:at=5")
        assert active_faults() is not first

    def test_bad_spec_raises_at_first_use(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "no.such.site")
        with pytest.raises(FaultSpecError):
            active_faults()
