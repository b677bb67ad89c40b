"""The event-wheel scheduler: cycle skipping must be real *and* invisible.

The byte-identity of whole-grid results is enforced by
``tests/trace/test_simulation_determinism.py``; these tests pin down the mechanism:
dead cycles are actually skipped (the scheduler is not a no-op), and bulk stall
crediting matches per-cycle counting (``SteppedSimulator`` of ``tests/oracles.py``)
on stall-heavy machines.
"""

import pytest

from repro.pipeline.config import named_config
from repro.pipeline.simulator import Simulator
from repro.workloads.suite import workload
from tests.conftest import replay_trace
from tests.oracles import SteppedSimulator

MAX_UOPS, WARMUP = 1500, 300


class _SkipCountingSimulator(Simulator):
    """Counts the cycles the event wheel jumped over instead of stepping."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.skipped_cycles = 0

    def _skip_dead_cycles(self, gap):
        self.skipped_cycles += gap
        super()._skip_dead_cycles(gap)


class _CountingSteppedSimulator(SteppedSimulator):
    """Counts the cycles the reference loop stepped."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stepped_cycles = 0

    def _step(self):
        self.stepped_cycles += 1
        super()._step()


def _run(config, wl, simulator_cls=Simulator):
    trace = replay_trace(config, wl.program, MAX_UOPS, wl.make_state())
    simulator = simulator_cls(config, trace, MAX_UOPS, WARMUP)
    return simulator, simulator.run()


@pytest.mark.parametrize("workload_name", ["milc", "gcc"])
def test_event_wheel_skips_dead_cycles(workload_name):
    """Stall-heavy runs must step strictly fewer cycles than they simulate."""
    simulator, result = _run(named_config("EOLE_4_64"), workload(workload_name),
                             simulator_cls=_SkipCountingSimulator)
    assert 0 < simulator.skipped_cycles < result.full_stats.cycles


def test_cycle_stepping_reference_steps_every_cycle():
    simulator, result = _run(named_config("EOLE_4_64"), workload("milc"),
                             simulator_cls=_CountingSteppedSimulator)
    assert simulator.stepped_cycles == result.full_stats.cycles


@pytest.mark.parametrize("config_name", ["Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64"])
@pytest.mark.parametrize("workload_name", ["gcc", "mcf", "milc"])
def test_event_driven_matches_stepping(config_name, workload_name):
    config = named_config(config_name)
    wl = workload(workload_name)
    _, event = _run(config, wl)
    _, stepped = _run(config, wl, SteppedSimulator)
    assert event.to_dict() == stepped.to_dict()


class _DispatchCountingSimulator(Simulator):
    """Counts how many cycles ran the dispatch stage (one call per stepped
    dispatch cycle, on machines with and without Early Execution)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatch_calls = 0

    def _dispatch(self):
        self.dispatch_calls += 1
        super()._dispatch()


def test_bulk_stall_crediting_on_tiny_rob():
    """A machine whose ROB fills constantly exercises the skipped-span crediting:
    per-cycle dispatch-stall counters must match the reference loop exactly."""
    config = named_config("Baseline_VP_6_64").derive(rob_size=12, iq_size=8)
    wl = workload("milc")
    _, event = _run(config, wl)
    _, stepped = _run(config, wl, SteppedSimulator)
    assert event.full_stats.rob_full_stalls == stepped.full_stats.rob_full_stalls
    assert event.full_stats.rob_full_stalls > 0
    assert event.to_dict() == stepped.to_dict()


class _RollbackCheckingSimulator(_DispatchCountingSimulator):
    """Checks that every IQ-full rollback leaves the rename map a rebuild from
    the surviving ROB would give (the undo log replaces that rebuild)."""

    def _rollback_undispatched(self, group, first_undispatched, undo):
        super()._rollback_undispatched(group, first_undispatched, undo)
        rebuilt = {}
        for op in self.rob:
            for dst in op.uop.dst_regs:
                rebuilt[dst] = op
        assert self._rename_map == rebuilt


class _SteppedRollbackCheckingSimulator(_RollbackCheckingSimulator, SteppedSimulator):
    """The rollback check on the reference loop."""


def _ee_counters(simulator):
    early = simulator.early_block
    return early.candidates_seen, early.executed, early.alu_saturation_rejects


@pytest.mark.parametrize(
    "config_name, overrides, workload_name",
    [
        ("Baseline_VP_6_64", {"iq_size": 8}, "milc"),
        ("EOLE_4_64", {"iq_size": 8}, "milc"),
        ("Baseline_VP_6_64", {"iq_size": 8, "lq_size": 6, "sq_size": 6}, "milc"),
        ("EOLE_4_64", {"iq_size": 8, "lq_size": 6, "sq_size": 6}, "milc"),
        ("Baseline_VP_6_64", {"iq_size": 8, "rob_size": 16}, "mcf"),
        ("EOLE_4_64", {"iq_size": 6}, "bzip2"),
    ],
    ids=["no-ee", "ee", "no-ee-lsq", "ee-lsq", "no-ee-rob", "ee-short-group"],
)
def test_bulk_stall_crediting_on_tiny_iq(config_name, overrides, workload_name):
    """A machine whose IQ fills constantly parks dispatch on the full IQ, with
    and without Early Execution (EE).  The skipped spans must credit
    ``iq_full_stalls``, the ROB/LSQ stalls the rename overshoot hits and the EE
    planner's counters exactly.  The cases include renames that stop short of
    the rename width, at a not-yet-ready µ-op or at the end of the front-end,
    where dispatch must not park."""
    config = named_config(config_name).derive(**overrides)
    wl = workload(workload_name)
    event_sim, event = _run(config, wl, simulator_cls=_RollbackCheckingSimulator)
    stepped_sim, stepped = _run(config, wl, simulator_cls=_SteppedRollbackCheckingSimulator)
    assert event.full_stats.iq_full_stalls == stepped.full_stats.iq_full_stalls
    assert event.full_stats.iq_full_stalls > event_sim.dispatch_calls
    assert event.to_dict() == stepped.to_dict()
    assert _ee_counters(event_sim) == _ee_counters(stepped_sim)


def test_full_iq_parks_dispatch():
    """``Baseline_6_64`` × mcf keeps its IQ full for most of the run; the
    cycle-stepping loop dispatches on ~16,000 of its ~16,500 cycles, the event
    wheel skips the stalled ones.  Without EE there is no previous-group bypass,
    so dispatch parks on the first IQ-full cycle after progress too (748 calls;
    waiting one stalled cycle more before parking makes 814)."""
    simulator, result = _run(named_config("Baseline_6_64"), workload("mcf"),
                             simulator_cls=_DispatchCountingSimulator)
    assert simulator.dispatch_calls < 800
    assert result.full_stats.iq_full_stalls > 10 * simulator.dispatch_calls
