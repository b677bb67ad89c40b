"""Property-based integration tests over randomly generated programs.

Hypothesis drives the whole stack (emulator → predictors → pipeline) with programs
nobody hand-tuned, checking structural invariants that must hold for *any* program:
termination, IPC bounds, architectural-event invariance across configurations, and
sane accounting.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eole import EOLEVariant, eole_config
from repro.pipeline.config import PipelineConfig
from tests.random_programs import RandomProgramGenerator
from tests.conftest import run_simulation

SEEDS = st.integers(min_value=0, max_value=10_000)


def _simulate(program, **config_overrides):
    defaults = dict(name="prop", predictor_name="hybrid-small")
    defaults.update(config_overrides)
    return run_simulation(PipelineConfig(**defaults), program, max_uops=600)


@settings(max_examples=8, deadline=None)
@given(SEEDS)
def test_simulation_terminates_and_commits_everything(seed):
    program = RandomProgramGenerator(seed).generate(body_ops=25)
    result = _simulate(program)
    assert result.stats.committed_uops == 600
    assert result.stats.cycles > 0


@settings(max_examples=8, deadline=None)
@given(SEEDS)
def test_ipc_respects_machine_width(seed):
    program = RandomProgramGenerator(seed).generate(body_ops=30)
    result = _simulate(program)
    assert 0 < result.ipc <= 8.0


@settings(max_examples=6, deadline=None)
@given(SEEDS)
def test_architectural_events_are_configuration_invariant(seed):
    """Trace-driven correctness: what commits never depends on the machine shape."""
    program = RandomProgramGenerator(seed).generate(body_ops=25)
    plain = _simulate(program, value_prediction=False, issue_width=2)
    eole = _simulate(
        program,
        value_prediction=True,
        issue_width=6,
        eole=eole_config(EOLEVariant.EOLE),
    )
    assert plain.stats.committed_loads == eole.stats.committed_loads
    assert plain.stats.committed_stores == eole.stats.committed_stores
    assert plain.stats.committed_branches == eole.stats.committed_branches
    assert plain.stats.committed_vp_eligible == eole.stats.committed_vp_eligible


@settings(max_examples=6, deadline=None)
@given(SEEDS)
def test_wider_machines_are_not_slower(seed):
    program = RandomProgramGenerator(seed).generate(body_ops=25)
    narrow = _simulate(program, issue_width=1, iq_size=16)
    wide = _simulate(program, issue_width=8, iq_size=64)
    assert wide.ipc >= narrow.ipc * 0.98


@settings(max_examples=6, deadline=None)
@given(SEEDS)
def test_offload_accounting_is_consistent(seed):
    program = RandomProgramGenerator(seed).generate(body_ops=25)
    result = _simulate(
        program, value_prediction=True, eole=eole_config(EOLEVariant.EOLE)
    )
    stats = result.stats
    offloaded = stats.early_executed + stats.late_executed_alu + stats.late_resolved_branches
    assert 0 <= offloaded <= stats.committed_uops
    assert stats.predictions_used <= stats.committed_vp_eligible
    assert abs(stats.offload_ratio - offloaded / stats.committed_uops) < 1e-9


@settings(max_examples=6, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3))
def test_value_prediction_accuracy_invariant(seed, scale):
    """Used predictions are overwhelmingly correct for any program (FPC's guarantee)."""
    program = RandomProgramGenerator(seed).generate(body_ops=10 * scale)
    result = _simulate(program, value_prediction=True)
    used = result.full_stats.predictions_used
    wrong = result.full_stats.value_mispredictions
    if used > 20:
        assert wrong / used < 0.1
