"""The issue stage the simulator runs is the issue queue the tests check.

``tests/ooo`` proves each queue flavour right in isolation (and the wake-up queue
equal to the scan reference); that only covers production if the simulator
drives the same methods rather than an inlined copy.  Two guards keep it so:

* a short cell per flavour counts calls to the queue class's issue-stage
  methods, and every insertion the pipeline counts must be an ``insert`` call;
* ``pipeline/simulator.py`` reads no private attribute of the queue, and names
  the queue classes only where it builds the queue.
"""

import ast
from pathlib import Path

import pytest

import repro.pipeline.simulator as simulator_module
from repro.ooo.issue_queue import WAKEUP_ENV_VAR, IssueQueue, WakeupIssueQueue
from repro.pipeline.config import named_config
from repro.pipeline.simulator import Simulator
from repro.workloads.suite import workload

#: REPRO_WAKEUP_LISTS value -> (queue class, methods the issue stage must call).
FLAVOURS = {
    "1": (WakeupIssueQueue, ("insert", "select_ready", "next_scan_cycle", "producer_available")),
    "0": (IssueQueue, ("insert", "select_ready", "next_scan_cycle")),
}


@pytest.mark.parametrize("wakeup", list(FLAVOURS), ids=["wakeup", "scan"])
@pytest.mark.parametrize("config_name", ["EOLE_4_64", "Baseline_6_64"])
def test_simulator_drives_the_queue_it_builds(config_name, wakeup, monkeypatch):
    monkeypatch.setenv(WAKEUP_ENV_VAR, wakeup)
    queue_class, methods = FLAVOURS[wakeup]
    calls = dict.fromkeys(methods, 0)
    for name in methods:
        original = getattr(queue_class, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(queue_class, name, counted)
    wl = workload("gcc")
    simulator = Simulator(
        named_config(config_name),
        wl.program,
        max_uops=1500,
        warmup_uops=300,
        arch_state=wl.make_state(),
        workload_name=wl.name,
    )
    assert type(simulator.iq) is queue_class
    simulator.run()
    assert all(calls.values()), calls
    assert calls["insert"] == simulator.stats.dispatched_to_iq


def _simulator_tree() -> ast.Module:
    return ast.parse(Path(simulator_module.__file__).read_text(encoding="utf-8"))


def test_simulator_reads_no_private_queue_attribute():
    tree = _simulator_tree()

    def is_queue(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "iq") or (
            isinstance(node, ast.Name) and node.id in aliases
        )

    # Locals bound to the queue (``iq = self.iq``) count as the queue.
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "iq"
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    private_reads = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and is_queue(node.value)
    )
    assert private_reads == []


def test_queue_flavour_is_decided_only_where_the_queue_is_built():
    """The queue classes and the flavour switch appear only in ``__init__``, and
    no attribute it derives from them (a flavour flag) is read anywhere else."""
    flavour_names = {"IssueQueue", "WakeupIssueQueue", "wakeup_lists_enabled"}
    functions = [
        node
        for node in ast.walk(_simulator_tree())
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    uses = {
        function.name
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id in flavour_names
    }
    assert uses == {"__init__"}, uses
    init = next(function for function in functions if function.name == "__init__")
    flags = {
        target.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Assign)
        and any(
            isinstance(name, ast.Name) and name.id in flavour_names
            for name in ast.walk(node.value)
        )
        for target in node.targets
        if isinstance(target, ast.Attribute) and target.attr != "iq"
    }
    reads = sorted(
        (function.name, node.attr)
        for function in functions
        if function is not init
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr in flags
    )
    assert reads == []
