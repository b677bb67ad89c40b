"""The issue stage the simulator runs is the issue queue the tests check.

``tests/ooo`` proves the wake-up queue right in isolation (and equal to the scan
reference of ``tests/oracles.py``); that only covers production if the simulator
drives the same methods rather than an inlined copy.  Two guards keep it so:

* a short cell per queue counts calls to the queue class's issue-stage methods,
  and every insertion the pipeline counts must be an ``insert`` call;
* ``pipeline/simulator.py`` reads no private attribute of the queue, and names
  the queue class only where it builds the queue.
"""

import ast
from pathlib import Path

import pytest

import repro.pipeline.simulator as simulator_module
from repro.ooo.issue_queue import WakeupIssueQueue
from repro.pipeline.config import named_config
from repro.pipeline.simulator import Simulator
from repro.workloads.suite import workload
from tests.conftest import replay_trace
from tests.oracles import ScanIssueQueue, use_oracles

#: Queue -> (queue class, methods the issue stage must call).
QUEUES = {
    "wakeup": (
        WakeupIssueQueue, ("insert", "select_ready", "next_scan_cycle", "producer_available")
    ),
    "scan": (ScanIssueQueue, ("insert", "select_ready", "next_scan_cycle")),
}


@pytest.mark.parametrize("queue", list(QUEUES))
@pytest.mark.parametrize("config_name", ["EOLE_4_64", "Baseline_6_64"])
def test_simulator_drives_the_queue_it_builds(config_name, queue, monkeypatch):
    use_oracles(monkeypatch, queue=queue == "scan")
    queue_class, methods = QUEUES[queue]
    calls = dict.fromkeys(methods, 0)
    for name in methods:
        original = getattr(queue_class, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(queue_class, name, counted)
    config, wl = named_config(config_name), workload("gcc")
    trace = replay_trace(config, wl.program, 1500, wl.make_state())
    simulator = Simulator(config, trace, max_uops=1500, warmup_uops=300)
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
    """``queue_class`` is read only in ``__init__``, which builds the queue from
    it, and no function names a queue class or stores an attribute derived from
    it (a flavour flag) other than ``iq``."""
    functions = [
        node
        for node in ast.walk(_simulator_tree())
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    uses = {
        function.name
        for function in functions
        for node in ast.walk(function)
        if (isinstance(node, ast.Attribute) and node.attr == "queue_class")
        or (isinstance(node, ast.Name) and node.id.endswith("IssueQueue"))
    }
    assert uses == {"__init__"}, uses
    init = next(function for function in functions if function.name == "__init__")
    derived = {
        target.attr
        for node in ast.walk(init)
        if isinstance(node, ast.Assign)
        and any(
            isinstance(name, ast.Attribute) and name.attr == "queue_class"
            for name in ast.walk(node.value)
        )
        for target in node.targets
        if isinstance(target, ast.Attribute)
    }
    assert derived == {"iq"}, derived
