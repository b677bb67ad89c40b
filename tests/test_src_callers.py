"""Every function, method and attribute in ``src/repro`` has a reader in ``src/``.

Each fast path may keep one reference, and a test must compare the two; code that
only its own unit tests call, and state that nothing reads, leaves ``src/``.  This
test walks the AST of every ``src/repro`` module.  A *reference* to a method or
attribute is an attribute read (``x.name``) or an identifier-shaped string
constant (``getattr(x, "name")``); a module-level function is also referenced by
a name load (``name``).  A local variable therefore never stands in for a method
or attribute of the same name.  Docstrings, comments, ``__slots__`` entries and
``__all__`` entries reference nothing.  Each name has one import path, its
defining module: every package ``__init__.py`` holds only its docstring, so no
re-export can stand in for a reader.  Two checks:

1. every function and method is referenced somewhere in ``src/`` outside its own
   body (dunders, ``@abstractmethod``s and the ``EXEMPT_CLASSES`` are exempt);
2. every attribute stored on ``self`` or declared in ``__slots__`` is read
   somewhere in ``src/`` (``self.count += 1`` stores; it does not read).

A third check covers ``tests/`` too: every name a module in ``src/`` or ``tests/``
imports is loaded somewhere in that module.

What stays without a reader is listed in ``ALLOWED`` with a reason, and the test
checks the reason:

* ``reference: tests/<file>::<test>`` — that test names the function, directly or
  through a helper defined in its file, so it compares the reference with the path
  it shadows;
* ``perfbench`` — a ``perfbench/*.py`` file names it (the span wrappers);
* ``caller: <path>`` — that Python file, outside ``tests/``, names it;
* ``documented: docs/<file>.md`` — a code span in that file names it.

An entry whose name is gone, or that now has a reader in ``src/``, fails.

The search is by name, so any same-named reader of the same kind masks a
definition: a ``ReorderBuffer.push`` with no caller would pass because
``GlobalHistory.push`` is called.  The masked copies that existed when this guard
was written were removed by hand; new ones can only be found by reading the code.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass, field
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
TESTS = REPO / "tests"

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")

#: Classes whose methods are exempt from check 1, with the reason.
EXEMPT_CLASSES = {
    "isa.builder.ProgramBuilder": (
        "one emitter per ISA opcode; tests/isa/test_emulator.py drives MIN, MAX and "
        "NOT through them"
    ),
}

_GALLERY = "caller: examples/workload_gallery.py"
_TRAINING = (
    "reference: tests/vp/test_training_entry_points.py::"
    "test_commit_group_training_matches_validate_and_train"
)
_TAGE = (
    "reference: tests/bpu/test_tage.py::TestHashReferences::"
    "test_prediction_folds_rederive_the_reference_hashes"
)
_VTAGE = "reference: tests/vp/test_vtage.py::TestVTAGE::test_record_carries_provider_information"

#: Qualified name (module path under ``repro``, then class and member) → why it stays.
ALLOWED = {
    "analysis.report.ExperimentResult.series_by_label": "caller: examples/issue_width_study.py",
    "analysis.report.format_table": "caller: examples/issue_width_study.py",
    "analysis.runner.run_suite": "documented: docs/campaign.md",
    "analysis.runner.run_workload": "caller: examples/quickstart.py",
    "bpu.tage.TAGEBranchPredictor._tagged_index": _TAGE,
    "bpu.tage.TAGEBranchPredictor._tagged_tag": _TAGE,
    "bpu.unit.BranchPredictionUnit.train_commit_group_columns": "perfbench",
    "campaign.store.ResultStore.invalidate": "documented: docs/campaign.md",
    "campaign.store.ResultStore.merge": "documented: docs/campaign.md",
    "isa.trace.TraceStatistics.branch_ratio": _GALLERY,
    "isa.trace.TraceStatistics.class_ratio": _GALLERY,
    "isa.trace.TraceStatistics.memory_ratio": _GALLERY,
    "isa.trace.TraceStatistics.vp_eligible_ratio": _GALLERY,
    "isa.trace.characterize": _GALLERY,
    "ooo.inflight.InflightOpPool.retire": (
        "reference: tests/pipeline/test_commit_reference.py::"
        "test_fused_commit_matches_reference_methods"
    ),
    "trace.cache.TraceCache.trace_for_many": "perfbench",
    "trace.encoding.CapturedTrace.instructions": "perfbench",
    "trace.encoding.CapturedTrace.replay": _GALLERY,
    "vp.base.PredictorStatistics.record_lookup": _TRAINING,
    "vp.base.PredictorStatistics.record_outcome": _TRAINING,
    "vp.base.ValuePredictor.train_commit_group_columns": "perfbench",
    "vp.confidence.DeterministicRandom.chance": (
        "reference: tests/vp/test_confidence.py::TestInlineDrawsMatchNextU64::"
        "test_allows_increment_matches_reference"
    ),
    "vp.vtage.VTAGEPredictor._tagged_index": _VTAGE,
    "vp.vtage.VTAGEPredictor._tagged_tag": _VTAGE,
    "workloads.suite.Workload.paper_benchmark": "caller: examples/quickstart.py",
    "workloads.suite.fast_workloads": "caller: examples/issue_width_study.py",
}


def _is_str(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _docstrings(tree: ast.Module) -> set[int]:
    """``id``s of the docstring constants of a module, its classes and functions."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if _is_str(body[0].value):
                docstrings.add(id(body[0].value))
    return docstrings


def _assigns(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == name for target in node.targets
    )


def _is_abstract(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        getattr(decorator, "id", getattr(decorator, "attr", None)) == "abstractmethod"
        for decorator in function.decorator_list
    )


@dataclass
class Index:
    """Definitions and readers of every name in a set of modules."""

    classes: set[str] = field(default_factory=set)
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(default_factory=dict)
    attributes: dict[str, str] = field(default_factory=dict)
    #: name → qualified names of the outermost functions reading it ("" outside
    #: any), through an attribute read or an identifier string.
    readers: dict[str, set[str]] = field(default_factory=dict)
    #: The same for name loads, which only module-level functions count.
    name_readers: dict[str, set[str]] = field(default_factory=dict)

    def add_module(self, module: str, tree: ast.Module) -> None:
        self._visit(tree, module, None, "", _docstrings(tree))

    def _visit(self, node, scope: str, cls: str | None, function: str, docstrings) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qual = f"{scope}.{child.name}"
                self.classes.add(qual)
                self._visit(child, qual, qual, function, docstrings)
                continue
            if cls and _assigns(child, "__slots__"):
                # Declarations, not references.
                for slot in ast.walk(child.value):
                    if _is_str(slot):
                        self.attributes[f"{cls}.{slot.value}"] = slot.value
                continue
            if _assigns(child, "__all__"):
                # A re-export list names what it exports; it reads nothing.
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{scope}.{child.name}"
                if not function:
                    self.functions[qual] = child
                self._visit(child, qual, cls, function or qual, docstrings)
                continue
            name = None
            readers = self.readers
            if isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Load):
                    name = child.attr
                elif cls and isinstance(child.value, ast.Name) and child.value.id == "self":
                    self.attributes.setdefault(f"{cls}.{child.attr}", child.attr)
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
                readers = self.name_readers
            elif _is_str(child) and id(child) not in docstrings and _IDENTIFIER.match(child.value):
                name = child.value
            if name is not None:
                readers.setdefault(name, set()).add(function)
            self._visit(child, scope, cls, function, docstrings)

    def _function_readers(self, qual: str, name: str) -> set[str]:
        readers = self.readers.get(name, set())
        if qual.rsplit(".", 1)[0] in self.classes:
            return readers
        return readers | self.name_readers.get(name, set())

    def unreferenced_functions(self) -> set[str]:
        return {
            qual
            for qual, node in self.functions.items()
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and not _is_abstract(node)
            and qual.rsplit(".", 1)[0] not in EXEMPT_CLASSES
            and not self._function_readers(qual, node.name) - {qual}
        }

    def unread_attributes(self) -> set[str]:
        return {qual for qual, name in self.attributes.items() if name not in self.readers}


@functools.cache
def _src_index() -> Index:
    index = Index()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        index.add_module(module.removesuffix(".__init__"), ast.parse(path.read_text()))
    return index


def _identifiers(node: ast.AST) -> set[str]:
    """Names a piece of code reads, attributes it loads and identifier strings."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif _is_str(child) and _IDENTIFIER.match(child.value):
            found.add(child.value)
    return found


def _test_names(path: Path, test: list[str], name: str) -> bool:
    """True if ``test`` in ``path`` names ``name``, directly or through helpers of
    that file (top-level functions and classes it uses, transitively)."""
    tree = ast.parse(path.read_text())
    top = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    node = top.get(test[0])
    for part in test[1:]:
        node = next((n for n in getattr(node, "body", ()) if getattr(n, "name", "") == part), None)
    if node is None or not test[-1].startswith("test"):
        return False
    seen, todo, names = {test[0]}, [node], set()
    while todo:
        found = _identifiers(todo.pop())
        names |= found
        for helper in found & top.keys() - seen:
            seen.add(helper)
            todo.append(top[helper])
    return name in names


def reason_problem(qual: str, reason: str) -> str | None:
    """Why ``reason`` does not hold for ``qual``, or ``None`` if it does."""
    name = qual.rsplit(".", 1)[1]
    kind, _, where = reason.partition(": ")
    if reason == "perfbench":
        if any(name in _identifiers(ast.parse(p.read_text())) for p in REPO.glob("perfbench/*.py")):
            return None
        return "no perfbench/*.py file names it"
    if kind == "reference":
        path, _, test = where.partition("::")
        if not (path.startswith("tests/") and test and (REPO / path).is_file()):
            return f"malformed reference {where!r}"
        if _test_names(REPO / path, test.split("::"), name):
            return None
        return f"{where} does not name {name}"
    if kind == "caller":
        if where.startswith("tests/") or not where.endswith(".py") or not (REPO / where).is_file():
            return f"a caller must be a Python file outside tests/, not {where!r}"
        if name in _identifiers(ast.parse((REPO / where).read_text())):
            return None
        return f"{where} does not name {name}"
    if kind == "documented":
        if not (where.startswith("docs/") and where.endswith(".md") and (REPO / where).is_file()):
            return f"documentation must be a docs/*.md file, not {where!r}"
        if re.search(rf"`[^`\n]*\b{re.escape(name)}\b[^`\n]*`", (REPO / where).read_text()):
            return None
        return f"no code span in {where} names {name}"
    return f"unknown reason {reason!r}"


def test_scope_is_not_empty():
    index = _src_index()
    assert len(index.functions) > 500
    assert len(index.attributes) > 300


def test_every_function_has_a_reader_in_src():
    assert sorted(_src_index().unreferenced_functions() - ALLOWED.keys()) == []


def test_every_attribute_is_read_in_src():
    assert sorted(_src_index().unread_attributes() - ALLOWED.keys()) == []


def test_package_inits_hold_only_a_docstring():
    for path in sorted(SRC.rglob("__init__.py")):
        text = path.read_text()
        body = ast.parse(text).body
        assert len(body) == 1 and isinstance(body[0], ast.Expr) and _is_str(body[0].value), (
            f"{path} holds code"
        )
        assert (body[0].lineno, body[0].end_lineno) == (1, len(text.rstrip("\n").splitlines())), (
            f"{path} holds more than its docstring"
        )
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        assert not any(_assigns(node, "__all__") for node in ast.walk(tree)), (
            f"{path} assigns __all__"
        )


def unused_imports(tree: ast.Module) -> set[str]:
    """Names ``tree`` imports (``__future__`` features aside) and never loads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - loaded


def test_every_import_is_used():
    unused = {
        f"{path.relative_to(REPO)}: {name}"
        for path in [*SRC.rglob("*.py"), *TESTS.rglob("*.py")]
        for name in unused_imports(ast.parse(path.read_text()))
    }
    assert sorted(unused) == []


def test_exempt_classes_exist():
    assert set(EXEMPT_CLASSES) <= _src_index().classes


@pytest.mark.parametrize("qual", sorted(ALLOWED))
def test_allowed_entry_is_needed_and_its_reason_holds(qual):
    index = _src_index()
    assert qual in index.functions or qual in index.attributes, f"{qual} is gone"
    assert qual in index.unreferenced_functions() | index.unread_attributes(), (
        f"{qual} now has a reader in src/"
    )
    assert reason_problem(qual, ALLOWED[qual]) is None


def test_detector_sees_unread_code():
    index = Index()
    index.add_module(
        "m",
        ast.parse(
            "from abc import abstractmethod\n"
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def recursive(n):\n"
            "    '''recursive'''\n"
            "    return recursive(n - 1)\n"
            "def helper(): pass\n"
            "class C:\n"
            "    __slots__ = ('kept', 'slot_only')\n"
            "    def __init__(self, total):\n"
            "        self.kept = 0\n"
            "        self.count = 0\n"
            "        self.total = total\n"
            "        self.read = getattr(self, 'kept')\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
            "    @abstractmethod\n"
            "    def hook(self): ...\n"
            "    def masked(self): pass\n"
            "    def uses(self):\n"
            "        masked = helper()\n"
            "        return self.bump(), self.read, masked\n"
        ),
    )
    # A local variable or parameter named like a method or attribute reads
    # neither; a name load does read a module-level function.
    assert index.unreferenced_functions() == {
        "m.exported", "m.recursive", "m.C.masked", "m.C.uses"
    }
    assert index.unread_attributes() == {"m.C.slot_only", "m.C.count", "m.C.total"}


def test_detector_sees_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from array import array\n"
        "from itertools import chain, islice as take\n"
        "def f(x: array) -> None:\n"
        "    return take(x, 1)\n"
        "unused_store = chain\n"
    )
    assert unused_imports(tree) == {"os", "codec"}


def test_reason_checks_reject_what_they_cannot_confirm():
    reference = "reference: tests/vp/test_vtage.py::TestVTAGE::test_record_carries_provider_information"
    assert reason_problem("vp.vtage.VTAGEPredictor._tagged_tag", reference) is None
    assert reason_problem("vp.vtage.VTAGEPredictor.missing", reference) is not None
    assert reason_problem("x.C.merge", "documented: docs/campaign.md") is None
    assert reason_problem("x.C.not_a_documented_name", "documented: docs/campaign.md") is not None
    assert reason_problem("x.C.replay", "caller: tests/conftest.py") is not None
    assert reason_problem("x.C.trace_for_many", "perfbench") is None
    assert reason_problem("x.C.trace_for_many", "used somewhere") is not None
