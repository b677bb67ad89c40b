"""No hot path loads an ``Opcode``/``OpClass`` member per call.

On CPython 3.11 ``op is Opcode.ADD`` costs ~200 ns against ~27 ns for a plain
global, and ``op in (Opcode.LD, Opcode.FLD)`` ~460 ns, so the per-µ-op and
per-branch paths resolve members once, at import or at decode time.  This test
walks the AST: a member load inside a function body of the listed code fails
it.  Module-level tables (``_CLASS_GROUP``, ``_DISPATCH_KIND``, ...) are exempt,
and so is ``Emulator.step``, the reference the batched loop is compared with.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ENUMS = {"Opcode", "OpClass"}

#: Modules whose every function body is checked.
WHOLE_MODULES = sorted(
    [
        SRC / "bpu" / "unit.py",
        SRC / "pipeline" / "simulator.py",
        *(SRC / "ooo").glob("*.py"),
        *(SRC / "core").glob("*.py"),
        *(SRC / "vp").glob("*.py"),
    ]
)

#: Module → the functions checked in it.
SELECTED_FUNCTIONS = {SRC / "isa" / "emulator.py": ("run_batch", "_build_decode_table")}


def _enum_names(tree: ast.Module) -> set[str]:
    """``Opcode``/``OpClass`` and every local alias they are imported under."""
    names = set(ENUMS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(
                alias.asname for alias in node.names if alias.name in ENUMS and alias.asname
            )
    return names


def _member_loads(function: ast.AST, names: set[str]) -> list[str]:
    """``Enum.MEMBER`` loads anywhere in ``function``, as ``"line: Enum.MEMBER"``."""
    found = []
    for node in ast.walk(function):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        owner = node.value
        owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
        if owner_name in names or owner_name in ENUMS:
            found.append(f"{node.lineno}: {owner_name}.{node.attr}")
    return found


def _functions(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """The outermost function definitions of a module, methods included."""
    functions = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append(child)
            elif isinstance(child, ast.ClassDef):
                visit(child)

    visit(tree)
    return functions


def _violations(path: Path, selected: tuple[str, ...] | None) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _enum_names(tree)
    functions = _functions(tree)
    if selected is not None:
        functions = [f for f in functions if f.name in selected]
        assert sorted(f.name for f in functions) == sorted(selected), path
    return [
        f"{path.relative_to(SRC)}:{load} in {function.name}()"
        for function in functions
        for load in _member_loads(function, names)
    ]


def test_scope_is_not_empty():
    assert len(WHOLE_MODULES) > 10
    assert all(path.is_file() for path in [*WHOLE_MODULES, *SELECTED_FUNCTIONS])


@pytest.mark.parametrize("path", WHOLE_MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_member_loads_in_module_functions(path):
    assert _violations(path, None) == []


@pytest.mark.parametrize("path", sorted(SELECTED_FUNCTIONS), ids=lambda p: str(p.relative_to(SRC)))
def test_no_member_loads_in_batched_capture(path):
    assert _violations(path, SELECTED_FUNCTIONS[path]) == []


def test_detector_sees_member_loads():
    tree = ast.parse(
        "from repro.isa.opcode import OpClass as K\n"
        "import repro.isa.opcode as op\n"
        "TABLE = {K.LOAD: 1}\n"
        "class A:\n"
        "    def f(self, x):\n"
        "        return x is K.LOAD or x is op.Opcode.ADD\n"
        "def g(x):\n"
        "    return x.opclass\n"
    )
    names = _enum_names(tree)
    loads = {f.name: _member_loads(f, names) for f in _functions(tree)}
    assert loads == {"f": ["6: K.LOAD", "6: Opcode.ADD"], "g": []}
