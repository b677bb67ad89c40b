"""Every atomic publish and advisory lock under ``src/`` goes through ``repro.durable``.

The fleet's crash safety rests on two primitives: a staged, fsynced file moved
over its target with ``os.replace``, and an ``flock`` held on a ``.lock``
sidecar.  :mod:`repro.durable` holds the one copy of each.  A module that calls
``mkstemp``, ``fsync``, ``os.replace`` or ``flock`` itself fails here, so a new
writer cannot grow its own variant with different crash behaviour.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: The module allowed to use the primitives, relative to ``src/``.
DURABLE = Path("repro") / "durable.py"

#: Names that are a durable-write primitive wherever they appear.
PRIMITIVES = {"mkstemp", "fsync", "flock"}


def _uses(tree: ast.AST) -> set[str]:
    """The primitives ``tree`` references, as code (strings and comments ignored)."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in PRIMITIVES:
                found.add(node.attr)
            elif (
                node.attr == "replace"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                found.add("os.replace")
        elif isinstance(node, ast.Name) and node.id in PRIMITIVES:
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            found.update(names & PRIMITIVES)
            if node.module == "os" and "replace" in names:
                found.add("os.replace")
    return found


def _sites() -> dict[Path, set[str]]:
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        used = _uses(ast.parse(path.read_text(encoding="utf-8")))
        if used:
            sites[path.relative_to(SRC)] = used
    return sites


def test_primitives_appear_only_in_the_durable_module():
    assert _sites() == {DURABLE: PRIMITIVES | {"os.replace"}}
