"""Every ``REPRO_*`` switch read under ``src/`` is declared in docs/campaign.md.

The knob table in docs/campaign.md is the single inventory of environment
switches, each tagged with its role (deployment setting, differential oracle,
opt-in observability).  A switch added to the source without a table row — or a
row left behind after its switch is deleted — fails here.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_LITERAL = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
_TABLE_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|\s*([^|]+?)\s*\|", re.MULTILINE)

ROLES = {"deployment setting", "differential oracle", "opt-in observability"}


def _source_switches() -> set[str]:
    found: set[str] = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        found.update(_LITERAL.findall(path.read_text(encoding="utf-8")))
    return found


def _table_rows() -> dict[str, str]:
    text = (REPO_ROOT / "docs" / "campaign.md").read_text(encoding="utf-8")
    return dict(_TABLE_ROW.findall(text))


def test_knob_table_lists_exactly_the_switches_the_source_reads():
    assert set(_table_rows()) == _source_switches()


def test_every_knob_has_one_known_role():
    rows = _table_rows()
    assert rows
    assert {name: role for name, role in rows.items() if role not in ROLES} == {}
