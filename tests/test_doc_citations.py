"""Every Markdown document the code cites exists.

Module docstrings point readers at design documents (``DESIGN.md §5``,
``docs/performance.md``); a citation of a file that is not in the repository
is a dead end.  Paths are relative to the repository root.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_CITATION = re.compile(r"(?<![\w/.-])((?:[\w-]+/)*[\w-]+\.md)\b")


def _citations() -> list[tuple[str, str]]:
    found = []
    for top in ("src", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for cited in _CITATION.findall(path.read_text(encoding="utf-8")):
                found.append((str(path.relative_to(REPO_ROOT)), cited))
    return found


def test_every_cited_markdown_document_exists():
    citations = _citations()
    assert citations
    missing = [
        f"{source} cites {cited}"
        for source, cited in citations
        if not (REPO_ROOT / cited).is_file()
    ]
    assert missing == []
