"""Every speed figure has one home, a row of ``tests/bench_layers.py``.

README, the ``bbplog.cli`` docstring and ``extract_bits``' docstring
state no timing of their own: a figure there would be a second,
hand-copied home that no one re-runs.
Each row they cite as ``BENCH row `<name>` `` (or ``BENCH rows `a`,
`b` and `c` ``) must be a row of the tool and of the newest committed
``BENCH_*.json``, and each cost cap that ``bbplog.cli`` defines must
cite at least one.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

import bbplog.cli
import bbplog.spigot
from bench_layers import _rows

ROOT = Path(__file__).resolve().parent.parent
DOCS = {
    "README.md": (ROOT / "README.md").read_text(encoding="utf-8"),
    "bbplog.cli": bbplog.cli.__doc__,
    "bbplog.spigot.extract_bits": bbplog.spigot.extract_bits.__doc__,
}
_TIMING = re.compile(r"\d (s|ms|µs|us)\b")
_CITATION = re.compile(r"BENCH rows? ((?:`[^`]+`(?:, and |, | and )?)+)")


def _citations(text: str) -> list[str]:
    # a citation may wrap across lines, and a docstring indents them
    flat = " ".join(text.split())
    return [name for group in _CITATION.findall(flat) for name in re.findall(r"`([^`]+)`", group)]


def _newest_bench() -> Path:
    return max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.partition("_")[2]))


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_no_speed_figure_outside_the_bench(doc):
    assert [m.group(0) for m in _TIMING.finditer(DOCS[doc])] == []


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_every_cited_bench_row_is_a_row(doc):
    cited = _citations(DOCS[doc])
    assert cited, f"{doc} cites no BENCH row"
    tool = {name for name, _, _ in _rows(quick=True)}
    with open(_newest_bench(), encoding="utf-8") as f:
        recorded = {row["name"] for row in json.load(f)["rows"]}
    assert [name for name in cited if name not in tool] == []
    assert [name for name in cited if name not in recorded] == []


def test_every_cost_cap_cites_a_bench_row():
    # the caps are the MAX_* constants cli defines; each is named in a
    # bullet of the docstring's cost-cap section that cites a row
    tree = ast.parse(Path(bbplog.cli.__file__).read_text(encoding="utf-8"))
    caps = {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name) and t.id.startswith("MAX_")}
    section = bbplog.cli.__doc__.partition("Cost caps")[2]
    bullets = [" ".join(b.split()) for b in section.split("\n- ")[1:]]
    uncited = {cap for cap in caps if not any(re.search(rf"\b{cap}\b", b) and _citations(b) for b in bullets)}
    assert caps
    assert uncited == set()
