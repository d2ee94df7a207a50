"""The mutant table that CI runs: every row still applies to the source."""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = [
    line.split("\t")
    for line in (ROOT / "tests" / "mutants.txt").read_text(encoding="utf-8").splitlines()
    if line and not line.startswith("#")
]


@pytest.mark.skipif(shutil.which("sed") is None, reason="needs sed")
@pytest.mark.parametrize("row", range(len(ROWS)))
def test_mutant_row_applies_once(row, tmp_path):
    # the edit must change the module, and its pattern must find the one
    # edited line, as CI's mutant step requires
    module, edit, pattern, test_file = ROWS[row]
    source = ROOT / "src" / "bbplog" / module
    assert (ROOT / test_file).is_file()
    assert pattern not in source.read_text(encoding="utf-8")
    copy = tmp_path / module
    shutil.copy(source, copy)
    subprocess.run(["sed", "-i", edit, str(copy)], check=True)
    assert sum(pattern in line for line in copy.read_text(encoding="utf-8").splitlines()) == 1
