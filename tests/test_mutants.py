"""The mutant table: every row still applies to the source, and (slow)
every row's test file fails on a copy of src with that row's edit.

Run the kill check alone with ``pytest -m slow tests/test_mutants.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = [
    line.split("\t")
    for line in (ROOT / "tests" / "mutants.txt").read_text(encoding="utf-8").splitlines()
    if line and not line.startswith("#")
]
needs_sed = pytest.mark.skipif(shutil.which("sed") is None, reason="needs sed")
# a kill takes seconds; a mutant that makes its test file hang (a
# _truncation mutant ran test_formula.py past 900 s) fails its row here
KILL_TIMEOUT_S = 120


def _apply(edit: str, pattern: str, module: Path) -> None:
    """Run the sed edit on ``module``; its pattern must find the one edited line."""
    subprocess.run(["sed", "-i", edit, str(module)], check=True)
    assert sum(pattern in line for line in module.read_text(encoding="utf-8").splitlines()) == 1


def test_mutant_table_has_rows():
    assert ROWS


@needs_sed
@pytest.mark.parametrize("row", range(len(ROWS)))
def test_mutant_row_applies_once(row, tmp_path):
    # the edit must change the module, and its pattern must find the one
    # edited line
    module, edit, pattern, test_file = ROWS[row]
    source = ROOT / "src" / "bbplog" / module
    assert (ROOT / test_file).is_file()
    assert pattern not in source.read_text(encoding="utf-8")
    copy = tmp_path / module
    shutil.copy(source, copy)
    _apply(edit, pattern, copy)


@pytest.mark.slow
@needs_sed
@pytest.mark.parametrize("row", range(len(ROWS)))
def test_mutant_row_is_killed(row, tmp_path):
    # the row's test file, run on the mutated copy alone, must report
    # failed tests: pytest exit status 1, not a pass, an error or a hang.
    # It stops at the first failure (-x)
    module, edit, pattern, test_file = ROWS[row]
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    _apply(edit, pattern, copy / "bbplog" / module)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_file],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(copy)),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=KILL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{test_file} ran past {KILL_TIMEOUT_S} s on the mutant")
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
