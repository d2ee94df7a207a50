"""Verification reports: correctness, format, and determinism."""

from __future__ import annotations

import re

import pytest

import bbplog.verify as verify_mod
from bbplog.errors import DomainError
from bbplog.numerics import FixedReal
from bbplog.verify import (
    GUARD_BITS,
    verify_corollary,
    verify_decomposition,
    verify_theorem,
)

REPORT_RE = re.compile(r"^REPORT \S+ passed=(true|false) bits=-?\d+ ms=\d+$")


@pytest.mark.slow
def test_corollary_at_100000_bits():
    # eval_P at 10**5 bits against the sqrt/log oracle and the spigot;
    # opt in with `pytest -m slow`
    report = verify_corollary(100_000)
    assert report.passed
    assert report.agreement_bits >= 100_000


def test_theorem_t1():
    report = verify_theorem(1, 300)
    assert report.passed
    assert report.agreement_bits >= 300
    assert report.subject == "theorem(t=1)"


def test_theorem_t2():
    report = verify_theorem(2, 200)
    assert report.passed


def test_theorem_rejects_t_zero():
    with pytest.raises(DomainError):
        verify_theorem(0, 100)


def test_corollary_small():
    report = verify_corollary(64)
    assert report.passed
    assert report.agreement_bits >= 64


def test_corollary_fails_when_oracle_interval_straddles_window_edge(monkeypatch):
    # a 2**-31 wide oracle interval still agrees with the series to ~31
    # bits, but its ends disagree on the 32 fraction bits the spigot is
    # checked against
    exact = verify_mod.golden_constant

    def wide(frac_bits):
        x = exact(frac_bits)
        return FixedReal(x.mantissa, frac_bits, 1 << (frac_bits - 32))

    monkeypatch.setattr(verify_mod, "golden_constant", wide)
    report = verify_corollary(16)
    assert report.agreement_bits >= 16
    assert not report.passed


def test_decomposition_report():
    report = verify_decomposition(2, 128)
    assert report.passed
    assert report.subject == "decomposition(t=2)"


@pytest.mark.parametrize("t", [1, -2, 50])
def test_every_check_kind_runs_at_guard_bits(t):
    # each check computes at target + GUARD_BITS and loses only a few bits
    # of that margin to rounding
    target = 1000
    for report in (
        verify_theorem(t, target),
        verify_corollary(target),
        verify_decomposition(t, target),
    ):
        assert report.agreement_bits >= target + GUARD_BITS - 16, report.line()


def test_report_line_format():
    for report in (verify_theorem(1, 128), verify_corollary(64)):
        assert REPORT_RE.match(report.line())


def test_agreement_reproducible_and_monotone():
    a = verify_theorem(3, 150)
    b = verify_theorem(3, 150)
    assert a.agreement_bits == b.agreement_bits
    higher = verify_theorem(3, 250)
    assert higher.passed  # raising the target must not break a passing check
    assert a.passed


def test_passed_iff_threshold_met():
    report = verify_theorem(1, 200)
    assert report.passed == (report.agreement_bits >= report.threshold)
