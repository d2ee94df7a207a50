"""Verification reports: correctness, format, and determinism."""

from __future__ import annotations

import re

import pytest

import bbplog.verify as verify_mod
from bbplog.errors import DomainError, ValidationError
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


@pytest.mark.slow
def test_theorem_t1_at_100000_bits():
    # the left side's log argument (1+x)/(1-x) ~ 17.9 lies in [2**4, 2**5),
    # so fx_log takes bitlen(4) = 3 more square roots than for golden
    report = verify_theorem(1, 100_000)
    assert report.passed
    assert report.agreement_bits >= 100_000


@pytest.mark.slow
@pytest.mark.parametrize("t", [1, -50])
def test_decomposition_at_100000_bits(t):
    # one log of the quotient of the radicand products against the left
    # side's own log; t = 1 has the smallest radicand, t = -50 the smallest |q|
    report = verify_decomposition(t, 100_000)
    assert report.passed
    assert report.agreement_bits >= 100_000


# agreement bits of verify_theorem and verify_decomposition at 1000 bits,
# recorded when fx_log still split off n*ln 2 with a cached ln 2; every
# check passed, theorem read 1085 throughout and decomposition 1083 for
# every t not listed here.  t = -4, 6, 10 and 12 read 1082 until the right
# side took one log of a quotient instead of four logs, and gained a bit.
DECOMPOSITION_BITS_AT_1000 = {
    **dict.fromkeys((-3, -2, 2, 3, 4, 5), 1082),
    -1: 1081,
    1: 1081,
}


def test_theorem_and_decomposition_match_recorded_lines():
    for t in [*range(-50, 0), *range(1, 51)]:
        theorem = verify_theorem(t, 1000)
        decomposition = verify_decomposition(t, 1000)
        assert (theorem.passed, theorem.agreement_bits) == (True, 1085), t
        expected = DECOMPOSITION_BITS_AT_1000.get(t, 1083)
        assert (decomposition.passed, decomposition.agreement_bits) == (True, expected), t


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


@pytest.mark.parametrize("bits", [0, -5, -100])
def test_checks_reject_targets_below_one_bit(bits):
    checks = (
        lambda: verify_theorem(1, bits),
        lambda: verify_corollary(bits),
        lambda: verify_decomposition(1, bits),
    )
    for check in checks:
        with pytest.raises(ValidationError, match="target_bits"):
            check()


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
