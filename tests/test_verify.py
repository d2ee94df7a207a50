"""Verification reports: correctness, format, and determinism."""

from __future__ import annotations

import decimal
import hashlib
import re
from fractions import Fraction

import pytest

import bbplog.family as family_mod
import bbplog.numerics as numerics_mod
import bbplog.verify as verify_mod
from bbplog.errors import DomainError, PrecisionError, ValidationError
from bbplog.numerics import FixedReal, agreement_bits, fx_sqrt
from bbplog.spigot import DigitWindow
from bbplog.verify import (
    GUARD_BITS,
    verify_corollary,
    verify_decomposition,
    verify_theorem,
)

from _oracles import atanh_sqrt5_gap_decimal, li1_decomposition_sides, li1_radicands_decimal

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
    # the cross products of the two sides' log arguments; t = 1 has the
    # smallest radicand, t = -50 the smallest |q|
    report = verify_decomposition(t, 100_000)
    assert report.passed
    assert report.agreement_bits >= 100_000


# agreement bits of verify_theorem and verify_decomposition at 1000 bits;
# every check passes, theorem reads 1085 throughout and decomposition 1086
# for every t not listed here.  The decomposition's bits come from the
# mean-value bound on the cross products of its two log arguments.
DECOMPOSITION_BITS_AT_1000 = {
    **dict.fromkeys((-34, -4, -3, -2, 2, 4, 5), 1085),
    -1: 1084,
    1: 1083,
}


def test_theorem_and_decomposition_match_recorded_lines():
    for t in [*range(-50, 0), *range(1, 51)]:
        theorem = verify_theorem(t, 1000)
        decomposition = verify_decomposition(t, 1000)
        assert (theorem.passed, theorem.agreement_bits) == (True, 1085), t
        expected = DECOMPOSITION_BITS_AT_1000.get(t, 1086)
        assert (decomposition.passed, decomposition.agreement_bits) == (True, expected), t


# SHA-256 of every REPORT line without its ms= field, one line each, of
# the corollary and then theorem and decomposition for t = -50..-1, 1..50,
# at 200, 1000 and 3000 bits in turn.  Any change to the arithmetic that
# moves one verdict or agreement count changes it.
REPORT_DIGEST = "bfd0095da08a84bc8367731f35de4e74bcc3eab7c7a12220e2d83371b7eb1860"


def test_report_lines_match_recorded_digest():
    digest = hashlib.sha256()
    for bits in (200, 1000, 3000):
        reports = [verify_corollary(bits)]
        for t in [*range(-50, 0), *range(1, 51)]:
            reports += [verify_theorem(t, bits), verify_decomposition(t, bits)]
        for report in reports:
            digest.update(re.sub(r" ms=\d+$", "\n", report.line()).encode())
    assert digest.hexdigest() == REPORT_DIGEST


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


def test_corollary_fails_on_a_window_certified_short_of_32_bits(monkeypatch):
    # golden's true first 32 bits, certified only to 31: the window must not
    # pass the cross-check on its bits alone
    real = verify_mod.extract_bits

    def short(plan, n, count):
        return DigitWindow(real(plan, n, count).bits, count - 1)

    monkeypatch.setattr(verify_mod, "extract_bits", short)
    report = verify_corollary(64)
    assert report.agreement_bits >= 64
    assert not report.passed


def test_decomposition_refuses_a_quotient_interval_that_reaches_zero(monkeypatch):
    # C = 16t^4 R_1 R_3 keeps its positive mantissa, but its error reaches
    # 0: so does the interval of the cross product it enters, where the
    # mean-value bound has no lower end
    real = verify_mod._radicand_products

    def reaching_zero(t, s5):
        e, c = real(t, s5)
        return e, FixedReal(c.mantissa, c.frac_bits, c.mantissa)

    monkeypatch.setattr(verify_mod, "_radicand_products", reaching_zero)
    with pytest.raises(PrecisionError, match="reaches zero"):
        verify_decomposition(1, 64)


def test_decomposition_report():
    report = verify_decomposition(2, 128)
    assert report.passed
    assert report.subject == "decomposition(t=2)"


def test_decomposition_check_takes_no_log(monkeypatch):
    # the check compares the arguments of the two sides' logs
    calls = []

    def counting(real):
        def wrapper(x):
            calls.append(real)
            return real(x)

        return wrapper

    # verify builds the check; a log it imported by name would bypass numerics
    for name in ("fx_log", "fx_atanh"):
        wrapped = counting(getattr(numerics_mod, name))
        for mod in (numerics_mod, family_mod, verify_mod):
            monkeypatch.setattr(mod, name, wrapped, raising=False)
    for t in (1, -1, 7):
        assert verify_decomposition(t, 1000).passed
    assert calls == []


@pytest.mark.parametrize("bits", [200, 1000])
def test_decomposition_reads_no_lower_than_its_two_logs(bits):
    # the two-log reference takes both logs; their agreement_bits is what
    # the check's bound on the log arguments must reach
    for t in [*range(-50, 0), *range(1, 51)]:
        lhs, rhs = li1_decomposition_sides(t, bits + GUARD_BITS)
        assert verify_decomposition(t, bits).agreement_bits >= agreement_bits(lhs, rhs), t


@pytest.mark.parametrize("work", [*range(1, 65), 1088])
def test_decomposition_radicands_hold_the_half_angle_oracle(monkeypatch, work):
    # the library multiplies the radicands out in pairs over sqrt(5), the
    # decimal oracle takes each from the half-angle chain: both product
    # intervals must hold 16t^4 times the oracle's products, widened by
    # their bound, and carry at most the 25|t|^3 ulps that
    # verify_decomposition's docstring states; so must a = u sqrt(5) hold
    # the decimal one, with at most 2 ulps.  Up to 64 bits the widths
    # bring some product's error and a's near their charges, so the
    # charges of the chain fail here when dropped
    ctx = decimal.Context(prec=work * 30103 // 100000 + 12)
    s5 = fx_sqrt(FixedReal.from_int(5, work))
    root5 = Fraction(ctx.sqrt(5))
    for t in [*range(-50, 0), *range(1, 51)]:
        u = verify_mod._lhs_argument(t)
        a = s5.mul_fraction(u)
        assert a.err_ulp <= 2, t
        assert abs(u * root5 - a.value) <= a.err + Fraction(1, 1 << work) / 10**10, t
        refs, ref_err = li1_radicands_decimal(t, ctx)
        assert Fraction(ref_err) < Fraction(1, 1 << work)
        r0, r1, r2, r3 = map(Fraction, refs)
        d, scale = Fraction(ref_err), 16 * t**4
        products = verify_mod._radicand_products(t, s5)
        for i, (p, x, y) in enumerate(zip(products, (r0, r1), (r2, r3))):
            # |x'y' - xy| <= d(|x| + |y|) + d^2 for |x' - x|, |y' - y| <= d
            ref_bound = scale * (d * (abs(x) + abs(y)) + d * d)
            assert p.err_ulp <= 25 * abs(t) ** 3, (t, i)
            assert abs(scale * x * y - p.value) <= p.err + ref_bound, (t, i)
    # one check takes one square root, sqrt(5)
    calls = []
    real = numerics_mod.fx_sqrt

    def counting(x):
        calls.append(x)
        return real(x)

    for mod in (numerics_mod, family_mod, verify_mod):
        monkeypatch.setattr(mod, "fx_sqrt", counting)
    for t in (1, -2, 50):
        calls.clear()
        assert verify_decomposition(t, work).passed
        assert len(calls) == 1, t


def _move_lhs_argument(monkeypatch, t, k):
    """Move u(t) by 2**-k; return the exact gap this opens between the
    two sides, atanh(u'sqrt5) - atanh(u sqrt5), as Fractions
    (magnitude, error bound) from the decimal oracle."""
    real = verify_mod._lhs_argument
    u = real(t)
    moved = u + Fraction(1, 1 << k)
    monkeypatch.setattr(verify_mod, "_lhs_argument", lambda s: moved if s == t else real(s))
    ctx = decimal.Context(prec=(k + 60) * 30103 // 100000 + 10)
    gap, gap_err = atanh_sqrt5_gap_decimal(u, moved, ctx)
    gap, gap_err = abs(Fraction(gap)), Fraction(gap_err)
    assert gap_err < gap / (1 << 40)
    return gap, gap_err


def _assert_bits_bracket_the_gap(report, gap, gap_err):
    # the reported bits lie within 3 below -log2 of the true gap
    bits = report.agreement_bits
    assert gap + gap_err <= Fraction(1, 1 << bits), report.line()
    assert gap - gap_err >= Fraction(1, 1 << (bits + 3)), report.line()


@pytest.mark.parametrize("k", [150, 300, 600])
@pytest.mark.parametrize("t", [1, -2, 50])
def test_decomposition_bound_is_sound_and_tight(monkeypatch, t, k):
    # the check passes a few bits below k and fails once the target passes k
    gap, gap_err = _move_lhs_argument(monkeypatch, t, k)
    for target, passed in ((k - 8, True), (k + 1, False)):
        report = verify_decomposition(t, target)
        _assert_bits_bracket_the_gap(report, gap, gap_err)
        assert report.passed is passed, report.line()


def test_decomposition_bound_holds_far_from_the_identity(monkeypatch):
    # a gap of about 2**-2.8: X and Y differ by a quarter, so the mean
    # value theorem's xi must be bounded by the smaller of the two (the
    # larger would report 3 bits)
    gap, gap_err = _move_lhs_argument(monkeypatch, 50, 4)
    report = verify_decomposition(50, 10)
    _assert_bits_bracket_the_gap(report, gap, gap_err)
    assert not report.passed


@pytest.mark.parametrize("t", [1, 2, -3, 7])
def test_decomposition_bits_hold_at_every_corner_of_wide_radicands(monkeypatch, t):
    # each product's error raised by 16t^4 * 2**20 ulps, about what 2**20
    # ulps of each radicand would add, makes Y's error dominate the bound.  For X'
    # and Y' at any corners of the exact intervals that hold X and Y,
    # |X' - Y'| / (2 max(X', Y')) <= |ln X' - ln Y'|/2, which the reported
    # bits must bound
    real = verify_mod._radicand_products
    seen = {}

    def widened(t, s5):
        seen["s5"] = s5
        seen["p"] = tuple(
            FixedReal(p.mantissa, p.frac_bits, p.err_ulp + (16 * t**4 << 20)) for p in real(t, s5)
        )
        return seen["p"]

    monkeypatch.setattr(verify_mod, "_radicand_products", widened)
    report = verify_decomposition(t, 200)

    def ends(v):
        return v.value - v.err, v.value + v.err

    u = verify_mod._lhs_argument(t)
    xs = [(1 + abs(u) * s) / (1 - abs(u) * s) for s in ends(seen["s5"])]
    (lo_e, hi_e), (lo_c, hi_c) = map(ends, seen["p"])
    assert min(lo_e, lo_c) > 0
    ys = [lo_c / hi_e, hi_c / lo_e]
    if u < 0:
        ys = [1 / y for y in ys]
    bound = Fraction(1, 1 << report.agreement_bits)
    for x in xs:
        for y in ys:
            assert abs(x - y) / (2 * max(x, y)) < bound, report.line()


@pytest.mark.parametrize("i", range(4))
def test_decomposition_fails_with_a_wrong_cosine(monkeypatch, i):
    # sqrt(5) moved by -+2**-500 inside product i // 2 alone, which is
    # both cosines of that pair moved by multiples of it: the product
    # moves by 2**-500 |2t^2 - 2t(m -+ t sqrt5)|, and the right side by
    # between 2**-508 and 2**-500 for these t: far above a 1000-bit target
    real = verify_mod._radicand_products

    def wrong(t, s5):
        step = FixedReal.from_fraction(Fraction((-1) ** i, 1 << 500), s5.frac_bits)
        products = list(real(t, s5))
        products[i // 2] = real(t, s5 + step)[i // 2]
        return tuple(products)

    monkeypatch.setattr(verify_mod, "_radicand_products", wrong)
    for t in (1, -2, 50):
        report = verify_decomposition(t, 1000)
        assert not report.passed, t
        assert 480 < report.agreement_bits < 520, (t, report.agreement_bits)


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
