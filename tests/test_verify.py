"""Verification reports: correctness, format, and determinism."""

from __future__ import annotations

import decimal
import hashlib
import math
import re
from fractions import Fraction

import pytest

import bbplog.family as family_mod
import bbplog.numerics as numerics_mod
import bbplog.verify as verify_mod
from bbplog.errors import DomainError, ValidationError
from bbplog.numerics import FixedReal, agreement_bits
from bbplog.spigot import DigitWindow
from bbplog.verify import (
    GUARD_BITS,
    verify_corollary,
    verify_decomposition,
    verify_theorem,
)

from _oracles import li1_decomposition_sides, li1_radicands_decimal

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
    # the exact check costs the same at any width; t = 1 has the smallest
    # radicand, t = -50 the smallest |q|
    report = verify_decomposition(t, 100_000)
    assert report.passed
    assert report.agreement_bits == 100_000 + GUARD_BITS


# agreement bits of verify_theorem and verify_decomposition at 1000 bits;
# every check passes, theorem reads 1085 throughout, and the exact
# decomposition check reads its working width, 1000 + GUARD_BITS, for
# every t
DECOMPOSITION_BITS_AT_1000 = 1088


def test_theorem_and_decomposition_match_recorded_lines():
    for t in [*range(-50, 0), *range(1, 51)]:
        theorem = verify_theorem(t, 1000)
        decomposition = verify_decomposition(t, 1000)
        assert (theorem.passed, theorem.agreement_bits) == (True, 1085), t
        expected = (True, DECOMPOSITION_BITS_AT_1000)
        assert (decomposition.passed, decomposition.agreement_bits) == expected, t


# SHA-256 of every REPORT line without its ms= field, one line each, of
# the corollary and then theorem and decomposition for t = -50..-1, 1..50,
# at 200, 1000 and 3000 bits in turn.  Any change to the arithmetic that
# moves one verdict or agreement count changes it.
REPORT_DIGEST = "5c29847fd1970fa2ed6baf3e2da7fab65e4b46a04e138daaab557789fe977dc7"


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
    # E = C = 0 satisfies D e1 + N e0 = 0, but the quotient C/E of the
    # radicand products is no positive number, so the check must fail on
    # its positivity clause alone
    monkeypatch.setattr(verify_mod, "_radicand_products", lambda t: (0, 0))
    report = verify_decomposition(1, 64)
    assert (report.passed, report.agreement_bits) == (False, 0), report.line()


def test_decomposition_report():
    report = verify_decomposition(2, 128)
    assert report.passed
    assert report.subject == "decomposition(t=2)"


def test_decomposition_check_takes_no_log(monkeypatch):
    # the check is integer arithmetic: no log, and no fixed-point number
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)

        return wrapper

    # verify builds the check; a log it imported by name would bypass numerics
    for name in ("fx_log", "fx_atanh"):
        wrapped = counting(getattr(numerics_mod, name))
        for mod in (numerics_mod, family_mod, verify_mod):
            monkeypatch.setattr(mod, name, wrapped, raising=False)
    monkeypatch.setattr(FixedReal, "__init__", counting(FixedReal.__init__))
    for t in (1, -1, 7):
        assert verify_decomposition(t, 1000).passed
    assert calls == []


@pytest.mark.parametrize("bits", [64, 200, 1000, 3000])
def test_decomposition_reads_no_lower_than_its_two_logs(bits):
    # the two-log reference takes both logs at the working width W and its
    # sides agree to W - 3 .. W - 6 bits for these t at every width here;
    # the exact check reads W itself, never less
    W = bits + GUARD_BITS
    for t in [*range(-50, 0), *range(1, 51)]:
        lhs, rhs = li1_decomposition_sides(t, W)
        assert agreement_bits(lhs, rhs) >= W - 8, t
        assert verify_decomposition(t, bits).agreement_bits == W, t


@pytest.mark.parametrize("work", [*range(1, 65), 1088])
def test_decomposition_radicands_hold_the_half_angle_oracle(monkeypatch, work):
    # the library multiplies the radicands out in pairs over sqrt(5), the
    # decimal oracle takes each from the half-angle chain at about work
    # bits: e0 -+ e1 sqrt5, with sqrt5 a correctly rounded Decimal, must
    # hold 16t^4 times the oracle's products, widened by both roundings
    ctx = decimal.Context(prec=work * 30103 // 100000 + 12)
    root5 = Fraction(ctx.sqrt(5))
    root5_err = Fraction(ctx.scaleb(1, 1 - ctx.prec)) / 2
    for t in [*range(-50, 0), *range(1, 51)]:
        refs, ref_err = li1_radicands_decimal(t, ctx)
        assert Fraction(ref_err) < Fraction(1, 1 << work)
        r0, r1, r2, r3 = map(Fraction, refs)
        d, scale = Fraction(ref_err), 16 * t**4
        e0, e1 = verify_mod._radicand_products(t)
        for sign, x, y in ((1, r0, r2), (-1, r1, r3)):
            # |x'y' - xy| <= d(|x| + |y|) + d^2 for |x' - x|, |y' - y| <= d
            ref_bound = scale * (d * (abs(x) + abs(y)) + d * d)
            product = e0 + sign * e1 * root5
            assert abs(scale * x * y - product) <= abs(e1) * root5_err + ref_bound, (t, sign)
    # the check takes no square root
    calls = []
    real = numerics_mod.fx_sqrt

    def counting(x):
        calls.append(x)
        return real(x)

    for mod in (numerics_mod, family_mod, verify_mod):
        monkeypatch.setattr(mod, "fx_sqrt", counting, raising=False)
    for t in (1, -2, 50):
        assert verify_decomposition(t, work).passed
    assert calls == []


@pytest.mark.parametrize("k", [150, 300, 600])
@pytest.mark.parametrize("t", [1, -2, 50])
def test_decomposition_bound_is_sound_and_tight(monkeypatch, t, k):
    # sound: u(t) moved by 2**-k fails at every target, whether above or
    # below k, with no bit of agreement; tight: the true u(t) passes at
    # each of those targets with its whole working width
    real = verify_mod._lhs_argument
    moved = real(t) + Fraction(1, 1 << k)
    targets = (1, k - 8, k + 1, 10_000)
    for target in targets:
        assert verify_decomposition(t, target).agreement_bits == target + GUARD_BITS
    monkeypatch.setattr(verify_mod, "_lhs_argument", lambda s: moved if s == t else real(s))
    for target in targets:
        report = verify_decomposition(t, target)
        assert (report.passed, report.agreement_bits) == (False, 0), report.line()


@pytest.mark.parametrize("i", range(4))
def test_decomposition_fails_with_a_wrong_cosine(monkeypatch, i):
    # a wrong cosine moves a coefficient of the pair products in Z[sqrt5]:
    # e0 (i = 0, 1) or e1 (i = 2, 3) moved by +-1 breaks D e1 + N e0 = 0,
    # by N or D, neither of which is 0 at a nonzero integer t
    real = verify_mod._radicand_products

    def wrong(t):
        products = list(real(t))
        products[i // 2] += (-1) ** i
        return tuple(products)

    monkeypatch.setattr(verify_mod, "_radicand_products", wrong)
    for t in (1, -2, 50):
        report = verify_decomposition(t, 1000)
        assert (report.passed, report.agreement_bits) == (False, 0), t


# -- the decomposition's algebra, exactly, in Q(sqrt5) ----------------------
#
# a + b sqrt5 is the pair (a, b) of Fractions; a polynomial is its list of
# integer coefficients, constant first.  These facts do not depend on t,
# so the runtime check takes them as given and this suite proves them.


def _q5(a, b=0):
    return Fraction(a), Fraction(b)


def _q5_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _q5_mul(x, y):
    return x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _q5_positive(x):
    # a + b sqrt5 > 0, decided exactly: compare a^2 with 5b^2 when the
    # signs of a and b differ
    a, b = x
    if a >= 0 and b >= 0:
        return a > 0 or b > 0
    if a <= 0 and b <= 0:
        return False
    return (a * a > 5 * b * b) == (a > 0)


def _poly_at(coeffs, x):
    value = _q5(0)
    for c in reversed(coeffs):
        value = _q5_add(_q5_mul(value, x), _q5(c))
    return value


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


T5 = [0, 5, 0, -20, 0, 16]  # the Chebyshev polynomial: T5(cos y) = cos 5y
COS_PI_5 = _q5(Fraction(1, 4), Fraction(1, 4))  # (1 + sqrt5)/4
COS_2PI_5 = _q5(Fraction(-1, 4), Fraction(1, 4))  # (sqrt5 - 1)/4
# verify_decomposition's pair facts, (sum, product) of sqrt(2)cos x_i over
# i = 0, 2 and over i = 1, 3: (sqrt5+1)/2, (sqrt5-1)/4; -(sqrt5-1)/2, -(sqrt5+1)/4
PAIRS = (
    (_q5(Fraction(1, 2), Fraction(1, 2)), _q5(Fraction(-1, 4), Fraction(1, 4))),
    (_q5(Fraction(1, 2), Fraction(-1, 2)), _q5(Fraction(-1, 4), Fraction(-1, 4))),
)


def test_decomposition_cosines_are_the_roots_of_t5():
    # T5(x) + 1 = (x + 1)(4x^2 - 2x - 1)^2, and cos(pi/5), in (0, 1), is a
    # root of it other than -1; 4x^2 - 2x - 1 has roots of product -1/4,
    # so only one positive root, which must be cos(pi/5).  Likewise T5(x) -
    # 1 = (x - 1)(4x^2 + 2x - 1)^2 for cos(2pi/5), in (0, 1)
    for cos, side, quadratic in ((COS_PI_5, -1, [-1, -2, 4]), (COS_2PI_5, 1, [-1, 2, 4])):
        shifted = [T5[0] - side, *T5[1:]]
        assert shifted == _poly_mul([-side, 1], _poly_mul(quadratic, quadratic))
        assert quadratic[0] * quadratic[2] < 0
        assert _poly_at(quadratic, cos) == _q5(0)
        assert _q5_positive(cos)
        assert _poly_at(T5, cos) == _q5(side)


def test_decomposition_pair_facts_hold():
    # sqrt(2)cos(pi/4 -+ y) = cos y +- sin y: over i = 0, 2 (y = pi/5) the
    # sum is 2cos y and the product cos 2y = 2cos^2 y - 1; over i = 1, 3
    # (y = pi/10, x_3 = pi - (pi/4 - y)) the sum is -2sin(pi/10) =
    # -2cos(2pi/5) and the product -cos(pi/5) = -(1 - 2sin^2(pi/10))
    two, minus = _q5(2), _q5(-1)
    (s02, p02), (s13, p13) = PAIRS
    assert s02 == _q5_mul(two, COS_PI_5)
    assert p02 == _q5_add(_q5_mul(two, _q5_mul(COS_PI_5, COS_PI_5)), minus) == COS_2PI_5
    assert s13 == _q5_mul(_q5(-2), COS_2PI_5)
    assert p13 == _q5_add(_q5_mul(two, _q5_mul(COS_2PI_5, COS_2PI_5)), minus)
    assert p13 == _q5_mul(minus, COS_PI_5)
    # and the angles k*pi/20, k = 1, 9 and 7, 17, are those pairs, in floats
    root5 = math.sqrt(5)
    for (i, j), (s, p) in zip(((1, 9), (7, 17)), PAIRS):
        ci, cj = (math.sqrt(2) * math.cos(k * math.pi / 20) for k in (i, j))
        assert math.isclose(ci + cj, float(s[0] + s[1] * root5), abs_tol=1e-12)
        assert math.isclose(ci * cj, float(p[0] + p[1] * root5), abs_tol=1e-12)


def test_decomposition_products_multiply_out_from_the_pairs():
    # 16t^4 R_i R_j = 4(A^2 - 2tA s + 4t^2 p) for A = 2t^2 + 1 and each
    # pair's sum s and product p; both sides are polynomials in t of
    # degree <= 4, so agreeing at nine t they agree at every t
    for t in range(-4, 5):
        e0, e1 = verify_mod._radicand_products(t)
        A = 2 * t * t + 1
        for (s, p), sign in zip(PAIRS, (1, -1)):
            quarter = _q5_add(
                _q5_add(_q5(A * A), _q5_mul(_q5(-2 * t * A), s)), _q5_mul(_q5(4 * t * t), p)
            )
            assert _q5_mul(_q5(4), quarter) == _q5(e0, sign * e1), t


def test_decomposition_products_are_4d_and_minus_4n():
    # e0 = 4D and e1 = -4N for the unreduced u = N/D of the family: both
    # sides are polynomials of degree <= 4, checked at nine t
    for t in range(-4, 5):
        n = t * (1 - t + 2 * t * t)
        d = 1 - t + 3 * t * t - 2 * t**3 + 4 * t**4
        assert verify_mod._radicand_products(t) == (4 * d, -4 * n), t


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
