"""Formula model, evaluator truncation bound, and file round-trips."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from bbplog.errors import ParseError, ValidationError
from bbplog.formula import BbpFormula, emit_formula, eval_P, parse_formula
from bbplog.formula import _truncation
from bbplog.numerics import FixedReal, fx_log

from _oracles import bbp_sum_exact, log2_series

LOG2_FORMULA = BbpFormula(
    degree=1, base=2, length=1, coeffs=(1,), prefactor=Fraction(1), label="2*log(2)"
)


def test_eval_log2_formula_matches_series_oracle():
    # sum_k 2**-k/(k+1) = 2 * sum_r 1/(r*2**r) = 2 ln 2
    res = eval_P(LOG2_FORMULA, 256)
    series, tail = log2_series(320)
    assert abs(res.value.value - 2 * series) <= res.value.err + 2 * tail
    assert res.tail_bound_ulp <= res.value.err_ulp


def test_eval_matches_exact_partial_sum():
    res = eval_P(LOG2_FORMULA, 128)
    oracle = bbp_sum_exact(1, 2, (1,), Fraction(1), res.terms_used + 40)
    assert abs(res.value.value - oracle) <= res.value.err + Fraction(1, 1 << 160)


def test_eval_bound_does_not_grow_with_precision():
    # Horner shrinks earlier error by b each step, so the bound settles
    # instead of counting one ulp per term
    errs = {eval_P(LOG2_FORMULA, F).value.err_ulp for F in (256, 1024, 4096)}
    assert len(errs) == 1


def test_all_zero_coefficients_rejected():
    with pytest.raises(ValidationError, match="coeffs"):
        BbpFormula(degree=1, base=2, length=2, coeffs=(0, 0), prefactor=Fraction(1))


def test_invariant_violations_name_the_field():
    with pytest.raises(ValidationError, match="degree"):
        BbpFormula(degree=0, base=2, length=1, coeffs=(1,), prefactor=Fraction(1))
    with pytest.raises(ValidationError, match="base"):
        BbpFormula(degree=1, base=1, length=1, coeffs=(1,), prefactor=Fraction(1))
    with pytest.raises(ValidationError, match="coeffs"):
        BbpFormula(degree=1, base=2, length=3, coeffs=(1, 2, 3, 4), prefactor=Fraction(1))
    with pytest.raises(ValidationError, match="frac_bits"):
        eval_P(LOG2_FORMULA, 32)


def _random_formula(
    rng: random.Random, degrees=(1, 2), bases=range(2, 8)
) -> BbpFormula:
    while True:
        length = rng.randint(1, 4)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(length))
        if any(coeffs):
            break
    return BbpFormula(
        degree=rng.choice(degrees),
        base=rng.choice(bases),
        length=length,
        coeffs=coeffs,
        prefactor=Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 8)),
    )


# bases where 2**c/b < 1 (c = floor(log2 b)) and powers of two, where the
# Horner step is exact; the last is the family's b at t = 3
BOUND_BASES = (2, 3, 5, 7, 16, 2**20 * 3**40)


def test_truncation_bound_is_sound_on_random_formulas():
    rng = random.Random(20260813)
    for F, cases in ((64, 60), (300, 30), (1000, 10)):
        for _ in range(cases):
            f = _random_formula(rng, degrees=(1, 2, 3), bases=BOUND_BASES)
            K, _ = _truncation(f, F)
            s_k = bbp_sum_exact(f.degree, f.base, f.coeffs, f.prefactor, K)
            s_k10 = bbp_sum_exact(f.degree, f.base, f.coeffs, f.prefactor, K + 10)
            max_a = max(abs(a) for a in f.coeffs)
            tail = (
                Fraction(max_a * f.length, (K * f.length + 1) ** f.degree)
                * Fraction(f.base, f.base - 1)
                / f.base**K
                * abs(f.prefactor)
            )
            assert abs(s_k10 - s_k) <= tail
            res = eval_P(f, F)
            assert abs(res.value.value - s_k10) <= res.value.err + tail
            # under 2K < 2**(G-2) ulp at F+G, scaled by the prefactor, plus
            # one ulp each for mul_fraction and the rescale to F
            rounding = res.value.err_ulp - res.tail_bound_ulp
            assert rounding <= math.ceil(abs(f.prefactor) / 4) + 2


def test_linearity_in_coefficients():
    rng = random.Random(20260814)
    F = 128
    for _ in range(25):
        f1 = _random_formula(rng)
        coeffs2 = tuple(rng.randint(-9, 9) for _ in range(f1.length))
        summed = tuple(a + b for a, b in zip(f1.coeffs, coeffs2))
        if not any(coeffs2) or not any(summed):
            continue
        f2 = BbpFormula(f1.degree, f1.base, f1.length, coeffs2, f1.prefactor)
        f12 = BbpFormula(f1.degree, f1.base, f1.length, summed, f1.prefactor)
        r1, r2, r12 = eval_P(f1, F), eval_P(f2, F), eval_P(f12, F)
        gap = abs(r12.value.value - r1.value.value - r2.value.value)
        assert gap <= r1.value.err + r2.value.err + r12.value.err


def test_integer_scaling_of_coefficients():
    rng = random.Random(20260815)
    F = 128
    for _ in range(25):
        f = _random_formula(rng)
        c = rng.choice([2, 3, -5])
        fc = BbpFormula(
            f.degree, f.base, f.length, tuple(c * a for a in f.coeffs), f.prefactor
        )
        r, rc = eval_P(f, F), eval_P(fc, F)
        gap = abs(rc.value.value - c * r.value.value)
        assert gap <= abs(c) * r.value.err + rc.value.err


# -- file format -----------------------------------------------------------


def test_emit_parse_round_trip():
    text = emit_formula(LOG2_FORMULA)
    assert parse_formula(text) == LOG2_FORMULA
    assert emit_formula(parse_formula(text)) == text


def test_emit_canonical_shape():
    text = emit_formula(LOG2_FORMULA)
    assert text == "bbp 1\ns 1\nb 2\nl 1\npre 1/1\nA 1\nlabel 2*log(2)\n"
    for line in text.splitlines():
        assert line == line.rstrip()
        assert "  " not in line


def test_round_trip_random_formulas():
    rng = random.Random(20260816)
    for _ in range(50):
        f = _random_formula(rng)
        assert parse_formula(emit_formula(f)) == f


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_formula("")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_formula("bbp 2\ns 1\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_formula("bbp 1\ns 1\nb 2\nl x\npre 1/1\nA 1\n")
    assert exc.value.line == 4
    with pytest.raises(ParseError) as exc:
        parse_formula("bbp 1\ns 1\nb 2\nl 1\npre 1\nA 1\n")
    assert exc.value.line == 5


def test_parse_length_mismatch_is_validation_error():
    with pytest.raises(ValidationError, match="coeffs"):
        parse_formula("bbp 1\ns 1\nb 2\nl 3\npre 1/1\nA 1 2 3 4\n")


def test_negative_coefficients_round_trip():
    f = BbpFormula(1, 16, 2, (-3, 7), Fraction(-2, 9), label="demo")
    text = emit_formula(f)
    assert "A -3 7" in text
    assert "pre -2/9" in text
    assert parse_formula(text) == f
