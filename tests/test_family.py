"""Coefficient construction and the family identities."""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

import pytest

import bbplog.numerics as numerics_mod
from bbplog.errors import DomainError
from bbplog.family import (
    FAMILY_LENGTH,
    family_coeffs,
    golden_constant,
    golden_formula,
    lhs_value,
)
from bbplog.formula import eval_P
from bbplog.numerics import agreement_bits
from bbplog.verify import _radicand_products, verify_decomposition

from _oracles import li1_decomposition_decimal, li1_decomposition_sides

# the t=1 coefficient vector, all 24 nonzero entries signed powers of two
T1_COEFFS = (
    524288, 0, 262144, 262144, 0, 0, -65536, 65536, 32768, 0,
    -16384, -16384, 8192, 0, 0, -4096, -2048, 0, -1024, 0,
    -512, 0, -256, -256, 0, 0, 64, -64, -32, 0,
    16, 16, -8, 0, 0, 4, 2, 0, 1, 0,
)

NONZERO_POSITIONS = tuple(j for j, a in enumerate(T1_COEFFS, start=1) if a)


# -- coefficients ------------------------------------------------------------


def test_weight_matches_bruteforce_trigonometry():
    # a_j = w(j)/5 * sqrt(5) * sqrt(2**(40-j)) at t = 1, with the weight
    # w(j) = 4 sin(j*pi/5) sin(2j*pi/5) cos(j*pi/4) in double precision;
    # every a_j is an integer below 2**20, so 1e-6 tells them apart
    for j in range(1, 41):
        w = (
            4
            * math.sin(j * math.pi / 5)
            * math.sin(2 * j * math.pi / 5)
            * math.cos(j * math.pi / 4)
        )
        numeric = w / 5 * math.sqrt(5) * math.sqrt(2.0 ** (40 - j))
        assert abs(numeric - T1_COEFFS[j - 1]) < 1e-6, f"j={j}"


def test_t1_coefficients_exact():
    inst = family_coeffs(1)
    assert inst.formula.coeffs == T1_COEFFS
    assert inst.formula.base == 1 << 20
    assert inst.formula.length == FAMILY_LENGTH
    assert inst.formula.prefactor == Fraction(5, 1 << 20)
    assert inst.lhs_arg == Fraction(2, 5)


def test_first_coefficient_scales_as_t38():
    for t in (2, 3, -1):
        inst = family_coeffs(t)
        assert inst.formula.coeffs[0] == (1 << 19) * t**38


def test_lhs_argument_examples():
    assert family_coeffs(-1).lhs_arg == Fraction(-4, 11)
    assert family_coeffs(2).lhs_arg == Fraction(14, 59)


def test_t_zero_rejected():
    with pytest.raises(DomainError):
        family_coeffs(0)


def test_integrality_and_zero_pattern_up_to_50():
    for t in range(-50, 51):
        if t == 0:
            continue
        inst = family_coeffs(t)
        coeffs = inst.formula.coeffs
        assert all(isinstance(a, int) for a in coeffs)
        nonzero = tuple(j for j, a in enumerate(coeffs, start=1) if a)
        assert nonzero == NONZERO_POSITIONS
        assert inst.formula.base == (1 << 20) * t**40
        assert inst.formula.base >= 1 << 20


def test_coefficient_closed_form_consistency():
    # a_j(t) / t**(39-j) must not depend on t at any nonzero position
    for t in (2, 3, -2, 7, -5):
        coeffs = family_coeffs(t).formula.coeffs
        for j in NONZERO_POSITIONS:
            assert coeffs[j - 1] == T1_COEFFS[j - 1] * t ** (39 - j)


def test_atanh_argument_stays_inside_unit_interval():
    for t in range(-10, 11):
        if t == 0:
            continue
        u = family_coeffs(t).lhs_arg
        assert 5 * u.numerator**2 < u.denominator**2


# -- identities ---------------------------------------------------------------


def test_theorem_identity_small_precisions():
    F = 320
    for t in (1, 2, -1):
        inst = family_coeffs(t)
        lhs = lhs_value(inst, F)
        rhs = eval_P(inst.formula, F).value
        assert agreement_bits(lhs, rhs) >= F - 24, f"t={t}"


def test_lhs_t2_positive_and_finite():
    val = lhs_value(family_coeffs(2), 192)
    assert val.mantissa > 0


def test_corollary_relation_to_theorem():
    # atanh(2/sqrt5) = 3 log phi makes lhs(t=1) = 3 * sqrt(5)*log(phi)
    F = 320
    lhs = lhs_value(family_coeffs(1), F)
    gold3 = golden_constant(F).mul_int(3)
    assert agreement_bits(lhs, gold3) >= F - 24


def test_golden_constant_refines_with_precision():
    a = golden_constant(256)
    b = golden_constant(512).rescale(256)
    assert agreement_bits(a, b) >= 250
    assert a.decimal(6).startswith("1.07")


def test_golden_formula_preset_shape():
    f = golden_formula()
    assert f.prefactor == Fraction(5, 3 << 20)
    assert f.coeffs == T1_COEFFS
    assert f.base == 1 << 20
    assert f.label == "sqrt(5)*log(phi)"


# -- the decomposition check --------------------------------------------------


@pytest.mark.parametrize("t", [1, 5, -2])
def test_li1_decomposition(t):
    lhs, rhs = li1_decomposition_sides(t, 264)
    assert agreement_bits(lhs, rhs) >= 200


def test_li1_decomposition_rejects_t_zero():
    with pytest.raises(DomainError, match="^t must be a nonzero integer$"):
        verify_decomposition(0, 64)


@pytest.mark.parametrize("work", [64, 1000])
@pytest.mark.parametrize("t", [1, -1, 2, -2, 7, -13, 50])
def test_li1_decomposition_rhs_contains_decimal_oracle(t, work):
    # the right side's interval must hold the stdlib decimal value of
    # -1/2 sum (-1)**i ln R_i, widened only by the oracle's own bound
    ctx = decimal.Context(prec=work * 30103 // 100000 + 12)
    ref, ref_err = li1_decomposition_decimal(t, ctx)
    assert Fraction(ref_err) < Fraction(1, 1 << work)
    _, rhs = li1_decomposition_sides(t, work)
    assert abs(Fraction(ref) - rhs.value) <= rhs.err + Fraction(ref_err)


def test_li1_oracle_takes_one_log_per_side(monkeypatch):
    # the oracle's right side takes its four logs as one log of
    # R_0 R_2 / (R_1 R_3); the left side keeps its own, inside fx_atanh
    calls = []
    real_log = numerics_mod.fx_log

    def counting_log(x):
        calls.append(x)
        return real_log(x)

    monkeypatch.setattr(numerics_mod, "fx_log", counting_log)
    for t in (1, -1, 7):
        calls.clear()
        li1_decomposition_sides(t, 1088)
        assert len(calls) == 2, t


def test_decomposition_radicands_stay_above_their_bound():
    # 16t^4 R_0 R_2 = e0 + e1 sqrt5 and 16t^4 R_1 R_3 = e0 - e1 sqrt5 are
    # both positive, e0 > |e1| sqrt5, checked in integers
    for t in [*range(-50, 0), *range(1, 51)]:
        e0, e1 = _radicand_products(t)
        assert e0 > 0 and e0 * e0 > 5 * e1 * e1, t
