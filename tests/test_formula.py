"""Formula model, evaluator truncation bound, and file round-trips."""

from __future__ import annotations

import math
import random
import types
from fractions import Fraction

import pytest

import bbplog.formula as formula_mod
from bbplog.errors import ParseError, UnsupportedFormulaError, ValidationError
from bbplog.family import family_coeffs, golden_formula
from bbplog.formula import MAX_DEGREE, BbpFormula, emit_formula, eval_P, parse_formula
from bbplog.formula import _fold_levels, _truncation
from bbplog.numerics import FixedReal, agreement_bits, fx_log
from bbplog.presets import load_preset
from bbplog.spigot import build_plan

from _oracles import bbp_sum_exact, eval_P_folded, log2_series, truncation_walk

LOG2_FORMULA = BbpFormula(
    degree=1, base=2, length=1, coeffs=(1,), prefactor=Fraction(1), label="2*log(2)"
)


def test_eval_log2_formula_matches_series_oracle():
    # sum_k 2**-k/(k+1) = 2 * sum_r 1/(r*2**r) = 2 ln 2
    res = eval_P(LOG2_FORMULA, 256)
    series, tail = log2_series(320)
    assert abs(res.value.value - 2 * series) <= res.value.err + 2 * tail
    assert res.value.err_ulp <= 3


def test_eval_matches_exact_partial_sum():
    res = eval_P(LOG2_FORMULA, 128)
    oracle = bbp_sum_exact(1, 2, (1,), Fraction(1), res.terms_used + 40)
    assert abs(res.value.value - oracle) <= res.value.err + Fraction(1, 1 << 160)


def test_eval_bound_does_not_grow_with_precision():
    # Horner shrinks earlier error by b each step, so the bound settles
    # instead of counting one ulp per term
    errs = {eval_P(LOG2_FORMULA, F).value.err_ulp for F in (256, 1024, 4096)}
    assert len(errs) == 1


def test_eval_needs_64_frac_bits():
    with pytest.raises(ValidationError, match="frac_bits: must be >= 64"):
        eval_P(LOG2_FORMULA, 63)
    res = eval_P(LOG2_FORMULA, 64)
    assert abs(res.value.value - 2 * math.log(2)) < 1e-15


def test_eval_and_build_plan_take_degree_up_to_max_degree():
    # sum_k 2**-k / (k+1)**128: the k = 0 term is 1, the next below 2**-129
    def formula(degree):
        return BbpFormula(degree=degree, base=2, length=1, coeffs=(1,), prefactor=Fraction(1))

    top = formula(MAX_DEGREE)
    res = eval_P(top, 64)
    assert abs(res.value.value - 1) <= res.value.err + Fraction(1, 1 << 128)
    assert build_plan(top).formula is top
    with pytest.raises(UnsupportedFormulaError, match=f"eval needs degree <= {MAX_DEGREE}"):
        eval_P(formula(MAX_DEGREE + 1), 64)


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


def _tail_majorant(f: BbpFormula, K: int) -> Fraction:
    """|prefactor * sum over the levels k >= K| is at most this."""
    max_a = max(abs(a) for a in f.coeffs)
    return (
        Fraction(max_a * f.length, (K * f.length + 1) ** f.degree)
        * Fraction(f.base, f.base - 1)
        / f.base**K
        * abs(f.prefactor)
    )


def test_truncation_bound_is_sound_on_random_formulas():
    rng = random.Random(20260813)
    for F, cases in ((64, 60), (300, 30), (1000, 10)):
        for _ in range(cases):
            f = _random_formula(rng, degrees=(1, 2, 3), bases=BOUND_BASES)
            K = _truncation(f, F)
            s_k = bbp_sum_exact(f.degree, f.base, f.coeffs, f.prefactor, K)
            s_k10 = bbp_sum_exact(f.degree, f.base, f.coeffs, f.prefactor, K + 10)
            tail = _tail_majorant(f, K)
            assert abs(s_k10 - s_k) <= tail < Fraction(1, 1 << F)
            res = eval_P(f, F)
            assert abs(res.value.value - s_k10) <= res.value.err + tail
            # under 2K + 1 <= 2**(G-2) ulp at F+G after the division by q,
            # so 2 after the rescale to F, and 1 for the tail
            assert res.value.err_ulp <= 3
    # the spigot's case: a window of count bits at position n sums the
    # levels of 2**n * C up to _truncation(f, W + n), W = count + 64, so
    # their tail must stay under one ulp of the W-bit window, for
    # power-of-two bases and prefactors with |p| >> q, |p| << q and an odd q
    prefactors = (
        lambda: Fraction(rng.randrange(10**30, 10**45), rng.randrange(1, 100, 2)),
        lambda: Fraction(rng.randint(1, 9), rng.randrange(1, 100) << rng.randint(30, 80)),
        lambda: Fraction(rng.randint(1, 99), 3 ** rng.randint(20, 60)),
    )
    for prefactor in prefactors:
        for _ in range(4):
            f = _random_formula(rng, degrees=(1, 2, 3), bases=(2, 4, 16, 2**20))
            f = BbpFormula(f.degree, f.base, f.length, f.coeffs, rng.choice((-1, 1)) * prefactor())
            for count in (1, 64):
                W = count + 64
                for n in (0, 1, 37, 500):
                    K = _truncation(f, W + n)
                    s_k = bbp_sum_exact(f.degree, f.base, f.coeffs, f.prefactor, K)
                    s_k10 = bbp_sum_exact(f.degree, f.base, f.coeffs, f.prefactor, K + 10)
                    tail = abs(s_k10 - s_k) + _tail_majorant(f, K + 10)
                    assert tail * 2**n < Fraction(1, 1 << W), (f, count, n)


@pytest.mark.parametrize("base", [2, 3, 16, pytest.param(2**20 * 3**40, id="2**20*3**40")])
def test_fold_levels_is_the_exact_block_sum(base):
    # sum_{k0 <= k < k1} base**(k1-1-k) * sum_j a_j / (k*l + j)**s
    for coeffs in ((3, 0, -5, 1), (-7,)):
        terms = tuple((j, a) for j, a in enumerate(coeffs, start=1) if a)
        L = -(-formula_mod._BLOCK_TERMS // len(terms))
        for degree in (1, 2, 3):
            for k0 in (0, 1, 37):
                for n in range(1, L + 2):
                    k1 = k0 + n
                    num, den = _fold_levels(base, degree, len(coeffs), terms, k0, k1)
                    exact = sum(
                        Fraction(a * base ** (k1 - 1 - k), (k * len(coeffs) + j) ** degree)
                        for k in range(k0, k1)
                        for j, a in terms
                    )
                    assert Fraction(num, den) == exact, (coeffs, degree, k0, n)


@pytest.mark.parametrize("levels", [1, 2, 3, 5])
def test_eval_blocks_match_exact_sum(monkeypatch, levels):
    # three nonzero terms, so T = 3 * levels gives blocks of that many
    # levels; b = 2**v * o with o = 1 (16: no Horner step), v = 0 (3) and
    # both factors (12, 2**20 * 3**40), at widths where K is no multiple
    # of the block
    monkeypatch.setattr(formula_mod, "_BLOCK_TERMS", 3 * levels)
    for base, F in ((3, 103), (16, 97), (12, 110), (2**20 * 3**40, 1344)):
        f = BbpFormula(2, base, 4, (2, -1, 0, 5), Fraction(-3, 7))
        res = eval_P(f, F)
        K = res.terms_used
        assert levels == 1 or K % levels, (base, K)
        # the rounding charge alone, all but the tail's one ulp, bounds the
        # distance to the K-level sum
        assert res.value.err_ulp <= 3
        rounding = res.value.err_ulp - 1
        partial = bbp_sum_exact(f.degree, f.base, f.coeffs, f.prefactor, K)
        assert abs(res.value.value - partial) <= Fraction(rounding, 1 << F), (base, levels)


def test_eval_charges_each_block_two_floors_when_the_base_has_an_odd_part(monkeypatch):
    # b = 2**v * o with o > 1: each block's floor and each Horner carry's
    # floor lose under an ulp, so the W0-width sum is acc plus at most err
    # ulps of the exact K-level sum.  A carry shrinks the earlier losses by
    # 2**c/b per level, so a charge of one ulp per block falls short only
    # when blocks are one level each (64 nonzero terms) and few (a degree
    # that keeps K near 2)
    seen = []

    def recorder(mantissa, frac_bits, err_ulp=0):
        seen.append((mantissa, frac_bits, err_ulp))
        return FixedReal(mantissa, frac_bits, err_ulp)

    monkeypatch.setattr(formula_mod, "FixedReal", recorder)
    rng = random.Random(20261019)
    for _ in range(300):
        base, F = rng.choice((3, 5, 6, 12)), rng.randint(64, 200)
        coeffs = tuple(rng.randint(-(10**6), 10**6) or 1 for _ in range(64))
        f = BbpFormula(rng.randint(F // 6, F // 5), base, 64, coeffs, Fraction(1))
        seen.clear()
        K = eval_P(f, F).terms_used
        acc, W0, err = seen[0]
        exact = bbp_sum_exact(f.degree, base, coeffs, Fraction(1), K) * (1 << W0)
        assert acc <= exact <= acc + err, (base, F, f.degree)


def _holds_the_sum(f: BbpFormula, value: FixedReal, K: int) -> bool:
    """Whether value's interval holds every point within the tail
    majorant of the exact sum of the first K + 20 levels."""
    exact = bbp_sum_exact(f.degree, f.base, f.coeffs, f.prefactor, K + 20)
    return abs(value.value - exact) + _tail_majorant(f, K + 20) <= value.err


def test_eval_certifies_every_prefactor_within_three_ulps():
    # p enters the terms exactly and only q rounds, and K counts max(|p|, q),
    # so neither the rounding nor the tail grows with |p/q|: every interval
    # holds the exact sum and carries at most 3 ulps
    rng = random.Random(20261020)
    for F, cases in ((64, 300), (100, 150), (200, 50)):
        for _ in range(cases):
            g = _random_formula(rng, degrees=(1, 2, 3), bases=BOUND_BASES)
            p = rng.choice((-1, 1)) * rng.randint(1, 1 << rng.choice((1, 8, 32, 64)))
            f = BbpFormula(g.degree, g.base, g.length, g.coeffs, Fraction(p, rng.randint(1, 1 << 30)))
            res = eval_P(f, F)
            assert res.value.err_ulp <= 3, (f, F)
            assert _holds_the_sum(f, res.value, res.terms_used), (f, F)


def test_eval_needs_the_tail_ulp_and_reads_a_factor_in_either_place():
    # 64 equal terms of base 2**20, with A just below the size that adds a
    # level at 500 bits: the tail past K = 31 is 0.984 ulp, nearly the
    # whole majorant, and the blocks' floors and the rescale lose the rest,
    # so the exact sum lies 2.016 ulps above the mantissa.  The same
    # constant with A in the prefactor and ones as coefficients prints the
    # same value: p enters the terms as a coefficient does
    A = 41226797739790883666854610057822207976
    in_coeffs = BbpFormula(1, 1 << 20, 64, (A,) * 64, Fraction(1))
    in_prefactor = BbpFormula(1, 1 << 20, 64, (1,) * 64, Fraction(A))
    res = eval_P(in_coeffs, 500)
    assert res == eval_P(in_prefactor, 500)
    assert res.terms_used == 31 and res.value.err_ulp == 3
    exact = bbp_sum_exact(1, 1 << 20, (A,) * 64, Fraction(1), 51)
    gap, rest = (exact - res.value.value) * (1 << 500), _tail_majorant(in_coeffs, 51) * (1 << 500)
    assert 2 < gap - rest and gap + rest <= 3


def test_truncation_matches_walk(monkeypatch):
    # K is stepped up, never down, from its float seed floor(x), and the
    # docstring's x <= r < K leaves that seed at least a level below K:
    # on this set it is one to four levels below
    seeds = []

    def floor(x):
        seeds.append(math.floor(x))
        return seeds[-1]

    monkeypatch.setattr(formula_mod, "math", types.SimpleNamespace(log2=math.log2, floor=floor))
    rng = random.Random(20261018)
    formulas = []
    for F in (64, 65, 300, 1000, 4096):
        for _ in range(220):
            length = rng.randint(1, 6)
            coeffs = tuple(rng.randint(-50, 50) for _ in range(length))
            if not any(coeffs):
                continue
            base = rng.choice((2**20 * 3**40, round(10 ** rng.uniform(0.31, 6))))
            prefactor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            f = BbpFormula(rng.randint(1, 6), base, length, coeffs, prefactor)
            formulas.append((f, F))
    assert len(formulas) >= 1000
    formulas += [
        (family_coeffs(t).formula, F)
        for t in (*range(-50, 0), *range(1, 51))
        for F in (1088, 8088)
    ]
    formulas += [
        (f, F)
        for f in (golden_formula(), load_preset("log2"))
        for F in (64, 1000, 10_000, 100_000)
    ]
    for f, F in formulas:
        K = _truncation(f, F)
        assert K == truncation_walk(f, F), (f, F)
        assert seeds[-1] < K, (f, F)


@pytest.mark.parametrize("shift", [5, -1, -5])
def test_truncation_steps_to_the_walk_from_a_misplaced_estimate(monkeypatch, shift):
    # the float estimate only seeds K: a floor too low is stepped up to
    # the same exact K; one 5 levels too high is kept as it is, since K
    # is never stepped down, and only sums more terms than the walk needs
    seeds = []

    def floor(x):
        seeds.append(math.floor(x) + shift)
        return seeds[-1]

    monkeypatch.setattr(formula_mod, "math", types.SimpleNamespace(log2=math.log2, floor=floor))
    formulas = (
        golden_formula(),
        load_preset("log2"),
        family_coeffs(-17).formula,
        BbpFormula(3, 10, 3, (5, 0, -2), Fraction(2, 3)),
    )
    for f in formulas:
        for F in (64, 1000, 8088):
            K, walk = _truncation(f, F), truncation_walk(f, F)
            if shift < 0:
                assert K == walk, (f, F)
            else:
                assert K == seeds[-1] > walk, (f, F)


def test_truncation_stops_only_below_the_majorant():
    # top = 16 * 2 * 2**64 = 2**69 equals den(63) = 64 * 2**63 * 1: K = 63
    # leaves a majorant of exactly one ulp, so K is 64
    f = BbpFormula(1, 2, 1, (16,), Fraction(1))
    assert _truncation(f, 64) == truncation_walk(f, 64) == 64


@pytest.mark.slow
def test_eval_log2_at_100000_bits_meets_fx_log():
    # fx_log works by square roots and atanh and shares no code with eval_P
    F = 100_000
    res = eval_P(load_preset("log2"), F).value
    ref = fx_log(FixedReal.from_int(2, F)).mul_int(2)
    assert abs(res.mantissa - ref.mantissa) <= res.err_ulp + ref.err_ulp
    assert agreement_bits(res, ref) >= F - 10


@pytest.mark.slow
@pytest.mark.parametrize("name", ["golden", "log2", "t=3"])
def test_stepped_eval_equals_the_folded_loop_at_100000_bits(name):
    # the widest registers eval_P steps in the tier-1 range and beyond it:
    # golden and t = 3 step single levels (t = 3 carries by Horner, o = 3),
    # log2 groups of 16 levels joined four to a block
    f = {
        "golden": golden_formula,
        "log2": lambda: load_preset("log2"),
        "t=3": lambda: family_coeffs(3).formula,
    }[name]()
    value = eval_P(f, 100_000).value
    assert (value.mantissa, value.err_ulp) == eval_P_folded(f, 100_000)


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
    # blank lines after the last line read alike with a label and without
    # one: a blank line 7 is no label, and any other line 7 must be one
    bare = text.replace("label 2*log(2)\n", "")
    assert parse_formula(text + "\n \n") == LOG2_FORMULA
    assert parse_formula(bare + "\n \n") == parse_formula(bare)
    assert emit_formula(parse_formula(bare + "\n")) == bare
    with pytest.raises(ParseError, match="^line 7: expected 'label ...', got 'more'$") as exc:
        parse_formula(bare + "more\n")
    assert exc.value.line == 7


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
