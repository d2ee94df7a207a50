"""Fixed-point arithmetic: examples, oracles, and interval soundness."""

from __future__ import annotations

import decimal
import functools
import hashlib
import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from bbplog.errors import DomainError, PrecisionError, ValidationError
from bbplog.family import golden_constant
from bbplog.numerics import (
    FixedReal,
    _atanh_horner,
    _atanh_small,
    _atanh_terms,
    _certified_digits,
    agreement_bits,
    fx_log,
    fx_sqrt,
    modpow,
)

from _oracles import (
    decimal_of_ends,
    e_series,
    golden_decimal,
    isqrt_binary_search,
    log2_series,
    modpow_bruteforce,
)

# floor(sqrt(5) * 2**64), confirmed below against the bisection oracle
SQRT5_MANTISSA_64 = 41248173712355948587


def fr(x: FixedReal) -> Fraction:
    return x.value


# -- construction and exact ops -----------------------------------------


def test_from_fraction_truncates_toward_zero():
    x = FixedReal.from_fraction(Fraction(1, 3), 8)
    assert x.mantissa == 85  # trunc(256/3)
    assert x.err_ulp == 1
    y = FixedReal.from_fraction(Fraction(-1, 3), 8)
    assert y.mantissa == -85
    assert y.err_ulp == 1


def test_exact_add_sub_scale():
    a = FixedReal.from_int(3, 32)
    b = FixedReal.from_fraction(Fraction(1, 4), 32)
    assert fr(a + b) == Fraction(13, 4)
    assert fr(a - b) == Fraction(11, 4)
    assert (a + b).err_ulp == 0
    assert fr(a.mul_int(-7)) == -21


def test_construction_rejects_no_fraction_bits_naming_the_field():
    with pytest.raises(ValidationError, match="^frac_bits: must be positive$"):
        FixedReal(1, 0)


def test_construction_rejects_a_negative_error_naming_the_field():
    with pytest.raises(ValidationError, match="^err_ulp: must be nonnegative$"):
        FixedReal(1, 64, -1)


@pytest.mark.parametrize("frac_bits", [0, -3])
def test_rescale_rejects_no_fraction_bits_naming_the_field(frac_bits):
    with pytest.raises(ValidationError, match="^frac_bits: must be positive$"):
        FixedReal(5, 64, 1).rescale(frac_bits)


def test_mixed_precision_rejected():
    with pytest.raises(ValueError):
        FixedReal.from_int(1, 32) + FixedReal.from_int(1, 64)


# -- fx_sqrt -------------------------------------------------------------


def test_sqrt_perfect_square_is_exact():
    x = fx_sqrt(FixedReal.from_int(4, 64))
    assert fr(x) == 2
    assert x.err_ulp == 0


def test_sqrt_zero():
    x = fx_sqrt(FixedReal.from_int(0, 64))
    assert x.mantissa == 0 and x.err_ulp == 0


def test_sqrt_negative_rejected():
    with pytest.raises(DomainError):
        fx_sqrt(FixedReal.from_int(-1, 64))


def test_sqrt5_matches_bisection_oracle():
    oracle = isqrt_binary_search(5 << 128)
    assert oracle == SQRT5_MANTISSA_64
    x = fx_sqrt(FixedReal.from_int(5, 64))
    assert abs(x.mantissa - oracle) <= 1
    assert x.err_ulp <= 1


def test_sqrt_error_is_the_smaller_of_both_bounds():
    # fx_sqrt computes only the bound that s*s >= e << F picks; it must
    # equal min(A, B) with both computed
    rng = random.Random(20261018)
    for _ in range(400):
        F = rng.choice([64, 96, 300])
        m = rng.randrange(1 << rng.randint(0, F + 8))
        e = rng.randrange(1, 1 << rng.randint(1, F + 8))
        scaled = m << F
        s = isqrt_binary_search(scaled)
        rounding = 0 if s * s == scaled else 1
        d = e << F
        prop = isqrt_binary_search(d)
        if prop * prop < d:
            prop += 1
        if s > 0:
            prop = min(prop, -(-d // s))
        assert fx_sqrt(FixedReal(m, F, e)).err_ulp == rounding + prop


def _sqrt_by_full_square(x: FixedReal) -> tuple[int, int]:
    # the expression fx_sqrt used before it tested low bits and bit
    # lengths first: square s in full, then decide both charges
    F = x.frac_bits
    scaled = x.mantissa << F
    s = math.isqrt(scaled)
    square = s * s
    e = 0 if square == scaled else 1
    if x.err_ulp:
        d = x.err_ulp << F
        if square >= d:
            e += -(-d // s)
        else:
            r = math.isqrt(d)
            e += r if r * r == d else r + 1
    return s, e


def test_sqrt_cheap_tests_match_full_square():
    rng = random.Random(20261018)
    cases = []
    # s*s and the scaled mantissa agree mod 2**64 but differ: s = a << 32
    # with s > 2**63 makes s*s = 0 mod 2**64, and adding k*2**64 <= 2s
    # keeps isqrt at s
    for _ in range(100):
        s = rng.randrange(1 << 31, 1 << 60) << 32
        k = rng.randrange(1, (2 * s >> 64) + 1)
        scaled = s * s + (k << 64)
        assert math.isqrt(scaled) == s
        assert (s * s - scaled) % (1 << 64) == 0 and s * s != scaled
        cases.append(FixedReal(scaled >> 64, 64, rng.choice([0, 1, k])))
    # exact squares, zero among them
    for F in (2, 64, 300):
        for r in (0, 1, 3 << F, (1 << 90) + 7 << F // 2 + 1):
            if r * r % (1 << F) == 0:
                cases += [FixedReal(r * r >> F, F, e) for e in (0, 1, 5)]
    # d = e << F on both sides of s*s and of the bit-length test
    for _ in range(100):
        F = rng.choice([64, 300])
        m = rng.randrange(1, 1 << rng.randint(1, F))
        for e in {m - 1, m, m + 1, 1 << m.bit_length(), 1 << m.bit_length() - 1}:
            if e > 0:
                cases.append(FixedReal(m, F, e))
    # random values
    for _ in range(200):
        F = rng.choice([64, 1100, 4100])
        m = rng.randrange(1 << rng.randint(0, F + 8))
        cases.append(FixedReal(m, F, rng.choice([0, rng.randrange(1, 1 << F)])))
    for x in cases:
        y = fx_sqrt(x)
        assert (y.mantissa, y.err_ulp) == _sqrt_by_full_square(x), x


# -- fx_log ---------------------------------------------------------------


def test_log_one_is_exact_zero():
    x = fx_log(FixedReal.from_int(1, 128))
    assert x.mantissa == 0 and x.err_ulp == 0


def test_log_nonpositive_rejected():
    with pytest.raises(DomainError):
        fx_log(FixedReal.from_int(0, 64))
    with pytest.raises(DomainError):
        fx_log(FixedReal.from_int(-2, 64))


def test_log2_matches_series_oracle():
    F = 256
    series, tail = log2_series(300)
    x = fx_log(FixedReal.from_int(2, F))
    assert abs(fr(x) - series) <= x.err + tail


def test_log_of_e_is_one():
    F = 256
    e_apx, tail = e_series(70)
    assert tail < Fraction(1, 1 << 300)
    x = fx_log(FixedReal.from_fraction(e_apx, F))
    # |ln(e +- tail) - 1| <= tail/(e - tail) < tail
    assert abs(fr(x) - 1) <= x.err + tail


def test_log_product_rule():
    F = 192
    for a, b in [(2, 3), (5, 7), (Fraction(3, 2), Fraction(7, 5))]:
        xa = fx_log(FixedReal.from_fraction(a, F))
        xb = fx_log(FixedReal.from_fraction(b, F))
        xab = fx_log(FixedReal.from_fraction(Fraction(a) * Fraction(b), F))
        diff = xab - (xa + xb)
        assert abs(diff.mantissa) <= diff.err_ulp + 2


def test_log_interval_reaching_zero_rejected():
    with pytest.raises(PrecisionError):
        fx_log(FixedReal(5, 64, 5))


def _far_from_one_grid(F: int) -> list[int]:
    """Mantissas of x = u * 2**n exactly, u in [1, 2), at F bits."""
    grid = []
    for n in (-600, -200, -64, -8, -1, 1, 4, 64, 300):
        if F + n < 20:
            continue
        for k in (1, 1 << 19, (1 << 20) - 1):
            grid.append(((1 << 20) + k) << (F + n - 20))
    return grid


@pytest.mark.parametrize("F", [96, 1000])
def test_log_far_from_one_contained_and_tight(F):
    # the square roots act on x itself, with bitlen(|n|) more steps and
    # |n| more bits below 1/2; the result must sit inside a 128-bit finer
    # one and keep a 2-ulp bound
    fine = F + 128
    for m in _far_from_one_grid(F):
        coarse = fx_log(FixedReal(m, F, 0))
        ref = fx_log(FixedReal(m << 128, fine, 0))
        assert abs(coarse.value - ref.value) <= coarse.err + ref.err, (F, m)
        assert coarse.err_ulp <= 2, (F, m, coarse.err_ulp)


# golden_constant(F) followed by fx_log over _far_from_one_grid(F), as
# computed before the atanh series used rectangular splitting: the low 16
# bits of each mantissa and a SHA-256 over the hex of all mantissas >> 16.
# Every recorded err_ulp was 2.
PINNED_LOGS = {
    64: (
        "29ce4f7b2193a4c7ba44017b738abfca",
        (57353, 12968, 25197, 44109, 34394, 46624, 0, 31153, 43382, 62294,
         59060, 5754, 24666, 27383, 39613, 58525, 38229, 50459, 3835),
    ),
    1000: (
        "96abbf3c92b512ed7669bf1971d5307f",
        (32202, 25664, 59247, 32629, 19476, 53059, 26441, 64558, 32605, 5987,
         6020, 39603, 12985, 31471, 65054, 38436, 1292, 34875, 8257, 21562,
         55145, 28527, 33741, 1788, 40706, 11740, 45323, 18705),
    ),
    20000: (
        "5f70d79cce68bf204b5c497f11324476",
        (27315, 58814, 1201, 14659, 26868, 34791, 48249, 33046, 40969, 54426,
         58720, 1107, 14564, 61929, 4316, 17774, 25396, 33319, 46776, 36134,
         44056, 57514, 54279, 62202, 10124, 3318, 11241, 24699),
    ),
}
PINNED_LOG_ERR = 2


@pytest.mark.parametrize("F", sorted(PINNED_LOGS))
def test_log_oracle_overlaps_pinned_intervals(F):
    # each recorded mantissa is the one nearest the new mantissa with the
    # recorded low 16 bits; the hash confirms all of them at once, so the
    # intervals overlap exactly when every distance is within both bounds
    digest, low16 = PINNED_LOGS[F]
    now = [golden_constant(F)]
    now += [fx_log(FixedReal(m, F, 0)) for m in _far_from_one_grid(F)]
    assert len(now) == len(low16)
    pinned = [
        x.mantissa + ((low - x.mantissa + (1 << 15)) & 0xFFFF) - (1 << 15)
        for x, low in zip(now, low16)
    ]
    joined = ",".join(format(m >> 16, "x") for m in pinned)
    assert hashlib.sha256(joined.encode()).hexdigest()[:32] == digest
    for i, (x, m) in enumerate(zip(now, pinned)):
        assert abs(x.mantissa - m) <= x.err_ulp + PINNED_LOG_ERR, (F, i)
        assert x.err_ulp <= PINNED_LOG_ERR, (F, i, x.err_ulp)


# -- the atanh series --------------------------------------------------------


@pytest.mark.parametrize("F", [64, 200, 1000])
def test_atanh_series_length_is_proven(F):
    # for fixed n the bound grows with zb, so the largest zb of each
    # bit length, 2**b - 1, covers every zb < 2**(F-1): bit length 1 is
    # the 1-ulp input, F - 1 is |z| just below 1/2 (lam = 1)
    one = 1 << F
    for b in range(1, F):
        zb = (1 << b) - 1
        n = _atanh_terms(zb, F)
        z = Fraction(zb, one)
        tail = z ** (2 * n + 1) / ((2 * n + 1) * (1 - z * z))
        assert tail < Fraction(2, 3 * one), (F, b, n)
        # and n is the smallest with (2n+1)*lam >= F+1
        lam = F - b
        assert (2 * n - 1) * lam < F + 1 <= (2 * n + 1) * lam, (F, b, n)


# |z| for the containment checks below; None stands for one ulp
ATANH_MAGNITUDES = {
    "ulp": None,
    "2^-40": Fraction(5, 7) / 2**40,
    "2^-8": Fraction(5, 7) / 2**8,
    "2^-1": Fraction(1, 2) - Fraction(1, 97),
}
# _atanh_small's err_ulp at err_ulp 0 and 3 of its input, either sign, as
# recorded when it did one full multiplication per term
ATANH_PARENT_ERR = {
    (64, "ulp"): (2, 5), (64, "2^-40"): (2, 5),
    (64, "2^-8"): (7, 10), (64, "2^-1"): (54, 58),
    (1000, "ulp"): (2, 5), (1000, "2^-40"): (20, 23),
    (1000, "2^-8"): (116, 119), (1000, "2^-1"): (956, 960),
    (8000, "ulp"): (2, 5), (8000, "2^-40"): (197, 200),
    (8000, "2^-8"): (937, 940), (8000, "2^-1"): (7753, 7757),
}


def _atanh_inputs(F: int):
    for name, v in ATANH_MAGNITUDES.items():
        m = 1 if v is None else FixedReal.from_fraction(v, F).mantissa
        for sign in (1, -1):
            for i, e in enumerate((0, 3)):
                yield name, i, FixedReal(sign * m, F, e)


@functools.lru_cache(maxsize=None)
def _atanh_decimal_ulp(m: int, F: int) -> Decimal:
    """atanh(m * 2**-F) * 2**F from the decimal module's ln, at
    F*0.302 + 40 digits: its own rounding stays below 10**-30 ulp."""
    if m < 0:
        return _atanh_decimal_ulp(-m, F).copy_negate()
    ctx = decimal.Context(prec=int(F * 0.302) + 40)
    z = ctx.divide(m, 1 << F)
    ln = ctx.ln(ctx.divide(ctx.add(1, z), ctx.subtract(1, z)))
    return ctx.multiply(ln, 1 << (F - 1))


@pytest.mark.parametrize(
    "F", [64, 1000, pytest.param(8000, marks=pytest.mark.slow)]
)
def test_atanh_series_contains_decimal_reference(F):
    # the interval must hold atanh at every point of the input's own
    # interval; atanh is monotone, so its ends and middle suffice
    slack = Fraction(1, 10**20)
    for name, _, z in _atanh_inputs(F):
        got = _atanh_small(z)
        for m in {z.mantissa - z.err_ulp, z.mantissa, z.mantissa + z.err_ulp}:
            ref = Fraction(_atanh_decimal_ulp(m, F))
            lo = got.mantissa - got.err_ulp
            hi = got.mantissa + got.err_ulp
            assert lo - slack <= ref <= hi + slack, (F, name, z.err_ulp, m)


@pytest.mark.parametrize("F", [64, 1000, 8000])
def test_atanh_series_err_no_larger_than_recorded(F):
    for name, i, z in _atanh_inputs(F):
        got = _atanh_small(z).err_ulp
        assert got <= ATANH_PARENT_ERR[F, name][i], (F, name, z, got)


def _atanh_powers(z: FixedReal) -> tuple[int, list[FixedReal]]:
    """n and the powers y**0..y**s, s = isqrt(n), that _atanh_small sums."""
    F = z.frac_bits
    n = _atanh_terms(abs(z.mantissa) + z.err_ulp, F)
    y = z * z
    powers = [FixedReal.from_int(1, F), y]
    for _ in range(math.isqrt(n) - 1):
        powers.append(powers[-1] * y)
    return n, powers


def _series_at_corners(pm: list[int], pe: list[int], n: int, F: int):
    """sum_{k<n} y_k/(2k+1) in ulp, exactly, as (numerator, denominator),
    with y_k = y**(k mod s) * Y**(k div s), s = len(pm) - 1, Y = y**s and
    every power at the low end, the middle and the high end of its
    interval: each is a point the series' bound must cover."""
    s = len(pm) - 1
    for sign in (-1, 0, 1):
        p = [m + sign * e for m, e in zip(pm, pe)]
        num, den = 0, 1
        for b in reversed(range(-(-n // s))):
            ks = range(b * s, min(b * s + s, n))
            d = math.prod(2 * k + 1 for k in ks)
            block = sum(p[k - b * s] * (d // (2 * k + 1)) for k in ks)
            # num/den * p[s]/2**F + block/d
            num, den = num * p[s] * d + block * (den << F), (den * d) << F
        yield num, den


def _assert_series_holds_exact_sums(z: FixedReal) -> None:
    # z times the exact sum of the powers _atanh_small computes, at every
    # corner of z's and the powers' intervals, lies within the returned
    # bound less the tail's ulp
    F = z.frac_bits
    got = _atanh_small(z)
    n, powers = _atanh_powers(z)
    pm = [p.mantissa for p in powers]
    pe = [p.err_ulp for p in powers]
    room = got.err_ulp - 1
    for num, den in _series_at_corners(pm, pe, n, F):
        for zm in (z.mantissa - z.err_ulp, z.mantissa, z.mantissa + z.err_ulp):
            # zm/2**F * num/den against got.mantissa, in ulp
            gap = abs(zm * num - got.mantissa * (den << F))
            assert gap <= room * (den << F), (z, zm)


@pytest.mark.parametrize("F", [64, 1000])
def test_atanh_series_holds_exact_sum_of_its_powers(F):
    rng = random.Random(F)
    inputs = [z for _, _, z in _atanh_inputs(F)]
    for _ in range(40):
        m = rng.randrange(1, 1 << (F - rng.randint(2, F - 1)))
        inputs.append(FixedReal(rng.choice((1, -1)) * m, F, rng.choice((0, 1, 9))))
    for z in inputs:
        _assert_series_holds_exact_sums(z)


def _taper(z: FixedReal) -> tuple[int, int, list[int]]:
    """c, the block count nb and delta_0..delta_nb of z's series."""
    F = z.frac_bits
    n, powers = _atanh_powers(z)
    s = len(powers) - 1
    c = F - (powers[s].mantissa + powers[s].err_ulp).bit_length()
    nb = -(-n // s)
    return c, nb, [min(b * c, F - 1) for b in range(nb + 1)]


@pytest.mark.parametrize("F", [64, 1000, 8000])
@pytest.mark.parametrize("e", [0, 3])
def test_atanh_series_of_one_ulp_is_one_block(F, e):
    for sign in (1, -1):
        z = FixedReal(sign, F, e)
        assert _taper(z)[1] == 1
        # atanh(2**-F) = 2**-F + 2**-3F/3 + ...: the one block is y**0
        assert _atanh_small(z) == FixedReal(sign, F, e + 1)
        _assert_series_holds_exact_sums(z)


@pytest.mark.parametrize(
    "F, m, capped",
    [
        # |z| just below 1/2: c = 9 is smallest, and nb*c = 63 = F - 1
        (64, (1 << 63) - 2, 0),
        # |z| just above 1/4: the same n, c twice as large, so nb*c > F
        # and the deepest blocks sit at the cap
        (64, (1 << 62) + 1, 3),
        (1000, (1 << 998) + 1, 11),
        # |z| = 5/7 * 2**-8, as in fx_log: nb*c just above F, no block capped
        (1000, (5 << 1000) // (7 << 8), 0),
    ],
)
def test_atanh_series_tapers_to_the_width_cap(F, m, capped):
    for e in (0, 1, 9):
        for z in (FixedReal(m - e, F, e), FixedReal(e - m, F, e)):
            c, nb, delta = _taper(z)
            assert nb * c >= F - 1
            assert delta[-1] == F - 1
            assert sum(d == F - 1 for d in delta[:-1]) == capped
            _assert_series_holds_exact_sums(z)
            got = _atanh_small(z)
            slack = Fraction(1, 10**20)
            for mm in (z.mantissa - e, z.mantissa + e):
                ref = Fraction(_atanh_decimal_ulp(mm, F))
                assert got.mantissa - got.err_ulp - slack <= ref
                assert ref <= got.mantissa + got.err_ulp + slack


def _assert_horner_holds(pm: list[int], pe: list[int], n: int, F: int) -> None:
    acc, err = _atanh_horner(pm, pe, n, F)
    for num, den in _series_at_corners(pm, pe, n, F):
        assert abs(num - acc * den) <= err * den, (pm, pe, n, F)


def test_atanh_horner_charges_each_inexact_floor():
    F = 64
    # one block, exact shifts: only the terms' floors, by 3 and by 5, are
    # inexact
    _assert_horner_holds([1 << F, 1 << 50, 1 << 40, 1 << 20], [0] * 4, 3, F)
    # s = 1, three blocks at delta 0, 8, 16: every block sum is exact, and
    # only the two Horner floors lose (almost) a whole ulp each
    pm, n = [15 << 40, (1 << 56) - 1], 3
    assert _atanh_horner(pm, [0, 0], n, F)[1] == 2
    _assert_horner_holds(pm, [0, 0], n, F)
    # an error on Y that is large against Y itself
    _assert_horner_holds([1 << F, 1 << 50], [0, 1 << 40], 4, F)
    # small widths where the charge for Y's error is a fraction of an ulp:
    # floored instead of ceiled, it leaves each bound one ulp short
    _assert_horner_holds([128, 28], [0, 3], 2, 7)
    _assert_horner_holds([128, 12, 19], [0, 0, 28], 4, 7)
    _assert_horner_holds([256, 33], [0, 79], 2, 8)


@pytest.mark.parametrize("F", [16, 64, 200])
def test_atanh_horner_holds_exact_sums_at_its_corners(F):
    # any mantissas >= 0 with Y_m + Y_e < 2**F, not just powers of one y
    rng = random.Random(F)
    for _ in range(150):
        s = rng.randint(1, 6)
        pm = [rng.randrange(1 << rng.randint(1, F)) for _ in range(s + 1)]
        pe = [rng.choice((0, 1, 9, m >> rng.randint(0, 8))) for m in pm]
        while pm[s] + pe[s] >= 1 << F:
            pm[s] >>= 1
            pe[s] >>= 1
        _assert_horner_holds(pm, pe, rng.randint(1, 12 * s), F)


def _small_horner_inputs(F: int, s: int):
    """Every (pm, pe) of s + 1 powers at width F with pm_j <= 2**F, pe_j <=
    3 and Y_m + Y_e < 2**F; at s = 2, y**0 is the exact one of
    _atanh_small, as s = 1 already runs every y**0."""
    pairs = list(itertools.product(range((1 << F) + 1), range(4)))
    tops = [(m, e) for m, e in pairs if m + e < 1 << F]
    heads = [[p] for p in pairs] if s == 1 else [[(1 << F, 0), p] for p in pairs]
    for head in heads:
        for top in tops:
            pm, pe = zip(*head, top)
            yield list(pm), list(pe)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize(
    "F",
    [
        1, 2, 3, 4,
        pytest.param(5, marks=pytest.mark.slow),
        pytest.param(6, marks=pytest.mark.slow),
    ],
)
def test_atanh_horner_holds_every_small_case(F, s):
    # exhaustive at small widths, where each floor and each charge is a
    # sizeable part of an ulp: 1 <= n <= 3s covers one to three blocks
    for pm, pe in _small_horner_inputs(F, s):
        for n in range(1, 3 * s + 1):
            _assert_horner_holds(pm, pe, n, F)


def test_atanh_series_rejects_half_and_keeps_exact_zero():
    F = 64
    with pytest.raises(PrecisionError):
        _atanh_small(FixedReal((1 << (F - 1)) - 1, F, 1))
    with pytest.raises(PrecisionError):
        _atanh_small(FixedReal(-(1 << (F - 1)), F, 0))
    zero = _atanh_small(FixedReal(0, F, 0))
    assert zero.mantissa == 0 and zero.err_ulp == 0


@pytest.mark.slow
def test_golden_constant_at_100000_bits_contains_decimal_reference():
    F = 100_000
    x = golden_constant(F)
    ctx = decimal.Context(prec=int(F * 0.302) + 40)
    ref, ref_err = golden_decimal(ctx)
    scaled = Fraction(ctx.multiply(ref, 1 << F))
    slack = Fraction(ctx.multiply(ref_err, 1 << F)) + Fraction(1, 10**20)
    assert slack < 1
    lo, hi = x.mantissa - x.err_ulp, x.mantissa + x.err_ulp
    assert lo - slack <= scaled <= hi + slack
    assert x.err_ulp <= 2


# -- interval soundness properties ----------------------------------------


def _random_fraction(rng: random.Random, bits: int = 24) -> Fraction:
    num = rng.randint(-(1 << bits), 1 << bits)
    den = rng.randint(1, 1 << bits)
    return Fraction(num, den)


def check_ring_ops_sound(cases: int, seed: int = 20260809, frac_bits: int = 96) -> int:
    """Exact-rational containment check for +,-,*,/ and scalar ops.

    Returns the number of violations (must be zero).
    """
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        fa, fb = _random_fraction(rng), _random_fraction(rng)
        a = FixedReal.from_fraction(fa, frac_bits)
        b = FixedReal.from_fraction(fb, frac_bits)
        pairs = [
            (a + b, fa + fb),
            (a - b, fa - fb),
            (a * b, fa * fb),
            (a.mul_fraction(fb), fa * fb),
            (a.div_int(7), fa / 7),
            (a.div_int(-7), fa / -7),
            (a.rescale(frac_bits - 17).rescale(frac_bits), fa),
        ]
        if abs(b.mantissa) > b.err_ulp:
            pairs.append((a / b, fa / fb))
        for got, exact in pairs:
            if abs(got.value - exact) > got.err:
                bad += 1
    return bad


def check_sqrt_sound(cases: int, seed: int = 20260810, frac_bits: int = 96) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        fa = abs(_random_fraction(rng))
        x = FixedReal.from_fraction(fa, frac_bits)
        if x.mantissa < 0:
            continue
        r = fx_sqrt(x)
        lo = max(r.mantissa - r.err_ulp, 0)
        hi = r.mantissa + r.err_ulp
        scale = Fraction(1, 1 << (2 * frac_bits))
        # containment of sqrt(fa) in [lo, hi] ulp, squared to stay rational
        if not (lo * lo * scale <= fa <= hi * hi * scale):
            bad += 1
    return bad


def check_log_atanh_sound(cases: int, seed: int = 20260811, frac_bits: int = 96) -> int:
    """Cross-precision containment: a coarse result must agree with a
    reference computed 128 bits finer within the sum of both bounds.
    atanh v is taken as half the log of the exact quotient (1+v)/(1-v),
    as the family's oracle takes it."""
    rng = random.Random(seed)
    fine = frac_bits + 128
    bad = 0
    for _ in range(cases):
        fa = abs(_random_fraction(rng)) + Fraction(1, 1 << 20)
        r1 = fx_log(FixedReal.from_fraction(fa, frac_bits))
        r2 = fx_log(FixedReal.from_fraction(fa, fine))
        if abs(r1.value - r2.value) > r1.err + r2.err:
            bad += 1
        ft = Fraction(rng.randint(-(1 << 20) + 1, (1 << 20) - 1), 1 << 20)
        q = (1 + ft) / (1 - ft)
        a1 = fx_log(FixedReal.from_fraction(q, frac_bits)).div_int(2)
        a2 = fx_log(FixedReal.from_fraction(q, fine)).div_int(2)
        if abs(a1.value - a2.value) > a1.err + a2.err:
            bad += 1
    return bad


def test_ring_ops_interval_soundness():
    assert check_ring_ops_sound(1000) == 0
    with pytest.raises(ZeroDivisionError):
        FixedReal.from_int(1, 96).div_int(0)


def test_sqrt_interval_soundness():
    assert check_sqrt_sound(1000) == 0


def test_log_atanh_interval_soundness():
    assert check_log_atanh_sound(250) == 0


# -- modpow ----------------------------------------------------------------


def test_modpow_examples():
    assert modpow(2, 10, 1000) == 24
    assert modpow(2, 0, 7) == 1
    assert modpow(5, 3, 1) == 0


def test_modpow_rejects_bad_modulus():
    with pytest.raises(DomainError):
        modpow(2, 3, 0)
    with pytest.raises(DomainError):
        modpow(2, -1, 7)


def test_modpow_large_exponent_vs_bruteforce():
    m = 40 * 10**4 + 7
    assert modpow(2, 10**6, m) == modpow_bruteforce(2, 10**6, m)


def check_modpow_oracle(cases: int, seed: int = 20260812) -> int:
    rng = random.Random(seed)
    bad = 0
    for _ in range(cases):
        base = rng.randint(-(1 << 48), 1 << 48)
        exp = rng.randint(0, 3000)
        m = rng.randint(1, 1 << 40)
        if modpow(base, exp, m) != modpow_bruteforce(base, exp, m):
            bad += 1
    return bad


def test_modpow_matches_bruteforce_oracle():
    assert check_modpow_oracle(1000) == 0


def test_modpow_exponent_splitting():
    rng = random.Random(7)
    for _ in range(200):
        base = rng.randint(2, 1 << 64)
        e1 = rng.randint(0, 1 << 40)
        e2 = rng.randint(0, 1 << 40)
        m = rng.randint(2, 1 << 50)
        assert (
            modpow(base, e1 + e2, m)
            == modpow(base, e1, m) * modpow(base, e2, m) % m
        )


# -- decimal printing -------------------------------------------------------


def test_decimal_certified_digits():
    x = FixedReal.from_fraction(Fraction(1, 3), 64)
    s = x.decimal(10)
    assert s.startswith("0.33333")
    x0 = FixedReal.from_int(1, 64)
    assert x0.decimal(4) == "1.0000"
    neg = FixedReal.from_fraction(Fraction(-7, 4), 64)
    assert neg.decimal(4) == "-1.7500"


def test_decimal_rejects_a_negative_digit_count():
    x = FixedReal.from_fraction(Fraction(7, 4), 64)
    assert x.decimal(0) == "1"
    with pytest.raises(ValidationError, match="digits: must be nonnegative"):
        x.decimal(-1)


def test_decimal_marks_uncertified_request():
    # err of 2**32 ulp at F=64 leaves ~9 decimal digits defensible
    x = FixedReal((1 << 64) // 3, 64, 1 << 32)
    s = x.decimal(18)
    assert s.endswith("~")
    assert s.startswith("0.3333333")
    assert len(s) < 2 + 18


def test_decimal_interval_straddling_boundary_prints_nothing_false():
    # the interval [0.4999.., 0.5000..] shares no decimal digit
    x = FixedReal((1 << 63) + 12345, 64, 1 << 32)
    assert x.decimal(18) == "0~"


def test_decimal_undefended_integer_part_prints_tilde_alone():
    F = 64
    # [1 - 2**-63, 1 + 2**-63]: the integer part is 0 or 1
    assert FixedReal(1 << F, F, 2).decimal() == "~"
    # [99.99.., 100.00..]
    assert FixedReal(100 << F, F, 1 << 40).decimal(6) == "~"
    assert FixedReal(-(100 << F), F, 1 << 40).decimal(6) == "~"
    # across zero and wider than +-1
    assert FixedReal(0, F, 3 << F).decimal() == "~"
    assert FixedReal(1 << (F - 1), F, 2 << F).decimal() == "~"
    # across zero within (-1, 1): the integer part 0 is still defended
    assert FixedReal(0, F, 1 << (F - 2)).decimal() == "0~"
    # one end at an integer, the other below it
    assert FixedReal((2 << F) - 1, F, 1).decimal(3) == "~"


def test_certified_digits_of_ends_with_different_integer_parts():
    # (-1, lo's integer part) however far apart the integer parts are, and
    # whatever count is asked: the integer-part test decides before any
    # digit is searched
    F = 8
    for r in (2, 3, 10, 16):
        for lo, hi in ((0, 1 << F), (0, 2 << F), (5, 9 << F), (3 << F, (17 << F) + 5), (255, 256)):
            for count in (0, 1, F, F + 2, 40):
                assert _certified_digits(lo, hi, F, r, count) == (-1, lo >> F), (lo, hi, r, count)


def test_decimal_full_capacity_beyond_int_str_limit():
    # 6020 digits, past the 4300 that str(int) allows by default; the last
    # one is not defended by the 1-ulp bound and is marked, not printed
    s = FixedReal.from_fraction(Fraction(1, 3), 20000).decimal()
    assert re.fullmatch(r"0\.3{6000,}~?", s)


# prints at the 300 000-bit cap, recorded before decimal's digit search
# moved into numerics._certified_digits
@pytest.mark.slow
def test_decimal_prints_at_the_cap_are_unchanged():
    F = 300_000
    # 1/2 -+ 3 ulps: the ends differ in their first digit, past which one
    # runs on in nines and the other in zeros for about 90 300 digits
    assert FixedReal(1 << (F - 1), F, 3).decimal() == "0~"
    # 1/10 - 10**-60000 -+ 3 ulps: 59 998 nines certified, then the ends
    # differ, one of them in a run of zeros, the other in a run of nines
    v = Fraction(1, 10) - Fraction(1, 10**60000)
    s = FixedReal(v.numerator * 2**F // v.denominator, F, 3).decimal()
    assert s == "0.0" + "9" * 59998 + "~"
    # 1/3 at full capacity: 90 308 threes, the last one not defended
    assert FixedReal.from_fraction(Fraction(1, 3), F).decimal() == "0." + "3" * 90308 + "~"


def test_decimal_beyond_precision_matches_uncapped_print():
    rng = random.Random(20261017)
    for _ in range(400):
        F = rng.randint(1, 120)
        m = rng.randint(-(1 << (F + 8)), 1 << (F + 8))
        err = rng.choice([0, 1, rng.randint(1, 1 << 8), rng.randint(1, 1 << F)])
        x = FixedReal(m, F, err)
        for digits in (F + 1, F + 7, 3 * F + 11):
            assert x.decimal(digits) == decimal_of_ends(x, digits), (m, F, err, digits)


def test_agreement_bits_caps_at_precision():
    a = FixedReal.from_int(1, 64)
    assert agreement_bits(a, a) == 64
    b = FixedReal((1 << 64) + (1 << 10), 64, 0)
    assert agreement_bits(a, b) == 53
