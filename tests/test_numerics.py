"""Fixed-point arithmetic: examples, oracles, and interval soundness."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from bbplog.errors import DomainError, PrecisionError
from bbplog.numerics import FixedReal, agreement_bits, fx_atanh, fx_log, fx_sqrt, modpow

from _oracles import (
    e_series,
    isqrt_binary_search,
    log2_series,
    modpow_bruteforce,
    sqrt5_pair_pow,
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


# -- fx_atanh -------------------------------------------------------------


def test_atanh_zero():
    x = fx_atanh(FixedReal.from_int(0, 96))
    assert x.mantissa == 0 and x.err_ulp == 0


def test_atanh_is_odd():
    z = FixedReal.from_fraction(Fraction(3, 7), 128)
    assert fx_atanh(-z).mantissa == -fx_atanh(z).mantissa


def test_atanh_domain_gate():
    with pytest.raises(DomainError):
        fx_atanh(FixedReal.from_int(1, 64))
    with pytest.raises(DomainError):
        fx_atanh(FixedReal.from_int(-3, 64))


def test_atanh_of_2_over_sqrt5_is_3_log_phi():
    # (1 + sqrt5)**6 = 576 + 256*sqrt5, so phi**6 = (576 + 256*sqrt5)/64
    # = 9 + 4*sqrt5 and atanh(2/sqrt5) = log(9 + 4*sqrt5)/2 = 3 log phi.
    assert sqrt5_pair_pow(1, 1, 6) == (576, 256)
    F = 320
    s5 = fx_sqrt(FixedReal.from_int(5, F))
    arg = s5.mul_fraction(Fraction(2, 5))  # 2/sqrt5 = 2*sqrt5/5
    lhs = fx_atanh(arg)
    one = FixedReal.from_int(1, F)
    phi = (one + s5).div_int(2)
    rhs = fx_log(phi).mul_int(3)
    assert agreement_bits(lhs, rhs) >= F - 16


def test_atanh_log_identity():
    F = 256
    one = FixedReal.from_int(1, F)
    for v in [Fraction(1, 3), Fraction(-4, 11), Fraction(9, 10)]:
        x = FixedReal.from_fraction(v, F)
        direct = fx_atanh(x)
        via_logs = (fx_log(one + x) - fx_log(one - x)).div_int(2)
        d = direct - via_logs
        assert abs(d.mantissa) <= d.err_ulp + 1


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
    reference computed 128 bits finer within the sum of both bounds."""
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
        a1 = fx_atanh(FixedReal.from_fraction(ft, frac_bits))
        a2 = fx_atanh(FixedReal.from_fraction(ft, fine))
        if abs(a1.value - a2.value) > a1.err + a2.err:
            bad += 1
    return bad


def test_ring_ops_interval_soundness():
    assert check_ring_ops_sound(1000) == 0


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


def test_decimal_full_capacity_beyond_int_str_limit():
    # 6020 digits, past the 4300 that str(int) allows by default; the last
    # one is not defended by the 1-ulp bound and is marked, not printed
    s = FixedReal.from_fraction(Fraction(1, 3), 20000).decimal()
    assert re.fullmatch(r"0\.3{6000,}~?", s)


def _decimal_uncapped(x: FixedReal, digits: int) -> str:
    """The common decimal prefix of both interval ends at all ``digits``
    places, with no shortcut: the reference the capped print must match."""
    lo, hi = x.mantissa - x.err_ulp, x.mantissa + x.err_ulp
    if lo < 0 <= hi:
        return "0~"
    sign = ""
    if hi < 0:
        sign, lo, hi = "-", -hi, -lo
    s_lo, s_hi = (str((v * 10**digits) >> x.frac_bits) for v in (lo, hi))
    width = max(len(s_lo), len(s_hi), digits + 1)
    s_lo, s_hi = s_lo.zfill(width), s_hi.zfill(width)
    common = 0
    while common < width and s_lo[common] == s_hi[common]:
        common += 1
    out = sign + (s_lo[: width - digits].lstrip("0") or "0")
    if s_lo[width - digits : common]:
        out += "." + s_lo[width - digits : common]
    return out + ("~" if common < width else "")


def test_decimal_beyond_precision_matches_uncapped_print():
    rng = random.Random(20261017)
    for _ in range(400):
        F = rng.randint(1, 120)
        m = rng.randint(-(1 << (F + 8)), 1 << (F + 8))
        err = rng.choice([0, 1, rng.randint(1, 1 << 8), rng.randint(1, 1 << F)])
        x = FixedReal(m, F, err)
        for digits in (F + 1, F + 7, 3 * F + 11):
            assert x.decimal(digits) == _decimal_uncapped(x, digits), (m, F, err, digits)


def test_agreement_bits_caps_at_precision():
    a = FixedReal.from_int(1, 64)
    assert agreement_bits(a, a) == 64
    b = FixedReal((1 << 64) + (1 << 10), 64, 0)
    assert agreement_bits(a, b) == 53
