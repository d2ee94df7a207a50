"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths under test: square
roots by pure binary search, series summed in exact rational arithmetic
or in the decimal module, modular exponentiation by brute-force repeated
multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction


def isqrt_binary_search(n: int) -> int:
    """floor(sqrt(n)) found by bisection on y*y <= n."""
    if n < 0:
        raise ValueError("negative input")
    if n < 2:
        return n
    lo, hi = 1, 1 << (n.bit_length() + 1) // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo


def log2_series(terms: int) -> tuple[Fraction, Fraction]:
    """(partial sum, tail bound) of ln 2 = sum_{r>=1} 1/(r*2**r)."""
    total = Fraction(0)
    for r in range(1, terms + 1):
        total += Fraction(1, r * (1 << r))
    tail = Fraction(1, (terms + 1) * (1 << terms))
    return total, tail


def e_series(terms: int) -> tuple[Fraction, Fraction]:
    """(partial sum, tail bound) of e = sum_{k>=0} 1/k!."""
    total = Fraction(0)
    fact = 1
    for k in range(terms + 1):
        if k:
            fact *= k
        total += Fraction(1, fact)
    tail = Fraction(2, fact * (terms + 1))
    return total, tail


def golden_decimal(ctx):
    """(value, error bound) of sqrt(5)*log(phi) as Decimals in ``ctx``.

    log(phi) = atanh(1/sqrt5), so sqrt(5)*log(phi) = sum_k 5**-k/(2k+1),
    summed until 5**-k < 10**-prec.  The tail left is below 5**-k * 5/4
    < 2 * power, and each of the 3k rounded operations is off by at most
    one unit in the last place of a value below 2, so 10**(1 - prec).
    """
    eps = ctx.scaleb(1, -ctx.prec)
    total = ctx.create_decimal(0)
    power = ctx.create_decimal(1)
    k = 0
    while power >= eps:
        total = ctx.add(total, ctx.divide(power, 2 * k + 1))
        power = ctx.divide(power, 5)
        k += 1
    rounding = ctx.multiply(3 * k, ctx.scaleb(1, 1 - ctx.prec))
    return total, ctx.add(ctx.multiply(power, 2), rounding)


def li1_radicands_decimal(t: int, ctx):
    """(radicands, error bound) of R_i = 1 - 2q cos x_i + q^2 as Decimals
    in ``ctx``, for q = sqrt(2)/(2t) and x_i = k*pi/20, k = 1, 7, 9, 17.

    The cosines come from the closed forms cos(pi/10) = sqrt((5+sqrt5)/8),
    cos(3pi/10) = sqrt((5-sqrt5)/8) and the half-angle steps, each a
    correctly rounded Decimal.sqrt: no angle-sum identity, unlike
    ``bbplog.verify``.  Every intermediate value is below 10 in magnitude,
    so each operation rounds by at most u/2, u = 10**(1 - prec).
    |sqrt(a) - sqrt(b)| <= |a - b|/sqrt(b), so an input error grows at
    most 1/sqrt(0.0244) < 6.5 times through a square root (the smallest
    radicand is cos(9pi/20)**2 > 0.0244).  Followed through the fixed
    sequence, the cosines are off by under 13u and q, with |q| <=
    1/sqrt(2), by under u, so each R_i is off by under 26u, which is
    returned.
    """
    two, five = ctx.create_decimal(2), ctx.create_decimal(5)
    s5 = ctx.sqrt(five)
    c1 = ctx.sqrt(ctx.divide(ctx.add(five, s5), 8))  # cos(pi/10)
    c3 = ctx.sqrt(ctx.divide(ctx.subtract(five, s5), 8))  # cos(3pi/10)
    cosines = (
        ctx.sqrt(ctx.divide(ctx.add(1, c1), two)),
        ctx.sqrt(ctx.divide(ctx.subtract(1, c3), two)),
        ctx.sqrt(ctx.divide(ctx.subtract(1, c1), two)),
        ctx.minus(ctx.sqrt(ctx.divide(ctx.add(1, c3), two))),
    )
    q = ctx.divide(ctx.sqrt(two), 2 * t)
    q2 = ctx.multiply(q, q)
    radicands = tuple(
        ctx.add(ctx.subtract(1, ctx.multiply(2, ctx.multiply(q, c))), q2) for c in cosines
    )
    return radicands, ctx.scaleb(26, 1 - ctx.prec)


def li1_decomposition_decimal(t: int, ctx):
    """(value, error bound) of -1/2 * sum_i (-1)**i ln R_i as Decimals in
    ``ctx``, over the radicands of :func:`li1_radicands_decimal`.

    |ln a - ln b| <= |a - b|/min(a, b) lets a radicand's error of under
    26u grow at most 12 times through ln (each R_i >= (1 - 1/sqrt2)**2 >
    0.0857, still above 0.084 once rounded), so each ln is off by under
    313u and the result by under 630u; 1000u is returned.
    """
    radicands, _ = li1_radicands_decimal(t, ctx)
    total = ctx.create_decimal(0)
    for i, radicand in enumerate(radicands):
        log = ctx.ln(radicand)
        total = ctx.add(total, log) if i % 2 == 0 else ctx.subtract(total, log)
    return ctx.divide(total, -2), ctx.scaleb(1, 4 - ctx.prec)


def li1_decomposition_sides(t: int, work: int):
    """Both sides of the alternating four-term log identity at ``work``
    bits, as FixedReals, each side taking its own log.

    Left side: ``fx_atanh`` of a = u(t)*sqrt(5).  Right side: -1/2 sum_i
    (-1)**i ln R_i, taken as one log of one quotient, sum_i (-1)**i ln R_i
    = ln(E / C) over E = 4t^4 R_0 R_2 and C = 4t^4 R_1 R_3 (the 4t^4
    cancels), oriented to be >= 1 (the larger product over the smaller,
    the sign flipped), as ``fx_atanh`` does.  Each product comes from its
    pair's sum s and product p of sqrt(2)cos x_i: with A = 2t^2 + 1,
    2t^2 R_i = A - 2t sqrt(2)cos x_i, so 4t^4 R_i R_j = A^2 - 2tA*s +
    4t^2*p, with s and p from a certified sqrt(5): a second route to the
    pair products, not ``bbplog.verify``'s integer form in m = 4t^2 - t +
    2.  It is the two-log reference for ``verify_decomposition``, and the
    decimal oracle above checks its right side.
    """
    from bbplog.family import _lhs_argument
    from bbplog.numerics import FixedReal, fx_atanh, fx_log, fx_sqrt

    s5 = fx_sqrt(FixedReal.from_int(5, work))
    one = FixedReal.from_int(1, work)
    lhs = fx_atanh(s5.mul_fraction(_lhs_argument(t)))
    A = 2 * t * t + 1
    # (sum, product) of the pairs: 2cos(pi/5), cos(2pi/5); -2sin(pi/10), -cos(pi/5)
    pairs = (
        ((s5 + one).div_int(2), (s5 - one).div_int(4)),
        ((one - s5).div_int(2), (s5 + one).div_int(-4)),
    )
    num, den = (
        FixedReal.from_int(A * A, work) - s.mul_int(2 * t * A) + p.mul_int(4 * t * t)
        for s, p in pairs
    )
    if num.mantissa >= den.mantissa:
        return lhs, fx_log(num / den).div_int(-2)
    return lhs, fx_log(den / num).div_int(2)


def modpow_bruteforce(base: int, exp: int, m: int) -> int:
    """base**exp mod m by exp successive multiplications."""
    result = 1 % m
    b = base % m
    for _ in range(exp):
        result = result * b % m
    return result


def bbp_sum_exact(
    degree: int,
    base: int,
    coeffs: tuple[int, ...],
    prefactor: Fraction,
    outer_terms: int,
) -> Fraction:
    """Partial sum of prefactor * P(s, b, l, A) in exact arithmetic."""
    length = len(coeffs)
    total = Fraction(0)
    bpow = 1
    for k in range(outer_terms):
        for j, a in enumerate(coeffs, start=1):
            if a:
                total += Fraction(a, bpow * (k * length + j) ** degree)
        bpow *= base
    return prefactor * total


def truncation_walk(f, frac_bits: int) -> int:
    """K of ``formula._truncation`` by walking K = 0, 1, 2, ... until
    top < den(K) = q * (K*l+1)**s * b**K * (b-1), with prefactor p/q and
    top = max(|p|, q) * max|a_j| * l * b * 2**frac_bits."""
    p, q = f.prefactor.numerator, f.prefactor.denominator
    top = max(abs(p), q) * max(abs(a) for a in f.coeffs) * f.length * f.base << frac_bits
    K, bpow = 0, 1
    while top >= q * (K * f.length + 1) ** f.degree * bpow * (f.base - 1):
        bpow *= f.base
        K += 1
    return K


def decimal_of_ends(x, digits: int | None) -> str:
    """The print ``FixedReal.decimal`` documents, from both ends of x's
    interval as Fractions, with no cap on the places: the longest common
    prefix of their decimal expansions to ``digits`` places (default
    floor(F * log10 2)), with ``~`` after it when it is shorter; ``~``
    alone when the integer parts differ, or for an interval across zero
    that reaches 1 in magnitude, and ``0~`` for one across zero within
    (-1, 1)."""
    if digits is None:
        digits = x.frac_bits * 30103 // 100000
    u = Fraction(1, 1 << x.frac_bits)
    lo, hi = (x.mantissa - x.err_ulp) * u, (x.mantissa + x.err_ulp) * u
    if lo < 0 <= hi:
        return "0~" if -1 < lo and hi < 1 else "~"
    sign = "-" if hi < 0 else ""
    expansions = [str(math.floor(abs(v) * 10**digits)) for v in sorted((lo, hi), key=abs)]
    width = max(digits + 1, *map(len, expansions))
    s_lo, s_hi = (s.zfill(width) for s in expansions)
    common = 0
    while common < width and s_lo[common] == s_hi[common]:
        common += 1
    if common < width - digits:
        return "~"
    out = sign + (s_lo[: width - digits].lstrip("0") or "0")
    if common > width - digits:
        out += "." + s_lo[width - digits : common]
    return out + ("~" if common < width else "")


def radix_digits(v: Fraction, r: int, count: int) -> list[int]:
    """v's integer part, then its first ``count`` radix-r fraction digits,
    one at a time."""
    digits = [math.floor(v)]
    v -= digits[0]
    for _ in range(count):
        v *= r
        digits.append(math.floor(v))
        v -= digits[-1]
    return digits


def common_digits(a: list[int], b: list[int], r: int, count: int) -> tuple[int, int]:
    """``numerics._certified_digits`` read digit by digit from two ends'
    :func:`radix_digits`: (c, the prefix's value) for c the number of
    fraction digits they share after a shared integer part, at most
    ``count``, or (-1, a's integer part) when the integer parts differ."""
    c = -1
    while c < count and a[c + 1] == b[c + 1]:
        c += 1
    q = a[0]
    for d in a[1 : c + 1]:
        q = q * r + d
    return c, q


def sqrt5_pair_pow(a: int, b: int, n: int) -> tuple[int, int]:
    """(a + b*sqrt5)**n in Z[sqrt5], returned as a coefficient pair."""
    ra, rb = 1, 0
    for _ in range(n):
        ra, rb = ra * a + 5 * rb * b, ra * b + rb * a
    return ra, rb


def fixedreal_bits(fx, position: int, count: int, margin: int = 8) -> str:
    """Bits position+1 .. position+count of a FixedReal's value.

    Asserts that the tracked error cannot disturb the extracted window
    (no carry or borrow within ``margin`` guard bits), so the returned
    string is certain.
    """
    F = fx.frac_bits
    assert fx.mantissa >= 0
    assert position + count + margin <= F, "not enough precision for window"
    w = (fx.mantissa << position) & ((1 << F) - 1)
    low = w & ((1 << (F - count)) - 1)
    slack = fx.err_ulp << position
    assert slack < (1 << (F - count - margin)), "oracle error too large"
    assert slack <= low < (1 << (F - count)) - slack, "window on a carry boundary"
    return format(w >> (F - count), f"0{count}b")


def eval_P_folded(f, frac_bits: int) -> tuple[int, int]:
    """(mantissa, err_ulp) of ``formula.eval_P`` with no stepped fractions:
    each block of L = ceil(T / nonzero) levels (T = ``_BLOCK_TERMS``) is
    folded term by term into one exact fraction and floored once, and for
    a base b = 2**v * o with o > 1 the deeper blocks are carried by
    Horner, as the bound paragraph of ``bbplog.formula`` states.  The
    numerators are p*a_j for the prefactor p/q, and the sum is divided by
    q once.  Only the level count comes from ``formula._truncation``, and
    the levels past it are charged one ulp."""
    from bbplog.formula import _BLOCK_TERMS, _truncation
    from bbplog.numerics import FixedReal

    K = _truncation(f, frac_bits)
    p, q = f.prefactor.numerator, f.prefactor.denominator
    W0 = frac_bits + (2 * K).bit_length() + 2
    b = f.base
    c = b.bit_length() - 1
    v = (b & -b).bit_length() - 1
    o = b >> v
    terms = [(j, p * a) for j, a in enumerate(f.coeffs, start=1) if a]
    L = -(-_BLOCK_TERMS // len(terms))
    starts = range(0, K, L)
    acc = 0
    for k0 in reversed(starts):
        k1 = min(k0 + L, K)
        if o > 1:
            acc = (acc << (c - v) * L) // o**L
        num, den = 0, 1
        for k in range(k0, k1):
            num *= b
            for j, a in terms:
                d = (k * f.length + j) ** f.degree
                num, den = num * d + a * den, den * d
        n = k1 - 1 - k0
        w = W0 - k0 * c - v * n
        den *= o**n
        acc += (num << w) // den if w >= 0 else num // (den << -w)
    total = FixedReal(acc, W0, len(starts) if o == 1 else 2 * len(starts))
    total = total.div_int(q).rescale(frac_bits)
    return total.mantissa, total.err_ulp + 1


# -- FixedReal's truncating operations as first written -------------------
#
# Each learns whether its truncation was exact by multiplying the quotient
# back, div_int goes through Fraction(1, d), and division forms the full
# product |m2| * (|m2| - e2) for its error ceiling.  Each returns
# (mantissa, frac_bits, err_ulp).


def _tdiv(a: int, b: int) -> int:
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _tshift(a: int, k: int) -> int:
    return a >> k if a >= 0 else -((-a) >> k)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def fixed_from_fraction(value, frac_bits: int) -> tuple[int, int, int]:
    value = Fraction(value)
    num = value.numerator << frac_bits
    den = value.denominator
    m = _tdiv(num, den)
    return m, frac_bits, 0 if m * den == num else 1


def fixed_mul(m1: int, e1: int, m2: int, e2: int, F: int) -> tuple[int, int, int]:
    prod = m1 * m2
    m = _tshift(prod, F)
    cross = abs(m1) * e2 + abs(m2) * e1 + e1 * e2
    e = _ceil_div(cross, 1 << F) if cross else 0
    if m << F != prod:
        e += 1
    return m, F, e


def fixed_mul_fraction(m1: int, e1: int, F: int, fr) -> tuple[int, int, int]:
    fr = Fraction(fr)
    p, q = fr.numerator, fr.denominator
    num = m1 * p
    m = _tdiv(num, q)
    e = _ceil_div(e1 * abs(p), q) if e1 else 0
    if m * q != num:
        e += 1
    return m, F, e


def fixed_div_int(m1: int, e1: int, F: int, d: int) -> tuple[int, int, int]:
    return fixed_mul_fraction(m1, e1, F, Fraction(1, d))


def fixed_div(m1: int, e1: int, m2: int, e2: int, F: int) -> tuple[int, int, int]:
    """Raises ZeroDivisionError where FixedReal raises PrecisionError."""
    if abs(m2) <= e2:
        raise ZeroDivisionError("divisor interval contains zero")
    num = m1 << F
    m = _tdiv(num, m2)
    cross = e1 * abs(m2) + e2 * abs(m1)
    e = _ceil_div(cross << F, abs(m2) * (abs(m2) - e2)) if cross else 0
    if m * m2 != num:
        e += 1
    return m, F, e


def fixed_rescale(m1: int, e1: int, F: int, frac_bits: int) -> tuple[int, int, int]:
    shift = frac_bits - F
    if shift >= 0:
        return m1 << shift, frac_bits, e1 << shift
    m = _tshift(m1, -shift)
    e = _ceil_div(e1, 1 << -shift) if e1 else 0
    if m << -shift != m1:
        e += 1
    return m, frac_bits, e
