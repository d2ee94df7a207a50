"""Independent reference computations used by the test suite.

Everything here deliberately avoids the code paths under test: square
roots by pure binary search, series summed in exact rational arithmetic
or in the decimal module, modular exponentiation by brute-force repeated
multiplication.
"""

from __future__ import annotations

from decimal import Decimal
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
    (-1)**i ln R_i over the radicands R_i of
    ``bbplog.verify._decomposition_radicands``, taken as one log of one
    quotient, sum_i (-1)**i ln R_i = ln(R_0 R_2 / (R_1 R_3)), oriented to
    be >= 1 (the larger product over the smaller, the sign flipped), as
    ``fx_atanh`` does.  Unlike the rest of this module it shares the
    radicands with the check; it is the two-log reference that
    ``verify_decomposition``'s log-free bound must never read below, and
    the decimal oracle above checks its right side.
    """
    from bbplog.family import _lhs_argument
    from bbplog.numerics import FixedReal, fx_atanh, fx_log, fx_sqrt
    from bbplog.verify import _decomposition_radicands

    s5 = fx_sqrt(FixedReal.from_int(5, work))
    lhs = fx_atanh(s5.mul_fraction(_lhs_argument(t)))
    r0, r1, r2, r3 = _decomposition_radicands(t, s5)
    num, den = r0 * r2, r1 * r3
    if num.mantissa >= den.mantissa:
        return lhs, fx_log(num / den).div_int(-2)
    return lhs, fx_log(den / num).div_int(2)


def atanh_sqrt5_gap_decimal(u0: Fraction, u1: Fraction, ctx):
    """(value, error bound) of atanh(u1*sqrt5) - atanh(u0*sqrt5) as
    Decimals in ``ctx``, for |u_i*sqrt5| <= 0.9 and u0, u1 close.

    The gap is ln(W)/2 with W = (1+z1)(1-z0) / ((1-z1)(1+z0)), z_i =
    u_i*sqrt5: one log, of a number near 1.  Decimal(int) is exact, so
    each u_i rounds once.  Every intermediate value is below 10 in
    magnitude, so each operation rounds by at most u/2, u = 10**(1 -
    prec).  Then each z_i is off by under 2u, each factor (in [0.1, 1.9])
    by under 2.5u, each product (in [0.01, 3.61]) by under 10u, W by
    under 10u * 7.22 / 0.0099**2 < 7.4e5 u, and, with W in [1/2, 2]
    (asserted), ln W by under 1.6e6 u; 10**6 u bounds the halved result.
    """
    s5 = ctx.sqrt(ctx.create_decimal(5))
    z0, z1 = (
        ctx.multiply(s5, ctx.divide(Decimal(u.numerator), Decimal(u.denominator)))
        for u in (u0, u1)
    )
    assert max(abs(z0), abs(z1)) < Decimal("0.9")
    w = ctx.divide(
        ctx.multiply(ctx.add(1, z1), ctx.subtract(1, z0)),
        ctx.multiply(ctx.subtract(1, z1), ctx.add(1, z0)),
    )
    assert Decimal("0.6") < w < Decimal("1.6")
    return ctx.divide(ctx.ln(w), 2), ctx.scaleb(1, 7 - ctx.prec)


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


def truncation_walk(f, frac_bits: int) -> tuple[int, int]:
    """(K, tail ulp) of ``formula._truncation`` by walking K = 0, 1, 2, ...
    until top < den(K) = (K*l+1)**s * b**K * (b-1), with
    top = max|a_j| * l * b * 2**frac_bits."""
    max_a = max(abs(a) for a in f.coeffs)
    top = max_a * f.length * f.base << frac_bits
    K, bpow = 0, 1
    while top >= (den := (K * f.length + 1) ** f.degree * bpow * (f.base - 1)):
        bpow *= f.base
        K += 1
    p, q = f.prefactor.numerator, f.prefactor.denominator
    return K, -(-top * abs(p) // (den * q))


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
    Horner, as the bound paragraph of ``bbplog.formula`` states.  Only the
    level count and the tail bound come from ``formula._truncation``."""
    from bbplog.formula import _BLOCK_TERMS, _truncation
    from bbplog.numerics import FixedReal

    K, tail_ulp = _truncation(f, frac_bits)
    W0 = frac_bits + (2 * K).bit_length() + 2
    b = f.base
    c = b.bit_length() - 1
    v = (b & -b).bit_length() - 1
    o = b >> v
    terms = [(j, a) for j, a in enumerate(f.coeffs, start=1) if a]
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
    total = total.mul_fraction(f.prefactor).rescale(frac_bits)
    return total.mantissa, total.err_ulp + tail_ulp


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
