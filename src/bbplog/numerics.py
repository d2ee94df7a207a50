"""Fixed-point real arithmetic with certified error bounds, plus a
domain-checked modular power.

All real-valued computation in this package runs on :class:`FixedReal`:
a signed mantissa scaled by 2**-frac_bits together with an integer
``err_ulp`` such that

    |true_value - mantissa * 2**-frac_bits| <= err_ulp * 2**-frac_bits

holds for every value an operation returns.  Integer and rational
arithmetic are exact (Python ``int`` / ``fractions.Fraction``); rounding
happens only when a result is folded back into a mantissa, always by
truncation toward zero, and every truncation charges at most one ulp to
the error bound.  The bounds are proved by the per-operation ulp algebra
documented inline, never estimated.

A truncation charges that ulp only when it drops something, and it
learns so from the remainder of its own division (``divmod``) or from
the bits its own shift drops, never by multiplying the quotient back.
Every ceiling of a division by a power of two is a shift.  Three fast
paths first look at one machine word, the low or leading ``_WORD`` bits
of a big integer, and fall back to the whole integer only when the word
leaves the answer open: the dropped-bit test of :func:`_tshift`, the
exactness test of :func:`fx_sqrt` and division's error ceiling in
:func:`_ceil_scaled_ratio`.  Each path returns the exact integer or
flag either way, so no bound here depends on the word size, and a test
may lower it to one bit to run every branch at small widths.

The logarithm reduces x itself by repeated square roots; it splits off
no power of two, so no ln 2 constant is needed.  It then sums the atanh
series by rectangular splitting, each block at a width that shrinks
with its depth, with the number of terms fixed and proven before
summing.  Values are immutable, the module keeps no cache, and every
function here is pure and thread-safe.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

from ._record import Record, _set
from .errors import DomainError, PrecisionError, ValidationError

__all__ = [
    "FixedReal",
    "fx_sqrt",
    "fx_log",
    "fx_atanh",
    "modpow",
    "agreement_bits",
]


_WORD = 64
_WORD_MASK = (1 << _WORD) - 1


def _tdivmod(a: int, b: int) -> tuple[int, bool]:
    """(a/b truncated toward zero, whether it left a remainder), b != 0."""
    q, r = divmod(a, b)
    if q < 0 and r:
        q += 1
    return q, r != 0


def _tshift(a: int, k: int) -> tuple[int, bool]:
    """(a / 2**k truncated toward zero, whether the shift dropped a set
    bit), k >= 0.  The word's low bits settle the second part unless
    they are all zero."""
    if a < 0:
        q, dropped = _tshift(-a, k)
        return -q, dropped
    low = a & _WORD_MASK
    if k < _WORD:
        low &= (1 << k) - 1
    elif not low:
        low = a & ((1 << k) - 1)
    return a >> k, low != 0


def _ceil_scaled_ratio(c: int, F: int, a: int, b: int) -> int:
    """ceil(c * 2**F / (a*b)) for c >= 0 and a, b > 0: division's error
    ceiling, bounded first from the word-sized leading bits of a and b.

    With s_a = max(0, bitlen(a) - the word) and h_a = a >> s_a, h_a *
    2**s_a <= a < (h_a + 1) * 2**s_a, and a = h_a * 2**s_a when s_a = 0;
    b likewise.  So a*b lies in [lo, hi] * 2**s, s = s_a + s_b, with lo
    = h_a * h_b and hi the product of h_a and h_b, each plus one when its
    shift is positive, and the result lies between ceil(c * 2**(F-s) /
    hi) and ceil(c * 2**(F-s) / lo).  For s > F both are taken of ceil(c
    / 2**(s-F)) instead, as ceil(ceil(x) / n) = ceil(x / n) for positive
    integers n.  When the two agree, that is the result; only when they
    differ is a*b formed.
    """
    sa = max(a.bit_length() - _WORD, 0)
    sb = max(b.bit_length() - _WORD, 0)
    ha, hb = a >> sa, b >> sb
    d = F - sa - sb
    n = c << d if d >= 0 else -(-c >> -d)
    up = -(-n // (ha * hb))
    if up == -(-n // ((ha + (sa > 0)) * (hb + (sb > 0)))):
        return up
    return -(-(c << F) // (a * b))


class FixedReal(Record):
    """A real number as ``mantissa * 2**-frac_bits`` with a tracked error.

    ``err_ulp`` bounds the absolute distance to the true quantity the
    value stands for, in units of 2**-frac_bits.  Arithmetic between two
    values requires equal ``frac_bits``; precision changes are explicit
    via :meth:`rescale`.
    """

    __slots__ = ("mantissa", "frac_bits", "err_ulp")

    def __init__(self, mantissa: int, frac_bits: int, err_ulp: int = 0) -> None:
        if frac_bits < 1:
            raise ValidationError("frac_bits: must be positive")
        if err_ulp < 0:
            raise ValidationError("err_ulp: must be nonnegative")
        _set(self, "mantissa", mantissa)
        _set(self, "frac_bits", frac_bits)
        _set(self, "err_ulp", err_ulp)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int, frac_bits: int) -> "FixedReal":
        return cls(n << frac_bits, frac_bits, 0)

    @classmethod
    def from_fraction(cls, value: Fraction | int, frac_bits: int) -> "FixedReal":
        """Truncate an exact rational into fixed point (err <= 1 ulp)."""
        value = Fraction(value)
        m, inexact = _tdivmod(value.numerator << frac_bits, value.denominator)
        return cls(m, frac_bits, int(inexact))

    # -- inspection ---------------------------------------------------

    @property
    def value(self) -> Fraction:
        """The represented point value, exactly."""
        return Fraction(self.mantissa, 1 << self.frac_bits)

    @property
    def err(self) -> Fraction:
        """The absolute error bound, exactly."""
        return Fraction(self.err_ulp, 1 << self.frac_bits)

    def __float__(self) -> float:
        return self.mantissa / (1 << self.frac_bits)

    def __repr__(self) -> str:
        return (
            f"FixedReal({float(self):.12g}, frac_bits={self.frac_bits},"
            f" err_ulp={self.err_ulp})"
        )

    # -- exact operations ----------------------------------------------

    def __neg__(self) -> "FixedReal":
        return _fixed(-self.mantissa, self.frac_bits, self.err_ulp)

    def __abs__(self) -> "FixedReal":
        return _fixed(abs(self.mantissa), self.frac_bits, self.err_ulp)

    def _check_compatible(self, other: "FixedReal") -> None:
        if self.frac_bits != other.frac_bits:
            raise ValueError(
                f"mixed precisions: {self.frac_bits} vs {other.frac_bits}"
            )

    def __add__(self, other: "FixedReal") -> "FixedReal":
        self._check_compatible(other)
        return _fixed(
            self.mantissa + other.mantissa,
            self.frac_bits,
            self.err_ulp + other.err_ulp,
        )

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        self._check_compatible(other)
        return _fixed(
            self.mantissa - other.mantissa,
            self.frac_bits,
            self.err_ulp + other.err_ulp,
        )

    def mul_int(self, c: int) -> "FixedReal":
        return _fixed(self.mantissa * c, self.frac_bits, self.err_ulp * abs(c))

    # -- truncating operations -----------------------------------------

    def __mul__(self, other: "FixedReal") -> "FixedReal":
        # x = m1*u + d1, y = m2*u + d2 with |di| <= ei*u, u = 2**-F:
        # |xy - trunc(m1*m2/2**F)*u| <= (|m1|e2 + |m2|e1 + e1*e2)*u**2/u + u
        self._check_compatible(other)
        F = self.frac_bits
        m, dropped = _tshift(self.mantissa * other.mantissa, F)
        cross = (
            abs(self.mantissa) * other.err_ulp
            + abs(other.mantissa) * self.err_ulp
            + self.err_ulp * other.err_ulp
        )
        return _fixed(m, F, -(-cross >> F) + dropped)

    def div_int(self, d: int) -> "FixedReal":
        """Divide by a nonzero integer (err <= ceil(e/|d|) + 1 ulp)."""
        m, inexact = _tdivmod(self.mantissa, d)
        return _fixed(m, self.frac_bits, -(-self.err_ulp // abs(d)) + inexact)

    def mul_fraction(self, fr: Fraction | int) -> "FixedReal":
        """Multiply by an exact rational (err <= e*|p|/q + 1 ulp)."""
        fr = Fraction(fr)
        p, q = fr.numerator, fr.denominator
        m, inexact = _tdivmod(self.mantissa * p, q)
        return _fixed(m, self.frac_bits, -(-self.err_ulp * abs(p) // q) + inexact)

    def __truediv__(self, other: "FixedReal") -> "FixedReal":
        # |a/b - m1/m2| = |d1*m2 - d2*m1| / (|b|*|m2|)
        #             <= (e1*|m2| + e2*|m1|) * u / ((|m2| - e2)*u * |m2|)
        # requires the divisor interval to exclude zero.
        self._check_compatible(other)
        F = self.frac_bits
        m2, e2 = other.mantissa, other.err_ulp
        a2 = abs(m2)
        if a2 <= e2:
            raise PrecisionError("divisor interval contains zero")
        m, inexact = _tdivmod(self.mantissa << F, m2)
        cross = self.err_ulp * a2 + e2 * abs(self.mantissa)
        return _fixed(m, F, _ceil_scaled_ratio(cross, F, a2, a2 - e2) + inexact)

    def rescale(self, frac_bits: int) -> "FixedReal":
        """Convert to another precision (exact when widening)."""
        shift = frac_bits - self.frac_bits
        if shift >= 0:
            return _fixed(self.mantissa << shift, frac_bits, self.err_ulp << shift)
        if frac_bits < 1:
            raise ValidationError("frac_bits: must be positive")
        m, dropped = _tshift(self.mantissa, -shift)
        return _fixed(m, frac_bits, -(-self.err_ulp >> -shift) + dropped)

    # -- output ---------------------------------------------------------

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string holding only digits the error bound defends.

        The printed string is the longest common prefix of the decimal
        expansions of the interval endpoints, truncated to ``digits``
        fractional places (default: the full capacity of the precision;
        a negative count raises :class:`ValidationError`).
        A trailing ``~`` marks a request for digits that could not be
        certified.  When the two ends have different integer parts, not
        even the integer part is defended and the print is ``~`` alone;
        an interval across zero prints ``0~`` only when both ends are
        below 1 in magnitude.

        Only the digits that can matter are computed: endpoints 2 ulp or
        more apart differ within the first F+1 fractional digits, and an
        exact value has at most F, so the rest are padded zeros.
        """
        F = self.frac_bits
        if digits is None:
            digits = F * 30103 // 100000
        elif digits < 0:
            raise ValidationError("digits: must be nonnegative")
        pad = 0
        if self.err_ulp:
            digits = min(digits, F + 1)
        elif digits > F:
            digits, pad = F, digits - F
        lo = self.mantissa - self.err_ulp
        hi = self.mantissa + self.err_ulp
        if lo < 0 <= hi:
            return "0~" if max(-lo, hi) < 1 << F else "~"
        sign = ""
        if hi < 0:
            sign = "-"
            lo, hi = -hi, -lo
        scale = 10**digits
        lo_scaled = lo * scale
        lo10 = lo_scaled >> F
        hi10 = (lo_scaled + 2 * self.err_ulp * scale) >> F
        # Decimal converts ints of any size; str(int) stops at 4300 digits
        s_lo = str(Decimal(lo10))
        width = max(len(s_lo), digits + 1)
        s_lo = s_lo.zfill(width)
        # the common prefix is width - k digits long for the least k with
        # lo10 // 10**k == hi10 // 10**k.  k starts below the digit length
        # of hi10 - lo10, where they cannot agree, and rises while they
        # differ by two or more; once they differ by one, they first agree
        # past the nines that end lo10 // 10**k.  common < 0 when no digit
        # is shared, as when the carry gives hi10 more digits than width.
        diff = hi10 - lo10
        k = (diff.bit_length() - 1) * 30102 // 100000 if diff else 0
        while (gap := hi10 // 10**k - lo10 // 10**k) > 1:
            k += 1
        common = width - k
        if gap:
            common = len(s_lo[: max(common, 0)].rstrip("9")) - 1
        if common < width - digits:
            return "~"
        int_part = s_lo[: width - digits]
        frac_part = s_lo[width - digits : common]
        out = f"{sign}{int_part.lstrip('0') or '0'}"
        if frac_part:
            out += "." + frac_part + "0" * pad
        if common < width:
            out += "~"
        return out


_new = object.__new__


def _fixed(mantissa: int, frac_bits: int, err_ulp: int) -> FixedReal:
    """A FixedReal from fields an operation has just computed: frac_bits
    taken from a valid value and err_ulp >= 0 by construction, so stored
    without the public constructor's checks."""
    x = _new(FixedReal)
    _set(x, "mantissa", mantissa)
    _set(x, "frac_bits", frac_bits)
    _set(x, "err_ulp", err_ulp)
    return x


def agreement_bits(a: FixedReal, b: FixedReal) -> int:
    """Certified count of leading fractional bits on which a and b agree.

    Returns F - bitlen(|ma - mb| + ea + eb): a sound floor of
    -log2 |a_true - b_true|, automatically capped by the combined
    certified precision of the two operands.
    """
    a._check_compatible(b)
    worst = abs(a.mantissa - b.mantissa) + a.err_ulp + b.err_ulp
    return a.frac_bits - worst.bit_length()


# -- square root -------------------------------------------------------


def fx_sqrt(x: FixedReal) -> FixedReal:
    """Square root with a certified bound.

    The mantissa is isqrt(m << F), the integer Newton floor square root
    of the scaled mantissa, so result**2 never exceeds x.  Propagated
    input error uses |sqrt(a)-sqrt(b)| <= min(|a-b|/sqrt(b), sqrt(|a-b|)):
    in ulp, with d = e << F, A = ceil(d/s) and B = ceil(sqrt(d)).  When
    s*s >= d, d/s <= sqrt(d) and so A <= B; otherwise (s = 0 included)
    B <= A.  Only the smaller bound is computed.

    Neither decision needs s*s in full as a rule.  The root is exact only
    if s*s and the scaled mantissa agree modulo 2**(the word), which the
    word's low bits of s decide; and 2*(bitlen(s) - 1) >= bitlen(d)
    already gives s*s >= 2**bitlen(d) > d.  s is squared only when those
    tests leave the answer open.
    """
    if x.mantissa < 0:
        raise DomainError("fx_sqrt of a negative value")
    F = x.frac_bits
    scaled = x.mantissa << F
    s = math.isqrt(scaled)
    low = s & _WORD_MASK
    exact = (low * low & _WORD_MASK) == (scaled & _WORD_MASK) and s * s == scaled
    e = 0 if exact else 1
    if x.err_ulp:
        d = x.err_ulp << F
        if 2 * (s.bit_length() - 1) >= d.bit_length() or s * s >= d:
            e += -(-d // s)
        else:
            e += 1 + math.isqrt(d - 1)
    return _fixed(s, F, e)


# -- logarithm ----------------------------------------------------------


def _atanh_terms(zb: int, F: int) -> int:
    """The series length n that :func:`_atanh_small` proves sufficient:
    the smallest n with (2n+1)*lam >= F+1, lam = F - bitlen(zb)."""
    lam = F - zb.bit_length()
    return (F + lam) // (2 * lam)


def _atanh_small(z: FixedReal) -> FixedReal:
    """atanh z = z * sum_{k<n} y**k/(2k+1) + tail, y = z*z, for |z| < 1/2.

    The length n is fixed before summing.  With zb = |m| + err_ulp
    bounding |z| in ulp and lam = F - bitlen(zb), |z| < 2**-lam and
    lam >= 1; n is the smallest integer with (2n+1)*lam >= F+1, so
    |z|**(2n+1) < 2**(-F-1).  The tail is below the geometric majorant

        sum_{k>=n} |z|**(2k+1)/(2k+1) <= |z|**(2n+1) / ((2n+1)(1-z**2))

    and 1/((2n+1)(1-z**2)) <= 4/3 as |z| < 1/2, so the tail is below
    2/3 ulp and one ulp is charged for it, once.

    The sum runs by rectangular splitting (Paterson & Stockmeyer, SIAM
    J. Comput. 2, 1973; Smith, Math. Comp. 52, 1989): y**0..y**s with
    s = isqrt(n) as FixedReal products, then Horner in Y = y**s over
    nb = ceil(n/s) blocks of s terms in :func:`_atanh_horner`, and z * acc
    at the end.  Every y**j has a mantissa pm_j >= 0 and error pe_j, so
    floor is truncation.  Block b only contributes at scale |Y|**b, so
    it is held in units of 2**-(F - delta_b): with c = F - bitlen(Y_m +
    Y_e), |Y| < 2**-c on Y's whole interval, and delta_b = min(b*c, F-1)
    is nondecreasing with steps t = delta_{b+1} - delta_b <= c.  The
    widths fall about linearly to zero over the blocks, as nb*c ~ F.

    * Block sum: S_b = floor(sum_j (pm_j >> delta_b) * (D/d_j) / D),
      over d_j = 2(b*s+j)+1 and D = prod d_j, stands for sum_j y**j/d_j.
      Term j is off by at most pe_j/2**delta_b from the shift of the
      true y**j, plus one when the shift drops a set bit, all over d_j:
      charged ceil(sum_j (ceil(pe_j/2**delta_b) + dropped_j) * (D/d_j)
      / D), plus one ulp if the floor leaves a remainder.
    * Horner step: acc_b = floor(acc_{b+1} * Y_m / 2**(F-t)) + S_b.
      err_{b+1} ulp of block b+1, times |Y|, is below err_{b+1} ulp of
      block b, as |Y| * 2**t < 1, so it is carried unchanged; the
      uncertainty of Y is charged as ceil(acc_{b+1} * Y_e / 2**(F-t)),
      and one ulp if the floor is inexact.

    The cap F-1 keeps every width at least 1.  acc_0 is at width F, and
    the result is z * FixedReal(acc_0, F, err_0) plus the tail ulp.
    """
    F = z.frac_bits
    one = 1 << F
    zb = abs(z.mantissa) + z.err_ulp
    if 2 * zb >= one:
        raise PrecisionError("atanh series requires |z| < 1/2")
    if z.mantissa == 0 and z.err_ulp == 0:
        return z
    n = _atanh_terms(zb, F)
    s = math.isqrt(n)
    y = z * z
    powers = [_fixed(one, F, 0), y]
    for _ in range(s - 1):
        powers.append(powers[-1] * y)
    acc, err = _atanh_horner(
        [p.mantissa for p in powers], [p.err_ulp for p in powers], n, F
    )
    out = z * _fixed(acc, F, err)
    return _fixed(out.mantissa, F, out.err_ulp + 1)


def _atanh_horner(pm: list[int], pe: list[int], n: int, F: int) -> tuple[int, int]:
    """The tapered Horner sum of :func:`_atanh_small`, whose docstring
    states its bound: sum_{k<n} y_k/(2k+1) in units of 2**-F and its
    err_ulp, from mantissas pm >= 0 and errors pe of y**0..y**s, s =
    len(pm) - 1, with y_k = y**(k mod s) * (y**s)**(k div s)."""
    s = len(pm) - 1
    Ym, Ye = pm[s], pe[s]
    c = F - (Ym + Ye).bit_length()
    nb = -(-n // s)
    # the shift pm_j >> delta drops a set bit only past its trailing zeros
    tz = [(p & -p).bit_length() - 1 if p else F for p in pm[:s]]
    acc = err = 0
    above = min(nb * c, F - 1)
    for b in reversed(range(nb)):
        delta = min(b * c, F - 1)
        shift = F - (above - delta)
        prod = acc * Ym
        err += -(-(acc * Ye) >> shift)
        acc = prod >> shift
        if acc << shift != prod:
            err += 1
        ks = range(b * s, min(b * s + s, n))
        D = math.prod(2 * k + 1 for k in ks)
        num = es = 0
        for j, k in enumerate(ks):
            q = D // (2 * k + 1)
            num += (pm[j] >> delta) * q
            es += (-(-pe[j] >> delta) + (delta > tz[j])) * q
        S, rem = divmod(num, D)
        acc += S
        err += -(-es // D) + (rem != 0)
        above = delta
    return acc, err


def fx_log(x: FixedReal) -> FixedReal:
    """Natural logarithm with a certified bound.

    Square-root reduction on x itself (Brent, J. ACM 23, 1976): with x
    in [2**n, 2**(n+1)), r integer square roots take y = x**(1/2**r) to
    |ln y| <= (|n|+1) ln 2 / 2**r, and ln x = 2**(r+1) atanh(z) with
    z = (y-1)/(y+1), summed by :func:`_atanh_small`.  Every step runs on
    FixedReal at Fw = F + r + 64 + max(0, -n) bits, so the returned
    err_ulp is the tracked bound plus the propagated input uncertainty
    e/(m - e); the choices below only keep it small:

    * r = max(8, isqrt(F//320)) + bitlen(|n|).  Since 2**bitlen(|n|) >
      |n|, |ln y| < ln 2 / 256 and |z| < 2**-9, far below the series'
      1/2.  Each square root costs an isqrt and a squaring, about five
      multiplications, and halves |z|: the series then needs about
      F/(2r) terms, summed with ~2*sqrt(F/(2r)) multiplications at
      widths that shrink block by block.  Timing fx_log on phi and on
      verify's arguments (1.05..16) with the floor at 5..10 (2 vCPU
      Xeon, Python 3.11.7, best of 7 interleaved): at 10**3 bits all
      were within 5% (0.094..0.099 ms), at 4*10**3 bits 6..10 within
      2% (0.64 ms; 5 was 3-6% slower), and at 10**4 bits 8..10 within
      2% (3.3 ms; 5 was 7-10% slower).  At 10**5 bits isqrt(F//320) =
      17 sets r; over r = 8..23 (best of 3) 14..17 were within 2%,
      8 was 12-16% slower and 23 was 7-8% slower.
    * One ulp 2**-Fw lost at y_j = x**(1/2**j) moves the estimate of
      ln x by 2**j * 2**-Fw / y_j.  With 2**j <= 2**r and 1/y_j <=
      2**max(0, -n), the r + max(0, -n) guard bits absorb it, as they
      do the series' ulps times 2**(r+1); 64 more leave a few ulp after
      the fold back to F.
    """
    F = x.frac_bits
    m, e = x.mantissa, x.err_ulp
    if m <= 0:
        raise DomainError("fx_log requires a positive value")
    if m <= e:
        raise PrecisionError("fx_log input interval reaches zero")
    prop = -(-(e << F) // (m - e))
    n = m.bit_length() - 1 - F
    r = max(8, math.isqrt(F // 320)) + abs(n).bit_length()
    Fw = F + r + 64 + max(0, -n)
    y = _fixed(m << (Fw - F), Fw, 0)
    for _ in range(r):
        y = fx_sqrt(y)
    one = FixedReal.from_int(1, Fw)
    z = (y - one) / (y + one)
    out = _atanh_small(z).mul_int(2 << r).rescale(F)
    return _fixed(out.mantissa, F, out.err_ulp + prop)


def fx_atanh(x: FixedReal) -> FixedReal:
    """Inverse hyperbolic tangent as log((1+|x|)/(1-|x|)) / 2, sign of x.

    One certified division and one certified log; the bound is theirs,
    halved.  Working on |x| keeps the quotient >= 1, where its leading
    bits are all significant, and atanh is odd.
    """
    F = x.frac_bits
    if abs(x.mantissa) >= (1 << F):
        raise DomainError("fx_atanh requires |x| < 1")
    one = FixedReal.from_int(1, F)
    ax = abs(x)
    y = fx_log((one + ax) / (one - ax)).div_int(2)
    return -y if x.mantissa < 0 else y


# -- modular exponentiation ---------------------------------------------


def modpow(base: int, exp: int, m: int) -> int:
    """base**exp mod m in [0, m): the builtin three-argument pow with its
    domain checked."""
    if m < 1:
        raise DomainError("modulus must be >= 1")
    if exp < 0:
        raise DomainError("exponent must be nonnegative")
    return pow(base, exp, m)
