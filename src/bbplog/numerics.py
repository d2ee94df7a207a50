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
the error bound.  Four ``FixedReal`` operations truncate: ``div_int``,
``rescale``, ``*`` and ``/``.  Every other one is exact or a composition
of these and the exact ones, so it carries their charges and adds none:
``from_fraction`` and ``mul_fraction`` divide through ``div_int``, and
``-`` adds the negation.  The bounds are proved by the per-operation ulp
algebra documented inline, never estimated.

A truncation charges that ulp only when it drops something, and it
learns so from the remainder of its own division (``divmod``) or from
the bits its own shift drops, never by multiplying the quotient back.
Every ceiling of a division by a power of two is a shift, and
:func:`_tshift` reads the whole field its shift drops.  One fast path
first looks at one machine word, the low ``_WORD`` bits of a big
integer, and falls back to the whole integer only when the word leaves
the answer open: the exactness test of :func:`fx_sqrt`.  It returns the
exact flag either way, so no bound here depends on the word size, and a
test may lower it to one bit to run both branches at small widths.

The logarithm reduces x itself by repeated square roots; it splits off
no power of two, so no ln 2 constant is needed.  It then sums the atanh
series by rectangular splitting, each block at a width that shrinks
with its depth, with the number of terms fixed and proven before
summing.  Every certified print, here and in the spigot, keeps the
digits that :func:`_certified_digits` certifies, the one rule for which
digits an interval defends.  Values are immutable, the module keeps no
cache, and every function here is pure and thread-safe.
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
    bit), k >= 0: the low k bits of |a|, the field the shift drops, are
    read in full."""
    m = abs(a)
    q = m >> k
    return (q if a >= 0 else -q), m & ((1 << k) - 1) != 0


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
        return cls.from_int(value.numerator, frac_bits).div_int(value.denominator)

    # -- inspection ---------------------------------------------------

    @property
    def value(self) -> Fraction:
        """The represented point value, exactly."""
        return Fraction(self.mantissa, 1 << self.frac_bits)

    @property
    def err(self) -> Fraction:
        """The absolute error bound, exactly."""
        return Fraction(self.err_ulp, 1 << self.frac_bits)

    # -- exact operations ----------------------------------------------

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.mantissa, self.frac_bits, self.err_ulp)

    def __abs__(self) -> "FixedReal":
        return FixedReal(abs(self.mantissa), self.frac_bits, self.err_ulp)

    def _check_compatible(self, other: "FixedReal") -> None:
        if self.frac_bits != other.frac_bits:
            raise ValueError(
                f"mixed precisions: {self.frac_bits} vs {other.frac_bits}"
            )

    def __add__(self, other: "FixedReal") -> "FixedReal":
        self._check_compatible(other)
        return FixedReal(
            self.mantissa + other.mantissa,
            self.frac_bits,
            self.err_ulp + other.err_ulp,
        )

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        return self + -other

    def mul_int(self, c: int) -> "FixedReal":
        return FixedReal(self.mantissa * c, self.frac_bits, self.err_ulp * abs(c))

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
        return FixedReal(m, F, -(-cross >> F) + dropped)

    def div_int(self, d: int) -> "FixedReal":
        """Divide by a nonzero integer (err <= ceil(e/|d|) + 1 ulp)."""
        m, inexact = _tdivmod(self.mantissa, d)
        return FixedReal(m, self.frac_bits, -(-self.err_ulp // abs(d)) + inexact)

    def mul_fraction(self, fr: Fraction | int) -> "FixedReal":
        """Multiply by an exact rational p/q (err <= ceil(e*|p|/q) + 1 ulp)."""
        fr = Fraction(fr)
        return self.mul_int(fr.numerator).div_int(fr.denominator)

    def __truediv__(self, other: "FixedReal") -> "FixedReal":
        # |a/b - m1/m2| = |d1*m2 - d2*m1| / (|b|*|m2|)
        #             <= (e1*|m2| + e2*|m1|) * u / ((|m2| - e2)*u * |m2|)
        # requires the divisor interval to exclude zero; charged as the
        # exact ceiling of that in ulps.
        self._check_compatible(other)
        F = self.frac_bits
        m2, e2 = other.mantissa, other.err_ulp
        a2 = abs(m2)
        if a2 <= e2:
            raise PrecisionError("divisor interval contains zero")
        m, inexact = _tdivmod(self.mantissa << F, m2)
        cross = self.err_ulp * a2 + e2 * abs(self.mantissa)
        return FixedReal(m, F, -(-(cross << F) // (a2 * (a2 - e2))) + inexact)

    def rescale(self, frac_bits: int) -> "FixedReal":
        """Convert to another precision (exact when widening)."""
        shift = frac_bits - self.frac_bits
        if shift >= 0:
            return FixedReal(self.mantissa << shift, frac_bits, self.err_ulp << shift)
        if frac_bits < 1:
            raise ValidationError("frac_bits: must be positive")
        m, dropped = _tshift(self.mantissa, -shift)
        return FixedReal(m, frac_bits, -(-self.err_ulp >> -shift) + dropped)

    # -- output ---------------------------------------------------------

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string holding only digits the error bound defends.

        The printed digits are those that :func:`_certified_digits`, the
        one certified-digits rule, certifies in radix 10 for both ends of
        the interval, up to ``digits`` fractional places (default: the
        full capacity of the precision; a negative count raises
        :class:`ValidationError`).  A trailing ``~`` marks a request for
        digits that could not be certified.  When the two ends have
        different integer parts, not even the integer part is defended
        and the print is ``~`` alone; an interval across zero prints
        ``0~`` only when both ends are below 1 in magnitude.

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
        c, q = _certified_digits(lo, hi, F, 10, digits)
        if c < 0:
            return "~"
        # Decimal converts ints of any size; str(int) stops at 4300 digits
        s = str(Decimal(q)).zfill(c + 1)
        out = sign + s[: len(s) - c]
        if c:
            out += "." + s[len(s) - c :] + "0" * pad
        return out + ("~" if c < digits else "")


def _certified_digits(lo: int, hi: int, F: int, r: int, count: int) -> tuple[int, int]:
    """(c, floor(lo * r**c / 2**F)) for the largest c <= count with
    floor(lo * r**c / 2**F) = floor(hi * r**c / 2**F), for lo <= hi and
    r >= 2; (-1, floor(lo / 2**F)) when even the integer parts differ.

    This is the rule every certified print rests on: the integer part and
    first c radix-r fraction digits of every value in [lo, hi] * 2**-F
    are certified exactly when the two ends agree on them.  Those digits
    of x are floor(x * r**c), which only grows with x, so every x between
    the ends takes a value between the ends' ones: the two ends decide.
    Agreement at c gives agreement at every smaller c, as floor(y / r) =
    floor(floor(y) / r), so the certified digits are a prefix.

    With L and H the ends' floors at count digits, c = count - k for the
    least k with L // r**k = H // r**k; once the integer parts agree, the
    first test, k = count qualifies.  The quotients differ while r**k <=
    H - L, so k starts one below log_r(H - L) and steps while they differ
    by two or more.  Once they differ by one, q = H // r**k, and the two
    first agree at k + v + 1 for v the trailing zero digits of q, as
    (q - 1) // r**j = q // r**j unless r**j divides q; q > 0, as the
    integer parts agree.  v is stripped in chunks r, r**2, r**4, ... that
    double while they divide q and then halve.  hi * r**count is formed
    as lo * r**count plus (hi - lo) * r**count, one full product.
    """
    if lo >> F != hi >> F:
        return -1, lo >> F
    scale = r**count
    low = lo * scale
    H = low + (hi - lo) * scale >> F
    L = low >> F
    k = max(0, int(math.log(H - L, r)) - 1) if H > L else 0
    while (gap := H // (p := r**k) - (q := L // p)) >= 2:
        k += 1
    if gap:
        q, chunks = q + 1, [r]
        while (qr := divmod(q, chunks[-1]))[1] == 0:
            q = qr[0]
            chunks.append(chunks[-1] * chunks[-1])
        for i in reversed(range(len(chunks) - 1)):
            d, rest = divmod(q, chunks[i])
            if rest == 0:
                q, k = d, k + (1 << i)
        # the j = len(chunks) - 1 doubling chunks stripped 2**j - 1 digits,
        # and the ends first agree one digit past the strip
        k, q = k + (1 << len(chunks) - 1), q // r
    return count - k, q


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
    return FixedReal(s, F, e)


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

    * Term: block b adds S_b = sum_j floor((pm_j >> delta_b) / d_j) over
      its terms, d_j = 2(b*s+j)+1, each standing for y**j/d_j.  The
      shift pm_j >> delta_b is off from the true y**j by at most
      ceil(pe_j/2**delta_b), plus one when it drops a set bit, so the
      term is charged ceil((ceil(pe_j/2**delta_b) + dropped_j) / d_j),
      plus one ulp if its floor leaves a remainder.  Each divisor d_j <=
      2n-1 <= F fits one 30-bit CPython digit.
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
    powers = [FixedReal(one, F, 0), y]
    for _ in range(s - 1):
        powers.append(powers[-1] * y)
    acc, err = _atanh_horner(
        [p.mantissa for p in powers], [p.err_ulp for p in powers], n, F
    )
    out = z * FixedReal(acc, F, err)
    return FixedReal(out.mantissa, F, out.err_ulp + 1)


def _atanh_horner(pm: list[int], pe: list[int], n: int, F: int) -> tuple[int, int]:
    """The tapered Horner sum of :func:`_atanh_small`, whose docstring
    states its bound: sum_{k<n} y_k/(2k+1) in units of 2**-F and its
    err_ulp, from mantissas pm >= 0 and errors pe of y**0..y**s, s =
    len(pm) - 1, with y_k = y**(k mod s) * (y**s)**(k div s).  Every
    term is floored by its own 2k+1, so no block has a common
    denominator."""
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
        for j, d in enumerate(range(2 * b * s + 1, 2 * min(b * s + s, n), 2)):
            S, rem = divmod(pm[j] >> delta, d)
            acc += S
            e = -(-pe[j] >> delta) + (delta > tz[j])
            err += -(-e // d) + (rem != 0)
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
    y = FixedReal(m << (Fw - F), Fw, 0)
    for _ in range(r):
        y = fx_sqrt(y)
    one = FixedReal.from_int(1, Fw)
    z = (y - one) / (y + one)
    out = _atanh_small(z).mul_int(2 << r).rescale(F)
    return FixedReal(out.mantissa, F, out.err_ulp + prop)


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
