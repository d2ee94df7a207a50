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

Values are immutable; every function here is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, PrecisionError

__all__ = [
    "FixedReal",
    "fx_sqrt",
    "fx_log",
    "fx_atanh",
    "modpow",
    "agreement_bits",
]


def _tdiv(a: int, b: int) -> int:
    """Quotient of a/b truncated toward zero (b != 0)."""
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _tshift(a: int, k: int) -> int:
    """a // 2**k truncated toward zero; shifts beat big-int division."""
    return a >> k if a >= 0 else -((-a) >> k)


def _ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for a >= 0, b > 0."""
    return -(-a // b)


def _isqrt_ceil(n: int) -> int:
    """Smallest integer s with s*s >= n (n >= 0)."""
    s = math.isqrt(n)
    return s if s * s == n else s + 1


@dataclass(frozen=True, slots=True)
class FixedReal:
    """A real number as ``mantissa * 2**-frac_bits`` with a tracked error.

    ``err_ulp`` bounds the absolute distance to the true quantity the
    value stands for, in units of 2**-frac_bits.  Arithmetic between two
    values requires equal ``frac_bits``; precision changes are explicit
    via :meth:`rescale`.
    """

    mantissa: int
    frac_bits: int
    err_ulp: int = 0

    def __post_init__(self) -> None:
        if self.frac_bits < 1:
            raise ValueError("frac_bits must be positive")
        if self.err_ulp < 0:
            raise ValueError("err_ulp must be nonnegative")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int, frac_bits: int) -> "FixedReal":
        return cls(n << frac_bits, frac_bits, 0)

    @classmethod
    def from_fraction(cls, value: Fraction | int, frac_bits: int) -> "FixedReal":
        """Truncate an exact rational into fixed point (err <= 1 ulp)."""
        value = Fraction(value)
        num = value.numerator << frac_bits
        den = value.denominator
        m = _tdiv(num, den)
        return cls(m, frac_bits, 0 if m * den == num else 1)

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
        self._check_compatible(other)
        return FixedReal(
            self.mantissa - other.mantissa,
            self.frac_bits,
            self.err_ulp + other.err_ulp,
        )

    def mul_int(self, c: int) -> "FixedReal":
        return FixedReal(self.mantissa * c, self.frac_bits, self.err_ulp * abs(c))

    # -- truncating operations -----------------------------------------

    def __mul__(self, other: "FixedReal") -> "FixedReal":
        # x = m1*u + d1, y = m2*u + d2 with |di| <= ei*u, u = 2**-F:
        # |xy - trunc(m1*m2/2**F)*u| <= (|m1|e2 + |m2|e1 + e1*e2)*u**2/u + u
        self._check_compatible(other)
        F = self.frac_bits
        prod = self.mantissa * other.mantissa
        m = _tshift(prod, F)
        cross = (
            abs(self.mantissa) * other.err_ulp
            + abs(other.mantissa) * self.err_ulp
            + self.err_ulp * other.err_ulp
        )
        e = _ceil_div(cross, 1 << F) if cross else 0
        if m << F != prod:
            e += 1
        return FixedReal(m, F, e)

    def div_int(self, d: int) -> "FixedReal":
        if d == 0:
            raise ZeroDivisionError("division by zero")
        m = _tdiv(self.mantissa, d)
        e = _ceil_div(self.err_ulp, abs(d)) if self.err_ulp else 0
        if m * d != self.mantissa:
            e += 1
        return FixedReal(m, self.frac_bits, e)

    def mul_fraction(self, fr: Fraction | int) -> "FixedReal":
        """Multiply by an exact rational (err <= e*|p|/q + 1 ulp)."""
        fr = Fraction(fr)
        p, q = fr.numerator, fr.denominator
        num = self.mantissa * p
        m = _tdiv(num, q)
        e = _ceil_div(self.err_ulp * abs(p), q) if self.err_ulp else 0
        if m * q != num:
            e += 1
        return FixedReal(m, self.frac_bits, e)

    def __truediv__(self, other: "FixedReal") -> "FixedReal":
        # |a/b - m1/m2| = |d1*m2 - d2*m1| / (|b|*|m2|)
        #             <= (e1*|m2| + e2*|m1|) * u / ((|m2| - e2)*u * |m2|)
        # requires the divisor interval to exclude zero.
        self._check_compatible(other)
        F = self.frac_bits
        m2, e2 = other.mantissa, other.err_ulp
        if abs(m2) <= e2:
            raise PrecisionError("divisor interval contains zero")
        num = self.mantissa << F
        m = _tdiv(num, m2)
        cross = self.err_ulp * abs(m2) + e2 * abs(self.mantissa)
        e = _ceil_div(cross << F, abs(m2) * (abs(m2) - e2)) if cross else 0
        if m * m2 != num:
            e += 1
        return FixedReal(m, F, e)

    def rescale(self, frac_bits: int) -> "FixedReal":
        """Convert to another precision (exact when widening)."""
        shift = frac_bits - self.frac_bits
        if shift >= 0:
            return FixedReal(self.mantissa << shift, frac_bits, self.err_ulp << shift)
        m = _tshift(self.mantissa, -shift)
        e = _ceil_div(self.err_ulp, 1 << -shift) if self.err_ulp else 0
        if m << -shift != self.mantissa:
            e += 1
        return FixedReal(m, frac_bits, e)

    # -- output ---------------------------------------------------------

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string holding only digits the error bound defends.

        The printed string is the longest common prefix of the decimal
        expansions of the interval endpoints, truncated to ``digits``
        fractional places (default: the full capacity of the precision).
        A trailing ``~`` marks a request for digits that could not be
        certified.

        Only the digits that can matter are computed: endpoints 2 ulp or
        more apart differ within the first F+1 fractional digits, and an
        exact value has at most F, so the rest are padded zeros.
        """
        F = self.frac_bits
        if digits is None:
            digits = F * 30103 // 100000
        pad = 0
        if self.err_ulp:
            digits = min(digits, F + 1)
        elif digits > F:
            digits, pad = F, digits - F
        lo = self.mantissa - self.err_ulp
        hi = self.mantissa + self.err_ulp
        if lo < 0 <= hi:
            return "0~"
        sign = ""
        if hi < 0:
            sign = "-"
            lo, hi = -hi, -lo
        scale = 10**digits
        lo10 = (lo * scale) >> F
        hi10 = (hi * scale) >> F
        # Decimal converts ints of any size; str(int) stops at 4300 digits
        s_lo, s_hi = str(Decimal(lo10)), str(Decimal(hi10))
        width = max(len(s_lo), len(s_hi), digits + 1)
        s_lo = s_lo.zfill(width)
        s_hi = s_hi.zfill(width)
        common = 0
        while common < width and s_lo[common] == s_hi[common]:
            common += 1
        int_part = s_lo[: width - digits]
        frac_part = s_lo[width - digits : common]
        out = f"{sign}{int_part.lstrip('0') or '0'}"
        if frac_part:
            out += "." + frac_part + "0" * pad
        if common < width:
            out += "~"
        return out


def agreement_bits(a: FixedReal, b: FixedReal) -> int:
    """Certified count of leading fractional bits on which a and b agree.

    Returns F - bitlen(|ma - mb| + ea + eb): a sound floor of
    -log2 |a_true - b_true|, automatically capped by the combined
    certified precision of the two operands.
    """
    a._check_compatible(b)
    worst = abs(a.mantissa - b.mantissa) + a.err_ulp + b.err_ulp
    if worst == 0:
        return a.frac_bits
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
    """
    if x.mantissa < 0:
        raise DomainError("fx_sqrt of a negative value")
    F = x.frac_bits
    scaled = x.mantissa << F
    s = math.isqrt(scaled)
    square = s * s
    e = 0 if square == scaled else 1
    if x.err_ulp:
        d = x.err_ulp << F
        e += _ceil_div(d, s) if square >= d else _isqrt_ceil(d)
    return FixedReal(s, F, e)


# -- logarithm ----------------------------------------------------------


def _atanh_small(z: FixedReal) -> FixedReal:
    """atanh via its odd power series; requires |z| (incl. error) < 1/2.

    Tail after the z**(2k+1) term: sum_{i>k} z**(2i+1)/(2i+1)
    <= |z**(2k+1)| * zb**2 / ((2k+3) * (1 - zb**2)) with zb the upper
    bound on |z|; one ulp is charged once that bound provably drops
    below one ulp.  The stop test compares bit lengths only:
    pb*zb^2 < 2**(pb_bits + 2*zb_bits) and den*(2k+3) >= 2**(den_bits
    + kbits - 2), so the inequality of exponents implies the bound.
    """
    F = z.frac_bits
    one = 1 << F
    zb = abs(z.mantissa) + z.err_ulp
    if 2 * zb >= one:
        raise PrecisionError("atanh series requires |z| < 1/2")
    if z.mantissa == 0 and z.err_ulp == 0:
        return z
    z2 = z * z
    power = z
    acc = z
    k = 1
    zb_bits = zb.bit_length()
    den_bits = ((one * one) - zb * zb).bit_length()
    while True:
        power = power * z2
        acc = acc + power.div_int(2 * k + 1)
        pb_bits = (abs(power.mantissa) + power.err_ulp).bit_length()
        k_bits = (2 * k + 3).bit_length()
        if pb_bits + 2 * zb_bits <= den_bits + k_bits - 2:
            return FixedReal(acc.mantissa, F, acc.err_ulp + 1)
        k += 1


def _reduction_steps(frac_bits: int) -> int:
    # Repeated square roots shrink the series argument: r steps cost r
    # isqrt calls (~10x one multiplication) and divide the series length
    # by ~r, balanced near r ~ sqrt(F/20).
    return max(4, math.isqrt(frac_bits // 20))


def _log2_const(frac_bits: int) -> FixedReal:
    """ln 2 at the given precision (cached)."""
    cached = _LOG2_CACHE.get(frac_bits)
    if cached is None:
        r = _reduction_steps(frac_bits)
        y = FixedReal.from_int(2, frac_bits)
        for _ in range(r):
            y = fx_sqrt(y)
        one = FixedReal.from_int(1, frac_bits)
        z = (y - one) / (y + one)
        cached = _atanh_small(z).mul_int(2 << r)
        _LOG2_CACHE[frac_bits] = cached
    return cached


_LOG2_CACHE: dict[int, FixedReal] = {}


def fx_log(x: FixedReal) -> FixedReal:
    """Natural logarithm with a certified bound.

    Strategy: split off the power of two (ln x = n ln 2 + ln y with
    y in [1, 2)), contract y toward 1 by r integer square roots, then sum
    the atanh series of (y-1)/(y+1) whose tail is bounded analytically.
    The working precision carries r + 64 guard bits so the final fold
    returns to the caller's precision with an error of a few ulp plus the
    propagated input uncertainty e/(m - e).
    """
    F = x.frac_bits
    m, e = x.mantissa, x.err_ulp
    if m <= 0:
        raise DomainError("fx_log requires a positive value")
    if m <= e:
        raise PrecisionError("fx_log input interval reaches zero")
    prop = _ceil_div(e << F, m - e) if e else 0
    if m == (1 << F) and e == 0:
        return FixedReal(0, F, 0)

    r = _reduction_steps(F)
    Fw = F + r + 64
    n = m.bit_length() - 1 - F
    # y = x / 2**n in [1, 2), exact at the working precision
    shift = Fw - F - n
    if shift >= 0:
        y = FixedReal(m << shift, Fw, 0)
    else:
        y = FixedReal(m >> -shift, Fw, 0 if (m >> -shift) << -shift == m else 1)
    for _ in range(r):
        y = fx_sqrt(y)
    one = FixedReal.from_int(1, Fw)
    z = (y - one) / (y + one)
    acc = _atanh_small(z).mul_int(2 << r)
    if n:
        acc = acc + _log2_const(Fw).mul_int(n)
    out = acc.rescale(F)
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
