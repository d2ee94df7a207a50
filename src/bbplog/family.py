"""The parametric logarithm family: coefficients and identities.

For a nonzero integer parameter t the package builds the length-40,
degree-1 formula with base 2**20 * t**40 whose value is

    sqrt(5) * atanh( t*(1 - t + 2t^2) / (1 - t + 3t^2 - 2t^3 + 4t^4) * sqrt(5) )

and, at t = 1 with an extra factor 1/3 in the prefactor, sqrt(5)*log(phi)
for the golden ratio phi = (1 + sqrt(5))/2.

The coefficients are a_j = w(j)/5 * sqrt(5) * sqrt(2**(40-j)) * t**(39-j)
with the weight w(j) = 4*sin(j*pi/5)*sin(2j*pi/5)*cos(j*pi/4).  Using the
product-to-sum identity 4*sin(j*pi/5)*sin(2j*pi/5) = 2*(cos(j*pi/5) -
cos(3j*pi/5)) and cos(pi/5) = (sqrt(5)+1)/4, cos(2*pi/5) = (sqrt(5)-1)/4,
the sine product is sqrt(5) times a period-10 sign; cos(j*pi/4) is a
period-8 sign times 1 for even j and 1/sqrt(2) for odd j.  So a_j is the
product of the two signs times t**(39-j) * 2**((40-j)//2), the floor
being the 1/sqrt(2) of odd j; no trigonometry runs in the coefficient
path.  The numerical check of the four-term polylogarithm decomposition
needs four cosines of multiples of pi/20; it builds them from nested
square roots of 5.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from ._record import Record
from .errors import DomainError
from .formula import BbpFormula
from .numerics import FixedReal, fx_atanh, fx_log, fx_sqrt

__all__ = [
    "FamilyInstance",
    "family_coeffs",
    "golden_formula",
    "lhs_value",
    "golden_constant",
    "verify_li1_decomposition",
    "FAMILY_LENGTH",
]

FAMILY_LENGTH = 40

# 4*sin(j*pi/5)*sin(2j*pi/5) = _SIN_SIGN[j % 10] * sqrt(5)
_SIN_SIGN = (0, 1, 1, -1, -1, 0, -1, -1, 1, 1)
# cos(j*pi/4) = _COS_SIGN[j % 8], times 1/sqrt(2) for odd j
_COS_SIGN = (1, 1, 0, -1, -1, -1, 0, 1)


def _coefficient(j: int, t: int) -> int:
    sign = _SIN_SIGN[j % 10] * _COS_SIGN[j % 8]
    if sign == 0:  # also covers j = 40, where t**(39-j) is not an integer
        return 0
    return sign * t ** (FAMILY_LENGTH - 1 - j) << ((FAMILY_LENGTH - j) // 2)


def _lhs_argument(t: int) -> Fraction:
    """Rational coefficient u(t) with LHS = sqrt(5)*atanh(u*sqrt(5))."""
    num = t * (1 - t + 2 * t * t)
    den = 1 - t + 3 * t * t - 2 * t**3 + 4 * t**4
    return Fraction(num, den)


class FamilyInstance(Record):
    """Parameter t together with its formula and closed-form left side."""

    __slots__ = ("t", "formula", "lhs_arg")

    def __init__(self, t: int, formula: BbpFormula, lhs_arg: Fraction) -> None:
        # atanh needs |u*sqrt(5)| < 1, i.e. 5*num^2 < den^2; this holds
        # for every nonzero integer t and is enforced, not assumed.
        num, den = lhs_arg.numerator, lhs_arg.denominator
        if 5 * num * num >= den * den:
            raise DomainError(
                f"atanh argument leaves (-1, 1) for t={t}; "
                "the family construction does not apply"
            )
        self._fill(t, formula, lhs_arg)


def family_coeffs(t: int) -> FamilyInstance:
    """Build the length-40 instance for a nonzero integer parameter."""
    if t == 0:
        raise DomainError("family parameter t must be a nonzero integer")
    coeffs = tuple(_coefficient(j, t) for j in range(1, FAMILY_LENGTH + 1))
    arg = _lhs_argument(t)
    # Decimal prints an int of any length; str() stops at a digit limit
    num, den = str(Decimal(arg.numerator)), str(Decimal(arg.denominator))
    formula = BbpFormula(
        degree=1,
        base=(1 << 20) * t**FAMILY_LENGTH,
        length=FAMILY_LENGTH,
        coeffs=coeffs,
        prefactor=Fraction(5, (1 << 20) * t ** (FAMILY_LENGTH - 1)),
        label=f"sqrt(5)*atanh({num}/{den}*sqrt(5))",
    )
    return FamilyInstance(t=t, formula=formula, lhs_arg=arg)


def golden_formula() -> BbpFormula:
    """The t=1 instance renormalized to equal sqrt(5)*log(phi).

    atanh(2/sqrt(5)) = 3*log(phi), so the theorem prefactor gains a
    factor 1/3.
    """
    f = family_coeffs(1).formula
    return BbpFormula(
        f.degree, f.base, f.length, f.coeffs, f.prefactor / 3, "sqrt(5)*log(phi)"
    )


def lhs_value(inst: FamilyInstance, frac_bits: int) -> FixedReal:
    """sqrt(5) * atanh(lhs_arg * sqrt(5)) at the requested precision."""
    work = frac_bits + 32
    s5 = fx_sqrt(FixedReal.from_int(5, work))
    arg = s5.mul_fraction(inst.lhs_arg)
    return (s5 * fx_atanh(arg)).rescale(frac_bits)


def golden_constant(frac_bits: int) -> FixedReal:
    """sqrt(5)*log(phi) straight from sqrt and log; the BBP-free oracle."""
    work = frac_bits + 32
    s5 = fx_sqrt(FixedReal.from_int(5, work))
    phi = (FixedReal.from_int(1, work) + s5).div_int(2)
    return (s5 * fx_log(phi)).rescale(frac_bits)


# -- the four-term polylogarithm decomposition check ----------------------


def _decomposition_cosines(s5: FixedReal) -> tuple[FixedReal, ...]:
    """cos(k*pi/20) for k = 1, 7, 9, 17 from a certified sqrt(5).

    cos(pi/10) = sqrt((5+sqrt5)/8) and cos(3pi/10) = sqrt((5-sqrt5)/8);
    the half-angle steps cos(x/2) = sqrt((1+cos x)/2) and
    cos(pi/2 - x/2) = sqrt((1-cos x)/2) reach the four angles.
    """
    one = FixedReal.from_int(1, s5.frac_bits)
    five = FixedReal.from_int(5, s5.frac_bits)
    c1 = fx_sqrt((five + s5).div_int(8))  # cos(pi/10)
    c3 = fx_sqrt((five - s5).div_int(8))  # cos(3pi/10)
    return (
        fx_sqrt((one + c1).div_int(2)),
        fx_sqrt((one - c3).div_int(2)),
        fx_sqrt((one - c1).div_int(2)),
        -fx_sqrt((one + c3).div_int(2)),
    )


def _decomposition_radicands(t: int, s5: FixedReal) -> tuple[FixedReal, ...]:
    """R_i = 1 - 2q cos x_i + q^2 with q = 1/(t*sqrt(2)), one per cosine."""
    work = s5.frac_bits
    s2 = fx_sqrt(FixedReal.from_int(2, work))
    q = s2.mul_fraction(Fraction(1, 2 * t))
    q2 = q * q
    one = FixedReal.from_int(1, work)
    return tuple(one - (q * c).mul_int(2) + q2 for c in _decomposition_cosines(s5))


def _li1_quotients(t: int, work: int) -> tuple[FixedReal, FixedReal, FixedReal]:
    """``(a, R_0 R_2, R_1 R_3)`` at ``work`` bits for nonzero t:
    a = u(t)*sqrt(5), the argument of the left side's atanh, and the
    products of the radicands R_i of :func:`_decomposition_radicands`.
    """
    if t == 0:
        raise DomainError("t must be a nonzero integer")
    s5 = fx_sqrt(FixedReal.from_int(5, work))
    a = s5.mul_fraction(_lhs_argument(t))
    r0, r1, r2, r3 = _decomposition_radicands(t, s5)
    return a, r0 * r2, r1 * r3


def verify_li1_decomposition(t: int, work: int) -> tuple[FixedReal, FixedReal]:
    """Both sides of the alternating four-term log identity at ``work`` bits.

    Left side: :func:`fx_atanh` of u(t)*sqrt(5).  Right side: the
    alternating sum of Re Li_1[q e^{i x_i}] = -log(R_i)/2 with
    R_i = 1 - 2q cos x_i + q^2, q = 1/(t*sqrt(2)) and x_i = k*pi/20 for
    k in {1, 7, 9, 17}, each R_i built from its closed-form cosine.  The
    signed sum of the four logs is the log of one quotient,

        sum_i (-1)**i log R_i = log(R_0 R_2 / (R_1 R_3)),

    so the right side takes a single log.  The quotient is oriented to be
    >= 1, the larger product over the smaller with the sign flipped, as
    :func:`fx_atanh` does.  No divisor can reach zero: R_i = |1 - q
    e^{i x_i}|**2 >= (1 - |q|)**2 > 0.08, because |q| <= 1/sqrt(2).
    Returns ``(lhs, rhs)``; the caller judges their agreement.

    This is the value-level API, and the reference the tests hold
    ``verify.verify_decomposition`` to: that check compares the two
    logs' arguments and takes no log.
    """
    a, num, den = _li1_quotients(t, work)
    lhs = fx_atanh(a)
    if num.mantissa >= den.mantissa:
        return lhs, fx_log(num / den).div_int(-2)
    return lhs, fx_log(den / num).div_int(2)
