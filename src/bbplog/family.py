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
path.
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

