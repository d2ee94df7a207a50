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

Both closed forms are sqrt(5) times the log of an exact number of
Q(sqrt5): phi = (1 + sqrt(5))/2 for the golden constant, and for the
family atanh(v) = ln((1 + v)/(1 - v))/2 at v = u*sqrt(5).  So the two
BBP-free oracles, :func:`lhs_value` and :func:`golden_constant`, take
one square root and one log each, through one helper.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from ._record import Record
from .errors import DomainError
from .formula import BbpFormula
from .numerics import FixedReal, fx_log, fx_sqrt

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


def _sqrt5_log(a: int, b: int, c: int, frac_bits: int) -> FixedReal:
    """sqrt(5) * ln((a + b*sqrt(5))/c) at frac_bits, for integers a, b, c
    with (a + b*sqrt(5))/c > 0.

    The one place an oracle takes sqrt(5) and a log.  The number is exact
    but for sqrt(5)'s ulp times |b| and the floor of ``div_int`` by c;
    ``fx_log`` carries that error into the log and ``*`` carries sqrt(5)'s
    into the product, so the bound is theirs.
    """
    s5 = fx_sqrt(FixedReal.from_int(5, frac_bits))
    x = (FixedReal.from_int(a, frac_bits) + s5.mul_int(b)).div_int(c)
    return s5 * fx_log(x)


def lhs_value(inst: FamilyInstance, frac_bits: int) -> FixedReal:
    """sqrt(5) * atanh(lhs_arg * sqrt(5)) at the requested precision.

    For u = N/D, (1 + u*sqrt(5))/(1 - u*sqrt(5)) = (D + N*sqrt(5))**2 /
    (D**2 - 5N**2), so the left side is half of sqrt(5) times the log of
    that number of Q(sqrt5).  Its denominator, and so the number, is
    positive exactly when the instance's domain check, 5N**2 < D**2, holds.
    """
    N, D = inst.lhs_arg.numerator, inst.lhs_arg.denominator
    out = _sqrt5_log(D * D + 5 * N * N, 2 * D * N, D * D - 5 * N * N, frac_bits + 32)
    return out.div_int(2).rescale(frac_bits)


def golden_constant(frac_bits: int) -> FixedReal:
    """sqrt(5)*log(phi) straight from sqrt and log; the BBP-free oracle."""
    return _sqrt5_log(1, 1, 2, frac_bits + 32).rescale(frac_bits)
