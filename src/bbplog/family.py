"""The parametric logarithm family: weights, coefficients, and identities.

For a nonzero integer parameter t the package builds the length-40,
degree-1 formula with base 2**20 * t**40 whose value is

    sqrt(5) * atanh( t*(1 - t + 2t^2) / (1 - t + 3t^2 - 2t^3 + 4t^4) * sqrt(5) )

and, at t = 1 with an extra factor 1/3 in the prefactor, sqrt(5)*log(phi)
for the golden ratio phi = (1 + sqrt(5))/2.

The coefficient pattern repeats with period 40 and is driven by the
weight 4*sin(r*pi/5)*sin(2r*pi/5)*cos(r*pi/4).  Using the product-to-sum
identity 4*sin(r*pi/5)*sin(2r*pi/5) = 2*(cos(r*pi/5) - cos(3r*pi/5)) and
cos(pi/5) = (sqrt(5)+1)/4, cos(2*pi/5) = (sqrt(5)-1)/4, the sine product
is sqrt(5) times a period-10 sign, and cos(r*pi/4) contributes the
period-8 factor in {0, +-1, +-1/sqrt(2)}.  Both tables are frozen below;
no trigonometry runs in the coefficient path.  The numerical check of
the four-term polylogarithm decomposition needs four cosines of
multiples of pi/20; it builds them from nested square roots of 5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError
from .formula import BbpFormula
from .numerics import (
    FixedReal,
    agreement_bits,
    fx_atanh,
    fx_log,
    fx_sqrt,
)

__all__ = [
    "WeightClass",
    "WeightValue",
    "FamilyInstance",
    "weight",
    "family_coeffs",
    "golden_formula",
    "lhs_value",
    "golden_constant",
    "verify_li1_decomposition",
    "DecompositionCheck",
    "FAMILY_LENGTH",
]

FAMILY_LENGTH = 40

# 4*sin(r*pi/5)*sin(2r*pi/5) = _SIN_PRODUCT_SIGN[r % 10] * sqrt(5)
_SIN_PRODUCT_SIGN = (0, 1, 1, -1, -1, 0, -1, -1, 1, 1)

# cos(r*pi/4) for r % 8: (is_unit, sign); is_unit False means 1/sqrt(2)
_COS_QUARTER = (
    (True, 1),
    (False, 1),
    None,
    (False, -1),
    (True, -1),
    (False, -1),
    None,
    (False, 1),
)


class WeightClass(enum.Enum):
    ZERO = "zero"
    ROOT5 = "sqrt5"
    ROOT5_OVER_ROOT2 = "sqrt5/sqrt2"


@dataclass(frozen=True, slots=True)
class WeightValue:
    """Exact symbolic value of the period-40 weight: class and sign."""

    klass: WeightClass
    sign: int

    def __post_init__(self) -> None:
        if (self.klass is WeightClass.ZERO) != (self.sign == 0):
            raise ValueError("sign must be zero exactly for the zero class")

    @property
    def squared(self) -> Fraction:
        if self.klass is WeightClass.ZERO:
            return Fraction(0)
        if self.klass is WeightClass.ROOT5:
            return Fraction(5)
        return Fraction(5, 2)


_ZERO_WEIGHT = WeightValue(WeightClass.ZERO, 0)


def weight(r: int) -> WeightValue:
    """The weight at integer r, resolved from the frozen sign tables."""
    chi = _SIN_PRODUCT_SIGN[r % 10]
    quarter = _COS_QUARTER[r % 8]
    if chi == 0 or quarter is None:
        return _ZERO_WEIGHT
    is_unit, csign = quarter
    klass = WeightClass.ROOT5 if is_unit else WeightClass.ROOT5_OVER_ROOT2
    return WeightValue(klass, chi * csign)


def _coefficient(j: int, t: int) -> int:
    # a_j = weight(j)/5 * t**(39-j) * sqrt(5) * sqrt(2**(40-j)); the class
    # of weight(j) always matches the parity of j, making a_j an integer.
    w = weight(j)
    if w.klass is WeightClass.ZERO:
        return 0
    if w.klass is WeightClass.ROOT5:
        if (FAMILY_LENGTH - j) % 2:
            raise RuntimeError(f"non-integer coefficient at j={j}")
        exp2 = (FAMILY_LENGTH - j) // 2
    else:
        if (FAMILY_LENGTH - 1 - j) % 2:
            raise RuntimeError(f"non-integer coefficient at j={j}")
        exp2 = (FAMILY_LENGTH - 1 - j) // 2
    return w.sign * t ** (FAMILY_LENGTH - 1 - j) * (1 << exp2)


def _lhs_argument(t: int) -> Fraction:
    """Rational coefficient u(t) with LHS = sqrt(5)*atanh(u*sqrt(5))."""
    num = t * (1 - t + 2 * t * t)
    den = 1 - t + 3 * t * t - 2 * t**3 + 4 * t**4
    return Fraction(num, den)


@dataclass(frozen=True, slots=True)
class FamilyInstance:
    """Parameter t together with its formula and closed-form left side."""

    t: int
    formula: BbpFormula
    lhs_arg: Fraction

    def __post_init__(self) -> None:
        # atanh needs |u*sqrt(5)| < 1, i.e. 5*num^2 < den^2; this holds
        # for every nonzero integer t and is enforced, not assumed.
        num, den = self.lhs_arg.numerator, self.lhs_arg.denominator
        if 5 * num * num >= den * den:
            raise DomainError(
                f"atanh argument leaves (-1, 1) for t={self.t}; "
                "the family construction does not apply"
            )


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
    base = family_coeffs(1).formula
    return BbpFormula(
        degree=base.degree,
        base=base.base,
        length=base.length,
        coeffs=base.coeffs,
        prefactor=base.prefactor / 3,
        label="sqrt(5)*log(phi)",
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

# Re Li_1[q e^{ix}] = -log(1 - 2q cos x + q^2)/2 at the four angles
# k*pi/20, k = 1, 7, 9, 17, with alternating signs.
_DECOMPOSITION_SIGNS = (1, -1, 1, -1)


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


@dataclass(frozen=True, slots=True)
class DecompositionCheck:
    """Outcome of comparing atanh closed form vs the four-log sum."""

    t: int
    frac_bits: int
    lhs: FixedReal
    rhs: FixedReal
    agreement_bits: int
    passed: bool

    @property
    def deviation_bound(self) -> Fraction:
        """Certified upper bound on |lhs - rhs|."""
        gap = abs(self.lhs.mantissa - self.rhs.mantissa)
        worst = gap + self.lhs.err_ulp + self.rhs.err_ulp
        return Fraction(worst, 1 << self.lhs.frac_bits)


def verify_li1_decomposition(t: int, frac_bits: int) -> DecompositionCheck:
    """Numerically confirm the alternating four-term log identity.

    Left side: atanh(u(t)*sqrt(5)).  Right side: the alternating sum of
    Re Li_1[(1/(t*sqrt(2))) e^{i k pi/20}] for k in {1, 7, 9, 17}, each
    evaluated through its closed log form with closed-form cosines.
    Passes when the two sides agree to at least ``frac_bits`` bits.
    """
    if t == 0:
        raise DomainError("t must be a nonzero integer")
    work = frac_bits + 64
    s5 = fx_sqrt(FixedReal.from_int(5, work))
    lhs = fx_atanh(s5.mul_fraction(_lhs_argument(t)))

    s2 = fx_sqrt(FixedReal.from_int(2, work))
    q = s2.mul_fraction(Fraction(1, 2 * t))  # 1/(t*sqrt(2))
    q2 = q * q
    one = FixedReal.from_int(1, work)
    total = None
    for c, sgn in zip(_decomposition_cosines(s5), _DECOMPOSITION_SIGNS):
        radicand = one - (q * c).mul_int(2) + q2
        log_term = fx_log(radicand).mul_int(sgn)
        total = log_term if total is None else total + log_term
    rhs = total.div_int(-2)

    agree = agreement_bits(lhs, rhs)
    return DecompositionCheck(
        t=t,
        frac_bits=frac_bits,
        lhs=lhs,
        rhs=rhs,
        agreement_bits=agree,
        passed=agree >= frac_bits,
    )
