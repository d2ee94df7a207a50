"""Verification harness: identity checks with machine-readable reports.

Each check computes both sides of an identity along independent code
paths at the target precision plus 88 guard bits and reports how many
leading bits provably agree.  The decomposition's two sides are halves
of logs, so its check bounds their gap from the logs' two arguments and
takes no log; :func:`verify_decomposition` states that bound.  The right
side's four radicands need sqrt(2) times four cosines of multiples of
pi/20.  Each angle is, up to sign, pi/4 plus or minus pi/5 or pi/10, so
the angle-sum formula builds them from sqrt(5) and two more square roots.
Reports serialize one per line as

    REPORT <subject> passed=<true|false> bits=<int> ms=<int>
"""

from __future__ import annotations

import time

from ._record import Record
from .errors import DomainError, PrecisionError, ValidationError
from .family import _lhs_argument, family_coeffs, golden_constant, golden_formula, lhs_value
from .formula import eval_P
from .numerics import FixedReal, agreement_bits, fx_sqrt
from .spigot import build_plan, extract_bits

__all__ = [
    "VerificationReport",
    "verify_theorem",
    "verify_corollary",
    "verify_decomposition",
    "GUARD_BITS",
]

# working precision exceeds the target by this margin; property tests put
# the worst observed ulp loss orders of magnitude below it
GUARD_BITS = 88


class VerificationReport(Record):
    """One identity check: the two sides, their agreement, the verdict."""

    __slots__ = ("subject", "agreement_bits", "threshold", "passed", "elapsed_ms")

    def line(self) -> str:
        flag = "true" if self.passed else "false"
        return (
            f"REPORT {self.subject} passed={flag}"
            f" bits={self.agreement_bits} ms={self.elapsed_ms}"
        )


def _report(
    subject: str, agree: int, threshold: int, started: float, extra_ok: bool = True
) -> VerificationReport:
    return VerificationReport(
        subject=subject,
        agreement_bits=agree,
        threshold=threshold,
        passed=agree >= threshold and extra_ok,
        elapsed_ms=int((time.perf_counter() - started) * 1000),
    )


def _work_bits(target_bits: int) -> int:
    """The working precision for a target of at least one bit."""
    if target_bits < 1:
        raise ValidationError("target_bits: must be at least 1")
    return target_bits + GUARD_BITS


def verify_theorem(t: int, target_bits: int) -> VerificationReport:
    """Closed-form left side vs the evaluated series for parameter t."""
    started = time.perf_counter()
    work = _work_bits(target_bits)
    inst = family_coeffs(t)
    lhs = lhs_value(inst, work)
    rhs = eval_P(inst.formula, work).value
    agree = agreement_bits(lhs, rhs)
    return _report(f"theorem(t={t})", agree, target_bits, started)


def verify_corollary(target_bits: int) -> VerificationReport:
    """sqrt(5)*log(phi) from sqrt/log vs the evaluated golden formula.

    Also cross-checks the first spigot window at position 0 against the
    leading fraction bits of both ends of the oracle interval; a mismatch,
    or ends that disagree, fails the report outright.
    """
    started = time.perf_counter()
    work = _work_bits(target_bits)
    oracle = golden_constant(work)
    formula = golden_formula()
    evaluated = eval_P(formula, work).value

    window = extract_bits(build_plan(formula), 0, 32)
    mask = (1 << work) - 1
    lo_bits, hi_bits = (
        format(((oracle.mantissa + d) & mask) >> (work - 32), "032b")
        for d in (-oracle.err_ulp, oracle.err_ulp)
    )
    spigot_ok = window.certified >= 32 and lo_bits == hi_bits == window.bits

    agree = agreement_bits(oracle, evaluated)
    return _report("corollary", agree, target_bits, started, extra_ok=spigot_ok)


def _decomposition_cosines(s5: FixedReal) -> tuple[FixedReal, ...]:
    """sqrt(2)*cos(k*pi/20) for k = 1, 7, 9, 17 from a certified sqrt(5).

    The angles are pi/4 - pi/5, pi/4 + pi/10, pi/4 + pi/5 and
    pi - (pi/4 - pi/10), and sqrt(2)*cos(pi/4 -+ y) = cos y +- sin y.
    cos(pi/5) = (sqrt5+1)/4 and sin(pi/10) = (sqrt5-1)/4 are linear in
    sqrt(5); cos(pi/10) = sqrt((5+sqrt5)/8) and sin(pi/5) =
    sqrt((5-sqrt5)/8) take one square root each.
    """
    one = FixedReal.from_int(1, s5.frac_bits)
    five = FixedReal.from_int(5, s5.frac_bits)
    cos10 = fx_sqrt((five + s5).div_int(8))
    sin5 = fx_sqrt((five - s5).div_int(8))
    cos5, sin10 = (s5 + one).div_int(4), (s5 - one).div_int(4)
    return cos5 + sin5, cos10 - sin10, cos5 - sin5, -(cos10 + sin10)


def _decomposition_radicands(t: int, s5: FixedReal) -> tuple[FixedReal, ...]:
    """R_i = 1 - 2q cos x_i + q^2 with q = 1/(t*sqrt(2)), one per cosine,
    as (2t^2 + 1 - 2t * sqrt(2)cos x_i) / (2t^2): one rounding each."""
    top = FixedReal.from_int(2 * t * t + 1, s5.frac_bits)
    return tuple((top - c.mul_int(2 * t)).div_int(2 * t * t) for c in _decomposition_cosines(s5))


def verify_decomposition(t: int, target_bits: int) -> VerificationReport:
    """atanh closed form vs the four-term polylogarithm decomposition.

    The right side is the alternating sum of Re Li_1[q e^{i x_i}] =
    -ln(R_i)/2 for x_i = k*pi/20, k in {1, 7, 9, 17}, with the radicands
    R_i = |1 - q e^{i x_i}|**2 = 1 - 2q cos x_i + q^2 and q = 1/(t*sqrt(2)),
    each built from its closed-form sqrt(2)*cos x_i.

    Both sides are halves of logs, so the check compares the logs'
    arguments and takes no log.  With a = u(t)*sqrt(5) the left side is
    atanh(a) = sign(a) * ln(X)/2 for X = (1+|a|)/(1-|a|), and the right
    side -1/2 sum_i (-1)**i ln R_i is ln(R_1 R_3 / (R_0 R_2))/2.  Y is
    that quotient when a >= 0 and its inverse otherwise, so |lhs - rhs|
    = |ln X - ln Y|/2 for either sign.  For positive X and Y the mean
    value theorem gives |ln X - ln Y| = |X - Y|/xi for some xi between
    them; with mantissas X_m, Y_m and bounds e_X, e_Y in ulps 2**-F,

        |lhs - rhs| <= (|X_m - Y_m| + e_X + e_Y) / (2 min(X_m - e_X, Y_m - e_Y))

    whether or not the identity holds, so a false one still fails.  The
    report counts F - bitlen(ceil(2**F * bound)) bits, as
    :func:`agreement_bits` does.

    The lower end is positive for every nonzero t at F >= 89 bits (a
    target of 1 bit or more), so the PrecisionError below is never
    raised.  X >= 1 and e_X < 400: for u = N/D, 2D - 5|N| >= 0 at every
    nonzero integer t (it is 8t^4 - 14t^3 + 11t^2 - 7t + 2 for t > 0 and
    8s^4 - 6s^3 + s^2 - 3s + 2 with s = -t for t < 0), so |a| <= 2/sqrt(5)
    and 1 - |a| > 0.105.
    Y > 2**-11 and e_Y < 2**23: each R_i lies in [(1-|q|)^2, (1+|q|)^2]
    with |q| <= 1/sqrt(2), so Y >= ((1-|q|)/(1+|q|))^4 > 8e-4 and each
    product lies in [0.0073, 8.5].  sqrt(5) carries 1 ulp, cos(pi/5) and
    sin(pi/10) 2 each, and cos(pi/10) and sin(pi/5) 4 and 5 (a square
    root adds 1 to ceil(2/sqrt(x)) for its argument x, which carries 2).
    So each sqrt(2)*cos x_i carries at most 7 ulps and each R_i at most
    ceil(7/|t|) + 1 <= 8.  R_0 + R_2 and R_1 + R_3 stay below 4.62, so
    each product carries at most ceil(8 * 4.62) + 1 < 40 ulps, and e_Y <
    1 + 40 * (8.5 + 0.0073) / 0.0073**2 < 2**23.
    """
    started = time.perf_counter()
    work = _work_bits(target_bits)
    if t == 0:
        raise DomainError("t must be a nonzero integer")
    s5 = fx_sqrt(FixedReal.from_int(5, work))
    a = s5.mul_fraction(_lhs_argument(t))
    r0, r1, r2, r3 = _decomposition_radicands(t, s5)
    num, den = r0 * r2, r1 * r3
    one = FixedReal.from_int(1, work)
    x = (one + abs(a)) / (one - abs(a))
    y = den / num if a.mantissa >= 0 else num / den
    low = min(x.mantissa - x.err_ulp, y.mantissa - y.err_ulp)
    if low <= 0:
        raise PrecisionError("decomposition quotient interval reaches zero")
    spread = abs(x.mantissa - y.mantissa) + x.err_ulp + y.err_ulp
    worst = -(-(spread << work) // (2 * low))
    agree = work - worst.bit_length()
    return _report(f"decomposition(t={t})", agree, target_bits, started)
