"""Verification harness: identity checks with machine-readable reports.

Each check computes both sides of an identity along independent code
paths at the target precision plus 88 guard bits and reports how many
leading bits provably agree.  The decomposition's two sides are halves
of logs, so its check bounds their gap from cross products of the logs'
two arguments and takes no log; :func:`verify_decomposition` states
that bound.  The right side's four radicands enter it only as two
products of pairs, and each pair's sqrt(2)cos x_i have their sum and
product in Q(sqrt5), so each product is a quadratic in sqrt(5) with
integer coefficients in t, and the check takes one square root.
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


def _radicand_products(t: int, s5: FixedReal) -> tuple[FixedReal, FixedReal]:
    """16t^4 R_0 R_2 and 16t^4 R_1 R_3 from a certified sqrt(5), as
    (m - t sqrt5)^2 - 2t^2 (5 - sqrt5) and (m + t sqrt5)^2 - 2t^2 (5 +
    sqrt5) with m = 4t^2 - t + 2: exact but for the two squarings."""
    F = s5.frac_bits
    m, ts5 = FixedReal.from_int(4 * t * t - t + 2, F), s5.mul_int(t)
    five, w = FixedReal.from_int(5, F), 2 * t * t
    e, c = m - ts5, m + ts5
    return e * e - (five - s5).mul_int(w), c * c - (five + s5).mul_int(w)


def verify_decomposition(t: int, target_bits: int) -> VerificationReport:
    """atanh closed form vs the four-term polylogarithm decomposition.

    The right side is the alternating sum of Re Li_1[q e^{i x_i}] =
    -ln(R_i)/2 for x_i = k*pi/20, k in {1, 7, 9, 17}, with the radicands
    R_i = |1 - q e^{i x_i}|**2 = 1 - 2q cos x_i + q^2 and q = 1/(t*sqrt(2)).
    It needs only the products R_0 R_2 and R_1 R_3.  With A = 2t^2 + 1,
    2t^2 R_i = A - 2t c_i for c_i = sqrt(2)cos x_i.  The angles are pi/4
    -+ pi/5 for i = 0, 2 and pi/4 + pi/10, pi - (pi/4 - pi/10) for i = 1,
    3, and sqrt(2)cos(pi/4 -+ y) = cos y +- sin y, so c_0 + c_2 =
    2cos(pi/5) = (sqrt5+1)/2, c_0 c_2 = cos(2pi/5) = (sqrt5-1)/4, c_1 + c_3
    = -2sin(pi/10) = -(sqrt5-1)/2 and c_1 c_3 = -cos(pi/5) = -(sqrt5+1)/4.
    Multiplied out, with m = 2A - t = 4t^2 - t + 2,

        16t^4 R_0 R_2 = (m - t sqrt5)^2 - 2t^2 (5 - sqrt5)
        16t^4 R_1 R_3 = (m + t sqrt5)^2 - 2t^2 (5 + sqrt5)

    and :func:`_radicand_products` returns these two, E and C.

    Both sides are halves of logs, so the check compares the logs'
    arguments and takes no log.  With a = u(t)*sqrt(5) the left side is
    atanh(a) = sign(a) * ln(X)/2 for X = (1+|a|)/(1-|a|), and the right
    side -1/2 sum_i (-1)**i ln R_i is ln(R_1 R_3 / (R_0 R_2))/2 =
    ln(C/E)/2.  Y is C/E when a >= 0 and E/C otherwise, so |lhs - rhs| =
    |ln X - ln Y|/2 for either sign.  Swap E and C when a < 0: then X/Y
    = P/Q for the cross products P = (1+|a|) E and Q = (1-|a|) C, the
    common 16t^4 cancels, and no division is needed.  For positive P and
    Q the mean value theorem gives |ln P - ln Q| = |P - Q|/xi for some
    xi between them; with mantissas P_m, Q_m and bounds e_P, e_Q in
    ulps 2**-F,

        |lhs - rhs| <= (|P_m - Q_m| + e_P + e_Q) / (2 min(P_m - e_P, Q_m - e_Q))

    whether or not the identity holds, so a false one still fails.  The
    report counts F - bitlen(ceil(2**F * bound)) bits, as
    :func:`agreement_bits` does.

    Each product carries at most 2|t|(m -+ t sqrt5) + 4t^2 + 2 <= 25|t|^3
    ulps.  sqrt(5) carries 1 ulp, so t sqrt(5) and m -+ t sqrt(5) carry
    |t|.  Both m -+ t sqrt(5) = 4t^2 - (1 +- sqrt5)t + 2 are positive
    (their discriminants are negative) and at most 9.24t^2, and their
    mantissas are at most 2**F (m -+ t sqrt5 + |t| 2**-F), so a squaring
    carries at most 2|t|(m -+ t sqrt5) + 3t^2 2**-F + 2 ulps; 2t^2 (5 -+
    sqrt5) carries 2t^2.

    The lower end is positive for every nonzero t at F >= 89 bits (a
    target of 1 bit or more), so the PrecisionError below is never
    raised.  For u = N/D, 2D - 5|N| >= 0 at every nonzero integer t (it
    is 8t^4 - 14t^3 + 11t^2 - 7t + 2 for t > 0 and 8s^4 - 6s^3 + s^2 -
    3s + 2 with s = -t for t < 0), so |a| <= 2/sqrt(5) and 1 - |a| >
    0.1055.  Each R_i lies in [(1-|q|)^2, (1+|q|)^2] with |q| <=
    1/sqrt(2), so E and C lie in 16t^4 [0.00735, 8.5], and P >= E and Q
    > 0.0124 t^4.  a carries ceil(|u|) + 1 = 2 ulps, and so does 1 +-
    |a|, so with 1 + |a| < 1.9, e_P <= 1.9 * 25t^4 + 2 * 136t^4 + 3 <
    330t^4 and e_Q < 310t^4.  So the lower end is at least t^4 (0.0124 *
    2**F - 660) > 0 for F >= 16.
    """
    started = time.perf_counter()
    work = _work_bits(target_bits)
    if t == 0:
        raise DomainError("t must be a nonzero integer")
    s5 = fx_sqrt(FixedReal.from_int(5, work))
    a = s5.mul_fraction(_lhs_argument(t))
    e, c = _radicand_products(t, s5)
    e, c = (e, c) if a.mantissa >= 0 else (c, e)
    one, abs_a = FixedReal.from_int(1, work), abs(a)
    P, Q = (one + abs_a) * e, (one - abs_a) * c
    low = min(P.mantissa - P.err_ulp, Q.mantissa - Q.err_ulp)
    if low <= 0:
        raise PrecisionError("decomposition product interval reaches zero")
    spread = abs(P.mantissa - Q.mantissa) + P.err_ulp + Q.err_ulp
    worst = -(-(spread << work) // (2 * low))
    agree = work - worst.bit_length()
    return _report(f"decomposition(t={t})", agree, target_bits, started)
