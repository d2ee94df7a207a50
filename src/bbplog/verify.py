"""Verification harness: identity checks with machine-readable reports.

The theorem and corollary checks compute both sides of an identity
along independent code paths at the target precision plus 88 guard bits
and report how many leading bits provably agree.  The decomposition's
identity is algebra over Q(sqrt5): its four radicands enter only as two
conjugate products of pairs, each with integer coefficients in t, so its
check is one integer identity and two sign tests at t, exact, with no
root or log; :func:`verify_decomposition` derives it.  A pass reports
the same working width, a failure 0.  Reports serialize one per line as

    REPORT <subject> passed=<true|false> bits=<int> ms=<int>
"""

from __future__ import annotations

import time

from ._record import Record
from .errors import DomainError, ValidationError
from .family import _lhs_argument, family_coeffs, golden_constant, golden_formula, lhs_value
from .formula import eval_P
from .numerics import _certified_digits, agreement_bits
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
    oracle's first 32 fraction bits, certified for both ends of its
    interval by ``numerics._certified_digits``; a mismatch, or fewer than
    32 bits certified on either side, fails the report outright.
    """
    started = time.perf_counter()
    work = _work_bits(target_bits)
    oracle = golden_constant(work)
    formula = golden_formula()
    evaluated = eval_P(formula, work).value

    window = extract_bits(build_plan(formula), 0, 32)
    ends = oracle.mantissa - oracle.err_ulp, oracle.mantissa + oracle.err_ulp
    c, q = _certified_digits(*ends, work, 2, 32)
    spigot_ok = window.certified >= 32 and c == 32 and format(q % (1 << 32), "032b") == window.bits

    agree = agreement_bits(oracle, evaluated)
    return _report("corollary", agree, target_bits, started, extra_ok=spigot_ok)


def _radicand_products(t: int) -> tuple[int, int]:
    """The integers (e0, e1) with 16t^4 R_0 R_2 = e0 + e1 sqrt5 and 16t^4
    R_1 R_3 = e0 - e1 sqrt5: m^2 - 5t^2 and 2t^2 - 2mt, m = 4t^2 - t + 2."""
    m = 4 * t * t - t + 2
    return m * m - 5 * t * t, 2 * t * t - 2 * m * t


def verify_decomposition(t: int, target_bits: int) -> VerificationReport:
    """atanh closed form vs the four-term polylogarithm decomposition, exactly.

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

        E = 16t^4 R_0 R_2 = (m^2 - 5t^2) + (2t^2 - 2mt) sqrt5 = e0 + e1 sqrt5

    and C = 16t^4 R_1 R_3 = e0 - e1 sqrt5, its conjugate, for the
    integers (e0, e1) of :func:`_radicand_products`.

    With a = u sqrt5 for u = N/D = :func:`_lhs_argument`, the left side is
    atanh(a) = ln((1+a)/(1-a))/2 and the right side -1/2 sum_i (-1)**i ln
    R_i = ln(C/E)/2.  The check passes iff D e1 + N e0 = 0, e0 > 0 and
    e0^2 > 5 e1^2, all in integers.  The last two say e0 > |e1| sqrt5, so
    E and C are positive; the first is (1 + a) E = (1 - a) C, as (1 + a) E
    - (1 - a) C = 2 sqrt5 (e1 + u e0).  Then 1 + a and 1 - a have one sign
    and sum to 2, so |a| < 1, both logs are real and the sides are equal.
    An exact check agrees to every bit, so a pass reports the working
    width target + GUARD_BITS, as many bits as the numeric checks carry,
    and a failure reports 0.
    """
    started = time.perf_counter()
    work = _work_bits(target_bits)
    if t == 0:
        raise DomainError("t must be a nonzero integer")
    u = _lhs_argument(t)
    e0, e1 = _radicand_products(t)
    holds = u.denominator * e1 + u.numerator * e0 == 0
    positive = e0 > 0 and e0 * e0 > 5 * e1 * e1
    agree = work if holds and positive else 0
    return _report(f"decomposition(t={t})", agree, target_bits, started)
