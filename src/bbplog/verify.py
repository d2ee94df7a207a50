"""Verification harness: identity checks with machine-readable reports.

Each check computes both sides of an identity along independent code
paths at the target precision plus 88 guard bits and reports how many
leading bits provably agree.  Reports serialize one per line as

    REPORT <subject> passed=<true|false> bits=<int> ms=<int>
"""

from __future__ import annotations

import time

from ._record import Record
from .errors import ValidationError
from .family import (
    family_coeffs,
    golden_constant,
    golden_formula,
    lhs_value,
    verify_li1_decomposition,
)
from .formula import eval_P
from .numerics import FixedReal, agreement_bits
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

    def __init__(
        self, subject: str, agreement_bits: int, threshold: int, passed: bool, elapsed_ms: int
    ) -> None:
        self._fill(subject, agreement_bits, threshold, passed, elapsed_ms)

    def line(self) -> str:
        flag = "true" if self.passed else "false"
        return (
            f"REPORT {self.subject} passed={flag}"
            f" bits={self.agreement_bits} ms={self.elapsed_ms}"
        )


def _report(
    subject: str,
    lhs: FixedReal,
    rhs: FixedReal,
    threshold: int,
    started: float,
    extra_ok: bool = True,
) -> VerificationReport:
    agree = agreement_bits(lhs, rhs)
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
    return _report(f"theorem(t={t})", lhs, rhs, target_bits, started)


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

    return _report(
        "corollary", oracle, evaluated, target_bits, started, extra_ok=spigot_ok
    )


def verify_decomposition(t: int, target_bits: int) -> VerificationReport:
    """atanh closed form vs the four-term polylogarithm decomposition."""
    started = time.perf_counter()
    lhs, rhs = verify_li1_decomposition(t, _work_bits(target_bits))
    return _report(f"decomposition(t={t})", lhs, rhs, target_bits, started)
