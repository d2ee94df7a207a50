"""Arbitrary-position binary digit extraction for base-2**beta formulas
of any degree s up to ``formula.MAX_DEGREE``.

For the constant C = (p/q) * sum_k b**-k sum_j a_j/(k*l + j)**s with
b = 2**beta, the bits after position n are the fractional part of

    2**n * C = sum_{k,j} p*a_j * 2**(n - beta*k) / (q*(k*l + j)**s).

Write q = 2**w * q' and p*a_j = 2**x_j * c_j with q' and c_j odd, and
s_j = x_j - w.  Each term is then
c_j * 2**(n - beta*k + s_j) / (q'*(k*l + j)**s).  The degree enters only
the denominators, as the power s of each factor.  The levels are cut
into blocks of L = ceil(T / (nonzero terms * s)) whole levels
(T = ``formula._FOLD_TERMS``), so that each block's denominator has
about T factors.  A block is one exact fraction N/(q' * M), with
M = prod (k*l + j)**s over its terms, times 2**e, where e is the block's
smallest exponent.  N/M is what ``formula._block_fractions`` gives with
base 2**beta, degree s and the pairs (j, c_j * 2**(s_j - s_min)), s_min
the smallest s_j: the fraction that ``eval_P``'s fold gives too, stepped
by packed finite differences in a long range, with the exactness
argument in the Stepping paragraph of ``bbplog.formula``.  The levels
run from 0 to a cutoff as one range of blocks, the last one cut at the
cutoff.  Each block's denominator takes q' here, M' = q' * M, and every
block is floored at the accumulator's width through
``formula._floor_at``, the floor ``eval_P`` uses too.  When a block's
e >= 0, every exponent in it is nonnegative and its fractional part is
the exact rational (N * 2**e mod M') / M', reduced by one builtin
three-argument ``pow`` on the multi-digit modulus M' before the floor;
when e < 0, N/M' * 2**e is floored directly.  The odd part q' joins the modulus, not the exponent,
because frac(x/q') is not a function of frac(x).
None of q', s_min, the pairs, L or the cutoff depends on n, so
:func:`build_plan` computes them once per formula.

Bound.  Every block enters a W-bit accumulator mod 1 through one floor
division, so the true value exceeds the accumulated one by less than one
ulp per block, and a block costs that ulp only when its division leaves
a remainder.  The discarded terms beyond the cutoff have mixed signs and
lie in (-1, 1) ulp.  Each term's denominator only grows with s, as
(k*l + j)**s >= k*l + j, so no term exceeds its degree-1 size, and the
cutoff, the width and this bound hold for every degree.  The true
accumulator is therefore in (acc - 1, acc + budget], and both ends of
that interval certify the returned digits.
W is the digit count plus 64 guard bits, widened by the bit length of
the expected term count when n is large, so the budget, at most one ulp
per block and so per term, always fits in the guard bits.
``certified`` is the longest prefix that no value in the interval
changes: it is computed, never assumed.

Partition.  The accumulator and the budget are integer sums over the
blocks, taken before the mask, so cutting the block range into contiguous
parts and adding the parts' sums gives them exactly.  A long range is
summed that way, one part per CPU the process may use, the parts after
the first in forked child processes; the digits, the budget and
``certified`` do not depend on the partition, and the bound above is
unchanged.
"""

from __future__ import annotations

import os
import threading

from ._record import Record
from .errors import UnsupportedFormulaError, ValidationError
from .formula import _FOLD_TERMS, MAX_DEGREE, BbpFormula, _block_fractions, _floor_at

__all__ = ["SpigotPlan", "DigitWindow", "build_plan", "extract_bits"]


class DigitWindow(Record):
    """A run of extracted bits; the first ``certified`` of them are proven."""

    __slots__ = ("bits", "certified")

    def __init__(self, bits: str, certified: int) -> None:
        if not bits:
            raise ValidationError("bits: must be nonempty")
        if not 0 <= certified <= len(bits):
            raise ValidationError("certified: out of range")
        self._fill(bits, certified)


class SpigotPlan(Record):
    """A formula prepared for extraction: everything that does not depend
    on the position (module docstring)."""

    __slots__ = (
        "formula",
        "beta",
        "nonzero",  # (j, a_j), 1-based j
        "q_odd",
        "terms",  # (j, c_j * 2**(s_j - s_min))
        "s_min",
        "levels",  # per block
        "cutoff",  # the last level k summed has W + n - beta*k >= cutoff
    )


def build_plan(f: BbpFormula) -> SpigotPlan:
    """Preprocess a formula for digit extraction."""
    if f.degree > MAX_DEGREE:
        raise UnsupportedFormulaError(
            f"degree {f.degree} not supported; extraction needs degree <= {MAX_DEGREE}"
        )
    if f.base & (f.base - 1):
        raise UnsupportedFormulaError(
            f"base {f.base} not supported; extraction needs a power of two"
        )
    p, q = f.prefactor.numerator, f.prefactor.denominator
    nonzero = tuple((j, a) for j, a in enumerate(f.coeffs, start=1) if a)
    # q = 2**w * q_odd and p*a_j = 2**x_j * c_j (module docstring); the
    # smallest s_j = x_j - w moves into the exponent e0 = n + s_min, which
    # leaves c_j * 2**(s_j - s_min) = p*a_j / 2**(min x_j)
    w = (q & -q).bit_length() - 1
    x_min = min((p * a & -(p * a)).bit_length() - 1 for _, a in nonzero)
    max_pa = max(abs(p * a) for _, a in nonzero)
    return SpigotPlan(
        formula=f,
        beta=f.base.bit_length() - 1,
        nonzero=nonzero,
        q_odd=q >> w,
        terms=tuple((j, p * a >> x_min) for j, a in nonzero),
        s_min=x_min - w,
        levels=-(-_FOLD_TERMS // (len(nonzero) * f.degree)),
        cutoff=-(2 * len(nonzero) * max_pa).bit_length(),
    )


def _certified_prefix(acc: int, width: int, count: int, budget: int) -> int:
    """Leading bits of the width-bit fraction acc that no true value in
    (acc - 1, acc + budget] can change: no borrow below, no carry above.

    A true value's floor lies in [acc - 1, acc + budget], and its leading
    c bits, which only grow with the floor, are the same all across that
    range exactly when its two ends agree on them: when their xor has bit
    length at most width - c (a carry out of the top makes it width + 1).
    With acc = 0 a true value just below it borrows from every bit.
    """
    if acc == 0:
        return 0
    return max(0, min(count, width - ((acc - 1) ^ (acc + budget)).bit_length()))


# A forked part has to pay for its process.  Fork, pipe and waitpid take
# about 1.5-1.9 ms together and one stepped term 0.38-0.70 us
# (medians of two sessions; same machine, bbplog.cli imported, positions
# 10**4 .. 2*10**5).  A part of 16384 terms at the deep end of a range
# ran 5.1-9.4 ms, its stepper's D+1 folds included: three to five times
# its overhead, where it was five to seven with every block folded.  Two
# parts against one at golden positions 28 000 .. 41 000 (33 600 .. 49 200
# terms) ran 3-6 ms slower in one session and 5-8 ms faster in another,
# so at the threshold the host's noise outweighs the part size, and the
# value stays.
_MIN_PART_TERMS = 16384


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sum_blocks(
    plan: SpigotPlan, e0: int, width: int, k0: int, k1: int, parent: int | None = None
) -> tuple[int, int]:
    """Levels k0 .. k1-1 in blocks of ``plan.levels``, the last one cut at
    k1: the unmasked sum of their floored width-bit fractional parts, and
    the number of blocks whose floor left a remainder.  A forked part
    passes its parent's pid and gives up, by ProcessLookupError, at the
    first block after that process is gone.

    A term at level k has exponent e0 - beta*k + (s_j - s_min), every
    s_j - s_min >= 0, so a block's smallest, e = e0 - beta*(its last
    level), is factored out: what is left of level k is base**(last - k)
    times its plan terms, the fold's Horner form.  The block's modulus is
    q' times the fold's denominator.
    """
    f = plan.formula
    fractions = _block_fractions(f.base, f.degree, f.length, plan.terms, plan.levels, k0, k1)
    acc = budget = 0
    for k, (num, den) in zip(range(k0, k1, plan.levels), fractions):
        if parent is not None and os.getppid() != parent:
            raise ProcessLookupError("the parent process is gone")
        den *= plan.q_odd
        e = e0 - plan.beta * (min(k + plan.levels, k1) - 1)
        if e >= 0:  # 2**e * num/den mod 1, exactly
            num, e = num * pow(2, e, den) % den, 0
        contrib, rem = _floor_at(num, den, e + width)
        acc += contrib
        if rem:
            budget += 1
    return acc, budget


def _partitioned_sum(plan: SpigotPlan, e0: int, width: int, k_end: int, parts: int) -> tuple[int, int]:
    """``_sum_blocks(plan, e0, width, 0, k_end)``, cut at block boundaries
    into ``parts`` contiguous level ranges, the last one ending in the block
    cut at k_end.

    The first range is summed here; every other one in a forked child that
    writes its (acc, budget) in hex to a pipe, so one part forks nothing.
    A range whose child could not start, failed or wrote a short result is
    summed here instead, so the result never depends on the children.  If
    this process leaves by an exception, the children not yet read are
    killed before they are reaped, so none is left to finish its range.
    """
    blocks = -(-k_end // plan.levels)
    bounds = [min(blocks * i // parts * plan.levels, k_end) for i in range(parts + 1)]
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    parent = os.getpid()
    children = {}  # range index -> (pid, read end of its pipe)
    try:
        for i, (k0, k1) in enumerate(ranges):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the range is summed here
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    os.write(w, b"%x %x\n" % _sum_blocks(plan, e0, width, k0, k1, parent))
                    code = 0
                finally:
                    # skips exit handlers and stdio flushes, which would
                    # write the parent's unflushed output a second time
                    os._exit(code)
            os.close(w)
            children[i] = (pid, r)
        acc, budget = _sum_blocks(plan, e0, width, bounds[0], bounds[1])
        for i, (k0, k1) in enumerate(ranges):
            part = _reap(*children.pop(i)) if i in children else None
            a, b = part or _sum_blocks(plan, e0, width, k0, k1)
            acc += a
            budget += b
    finally:
        for pid, r in children.values():
            # SIGKILL is 9 on POSIX; importing signal takes 0.7-1.1 ms
            os.kill(pid, 9)
            _reap(pid, r)
    return acc, budget


def _reap(pid: int, r: int) -> tuple[int, int] | None:
    """Read a child's (acc, budget) from its pipe and wait for the child;
    None if it exited nonzero or its line is short.  The line is one write
    of under PIPE_BUF bytes, so its newline shows that it is whole."""
    try:
        with open(r, "rb") as pipe:
            out = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status or not out.endswith(b"\n"):
        return None
    acc, budget = out.split()
    return int(acc, 16), int(budget, 16)


def extract_bits(plan: SpigotPlan, n: int, count: int) -> DigitWindow:
    """Binary digits of the constant at positions n+1 .. n+count, with
    ``certified`` as in the module docstring's Bound paragraph.  Neither
    n nor count has a cap here: the time grows with both (``bbplog.cli``
    gives timings)."""
    if count < 1:
        raise ValidationError("count: must be at least 1 bit")
    if n < 0:
        raise ValidationError("position: must be nonnegative")
    # the terms to level n // beta (more when s_min > 0) and some slack: past
    # 2**32 of them, W widens by their bit length, so the budget fits
    est_terms = ((n + max(0, plan.s_min)) // plan.beta + 3) * len(plan.terms) + 128
    width = count + 64 + max(0, est_terms.bit_length() - 32)
    # up to the last level k with W + n - beta*k >= cutoff
    k_end = (width + n - plan.cutoff) // plan.beta + 1

    parts = 1
    # forking a process that runs other threads can copy a held lock
    if hasattr(os, "fork") and threading.active_count() == 1:
        parts = max(1, min(_usable_cpus(), k_end * len(plan.terms) // _MIN_PART_TERMS))
    acc, budget = _partitioned_sum(plan, n + plan.s_min, width, k_end, parts)
    acc &= (1 << width) - 1
    budget += 1  # the discarded terms: in (-1, 1) ulp

    certified = _certified_prefix(acc, width, count, budget)
    bits = format(acc >> (width - count), f"0{count}b")
    return DigitWindow(bits=bits, certified=certified)

