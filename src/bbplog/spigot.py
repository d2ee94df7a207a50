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
run from 0 to k_end (Bound) as one range of blocks, the last one cut at
k_end.  Each block's denominator takes q' here, M' = q' * M, and every
block is floored at the accumulator's width through
``formula._floor_at``, the floor ``eval_P`` uses too.  When a block's
e >= 0, every exponent in it is nonnegative and its fractional part is
the exact rational (N * 2**e mod M') / M', reduced by one builtin
three-argument ``pow`` on the multi-digit modulus M' before the floor;
when e < 0, N/M' * 2**e is floored directly.  The odd part q' joins the modulus, not the exponent,
because frac(x/q') is not a function of frac(x).
None of q', s_min, the pairs or L depends on n, so
:func:`build_plan` computes them once per formula.

Bound.  Every block enters a W-bit accumulator mod 1 through one floor
division, which loses less than one ulp, exact or not; each block is
charged that ulp, so the summed blocks exceed the accumulator by less
than their count.  The levels are summed up to
k_end = ``formula._truncation(f, W + n)``, whose tail bound keeps the
levels past it under 2**-(W+n) in size, whatever their signs, so under
one ulp of the W-bit window of 2**n * C.  The true accumulator is
therefore in (acc - 1, acc + budget), with budget the block count plus
one ulp for those levels: a number fixed by the plan, n and W before any
block is summed.  Its floor is in the integer interval
[acc - 1, acc + budget - 1].  ``certified`` is what
``numerics._certified_digits``, the one certified-digits rule, gives at
r = 2 for those two ends at scale 2**-W, or 0 when their integer parts
differ: a borrow below acc = 0, or a carry out of the top.  It is computed, never
assumed.  W is the digit count plus 64 guard bits.  The budget stays
below 2**32, leaving 32 bits of slack, for every n below about 2**32 *
beta * L; past that a window may certify fewer bits, never a wrong one.

Partition.  The accumulator is an integer sum over the blocks, taken
before the mask, so cutting the block range into contiguous parts and
adding the parts' accumulators gives it exactly.  A long range is summed
that way, one part per CPU the process may use, the parts after the
first in forked child processes; the digits and ``certified`` do not
depend on the partition, and the bound above is unchanged.
"""

from __future__ import annotations

import os
import threading

from ._record import Record
from .errors import UnsupportedFormulaError, ValidationError
from .formula import _FOLD_TERMS, MAX_DEGREE, BbpFormula, _block_fractions, _check_terms, _floor_at, _truncation
from .numerics import _certified_digits

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
    return SpigotPlan(
        formula=f,
        beta=f.base.bit_length() - 1,
        nonzero=nonzero,
        q_odd=q >> w,
        terms=tuple((j, p * a >> x_min) for j, a in nonzero),
        s_min=x_min - w,
        levels=-(-_FOLD_TERMS // (len(nonzero) * f.degree)),
    )


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
) -> int:
    """Levels k0 .. k1-1 in blocks of ``plan.levels``, the last one cut at
    k1: the unmasked sum of their floored width-bit fractional parts.  A
    forked part passes its parent's pid and gives up, by
    ProcessLookupError, at the first block after that process is gone.

    A term at level k has exponent e0 - beta*k + (s_j - s_min), every
    s_j - s_min >= 0, so a block's smallest, e = e0 - beta*(its last
    level), is factored out: what is left of level k is base**(last - k)
    times its plan terms, the fold's Horner form.  The block's modulus is
    q' times the fold's denominator.
    """
    f = plan.formula
    fractions = _block_fractions(f.base, f.degree, f.length, plan.terms, plan.levels, k0, k1)
    acc = 0
    for k, (num, den) in zip(range(k0, k1, plan.levels), fractions):
        if parent is not None and os.getppid() != parent:
            raise ProcessLookupError("the parent process is gone")
        den *= plan.q_odd
        e = e0 - plan.beta * (min(k + plan.levels, k1) - 1)
        if e >= 0:  # 2**e * num/den mod 1, exactly
            num, e = num * pow(2, e, den) % den, 0
        acc += _floor_at(num, den, e + width)
    return acc


def _partitioned_sum(plan: SpigotPlan, e0: int, width: int, k_end: int, parts: int) -> int:
    """``_sum_blocks(plan, e0, width, 0, k_end)``, cut at block boundaries
    into ``parts`` contiguous level ranges, the last one ending in the block
    cut at k_end.

    The first range is summed here; every other one in a forked child that
    writes its accumulator in hex to a pipe, so one part forks nothing.
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
            try:
                r, w = os.pipe()
            except OSError:  # no descriptor to spare: the range is summed here
                continue
            try:
                pid = os.fork()
            except OSError:  # no process to spare: likewise
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    os.write(w, b"%x\n" % _sum_blocks(plan, e0, width, k0, k1, parent))
                    code = 0
                finally:
                    # skips exit handlers and stdio flushes, which would
                    # write the parent's unflushed output a second time
                    os._exit(code)
            os.close(w)
            children[i] = (pid, r)
        acc = _sum_blocks(plan, e0, width, bounds[0], bounds[1])
        for i, (k0, k1) in enumerate(ranges):
            part = _reap(*children.pop(i)) if i in children else None
            acc += _sum_blocks(plan, e0, width, k0, k1) if part is None else part
    finally:
        for pid, r in children.values():
            # SIGKILL is 9 on POSIX; importing signal takes 0.7-1.1 ms
            os.kill(pid, 9)
            _reap(pid, r)
    return acc


def _reap(pid: int, r: int) -> int | None:
    """Read a child's accumulator from its pipe and wait for the child;
    None if it exited nonzero or its line is short.  The line is one write
    of under PIPE_BUF bytes, so its newline shows that it is whole."""
    try:
        with open(r, "rb") as pipe:
            out = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status or not out.endswith(b"\n"):
        return None
    return int(out, 16)


def extract_bits(plan: SpigotPlan, n: int, count: int, max_terms: int | None = None) -> DigitWindow:
    """Binary digits of the constant at positions n+1 .. n+count, with
    ``certified`` as in the module docstring's Bound paragraph.  Neither
    n nor count has a cap of its own here, and the time grows with both
    (BENCH rows `extract_bits golden large` and `cap extract_bits golden`
    of tests/bench_layers.py); ``max_terms`` caps the head terms summed
    (``formula._check_terms``)."""
    if count < 1:
        raise ValidationError("count: must be at least 1 bit")
    if n < 0:
        raise ValidationError("position: must be nonnegative")
    width = count + 64
    k_end = _truncation(plan.formula, width + n)
    _check_terms(plan.formula, k_end, max_terms, f"position {n} with count {count}")
    # one ulp per block, the last one cut at k_end, and one for the discarded levels
    budget = -(-k_end // plan.levels) + 1

    parts = 1
    # forking a process that runs other threads can copy a held lock
    if hasattr(os, "fork") and threading.active_count() == 1:
        parts = max(1, min(_usable_cpus(), k_end * len(plan.terms) // _MIN_PART_TERMS))
    acc = _partitioned_sum(plan, n + plan.s_min, width, k_end, parts) & (1 << width) - 1
    certified, _ = _certified_digits(acc - 1, acc + budget - 1, width, 2, count)
    bits = format(acc >> (width - count), f"0{count}b")
    return DigitWindow(bits=bits, certified=max(0, certified))

