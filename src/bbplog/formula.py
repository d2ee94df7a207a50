"""The P(s, b, l, A) formula object, its evaluator, and its file format.

A formula stands for the constant

    prefactor * sum_{k>=0} b**-k * sum_{j=1..l} a_j / (k*l + j)**s

Bound of eval_P at F bits.  Write b = 2**v * o with o odd, and let
c = floor(log2 b) >= v, G = bitlen(2K) + 2 the guard and W_k = F + G - k*c.
The K levels are summed in blocks of L = ceil(T / nonzero terms) levels
(T = ``_BLOCK_TERMS``), deepest block first.  The block of levels
k0 .. k1-1, n = k1-1-k0, is one exact fraction
num/den = sum_k b**(k1-1-k) * S_k, S_k the level's sum over j: the pair
``_fold_levels`` gives.  It is built from groups of g levels, whose
fractions come from Stepping, joined by Horner as
(N, M) <- (N * b**len * M_i + N_i * M, M * M_i): g is the largest divisor
of L with g * nonzero <= ``_FOLD_TERMS``, or 1 if there is none.  The
block is floored once at width W_k0 as floor(num * 2**w / (den * o**n))
with w = W_k0 - v*n, which is floor(num * 2**W_k0 / (den * b**n)).
Horner carries the deeper blocks to width W_k0 as
floor(acc * 2**((c-v)*L) / o**L) = floor(acc * 2**(c*L) / b**L), a step
skipped when o = 1, where it is exact.  Each floor costs under one ulp of
its width, and 2**(cL)/b**L <= 1 never grows an earlier error, so each
block costs under 1 ulp at F + G when o = 1 and under 2 otherwise.  That
charge is at most 2K < 2**(G-2) ulp.  FixedReal charges the prefactor and
the rescale to F, and the tail majorant of _truncation is added once.

Stepping.  ``_block_fractions`` gives the exact fractions of a range of
blocks of g levels, for eval_P's groups and the spigot's blocks alike.
From level k0, block x holds levels k0 + x*g + i, i < g, and
``_fold_levels`` gives its fraction as N(x)/M(x), with
M(x) = prod ((k0 + x*g + i)*l + j)**s over its levels and nonzero terms
and N(x) the matching Horner numerator.  Both are integer polynomials in
x of degree at most D = g * (nonzero terms) * s.  Each factor of M is a
polynomial in x with nonnegative coefficients, so M has degree D and
nonnegative coefficients, and each Newton register Delta**i M(0),
i <= D, is positive.  The first D+1 blocks are folded, and their forward
differences are the registers of M and of N' = N + C*M at x = 0, where
C >= 0 is the smallest integer that makes every register of N'
nonnegative.  One step adds register i+1 to register i for every i < D
at once and moves all of them from x to x+1; registers are only ever
added to, so they stay nonnegative and nondecreasing.  With every
register at x nonnegative, P(x+i) = sum_m binomial(i, m) * Delta**m P(x)
>= Delta**i P(x), so no register of P = N' or M exceeds P(X + D) while
x <= X, the range's last whole block.  A register pair therefore fits one
S-bit slot, N' in the low G = bitlen N'(X + D) bits and M in the
H = bitlen M(X + D) bits above them, S = G + H; with the D+1 slots packed
into one int, a step is ``regs += regs >> S`` and no field carries into
the next.  A block reads N' and M from the low slot and yields
N = N' - C*M, the fold's exact numerator.  A range of fewer than
``_STEP_MIN`` * (D+1) whole blocks, such as the spigot's range near
position 0 or eval_P's groups at a few thousand bits, and a partial last
block are only folded.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import partial

from ._record import Record
from .errors import ParseError, UnsupportedFormulaError, ValidationError
from .numerics import FixedReal

__all__ = ["BbpFormula", "EvalResult", "eval_P", "parse_formula", "emit_formula"]

# eval_P forms (K*l + 1)**degree; the package's formulas use degrees 1-3
MAX_DEGREE = 128


class BbpFormula(Record):
    """Degree, base, length, coefficient vector, and rational prefactor."""

    __slots__ = ("degree", "base", "length", "coeffs", "prefactor", "label")

    def __init__(
        self,
        degree: int,
        base: int,
        length: int,
        coeffs: tuple[int, ...],
        prefactor: Fraction,
        label: str = "",
    ) -> None:
        self._fill(degree, base, length, tuple(coeffs), Fraction(prefactor), label)
        self.validate()

    def validate(self) -> None:
        if self.degree < 1:
            raise ValidationError("degree: must be a positive integer")
        if self.base < 2:
            raise ValidationError("base: must be >= 2")
        if self.length < 1:
            raise ValidationError("length: must be a positive integer")
        if len(self.coeffs) != self.length:
            raise ValidationError(
                f"coeffs: expected {self.length} entries, got {len(self.coeffs)}"
            )
        if not any(self.coeffs):
            raise ValidationError("coeffs: at least one entry must be nonzero")
        if self.prefactor == 0:
            raise ValidationError("prefactor: must be nonzero")
        if self.label.splitlines() not in ([], [self.label]):
            raise ValidationError("label: must be a single line")


class EvalResult(Record):
    """Evaluated constant plus how the truncation was accounted."""

    __slots__ = ("value", "terms_used", "tail_bound_ulp")


# T, the terms folded into one block fraction.  A block pays one long
# division at its width, so eval wants more terms per block than the
# spigot, whose blocks pay a modular power.  eval_P took, in ms at
# T = 8, 16, 32, 64, 128 and 256 (best of 5, best of 2 at 10**5 bits;
# 2 vCPU Xeon, Python 3.11.7):
#   log2    20 000 bits   40.2  28.3  22.2  19.9  20.5  24.9
#   golden  20 000 bits   18.4  19.0  17.0  15.2  17.0  27.8
#   t = 3   20 000 bits    8.6   8.7   7.1   6.4   6.6   8.3
#   log2   100 000 bits     -   363   316   238   231   267
#   golden 100 000 bits     -   376   338   296   266   291
# At 4 000 and 8 000 bits T = 64 was within 10% of the best for these
# three and for t = 2 and -7.
_BLOCK_TERMS = 64


def _fold_levels(
    base: int, degree: int, length: int, terms: tuple[tuple[int, int], ...], k0: int, k1: int
) -> tuple[int, int]:
    """Levels k0 .. k1-1 as one exact fraction (num, den):
    sum_k base**(k1-1-k) * sum_(j, a) a / (k*length + j)**degree, in
    Horner form, over the nonzero (j, a) pairs given."""
    num, den = 0, 1
    for k in range(k0, k1):
        num *= base
        kl = k * length
        for j, a in terms:
            d = kl + j
            if degree != 1:  # every shipped formula has degree 1: skip the pow
                d **= degree
            num, den = num * d + a * den, den * d
    return num, den


# T, the terms in one stepped block: a spigot block, and a group of
# eval_P's levels (a division block joins several, _BLOCK_TERMS).  For
# the spigot: enough for the interpreter's cost per modular power to stop
# dominating, few enough that the fraction's size does not.  Summing
# log2's head serially at position 2*10**5 took 451, 299, 202, 175, 188
# and 202 ms at T = 1, 4, 8, 16, 32 and 64, and golden's 169 ms in blocks
# of one level (24 terms) against 186 ms in blocks of two (best of 7;
# 2 vCPU Xeon, Python 3.11.7).  With stepped fractions only the modular
# power is left, and T = 16 stays.  Serial, medians of 9-11 interleaved
# runs in each of two sessions, T = 16 / 24 / 32 took for log2 5.6-9.2 /
# 5.2-8.5 / 5.2-8.5 ms at position 2*10**4, 84-132 / 84-127 / 87-129 ms
# at 2*10**5 and 668-849 / 635-833 / 677-878 ms at 10**6: T = 24 led by
# 1-8%, within the host's drift.  Golden is one level per block at T = 16
# and 24 and took 7-12 / 108-143 / 742-921 ms at those positions, against
# 8-15 / 126-172 / 925-1215 ms in blocks of two levels at T = 32.
_FOLD_TERMS = 16

# A range is stepped only from _STEP_MIN * (D+1) whole blocks: setting up
# the registers takes D+1 folds, one more at the far end, O(D**2)
# subtractions and D steps, which fewer blocks do not repay.  Stepping
# every range of more than D+1 blocks against folding every block, at
# 1.5 / 2 / 2.5 / 3 times D+1 blocks, took (medians of 7 best-of-5 runs;
# 2 vCPU Xeon, Python 3.11.7):
#   eval_P golden, D = 24       1.34  1.05  1.14  0.96  times as long
#   eval_P log2, D = 16         1.21  1.00  0.82  0.82
#   eval_P t = 2 and 9, D = 24  1.19-1.25  1.05-1.08  0.72-0.95  0.92-0.99
#   extract_bits golden / t = 2 1.27  1.09-1.10  0.99-1.00  0.93
#   extract_bits log2           1.16  0.98  0.89  0.81
_STEP_MIN = 3


def _differences(values: list[int]) -> list[int]:
    """Newton registers at the first sample: Delta**i values[0] for
    i = 0 .. len(values)-1."""
    regs = []
    while values:
        regs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return regs


def _stepper(
    fold: Callable[[int, int], tuple[int, int]], levels: int, table: list[tuple[int, int]], last: int
) -> tuple[int, int, int, int]:
    """The packed registers of N' = N + C*M and M, and S, G and C, from
    ``table``, the D+1 fractions of a range's first blocks; ``last`` is
    the first level of the range's last whole block (Stepping)."""
    dn = _differences([n for n, _ in table])
    dm = _differences([m for _, m in table])
    c = max(0, *(-(n // m) for n, m in zip(dn, dm)))
    far = last + (len(table) - 1) * levels  # block last + D
    n, m = fold(far, far + levels)
    low = (n + c * m).bit_length()
    slot = low + m.bit_length()
    regs = 0
    for n, m in zip(reversed(dn), reversed(dm)):
        regs = regs << slot | m << low | n + c * m
    return regs, slot, low, c


def _block_fractions(
    base: int, degree: int, length: int, terms: tuple[tuple[int, int], ...], levels: int, k0: int, k1: int
) -> Iterator[tuple[int, int]]:
    """``_fold_levels(base, degree, length, terms, k, min(k + levels, k1))``
    for each block k = k0, k0 + levels, ... below k1.  With D =
    levels * len(terms) * degree, a range of at least ``_STEP_MIN`` * (D+1)
    whole blocks folds its first D+1 and steps every later whole block by
    packed finite differences (Stepping); any other block is folded."""
    fold = partial(_fold_levels, base, degree, length, terms)
    D = levels * len(terms) * degree
    whole = (k1 - k0) // levels
    end = k0 + whole * levels
    first = D + 1 if whole >= _STEP_MIN * (D + 1) else whole
    table = [fold(k, k + levels) for k in range(k0, k0 + first * levels, levels)]
    yield from table
    if whole > first:
        regs, slot, low, c = _stepper(fold, levels, table, end - levels)
        for _ in range(D):  # on to the block of table[-1]
            regs += regs >> slot
        slot_mask, low_mask = (1 << slot) - 1, (1 << low) - 1
        for _ in range(whole - D - 1):
            regs += regs >> slot
            n = regs & slot_mask
            m = n >> low
            yield (n & low_mask) - c * m, m
    if end < k1:
        yield fold(end, k1)


def _floor_at(num: int, den: int, w: int) -> tuple[int, int]:
    """divmod(num * 2**w, den) for den > 0 and w of either sign: the floor
    of num * 2**w / den, and a remainder that is 0 exactly when that floor
    is exact (in units of 2**w when w < 0)."""
    if w >= 0:
        return divmod(num << w, den)
    return divmod(num, den << -w)


def _truncation(f: BbpFormula, frac_bits: int) -> tuple[int, int]:
    """Terms K to sum and the tail majorant, in ulps, of what is left out.

    Tail for k >= K:  |prefactor| * max|a_j| * l / (K*l+1)**s * b**-K * b/(b-1),
    using (k*l+1) >= (K*l+1) and the geometric sum of b**-k.  K is the
    first level whose unscaled majorant drops below one ulp:
    top = max|a_j| * l * b * 2**frac_bits < den(K) = (K*l+1)**s * b**K * (b-1).
    den is strictly increasing; let r solve log2 den(r) = log2 top.
    Dropping the factor (K*l+1)**s gives y = log2(top/(b-1)) / log2 b >= r,
    and putting y into that factor gives x = y - s*log2(y*l+1) / log2 b
    <= r, close below r when K is large against s.  From K = ceil(x), in
    floats, b**K is computed once; exact comparisons then step K down
    while den(K-1) > top and up while den(K) <= top, dividing or
    multiplying that power by b, so K is exact whatever the rounding.
    """
    length, degree, b = f.length, f.degree, f.base
    top = max(abs(a) for a in f.coeffs) * length * b << frac_bits

    def den(K: int, bK: int) -> int:
        return (K * length + 1) ** degree * bK * (b - 1)

    lb = math.log2(b)
    y = (math.log2(top) - math.log2(b - 1)) / lb
    K = max(0, math.ceil(y - degree * math.log2(max(0.0, y) * length + 1) / lb))
    bK = b**K
    while K and top < den(K - 1, bK // b):
        K, bK = K - 1, bK // b
    while top >= den(K, bK):
        K, bK = K + 1, bK * b
    p, q = f.prefactor.numerator, f.prefactor.denominator
    return K, -(-top * abs(p) // (den(K, bK) * q))


def eval_P(f: BbpFormula, frac_bits: int) -> EvalResult:
    """Evaluate prefactor * P(s, b, l, A) to frac_bits; the bound is in the module doc."""
    if frac_bits < 64:
        raise ValidationError("frac_bits: must be >= 64")
    if f.degree > MAX_DEGREE:
        raise UnsupportedFormulaError(
            f"degree {f.degree} not supported; eval needs degree <= {MAX_DEGREE}"
        )
    K, tail_ulp = _truncation(f, frac_bits)
    W0 = frac_bits + (2 * K).bit_length() + 2  # F + G
    b = f.base
    c = b.bit_length() - 1
    v = (b & -b).bit_length() - 1
    o = b >> v
    terms = tuple((j, a) for j, a in enumerate(f.coeffs, start=1) if a)
    L = -(-_BLOCK_TERMS // len(terms))
    # groups of g levels, g the largest divisor of L within _FOLD_TERMS;
    # _block_fractions steps them or folds each one
    g = next(d for d in range(max(1, min(L, _FOLD_TERMS // len(terms))), 0, -1) if L % d == 0)
    groups = _block_fractions(b, f.degree, f.length, terms, g, 0, K)
    bg = b**g
    starts = range(0, K, L)

    def blocks() -> Iterator[tuple[int, int, int, int]]:
        for k0 in starts:
            k1 = min(k0 + L, K)
            num, den = next(groups)
            for k in range(k0 + g, k1, g):
                n_i, m_i = next(groups)
                shift = bg if k + g <= k1 else b ** (k1 - k)
                num, den = num * shift * m_i + n_i * den, den * m_i
            yield k0, k1, num, den

    # with o = 1 every block is floored on its own, in any order; the
    # carry for o > 1 needs the deepest first
    order = blocks() if o == 1 else reversed(list(blocks()))
    carry = o**L
    acc = 0
    for k0, k1, num, den in order:
        if o > 1:
            acc = _floor_at(acc, carry, (c - v) * L)[0]
        n = k1 - 1 - k0
        acc += _floor_at(num, den * o**n, W0 - k0 * c - v * n)[0]
    total = FixedReal(acc, W0, len(starts) if o == 1 else 2 * len(starts))
    total = total.mul_fraction(f.prefactor).rescale(frac_bits)
    value = FixedReal(total.mantissa, frac_bits, total.err_ulp + tail_ulp)
    return EvalResult(value=value, terms_used=K, tail_bound_ulp=tail_ulp)


# -- file format ----------------------------------------------------------
#
#   bbp 1
#   s <int>
#   b <int>
#   l <int>
#   pre <num>/<den>
#   A <a_1> ... <a_l>
#   label <free text>        (optional)


def parse_formula(text: str) -> BbpFormula:
    """Parse the line-oriented formula format; round-trips with emit.
    Every error, a ``ParseError`` or a field's ``ValidationError``, names
    its line."""
    lines = text.splitlines()
    if not text.strip():
        raise ParseError("empty input", 1)

    def expect(idx: int, key: str) -> str:
        if idx >= len(lines):
            raise ParseError(f"missing '{key}' line", idx + 1)
        line = lines[idx]
        if not line.startswith(key + " "):
            raise ParseError(f"expected '{key} ...', got {line!r}", idx + 1)
        return line[len(key) + 1 :]

    def parse_int(token: str, idx: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"bad integer for {what}: {token!r}", idx + 1) from None

    if lines[0] != "bbp 1":
        raise ParseError(f"unknown version tag {lines[0]!r}, expected 'bbp 1'", 1)
    s = parse_int(expect(1, "s"), 1, "s")
    b = parse_int(expect(2, "b"), 2, "b")
    l = parse_int(expect(3, "l"), 3, "l")
    pre_text = expect(4, "pre")
    if "/" not in pre_text:
        raise ParseError(f"prefactor must be <num>/<den>, got {pre_text!r}", 5)
    num_text, den_text = pre_text.split("/", 1)
    num = parse_int(num_text, 4, "prefactor numerator")
    den = parse_int(den_text, 4, "prefactor denominator")
    if den <= 0:
        raise ParseError("prefactor denominator must be positive", 5)
    coeffs = tuple(
        parse_int(tok, 5, "coefficient") for tok in expect(5, "A").split()
    )
    label = expect(6, "label") if len(lines) > 6 else ""
    for idx in range(7, len(lines)):
        if lines[idx].strip():
            raise ParseError(f"unexpected trailing line {lines[idx]!r}", idx + 1)
    try:
        return BbpFormula(s, b, l, coeffs, Fraction(num, den), label)
    except ValidationError as exc:  # its message starts with the field's name
        field = str(exc).split(":", 1)[0]
        line = ("degree", "base", "length", "prefactor", "coeffs", "label").index(field) + 2
        raise ValidationError(f"line {line}: {exc}") from None


def emit_formula(f: BbpFormula) -> str:
    """Canonical serialization: single spaces, no trailing whitespace."""
    pre = f.prefactor
    try:
        lines = [
            "bbp 1",
            f"s {f.degree}",
            f"b {f.base}",
            f"l {f.length}",
            f"pre {pre.numerator}/{pre.denominator}",
            "A " + " ".join(str(a) for a in f.coeffs),
        ]
    except ValueError as exc:  # int/str digit limit: parse could not read it back
        raise UnsupportedFormulaError("integer too long for the file format") from exc
    if f.label:
        lines.append(f"label {f.label}")
    return "\n".join(lines) + "\n"
