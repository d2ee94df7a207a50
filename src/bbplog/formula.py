"""The P(s, b, l, A) formula object, its evaluator, and its file format.

A formula stands for the constant

    prefactor * sum_{k>=0} b**-k * sum_{j=1..l} a_j / (k*l + j)**s

Bound of eval_P at F bits.  Write b = 2**v * o with o odd, and let
c = floor(log2 b) >= v, G = bitlen(2K) + 2 the guard and W_k = F + G - k*c.
The K levels are summed in blocks of L = ceil(T / nonzero terms) levels
(T = ``_BLOCK_TERMS``), deepest block first.  The block of levels
k0 .. k1-1, n = k1-1-k0, is folded into one exact fraction
num/den = sum_k b**(k1-1-k) * S_k (``_fold_levels``, S_k the level's sum
over j) and floored once at width W_k0 as floor(num * 2**w / (den * o**n))
with w = W_k0 - v*n, which is floor(num * 2**W_k0 / (den * b**n)).
Horner carries the deeper blocks to width W_k0 as
floor(acc * 2**((c-v)*L) / o**L) = floor(acc * 2**(c*L) / b**L), a step
skipped when o = 1, where it is exact.  Each floor costs under one ulp of
its width, and 2**(cL)/b**L <= 1 never grows an earlier error, so each
block costs under 1 ulp at F + G when o = 1 and under 2 otherwise.  That
charge is at most 2K < 2**(G-2) ulp.  FixedReal charges the prefactor and
the rescale to F, and the tail majorant of _truncation is added once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, UnsupportedFormulaError, ValidationError
from .numerics import FixedReal

__all__ = ["BbpFormula", "EvalResult", "eval_P", "parse_formula", "emit_formula"]

# eval_P forms (K*l + 1)**degree; the package's formulas use degrees 1-3
MAX_DEGREE = 128


@dataclass(frozen=True, slots=True)
class BbpFormula:
    """Degree, base, length, coefficient vector, and rational prefactor."""

    degree: int
    base: int
    length: int
    coeffs: tuple[int, ...]
    prefactor: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        object.__setattr__(self, "prefactor", Fraction(self.prefactor))
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


@dataclass(frozen=True, slots=True)
class EvalResult:
    """Evaluated constant plus how the truncation was accounted."""

    value: FixedReal
    terms_used: int
    tail_bound_ulp: int


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
    den is strictly increasing and den(K) >= 2**(c*K) > top for
    K = bitlen(top)//c + 1, c = floor(log2 b), so K is found by bisection.
    """
    length, degree, b = f.length, f.degree, f.base
    top = max(abs(a) for a in f.coeffs) * length * b << frac_bits

    def den(K: int) -> int:
        return (K * length + 1) ** degree * b**K * (b - 1)

    lo, hi = 0, top.bit_length() // (b.bit_length() - 1) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if top < den(mid):
            hi = mid
        else:
            lo = mid + 1
    p, q = f.prefactor.numerator, f.prefactor.denominator
    return lo, -(-top * abs(p) // (den(lo) * q))


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
    blocks = range(0, K, L)
    carry = o**L
    acc = 0
    for k0 in reversed(blocks):
        k1 = min(k0 + L, K)
        if o > 1:
            acc = _floor_at(acc, carry, (c - v) * L)[0]
        num, den = _fold_levels(b, f.degree, f.length, terms, k0, k1)
        n = k1 - 1 - k0
        acc += _floor_at(num, den * o**n, W0 - k0 * c - v * n)[0]
    total = FixedReal(acc, W0, len(blocks) if o == 1 else 2 * len(blocks))
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
    """Parse the line-oriented formula format; round-trips with emit."""
    lines = text.splitlines()
    if not lines or not text.strip():
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
    return BbpFormula(degree=s, base=b, length=l, coeffs=coeffs,
                      prefactor=Fraction(num, den), label=label)


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
