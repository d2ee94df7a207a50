"""The P(s, b, l, A) formula object, its evaluator, and its file format.

A formula stands for the constant

    prefactor * sum_{k>=0} b**-k * sum_{j=1..l} a_j / (k*l + j)**s

Bound of eval_P at F bits.  Level k folds its nonzero terms into one exact
fraction P_k/Q_k, Q_k = prod_j (k*l + j)**s, and floors it once at width
W_k = F + G - k*c, where c = floor(log2 b), K is the level count and
G = bitlen(2K) + 2 the guard.  Horner carries the deeper levels to width
W_k as floor(acc * 2**c / b).  Each floor costs under one ulp of its width
and 2**c/b <= 1 never grows an earlier error, so the sum at F + G is off
by under 2K < 2**(G-2) ulp, or K when b = 2**c (its Horner step is exact
and skipped).  FixedReal charges the prefactor and the rescale to F, and
the tail majorant of _truncation is added once.
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


def _truncation(f: BbpFormula, frac_bits: int) -> tuple[int, int]:
    """Terms K to sum and the tail majorant, in ulps, of what is left out.

    Tail for k >= K:  |prefactor| * max|a_j| * l / (K*l+1)**s * b**-K * b/(b-1),
    using (k*l+1) >= (K*l+1) and the geometric sum of b**-k.  K is the
    first level whose unscaled majorant drops below one ulp.
    """
    max_a = max(abs(a) for a in f.coeffs)
    top = max_a * f.length * f.base << frac_bits
    K, bpow = 0, 1
    while top >= (den := (K * f.length + 1) ** f.degree * bpow * (f.base - 1)):
        bpow *= f.base
        K += 1
    p, q = f.prefactor.numerator, f.prefactor.denominator
    return K, -(-top * abs(p) // (den * q))


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
    c = f.base.bit_length() - 1
    exact_step = f.base == 1 << c
    terms = [(j, a) for j, a in enumerate(f.coeffs, start=1) if a]
    acc = 0
    for k in reversed(range(K)):
        if not exact_step:
            acc = (acc << c) // f.base
        num, den = 0, 1
        for j, a in terms:
            d = (k * f.length + j) ** f.degree
            num, den = num * d + a * den, den * d
        # floor(num * 2**W_k / den); deep levels may have W_k < 0
        acc += (num << max(W0 - k * c, 0)) // (den << max(k * c - W0, 0))
    total = FixedReal(acc, W0, K if exact_step else 2 * K)
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
