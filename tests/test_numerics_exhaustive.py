"""Exhaustive small-width checks of FixedReal's arithmetic (its four
truncating operations, the compositions built on them and the exact
ones they compose), fx_sqrt, fx_log, agreement_bits, the block floor
``formula._floor_at``, the certified-digits rule
``numerics._certified_digits`` and ``FixedReal.decimal``.

At F = 2 every FixedReal(m, 2, e) with |m| <= 16 and 0 <= e <= 4 is an
input, and each result's interval must hold the exact ``Fraction``
image of every corner of its inputs' intervals.  Each operation is
monotone in each argument there, or bilinear, so the image of the input
box lies between its corner images and the corners suffice.

The fast path in ``bbplog.numerics`` reads one word of a big integer and
falls back to the whole integer when the word leaves the answer open.
Only fx_sqrt (its exactness test) reads the word, so the ``word``
fixture runs its check with that word lowered to one bit, where the
fallback runs, and again at the default word, where the word alone
decides, so both sides of the word test run; the other operations run
at the default word only.  The slow variant does the same at F = 3 with
|m| <= 24 and e <= 5.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest

from bbplog import numerics
from bbplog.formula import _floor_at
from bbplog.numerics import FixedReal, _certified_digits, agreement_bits, fx_log, fx_sqrt

from _oracles import common_digits, decimal_of_ends, radix_digits

DIVISORS = (1, -1, 2, 3, -3, 7)
FACTORS = sorted(
    {Fraction(p, q) for p in (-7, -2, -1, 0, 1, 3, 5) for q in (1, 2, 3, 7)}
)


@pytest.fixture
def word(request, monkeypatch):
    monkeypatch.setattr(numerics, "_WORD", request.param)
    monkeypatch.setattr(numerics, "_WORD_MASK", (1 << request.param) - 1)
    return request.param


def _inputs(F: int, M: int, E: int) -> list[FixedReal]:
    return [FixedReal(m, F, e) for m in range(-M, M + 1) for e in range(E + 1)]


def _ends(x: FixedReal) -> tuple[Fraction, Fraction]:
    u = Fraction(1, 1 << x.frac_bits)
    return (x.mantissa - x.err_ulp) * u, (x.mantissa + x.err_ulp) * u


def _misses(r: FixedReal, points) -> bool:
    lo, hi = _ends(r)
    return not all(lo <= p <= hi for p in points)


def _add(xs):
    boxes = [(x, _ends(x)) for x in xs]
    for (x, ex), (y, ey) in product(boxes, boxes):
        yield (x, y), x + y, [a + b for a in ex for b in ey]


def _sub(xs):
    boxes = [(x, _ends(x)) for x in xs]
    for (x, ex), (y, ey) in product(boxes, boxes):
        yield (x, y), x - y, [a - b for a in ex for b in ey]


def _neg(xs):
    for x in xs:
        yield x, -x, [-a for a in _ends(x)]


def _mul(xs):
    boxes = [(x, _ends(x)) for x in xs]
    for (x, ex), (y, ey) in product(boxes, boxes):
        yield (x, y), x * y, [a * b for a in ex for b in ey]


def _truediv(xs):
    boxes = [(x, _ends(x)) for x in xs]
    divisors = [(y, ey) for y, ey in boxes if abs(y.mantissa) > y.err_ulp]
    for (x, ex), (y, ey) in product(boxes, divisors):
        yield (x, y), x / y, [a / b for a in ex for b in ey]


def _div_int(xs):
    for x, d in product(xs, DIVISORS):
        yield (x, d), x.div_int(d), [a / d for a in _ends(x)]


def _mul_fraction(xs):
    for x, f in product(xs, FACTORS):
        yield (x, f), x.mul_fraction(f), [a * f for a in _ends(x)]


def _rescale(xs):
    for x in xs:
        for G in range(1, x.frac_bits):
            yield (x, G), x.rescale(G), _ends(x)


def _from_fraction(xs):
    # every p/q with q <= 12 and |p/q| up to three times the inputs' range
    F = xs[0].frac_bits
    top = 3 * max(x.mantissa for x in xs)
    for p, q in product(range(-top, top + 1), range(1, 13)):
        v = Fraction(p, q)
        yield v, FixedReal.from_fraction(v, F), [v]


def _sqrt(xs):
    # fx_sqrt takes m >= 0; an interval end below 0 is clipped to the
    # domain's end, 0
    for x in xs:
        if x.mantissa >= 0:
            yield x, fx_sqrt(x), [max(a, 0) for a in _ends(x)]


def _sqrt_misses(r: FixedReal, points) -> bool:
    # lo <= sqrt(c) <= hi, decided on squares
    lo, hi = _ends(r)
    return not all((lo <= 0 or lo * lo <= c) and hi * hi >= c for c in points)


CHECKS = {
    "add": _add,
    "sub": _sub,
    "neg": _neg,
    "mul": _mul,
    "truediv": _truediv,
    "div_int": _div_int,
    "mul_fraction": _mul_fraction,
    "rescale": _rescale,
    "from_fraction": _from_fraction,
    "fx_sqrt": _sqrt,
}


def _violations(name: str, xs: list[FixedReal]) -> tuple[int, list]:
    misses = _sqrt_misses if name == "fx_sqrt" else _misses
    count, bad = 0, []
    for args, r, points in CHECKS[name](xs):
        count += 1
        if misses(r, points):
            bad.append((args, r))
    return count, bad


# the checks whose operation reads the word: fx_sqrt (its exactness test)
WORD_READERS = ("fx_sqrt",)


@pytest.mark.parametrize(
    "word, F, M, E, name",
    [
        pytest.param(word, F, M, E, name, id=f"word{word}-F{F}-{name}", marks=marks)
        for F, M, E, marks in ((2, 16, 4, ()), (3, 24, 5, pytest.mark.slow))
        for word in (1, numerics._WORD)
        for name in CHECKS
        if word == numerics._WORD or name in WORD_READERS
    ],
    indirect=["word"],
)
def test_every_input_at_small_width(F, M, E, name, word):
    count, bad = _violations(name, _inputs(F, M, E))
    assert count > 0
    assert not bad, f"{len(bad)} of {count} results miss a corner, first {bad[:3]}"


def _raw_fraction(raw) -> Fraction:
    """An mpmath raw mpf (sign, man, exp, bc) of a finite value, exactly."""
    sign, man, exp, _ = raw
    v = man * Fraction(2) ** exp
    return -v if sign else v


@pytest.mark.parametrize("F", [1, 2, 3, *(pytest.param(F, marks=pytest.mark.slow) for F in (4, 5, 6))])
def test_fx_log_of_every_small_input(F, monkeypatch):
    # every 0 < m - e with m <= 2**(F+2) and e <= 4: ln is increasing, so
    # the result's interval must hold mpmath's certified enclosures of ln
    # at both ends of the input's
    iv = pytest.importorskip("mpmath").iv
    monkeypatch.setattr(iv, "prec", 100)
    bad = []
    for x in (FixedReal(m, F, e) for m in range(1, (1 << (F + 2)) + 1) for e in range(min(4, m - 1) + 1)):
        lo, hi = _ends(fx_log(x))
        for end in (x.mantissa - x.err_ulp, x.mantissa + x.err_ulp):
            a, b = map(_raw_fraction, iv.log(iv.mpf(end) / (1 << F))._mpi_)
            if not lo <= a <= b <= hi:
                bad.append((x, end))
    assert not bad, f"{len(bad)} inputs, first {bad[:3]}"


def test_agreement_bits_of_every_pair_at_small_width():
    # no point of one interval is 2**-bits or more from any point of the other
    xs = [(x, _ends(x)) for x in _inputs(2, 16, 4)]
    bad = []
    for (a, (lo_a, hi_a)), (b, (lo_b, hi_b)) in product(xs, xs):
        bits = agreement_bits(a, b)
        if max(hi_a - lo_b, hi_b - lo_a) >= Fraction(2) ** -bits:
            bad.append((a, b, bits))
    assert not bad, f"{len(bad)} pairs, first {bad[:3]}"


def test_floor_at_every_small_input():
    bad = [
        (num, den, w)
        for num, den, w in product(range(-64, 65), range(1, 13), range(-6, 7))
        if _floor_at(num, den, w) != math.floor(Fraction(num, den) * Fraction(2) ** w)
    ]
    assert not bad, f"{len(bad)} inputs, first {bad[:3]}"


@pytest.mark.parametrize("F", [*range(1, 7), *(pytest.param(F, marks=pytest.mark.slow) for F in (7, 8))])
@pytest.mark.parametrize("r", [2, 3, 10, 16, 18])
def test_certified_digits_of_every_small_interval(F, r):
    # every lo <= hi in -1 .. 2**F, so ends of integer part -1 (the
    # spigot's borrow), 0 and 1, and every count 0 .. F+2, against the
    # rule read digit by digit: the ends' longest common prefix of integer
    # part and fraction digits, -1 when the integer parts differ, and the
    # prefix's value
    ends = range(-1, (1 << F) + 1)
    digits = {v: radix_digits(Fraction(v, 1 << F), r, F + 2) for v in ends}
    bad = [
        (lo, hi, count)
        for lo in ends
        for hi in range(lo, (1 << F) + 1)
        for count in range(F + 3)
        if _certified_digits(lo, hi, F, r, count) != common_digits(digits[lo], digits[hi], r, count)
    ]
    assert not bad, f"{len(bad)} intervals, first {bad[:3]}"


@pytest.mark.parametrize("F", [1, 2, 3, 4, *(pytest.param(F, marks=pytest.mark.slow) for F in (5, 6, 7, 8))])
def test_decimal_of_every_small_input(F):
    # every |m| <= 2**(F+2), err <= 4 and digit count, the default and
    # 0 .. F+2: past F+1 places the print pads (exact) or caps (inexact)
    bad = [
        (x, digits, x.decimal(digits))
        for x in _inputs(F, 1 << (F + 2), 4)
        for digits in (None, *range(F + 3))
        if x.decimal(digits) != decimal_of_ends(x, digits)
    ]
    assert not bad, f"{len(bad)} prints differ, first {bad[:3]}"
