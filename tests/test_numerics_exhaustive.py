"""Exhaustive small-width checks of FixedReal's truncating operations
and fx_sqrt.

At F = 2 every FixedReal(m, 2, e) with |m| <= 16 and 0 <= e <= 4 is an
input, and each result's interval must hold the exact ``Fraction``
image of every corner of its inputs' intervals.  Each operation is
monotone in each argument there, or bilinear, so the image of the input
box lies between its corner images and the corners suffice.

The fast paths in ``bbplog.numerics`` read one word of a big integer and
fall back to the whole integer when the word leaves the answer open.
The ``word`` fixture runs every check with that word lowered to one bit,
where the fallbacks run, and again at the default word, where the word
alone decides, so both sides of every word test run.  The slow variant
does the same at F = 3 with |m| <= 24 and e <= 5.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from bbplog import numerics
from bbplog.numerics import FixedReal, fx_sqrt

DIVISORS = (1, -1, 2, 3, -3, 7)
FACTORS = sorted(
    {Fraction(p, q) for p in (-7, -2, -1, 0, 1, 3, 5) for q in (1, 2, 3, 7)}
)


@pytest.fixture(params=[1, numerics._WORD], ids=lambda w: f"word{w}")
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


@pytest.mark.parametrize("name", CHECKS)
@pytest.mark.parametrize(
    "F, M, E",
    [(2, 16, 4), pytest.param(3, 24, 5, marks=pytest.mark.slow)],
    ids=["F2", "F3"],
)
def test_every_input_at_small_width(F, M, E, name, word):
    count, bad = _violations(name, _inputs(F, M, E))
    assert count > 0
    assert not bad, f"{len(bad)} of {count} results miss a corner, first {bad[:3]}"
