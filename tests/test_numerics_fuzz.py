"""Property-based checks of FixedReal against earlier forms of its code.

``decimal`` converts only the certified prefix of the low end to a
decimal string, the prefix that ``numerics._certified_digits`` finds by
integer division.  The oracle below is an earlier form, which converts
both ends and compares the strings; the rule itself is checked against
its digit-by-digit reading from Fractions at widths past the exhaustive
ones, with long runs of zero digits to strip.

The truncating operations learn whether they dropped anything from
their own remainder or shift, and division bounds its error ceiling
from leading bits first.  Their first forms, in ``_oracles``, multiply
back and form every product in full; both must give the same mantissa,
precision and err_ulp.  Every run is derandomized, so a failure
reproduces on every machine.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import _oracles as first  # noqa: E402
from bbplog.errors import PrecisionError  # noqa: E402
from bbplog.numerics import FixedReal, _certified_digits  # noqa: E402


def _decimal_two_conversions(x: FixedReal, digits: int | None = None) -> str:
    """FixedReal.decimal as it was with one Decimal conversion per end."""
    F = x.frac_bits
    if digits is None:
        digits = F * 30103 // 100000
    pad = 0
    if x.err_ulp:
        digits = min(digits, F + 1)
    elif digits > F:
        digits, pad = F, digits - F
    lo = x.mantissa - x.err_ulp
    hi = x.mantissa + x.err_ulp
    if lo < 0 <= hi:
        return "0~" if max(-lo, hi) < 1 << F else "~"
    sign = ""
    if hi < 0:
        sign = "-"
        lo, hi = -hi, -lo
    scale = 10**digits
    lo10 = (lo * scale) >> F
    hi10 = (hi * scale) >> F
    s_lo, s_hi = str(Decimal(lo10)), str(Decimal(hi10))
    width = max(len(s_lo), len(s_hi), digits + 1)
    s_lo = s_lo.zfill(width)
    s_hi = s_hi.zfill(width)
    common = 0
    while common < width and s_lo[common] == s_hi[common]:
        common += 1
    if common < width - digits:
        return "~"
    int_part = s_lo[: width - digits]
    frac_part = s_lo[width - digits : common]
    out = f"{sign}{int_part.lstrip('0') or '0'}"
    if frac_part:
        out += "." + frac_part + "0" * pad
    if common < width:
        out += "~"
    return out


@st.composite
def _fixed_reals(draw) -> FixedReal:
    """Values at or near a decimal boundary c * 10**-j, so that a carry
    runs through nines (and, at an integer power of ten, adds a digit),
    with either sign, and errors from none to wider than the value."""
    F = draw(st.integers(1, 200))
    j = draw(st.integers(0, F * 3 // 10 + 1))
    c = draw(st.sampled_from((0, 1, 5, 9, 10, 99, 100, 10**6))) * 10**j + draw(st.integers(-3, 3))
    offset = draw(st.integers(-(1 << 8), 1 << 8))
    m = draw(st.sampled_from((1, -1))) * (((c << F) // 10**j) + offset)
    err = draw(
        st.one_of(
            st.just(0),
            st.integers(1, 1 << 8),
            st.integers(1, 1 << F),
            st.integers(1, 1 << (F + 12)),
        )
    )
    return FixedReal(m, F, err)


_digits = st.one_of(st.none(), st.integers(0, 80), st.integers(100, 700))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(x=_fixed_reals(), digits=_digits)
# a carry that adds a digit: [9.99.., 10.00..]
@example(x=FixedReal(10 << 64, 64, 1 << 10), digits=6)
@example(x=FixedReal(-(10 << 64), 64, 1 << 10), digits=6)
# across zero, inside and outside (-1, 1)
@example(x=FixedReal(3, 64, 7), digits=None)
@example(x=FixedReal(1 << 63, 64, 3 << 63), digits=5)
# digits past F, exact and not
@example(x=FixedReal(12345, 16, 0), digits=40)
@example(x=FixedReal(-12345, 16, 1), digits=40)
# a long run of nines: 1/10 - 2**-200 against 1/10 + 2**-200
@example(x=FixedReal((1 << 200) // 10, 200, 2), digits=None)
def test_decimal_matches_two_conversions(x, digits):
    assert x.decimal(digits) == _decimal_two_conversions(x, digits)


def test_decimal_matches_two_conversions_past_the_int_str_limit():
    for m, err in ((1 << 20000) // 3, 1), ((10 << 20000) - 5, 7), (-(1 << 20000) // 7, 3):
        x = FixedReal(m, 20000, err)
        for digits in (None, 6020, 20001):
            assert x.decimal(digits) == _decimal_two_conversions(x, digits)


@st.composite
def _intervals(draw) -> tuple[int, int, int, int, int]:
    """(lo, hi, F, r, count) around a radix-r boundary a * r**-j, so that
    the ends straddle a long run of zero digits (r - 1 digits below it),
    or agree on it, in any radix up to 40 and at widths up to 400 bits."""
    F = draw(st.integers(1, 400))
    r = draw(st.integers(2, 40))
    j = draw(st.integers(0, F // r.bit_length() + 2))
    a = draw(st.integers(0, 3 * r**j))
    lo = (a << F) // r**j + draw(st.integers(-(1 << 8), 1 << 8))
    hi = lo + draw(st.one_of(st.integers(0, 1 << 8), st.integers(0, 1 << F)))
    return lo, hi, F, r, draw(st.integers(0, F + 2))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_intervals())
# 1/2 -+ 3 * 2**-F: no fraction digit certified, past about 120 zero
# digits in radix 10 at F = 400 and about 1 200 at F = 4000, and as many
# in radix 2 and 16
@example(case=((1 << 399) - 3, (1 << 399) + 3, 400, 10, 121))
@example(case=((1 << 3999) - 3, (1 << 3999) + 3, 4000, 10, 1204))
@example(case=((1 << 3999) - 3, (1 << 3999) + 3, 4000, 2, 3996))
@example(case=((1 << 3999) - 3, (1 << 3999) + 3, 4000, 16, 999))
# just above 1/2: both ends read 5 and then about 1 200 zeros
@example(case=((1 << 3999) + 1, (1 << 3999) + 7, 4000, 10, 1200))
# the spigot's borrow: acc = 0, so lo = -1
@example(case=(-1, 5, 72, 2, 8))
def test_certified_digits_match_their_digit_by_digit_reading(case):
    lo, hi, F, r, count = case
    ends = (first.radix_digits(Fraction(v, 1 << F), r, count) for v in (lo, hi))
    assert _certified_digits(lo, hi, F, r, count) == first.common_digits(*ends, r, count)


# -- truncating operations against their first forms ------------------------


def _fields(x: FixedReal) -> tuple[int, int, int]:
    return x.mantissa, x.frac_bits, x.err_ulp


@st.composite
def _operands(draw) -> tuple[int, int, int, int, int]:
    """(F, m1, e1, m2, e2): mantissas of either sign about one in size,
    small, or with many trailing zeros (so that a shift or division can
    drop nothing), and errors from none to one whole unit."""
    F = draw(st.integers(1, 4096))

    def mantissa() -> int:
        magnitude = draw(
            st.one_of(
                st.integers(0, 1 << (F + 2)),
                st.integers(0, 1 << 64),
                st.tuples(st.integers(1, 1 << 64), st.integers(0, F + 2)).map(
                    lambda p: p[0] << p[1]
                ),
            )
        )
        return draw(st.sampled_from((1, -1))) * magnitude

    def err() -> int:
        return draw(st.one_of(st.just(0), st.integers(0, 64), st.integers(0, 1 << F)))

    return F, mantissa(), err(), mantissa(), err()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    ops=_operands(),
    d=st.one_of(st.sampled_from((1, -1, 7, -7, 0)), st.integers(-(1 << 70), 1 << 70)),
    fr=st.fractions(max_denominator=1 << 70).filter(lambda q: abs(q) < 1 << 70),
    to_bits=st.integers(1, 4200),
)
# the division's error ratio is an exact integer, divisor 3*2**k or 2**F
# with e2 = 0: its ceiling is that integer, not one more
@example(ops=(200, 5 << 150, 3, 3 << 100, 0), d=1, fr=Fraction(1, 3), to_bits=100)
@example(ops=(200, -(5 << 150), 6, -(3 << 150), 0), d=-1, fr=Fraction(-2, 3), to_bits=1)
@example(ops=(4096, 7 << 4000, 9, 3 << 4000, 0), d=7, fr=Fraction(7), to_bits=4096)
@example(ops=(300, 12345 << 200, 17, 1 << 300, 0), d=-7, fr=Fraction(0), to_bits=364)
@example(ops=(64, -(1 << 70), 5, 1 << 64, 0), d=0, fr=Fraction(1, 1 << 64), to_bits=63)
# an exact integer ratio whose divisor has a set bit below its leading 64:
# the leading bits leave the ceiling open, and the full product settles it
@example(
    ops=(200, 1 << 199, (1 << 80) + 1, ((1 << 80) + 1) << 20, 0),
    d=2,
    fr=Fraction(5),
    to_bits=137,
)
def test_truncating_ops_match_their_first_forms(ops, d, fr, to_bits):
    F, m1, e1, m2, e2 = ops
    x, y = FixedReal(m1, F, e1), FixedReal(m2, F, e2)
    assert _fields(x * y) == first.fixed_mul(m1, e1, m2, e2, F)
    try:
        expected = first.fixed_div(m1, e1, m2, e2, F)
    except ZeroDivisionError:
        with pytest.raises(PrecisionError):
            x / y
    else:
        assert _fields(x / y) == expected
    if d:
        assert _fields(x.div_int(d)) == first.fixed_div_int(m1, e1, F, d)
    else:
        with pytest.raises(ZeroDivisionError):
            first.fixed_div_int(m1, e1, F, d)
        with pytest.raises(ZeroDivisionError):
            x.div_int(d)
    assert _fields(x.mul_fraction(fr)) == first.fixed_mul_fraction(m1, e1, F, fr)
    assert _fields(FixedReal.from_fraction(fr, F)) == first.fixed_from_fraction(fr, F)
    assert _fields(x.rescale(to_bits)) == first.fixed_rescale(m1, e1, F, to_bits)
