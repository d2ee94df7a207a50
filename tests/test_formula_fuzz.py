"""Property-based checks that stepped block fractions are the folds.

``formula._block_fractions`` steps a long range of blocks by packed
finite differences; each fraction must be the fold's exact (num, den)
pair, not just an equal rational, and eval_P, which joins groups of
stepped levels into its division blocks, must give the mantissa and
err_ulp of a loop that folds every block term by term.  Every run is
derandomized, so a failure reproduces on every machine.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import bbplog.formula as formula_mod  # noqa: E402
from bbplog.formula import BbpFormula, _block_fractions, _fold_levels, eval_P  # noqa: E402

from _oracles import eval_P_folded  # noqa: E402

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

# o > 1 in 3, 12, 10 and 2**20 * 3**40; powers of two in 2 and 16
_bases = st.one_of(st.sampled_from((2, 3, 10, 12, 16, 2**20 * 3**40)), st.integers(2, 50))


@st.composite
def _coeffs(draw) -> tuple[int, ...]:
    length = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.integers(-50, 50), min_size=length, max_size=length))
    if not any(coeffs):
        coeffs[draw(st.integers(0, length - 1))] = draw(st.sampled_from((-7, 1, 5)))
    return tuple(coeffs)


@FUZZ
@given(
    base=_bases,
    degree=st.integers(1, 3),
    coeffs=_coeffs(),
    levels=st.integers(1, 4),
    k0=st.sampled_from((0, 1, 37, 10_000)),
    extra=st.integers(0, 9),
    short=st.integers(0, 3),
)
def test_stepped_fractions_are_the_folds(base, degree, coeffs, levels, k0, extra, short):
    terms = tuple((j, a) for j, a in enumerate(coeffs, start=1) if a)
    D = levels * len(terms) * degree
    fold = partial(_fold_levels, base, degree, len(coeffs), terms)
    # enough whole blocks to step, then a short last block of `short` levels
    whole = formula_mod._STEP_MIN * (D + 1) + extra
    k1 = k0 + whole * levels + short % levels
    expected = [fold(k, min(k + levels, k1)) for k in range(k0, k1, levels)]
    assert list(_block_fractions(base, degree, len(coeffs), terms, levels, k0, k1)) == expected


@FUZZ
@given(
    base=_bases,
    degree=st.integers(1, 3),
    coeffs=_coeffs(),
    prefactor=st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
    blocks=st.sampled_from(((4, 1), (4, 2), (6, 2), (6, 3), (8, 4), (12, 3), (12, 4), (12, 6))),
    step_min=st.integers(1, 3),
    frac_bits=st.integers(64, 700),
)
def test_eval_joins_stepped_groups_into_the_folded_blocks(
    base, degree, coeffs, prefactor, blocks, step_min, frac_bits
):
    # L levels per division block and groups of g levels, g a divisor of
    # L: T = L * nonzero and a fold cap of g * nonzero pick them
    L, g = blocks
    f = BbpFormula(degree, base, len(coeffs), coeffs, Fraction(prefactor))
    nonzero = sum(1 for a in coeffs if a)
    with mock.patch.object(formula_mod, "_BLOCK_TERMS", L * nonzero), mock.patch.object(
        formula_mod, "_FOLD_TERMS", g * nonzero
    ), mock.patch.object(formula_mod, "_STEP_MIN", step_min):
        value = eval_P(f, frac_bits).value
        assert (value.mantissa, value.err_ulp) == eval_P_folded(f, frac_bits)
