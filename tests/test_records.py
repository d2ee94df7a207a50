"""The package's immutable records: construction, equality, hash, repr,
immutability, validation, and an import that stays free of dataclasses."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import bbplog
from bbplog.errors import DomainError, ValidationError
from bbplog.family import FamilyInstance, family_coeffs
from bbplog.formula import BbpFormula, EvalResult
from bbplog.numerics import FixedReal
from bbplog.spigot import DigitWindow, SpigotPlan
from bbplog.verify import VerificationReport

LOG2 = BbpFormula(1, 2, 1, (1,), Fraction(1), "2*log(2)")
T2 = family_coeffs(2)

# per record: valid positional arguments; for each field another valid
# value (None where no single-field change is valid); the defaults; and
# (field, bad value, error, message) for each check the constructor runs
RECORDS = {
    "FixedReal": (
        FixedReal,
        (5, 8, 1),
        (6, 9, 2),
        {"err_ulp": 0},
        [
            ("frac_bits", 0, ValidationError, "^frac_bits: must be positive$"),
            ("err_ulp", -1, ValidationError, "^err_ulp: must be nonnegative$"),
        ],
    ),
    "BbpFormula": (
        BbpFormula,
        (1, 2, 1, (1,), Fraction(1), "2*log(2)"),
        (2, 3, None, (2,), Fraction(1, 2), ""),
        {"label": ""},
        [
            ("degree", 0, ValidationError, "^degree: must be a positive integer$"),
            ("base", 1, ValidationError, "^base: must be >= 2$"),
            ("length", 2, ValidationError, "^coeffs: expected 2 entries, got 1$"),
            ("coeffs", (0,), ValidationError, "^coeffs: at least one entry must be nonzero$"),
            ("prefactor", 0, ValidationError, "^prefactor: must be nonzero$"),
            ("label", "a\nb", ValidationError, "^label: must be a single line$"),
        ],
    ),
    "EvalResult": (
        EvalResult,
        (FixedReal(5, 8, 1), 70),
        (FixedReal(5, 8, 2), 71),
        {},
        [],
    ),
    "SpigotPlan": (
        SpigotPlan,
        (LOG2, 1, ((1, 1),), 1, ((1, 1),), 0, 16),
        (T2.formula, 20, ((1, 2),), 3, ((1, 2),), 1, 8),
        {},
        [],
    ),
    "DigitWindow": (
        DigitWindow,
        ("0101", 2),
        ("0110", 3),
        {},
        [
            ("bits", "", ValidationError, "^bits: must be nonempty$"),
            ("certified", 5, ValidationError, "^certified: out of range$"),
            ("certified", -1, ValidationError, "^certified: out of range$"),
        ],
    ),
    "FamilyInstance": (
        FamilyInstance,
        (T2.t, T2.formula, T2.lhs_arg),
        (3, LOG2, Fraction(0)),
        {},
        [("lhs_arg", Fraction(1, 2), DomainError, "atanh argument leaves")],
    ),
    "VerificationReport": (
        VerificationReport,
        ("theorem(t=2)", 1000, 990, True, 3),
        ("theorem(t=3)", 999, 991, False, 4),
        {},
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_construction_equality_hash_and_immutability(name):
    cls, args, others, defaults, errors = RECORDS[name]
    fields = cls.__slots__
    assert len(fields) == len(args) == len(others)
    rec = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert rec == by_keyword and not rec != by_keyword
    assert hash(rec) == hash(by_keyword)
    assert [getattr(rec, f) for f in fields] == list(args)
    assert rec != args

    required = len(args) - len(defaults)
    assert list(defaults) == list(fields[required:])
    short = cls(*args[:required])
    assert {f: getattr(short, f) for f in defaults} == defaults

    # a missing field, an extra positional argument, an unknown keyword and
    # a field given twice, as Python words them for a written constructor
    bad_calls = [
        (args[: required - 1], {}, "missing"),
        ((), dict(zip(fields[1:], args[1:])), f"missing .*{fields[0]}"),
        ((*args, 0), {}, "positional arguments but"),
        (args, {"extra": 0}, "got an unexpected keyword argument 'extra'$"),
        (args, {fields[0]: args[0]}, f"got multiple values for argument '{fields[0]}'$"),
    ]
    for pos, kw, message in bad_calls:
        with pytest.raises(TypeError, match=message):
            cls(*pos, **kw)

    for i, other in enumerate(others):
        if other is not None:
            changed = cls(*args[:i], other, *args[i + 1 :])
            assert changed != rec, fields[i]

    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, f, 0)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert rec == by_keyword
    assert not hasattr(rec, "__dict__")

    text = repr(rec)
    assert text.startswith(f"{name}(")
    if cls is not FixedReal:
        assert all(f"{f}=" in text for f in fields)
    assert pickle.loads(pickle.dumps(rec)) == copy.copy(rec) == rec

    for field, bad, error, message in errors:
        with pytest.raises(error, match=message):
            cls(**{**dict(zip(fields, args)), field: bad})


def test_formula_normalises_coeffs_and_prefactor_before_validating():
    f = BbpFormula(1, 2, 2, [1, 0], 3)
    assert f.coeffs == (1, 0) and f.prefactor == Fraction(3)
    assert type(f.prefactor) is Fraction
    with pytest.raises(ValidationError, match="^coeffs: at least one"):
        BbpFormula(1, 2, 2, iter([0, 0]), 1)


def test_cli_import_leaves_dataclasses_out():
    # -S keeps site's own imports out, so only the package's count
    src = os.path.dirname(os.path.dirname(bbplog.__file__))
    code = "import sys, bbplog.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_fixedreal_repr_lists_its_fields_past_the_float_range():
    # a value of 2**1936 has no float; the repr is the mantissa's
    assert repr(FixedReal(1 << 2000, 64, 1)) == f"FixedReal(mantissa={1 << 2000}, frac_bits=64, err_ulp=1)"


def test_repr_writes_ints_past_the_str_digit_limit_in_hex():
    # t = 10**200 makes a base of about 8 000 digits and coefficients of
    # up to 7 600, past the 4 300 that str(int) allows by default
    f = family_coeffs(10**200).formula
    text = repr(f)
    assert text.startswith("BbpFormula(degree=1, base=0x")
    one = BbpFormula(1, 2, 1, (10**5000,), Fraction(1))
    for rec in (f, one):
        assert eval(repr(rec), {"BbpFormula": BbpFormula, "Fraction": Fraction}) == rec
    small = Fraction(1, 10**5000 + 1)
    assert repr(FamilyInstance(1, f, small)).endswith(f"lhs_arg=Fraction(1, {hex(small.denominator)}))")
