"""BBP-type formula engine for a parametric family of logarithms.

Builds the length-40 binary formulas whose values are
sqrt(5)*atanh(u(t)*sqrt(5)) for nonzero integer t (and sqrt(5)*log(phi)
at t=1), evaluates general P(s,b,l,A) sums with certified error bounds,
verifies every identity against an independent sqrt/log oracle, and
extracts binary digits at arbitrary positions by a
modular-exponentiation spigot.
"""

from .errors import (
    BbpError,
    DomainError,
    ParseError,
    PrecisionError,
    UnsupportedFormulaError,
    ValidationError,
)
from .family import (
    FamilyInstance,
    family_coeffs,
    golden_constant,
    golden_formula,
    lhs_value,
)
from .formula import BbpFormula, EvalResult, emit_formula, eval_P, parse_formula
from .numerics import FixedReal, agreement_bits, fx_atanh, fx_log, fx_sqrt, modpow
from .presets import GOLDEN_TEXT, LOG2_TEXT, load_preset
from .spigot import DigitWindow, SpigotPlan, build_plan, extract_bits
from .verify import (
    VerificationReport,
    verify_corollary,
    verify_decomposition,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "BbpError",
    "DomainError",
    "ParseError",
    "PrecisionError",
    "UnsupportedFormulaError",
    "ValidationError",
    "FixedReal",
    "agreement_bits",
    "fx_sqrt",
    "fx_log",
    "fx_atanh",
    "modpow",
    "BbpFormula",
    "EvalResult",
    "eval_P",
    "parse_formula",
    "emit_formula",
    "FamilyInstance",
    "family_coeffs",
    "golden_formula",
    "lhs_value",
    "golden_constant",
    "SpigotPlan",
    "DigitWindow",
    "build_plan",
    "extract_bits",
    "VerificationReport",
    "verify_theorem",
    "verify_corollary",
    "verify_decomposition",
    "GOLDEN_TEXT",
    "LOG2_TEXT",
    "load_preset",
    "__version__",
]
