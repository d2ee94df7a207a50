"""BBP-type formula engine for a parametric family of logarithms.

Builds the length-40 binary formulas whose values are
sqrt(5)*atanh(u(t)*sqrt(5)) for nonzero integer t (and sqrt(5)*log(phi)
at t=1), evaluates general P(s,b,l,A) sums with certified error bounds,
verifies every identity against an independent sqrt/log oracle, and
extracts binary digits at arbitrary positions by a
modular-exponentiation spigot.

Each public name is imported from the module that defines it; the
package namespace holds only ``__version__``, so importing one module
loads only that module and what it imports:

- ``bbplog.errors``: ``BbpError``, ``DomainError``, ``ParseError``,
  ``PrecisionError``, ``UnsupportedFormulaError``, ``ValidationError``.
- ``bbplog.numerics``: ``FixedReal``, ``agreement_bits``, ``fx_sqrt``,
  ``fx_log``, ``modpow``.
- ``bbplog.formula``: ``BbpFormula``, ``EvalResult``, ``eval_P``,
  ``parse_formula``, ``emit_formula``.
- ``bbplog.family``: ``FamilyInstance``, ``family_coeffs``,
  ``golden_formula``, ``lhs_value``, ``golden_constant``,
  ``FAMILY_LENGTH``.
- ``bbplog.spigot``: ``SpigotPlan``, ``DigitWindow``, ``build_plan``,
  ``extract_bits``.
- ``bbplog.verify``: ``VerificationReport``, ``verify_theorem``,
  ``verify_corollary``, ``verify_decomposition``, ``GUARD_BITS``.
- ``bbplog.presets``: ``GOLDEN_TEXT``, ``LOG2_TEXT``, ``PRESETS``,
  ``load_preset``.
- ``bbplog.cli``: ``main``, the ``bbplog`` command.
"""

__version__ = "0.1.0"
