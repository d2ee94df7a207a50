"""Command-line front-end: digits, family, verify, eval.

Exit codes are part of the interface:

    0   success (for verify: every requested check passed)
    1   a verification check failed, or stdout closed early (say `| head`)
    2   domain or unsupported-formula error (including a family
        formula with an integer too long for the file format)
    64  usage error (bad flags or flag values, including --bits above
        MAX_BITS and a family -o path that cannot be written)
    65  malformed or invalid input file

stdout carries machine-parseable results; stderr carries diagnostics.
Identical flags produce byte-identical stdout for digits, family, and
eval; verify lines include wall-clock milliseconds by design.

verify prints each REPORT line as soon as its check finishes: first every
theorem check, then the corollary, then every decomposition check.  The
--t list is checked for syntax before any check runs, but t = 0 is
rejected only when its check is reached, so verify exits 2 after the
lines of the checks before it.

eval and verify reject --bits above MAX_BITS = 300 000 before any work
starts.  At the cap (2 vCPU Xeon, Python 3.11.7, one run each) eval
takes 4.5 s for golden and 21 s for log2, and one verify check 42 s
(corollary), 42-81 s (theorem, t = -50 and 1) or 238-249 s
(decomposition, t = 1 and -50); the time grows about quadratically in
--bits.  A --t range is lazy and has
no cap: verify runs one check per t in turn, printing as it goes, for as
long as the range asks.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

from .errors import DomainError, ParseError, UnsupportedFormulaError, ValidationError
from .family import family_coeffs, golden_formula
from .formula import BbpFormula, emit_formula, eval_P, parse_formula
from .presets import PRESETS, load_preset
from .spigot import MAX_WINDOW_BITS, build_plan, extract_bits, extract_hex
from .verify import verify_corollary, verify_decomposition, verify_theorem

__all__ = ["main"]

EX_OK = 0
EX_CHECK_FAILED = 1
EX_DOMAIN = 2
EX_USAGE = 64
EX_DATA = 65

# --bits cap for eval and verify, from the times in the module docstring
MAX_BITS = 300_000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        # argparse hook; flag problems exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bbplog",
        description=(
            "Evaluate BBP-type logarithm formulas, generate the parametric"
            " family, verify its identities, and extract binary or hex"
            " digits at arbitrary positions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_digits = sub.add_parser(
        "digits", help="extract digits at an arbitrary position"
    )
    p_digits.add_argument("--pos", type=int, default=0, help="digit position (0-based, in units of the chosen radix's digits; bits for radix 2, hex digits for radix 16)")
    p_digits.add_argument("--count", type=int, default=32, help=f"number of bits to extract (1..{MAX_WINDOW_BITS}; for radix 16 a multiple of 4)")
    p_digits.add_argument("--radix", type=int, choices=(2, 16), default=2)
    _add_formula_source(p_digits)

    p_family = sub.add_parser(
        "family", help="write the formula file for a parameter t"
    )
    p_family.add_argument("--t", type=int, required=True, help="nonzero integer parameter")
    p_family.add_argument(
        "--corollary",
        action="store_true",
        help="normalize the t=1 instance to sqrt(5)*log(phi) (prefactor /3)",
    )
    p_family.add_argument("-o", "--output", help="destination path (default stdout)")

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--theorem", action="store_true")
    p_verify.add_argument("--corollary", action="store_true")
    p_verify.add_argument("--decomposition", action="store_true")
    p_verify.add_argument("--t", default="1", help="parameters: '2', '1..3', or '1,2,-2'")
    p_verify.add_argument("--bits", type=int, default=256, help=f"agreement threshold in bits (1..{MAX_BITS})")

    p_eval = sub.add_parser("eval", help="evaluate a formula to high precision")
    p_eval.add_argument("--bits", type=int, default=256, help=f"working precision in bits (64..{MAX_BITS})")
    p_eval.add_argument("--digits", type=int, default=None, help="decimal digits to print (default: all certified)")
    _add_formula_source(p_eval)

    return parser


def _add_formula_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--preset", choices=sorted(PRESETS), default=None, help="built-in formula"
    )
    group.add_argument("--formula", default=None, help="path to a formula file")


def _load_formula(args: argparse.Namespace) -> BbpFormula:
    if args.formula is not None:
        try:
            with open(args.formula, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _DataError(f"cannot read {args.formula}: {exc}") from exc
        try:
            return parse_formula(text)
        except (ParseError, ValidationError) as exc:
            raise _DataError(f"{args.formula}: {exc}") from exc
    return load_preset(args.preset or "golden")


class _DataError(Exception):
    pass


def _parse_t_list(text: str) -> list[range]:
    """Parse '2', '1..3' or '1,2,-2' into lazy ranges, checking every token."""
    ranges: list[range] = []
    for token in text.split(","):
        lo_text, dots, hi_text = token.strip().partition("..")
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
        if hi < lo:
            raise ValueError(f"empty range {token.strip()!r}")
        ranges.append(range(lo, hi + 1))
    return ranges


def _cmd_digits(args: argparse.Namespace, parser: _Parser) -> int:
    if not 1 <= args.count <= MAX_WINDOW_BITS:
        parser.error(f"--count must be in 1..{MAX_WINDOW_BITS}")
    if args.pos < 0:
        parser.error("--pos must be nonnegative")
    if args.radix == 16 and args.count % 4:
        parser.error("--count must be a multiple of 4 when --radix 16")
    plan = build_plan(_load_formula(args))
    if args.radix == 16:
        window = extract_hex(plan, args.pos, args.count // 4)
    else:
        window = extract_bits(plan, args.pos, args.count)
    print(
        f"pos={window.position} radix={window.radix}"
        f" digits={window.bits} certified={window.certified}"
    )
    return EX_OK


def _cmd_family(args: argparse.Namespace, parser: _Parser) -> int:
    if args.corollary and args.t != 1:
        parser.error("--corollary applies only to --t 1")
    formula = golden_formula() if args.corollary else family_coeffs(args.t).formula
    text = emit_formula(formula)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            print(
                f"bbplog: error: cannot write {args.output}: {reason}",
                file=sys.stderr,
            )
            return EX_USAGE
    else:
        sys.stdout.write(text)
    return EX_OK


def _cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    if not (args.theorem or args.corollary or args.decomposition):
        parser.error("choose at least one of --theorem, --corollary, --decomposition")
    if not 1 <= args.bits <= MAX_BITS:
        parser.error(f"--bits must be in 1..{MAX_BITS}")
    try:
        t_ranges = _parse_t_list(args.t)
    except ValueError as exc:
        parser.error(f"bad --t: {exc}")

    def reports():
        if args.theorem:
            for t in chain.from_iterable(t_ranges):
                yield verify_theorem(t, args.bits)
        if args.corollary:
            yield verify_corollary(args.bits)
        if args.decomposition:
            for t in chain.from_iterable(t_ranges):
                yield verify_decomposition(t, args.bits)

    all_passed = True
    for report in reports():
        print(report.line(), flush=True)
        all_passed = all_passed and report.passed
    return EX_OK if all_passed else EX_CHECK_FAILED


def _cmd_eval(args: argparse.Namespace, parser: _Parser) -> int:
    if not 64 <= args.bits <= MAX_BITS:
        parser.error(f"--bits must be in 64..{MAX_BITS}")
    if args.digits is not None and args.digits < 1:
        parser.error("--digits must be positive")
    result = eval_P(_load_formula(args), args.bits)
    value = result.value
    print(
        f"value={value.decimal(args.digits)}"
        f" err_ulp={value.err_ulp} frac_bits={value.frac_bits}"
        f" terms={result.terms_used}"
    )
    return EX_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "digits": _cmd_digits,
        "family": _cmd_family,
        "verify": _cmd_verify,
        "eval": _cmd_eval,
    }
    try:
        return handlers[args.command](args, parser)
    except (_DataError, ValidationError) as exc:
        print(f"bbplog: error: {exc}", file=sys.stderr)
        return EX_DATA
    except (DomainError, UnsupportedFormulaError) as exc:
        print(f"bbplog: error: {exc}", file=sys.stderr)
        return EX_DOMAIN
    except BrokenPipeError:
        # stdout's reader left early (say `| head`); point stdout at
        # devnull so the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
