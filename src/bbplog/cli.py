"""Command-line front-end: digits, family, verify, eval.

Exit codes are part of the interface:

    0   success (for verify: every requested check passed)
    1   a verification check failed, or stdout closed early (say `| head`)
    2   domain or unsupported-formula error (including a family
        formula with an integer too long for the file format, and an
        eval or digits formula of degree above formula.MAX_DEGREE = 128)
    64  usage error: a bad flag or flag value, a value or a formula
        above one of the cost caps below, a value the library rejects as
        outside its domain (its ValidationError: digits --count below 1
        or --pos below 0, eval --bits below 64, verify --bits below 1),
        or a family -o path that cannot be written
    65  malformed or invalid input file

stdout carries machine-parseable results; stderr carries diagnostics.
Identical flags produce byte-identical stdout for digits, family, and
eval; verify lines include wall-clock milliseconds by design.  digits,
like eval, prints only certified digits: a window certified short of
--count prints its first `certified` digits (bits, or whole hex digits
for --radix 16), then `~`, and still exits 0.  The whole hex digits are
the certified-digits rule of numerics._certified_digits at r = 16: as
floor(x * 16**c) = floor(x * 2**(4c)), c hex digits are certified
exactly when 4c bits are, so --radix 16 prints certified // 4 of them.

Each argument rule has one home.  The library checks the domain of its
own arguments; this module holds the cost caps and one unit rule: digits
prints --radix 16 as groups of four bits, so there --count must be a
multiple of 4 and --pos counts four bits per hex digit.  The library sees
a value only once the formula is loaded, so with a bad formula file as
well the file's error (65, or 2 if unsupported) is the one reported.
The nonzero caps are checked here once the formula is loaded, and for
digits once its plan is built.  The term caps go to the engines as
max_terms, and eval_P and extract_bits check them on the level count
they sum, before any block; their ValidationError exits 64.  A formula
of degree above MAX_DEGREE skips eval's nonzero cap, and both engines
refuse it before they count, so eval and digits both report it as
unsupported (2) at any flag value.

verify prints each REPORT line as soon as its check finishes: first every
theorem check, then the corollary, then every decomposition check.  The
--t list is checked for syntax before any check runs, but t = 0 is
rejected only when its check is reached, so verify exits 2 after the
lines of the checks before it.  A --t range is lazy and has no cap:
verify runs one check per t, for as long as the range asks.  The exact
decomposition check costs the same at any --bits.

Cost caps, each checked before any work starts.  The BENCH rows named
are rows of tests/bench_layers.py, sized from these constants:

- eval and verify: --bits at most MAX_BITS = 300 000, as the time grows
  about quadratically in --bits (BENCH rows `cap eval_P golden`,
  `cap decimal golden`, `cap verify_theorem` and `cap verify_corollary`).
- digits: --count at most MAX_WINDOW_BITS = 4096 bits, up to which a
  window costs little more than one of 64 bits, and --pos at most
  MAX_POS_BITS = 3*10**7 bits, as the time grows a little faster than
  the position (BENCH rows `cap extract_bits golden`,
  `cap extract_bits golden count 64` and `extract_bits golden large`).
- digits and eval: at most golden's terms at those caps, K * nonzero * s
  for degree s, MAX_HEAD_TERMS = 36 005 016 and MAX_EVAL_TERMS = 360 024.
  K is the levels its engine sums by the one tail rule, _truncation:
  eval_P's at --bits, the spigot's at position + count + 64 bits.  A
  large prefactor or coefficient adds levels; its size is not weighed.
  Weighting by s bounds a degree-s term's cost (BENCH rows
  `shape eval_P golden degree 1` and `shape eval_P golden degree MAX_DEGREE`).
- eval: at most MAX_NONZERO = 128 nonzero coefficients, as a term costs
  more the more nonzero terms its level has (BENCH rows
  `shape eval_P ones MAX_NONZERO` and `shape eval_P ones 8*MAX_NONZERO`).
- digits: at most MAX_NONZERO nonzero coefficients times the degree, as
  a block's modulus holds nonzero * s factors per level (BENCH rows
  `shape extract_bits ones MAX_NONZERO` and
  `shape extract_bits ones 8*MAX_NONZERO`).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain

from .errors import DomainError, ParseError, UnsupportedFormulaError, ValidationError
from .family import family_coeffs, golden_formula
from .formula import MAX_DEGREE, BbpFormula, emit_formula, eval_P, parse_formula
from .presets import PRESETS, load_preset
from .spigot import build_plan, extract_bits
from .verify import verify_corollary, verify_decomposition, verify_theorem

__all__ = ["main"]

EX_OK = 0
EX_CHECK_FAILED = 1
EX_DOMAIN = 2
EX_USAGE = 64
EX_DATA = 65

# cost caps, measured by the BENCH rows the module docstring names:
# --bits for eval and verify, the width and bit position of a digits
# window, and for a formula its nonzero coefficients and the terms eval
# sums or the digits head reduces, at golden's values at --bits and at
# the window's end at the --pos and --count caps (golden: 24 nonzero
# coefficients, base 2**20)
MAX_BITS = 300_000
MAX_WINDOW_BITS = 4096
MAX_POS_BITS = 30_000_000
MAX_NONZERO = 128
MAX_EVAL_TERMS = (MAX_BITS // 20 + 1) * 24
MAX_HEAD_TERMS = ((MAX_POS_BITS + MAX_WINDOW_BITS + 64) // 20 + 1) * 24


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        # argparse hook; flag problems exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


@functools.cache  # one parser per process: in-process callers parse many argvs
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
    p_digits.add_argument("--pos", type=int, default=0, help=f"digit position (0-based, in units of the chosen radix's digits; bits for radix 2, hex digits for radix 16; at most {MAX_POS_BITS} bits)")
    p_digits.add_argument("--count", type=int, default=32, help=f"number of bits to extract (1..{MAX_WINDOW_BITS}; for radix 16 a multiple of 4)")
    p_digits.add_argument("--radix", type=int, choices=(2, 16), default=2)
    _add_formula_source(p_digits)
    p_digits.set_defaults(handler=_cmd_digits, parser=p_digits)

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
    p_family.set_defaults(handler=_cmd_family, parser=p_family)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--theorem", action="store_true")
    p_verify.add_argument("--corollary", action="store_true")
    p_verify.add_argument("--decomposition", action="store_true")
    p_verify.add_argument("--t", default="1", help="parameters: '2', '1..3', or '1,2,-2'")
    p_verify.add_argument("--bits", type=int, default=256, help=f"agreement threshold in bits (1..{MAX_BITS})")
    p_verify.set_defaults(handler=_cmd_verify, parser=p_verify)

    p_eval = sub.add_parser("eval", help="evaluate a formula to high precision")
    p_eval.add_argument("--bits", type=int, default=256, help=f"working precision in bits (64..{MAX_BITS})")
    p_eval.add_argument("--digits", type=int, default=None, help="decimal digits to print (default: all certified)")
    _add_formula_source(p_eval)
    p_eval.set_defaults(handler=_cmd_eval, parser=p_eval)

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
    # a hex digit is four bits; extract_bits checks count >= 1 and pos >= 0
    unit = 4 if args.radix == 16 else 1
    if args.count % unit:
        parser.error("--count must be a multiple of 4 when --radix 16")
    if args.count > MAX_WINDOW_BITS:
        parser.error(f"--count must be at most {MAX_WINDOW_BITS}")
    if unit * args.pos > MAX_POS_BITS:
        parser.error(f"--pos must be at most {MAX_POS_BITS // unit} for --radix {args.radix}")
    plan = build_plan(_load_formula(args))
    if (factors := len(plan.nonzero) * plan.formula.degree) > MAX_NONZERO:  # per level
        parser.error(f"the formula has {factors} nonzero coefficients counted once per degree (degree {plan.formula.degree}); at most {MAX_NONZERO} are allowed")
    window = extract_bits(plan, unit * args.pos, args.count, max_terms=MAX_HEAD_TERMS)
    digits = window.bits
    if unit == 4:
        digits = format(int(digits, 2), f"0{args.count // 4}x")
    shown = window.certified // unit
    tilde = "~" if window.certified < args.count else ""
    print(
        f"pos={args.pos} radix={args.radix}"
        f" digits={digits[:shown]}{tilde} certified={shown}"
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
    if args.bits > MAX_BITS:  # the verify_* functions check the lower end
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
    if args.bits > MAX_BITS:  # eval_P checks the lower end
        parser.error(f"--bits must be in 64..{MAX_BITS}")
    if args.digits is not None and args.digits < 1:
        parser.error("--digits must be positive")
    f = _load_formula(args)
    # above MAX_DEGREE, eval_P's refusal (exit 2) comes first
    if f.degree <= MAX_DEGREE and (nonzero := sum(1 for a in f.coeffs if a)) > MAX_NONZERO:
        parser.error(f"the formula has {nonzero} nonzero coefficients; at most {MAX_NONZERO} are allowed")
    result = eval_P(f, args.bits, max_terms=MAX_EVAL_TERMS)
    value = result.value
    print(
        f"value={value.decimal(args.digits)}"
        f" err_ulp={value.err_ulp} frac_bits={value.frac_bits}"
        f" terms={result.terms_used}"
    )
    return EX_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # each handler reports a usage error through its subcommand's parser
        return args.handler(args, args.parser)
    except _DataError as exc:
        print(f"bbplog: error: {exc}", file=sys.stderr)
        return EX_DATA
    except ValidationError as exc:  # a flag value outside the library's domain
        print(f"bbplog: error: {exc}", file=sys.stderr)
        return EX_USAGE
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
