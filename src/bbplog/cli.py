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
for --radix 16), then `~`, and still exits 0.

Each argument rule has one home.  The library checks the domain of its
own arguments; this module holds the cost caps and one unit rule: digits
prints --radix 16 as groups of four bits, so there --count must be a
multiple of 4 and --pos counts four bits per hex digit.  The library sees
a value only once the formula is loaded, so with a bad formula file as
well the file's error (65, or 2 if unsupported) is the one reported.
The formula caps are checked once the formula is loaded, and for digits
once its plan is built, before any extraction or evaluation; so digits
reports a degree above MAX_DEGREE (2) before the caps, and eval only for
a formula within them.

verify prints each REPORT line as soon as its check finishes: first every
theorem check, then the corollary, then every decomposition check.  The
--t list is checked for syntax before any check runs, but t = 0 is
rejected only when its check is reached, so verify exits 2 after the
lines of the checks before it.

Cost caps, each checked before any work starts (2 vCPU Xeon, Python
3.11.7, one run each unless noted):

- eval and verify: --bits at most MAX_BITS = 300 000.  At the cap eval
  takes 2.9 s for golden and 2.3 s for log2 end to end, the full decimal
  print 0.17 s of it (best of 3), and one verify check 5.5 s
  (corollary), 4.3-5.8 s (theorem, t = -50 and 1) or 0.63-0.67 s
  (decomposition, t = -50 and 1, two runs each; 1.20-1.26 s in the same
  session while its radicands took seven square roots beyond sqrt(5))
  by its ms= field; the time grows about quadratically in --bits.
- digits: --count at most MAX_WINDOW_BITS = 4096 bits.  Golden at bit
  position 2*10**5 on one CPU (best of 5) took 163, 151, 141, 209 and
  399 ms for 64, 256, 1024, 4096 and 16 384 bits: up to the cap a window
  costs at most about a third more than 64 bits, above it the time grows
  about linearly in the count.
- digits: --pos at most MAX_POS_BITS = 3*10**7 bits, so 7.5*10**6 hex
  digits with --radix 16.  Golden is the slowest of the presets and the
  family files per position (at 10**6 on one CPU: golden 0.84 s, log2
  0.75 s, t = 2 0.33 s, best of 3).  At the cap it took 49 s for 64 bits
  and 65 s for 4096 on one CPU, and 28 s for 4096 on both; the time
  grows a little faster than the position.
- digits and eval with any formula: at most MAX_NONZERO = 128 nonzero
  coefficients, and at most golden's term count at the caps above, each
  term counted once per degree s (up to MAX_DEGREE, above which eval
  and digits refuse the formula before any work): for digits
  (pos // beta + 1) * nonzero * s <= MAX_HEAD_TERMS = 36 000 024 head
  terms (pos in bits, base 2**beta), for eval
  (bits // c + 1) * nonzero * s <= MAX_EVAL_TERMS = 360 024 terms
  (c = floor(log2 base)).  The time per term grows with the nonzero
  count: at the head-term cap, base-2 files of N ones took 41 s
  (N = 24, position 1.5*10**6), 56 s (N = 64), 88 s (N = 128) and 116 s
  (N = 256) for 64 bits on one CPU, against 51 s for golden at the
  --pos cap in the same session (extract_bits alone, one run each).  At
  the eval term cap those files took 0.16-0.28 s for N = 24..256, 0.98 s
  for N = 1024 and 2.6 s for N = 4000, against 2.5 s for golden and
  2.1 s for log2 at --bits 300 000 (eval_P alone, one run each).  The
  time per term grows with the degree too: a copy of golden of degree
  128 took 6.4 s at --bits 20 000 (golden: 17 ms); the cap allows it
  at most 2 339 bits.  At the cap, copies of golden, log2 and the t = 2
  and 9 files with s = 2, 3, 8, 32 and 128 took 0.09-1.7 s (eval_P
  alone, one run each), the slowest t = 2 at s = 3 and t = 9 at s = 8.
- digits with any formula: at most MAX_NONZERO = 128 nonzero
  coefficients times the degree, checked after the caps above.  A
  block's modulus holds nonzero * s factors per level, so a level costs
  about what a degree-1 level of nonzero * s coefficients costs, which
  MAX_NONZERO bounds.  Without this cap, copies of golden of degree s at
  the largest --pos the term cap admits took 31 s (s = 1, the --pos
  cap), 34 s (2), 52 s (5), 68 s (8), 103 s (16), 149 s (32) and 127 s
  (128), against 40-46 s for the base-2 file of 128 ones at its largest
  --pos (extract_bits alone on both CPUs, one run each, two for the
  ones).  With the cap, the copies of degree 2 and 5 take 1.1 and 1.7
  times golden's time at the caps.
- A --t range is lazy and has no cap: verify runs one check per t in
  turn, printing as it goes, for as long as the range asks.
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

# cost caps, from the times in the module docstring: --bits for eval and
# verify, the width and bit position of a digits window, and for a
# formula its nonzero coefficients and the terms eval sums or the digits
# head reduces, at golden's values at the --bits and --pos caps (golden:
# 24 nonzero coefficients, base 2**20)
MAX_BITS = 300_000
MAX_WINDOW_BITS = 4096
MAX_POS_BITS = 30_000_000
MAX_NONZERO = 128
MAX_EVAL_TERMS = (MAX_BITS // 20 + 1) * 24
MAX_HEAD_TERMS = (MAX_POS_BITS // 20 + 1) * 24


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


def _check_terms(parser: _Parser, f: BbpFormula, span_bits: int, cap: int, what: str) -> None:
    """The formula caps: its nonzero coefficients, and the terms that its
    levels over ``span_bits`` bits make for ``what``, a flag and its
    value, each weighted by the degree up to MAX_DEGREE (a formula of
    higher degree is refused before any work).

    It counts span_bits // floor(log2 base) + 1 levels; the library sums
    a few more (``_truncation``'s K, the spigot's k_end), but the caps
    were sized by this same rule for golden, so it weighs every formula
    on golden's scale."""
    nonzero = sum(1 for a in f.coeffs if a)
    if nonzero > MAX_NONZERO:
        parser.error(f"the formula has {nonzero} nonzero coefficients; at most {MAX_NONZERO} are allowed")
    levels = span_bits // (f.base.bit_length() - 1) + 1
    terms = levels * nonzero * min(f.degree, MAX_DEGREE)
    if terms > cap:
        parser.error(f"{what} takes {terms} terms with this formula (each counted once per degree); at most {cap} are allowed")


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
    _check_terms(parser, plan.formula, unit * args.pos, MAX_HEAD_TERMS, f"--pos {args.pos}")
    if (factors := len(plan.nonzero) * plan.formula.degree) > MAX_NONZERO:  # per level
        parser.error(f"the formula has {factors} nonzero coefficients counted once per degree (degree {plan.formula.degree}); at most {MAX_NONZERO} are allowed")
    window = extract_bits(plan, unit * args.pos, args.count)
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
    _check_terms(parser, f, args.bits, MAX_EVAL_TERMS, f"--bits {args.bits}")
    result = eval_P(f, args.bits)
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
