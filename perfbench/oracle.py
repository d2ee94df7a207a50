"""Reference values and the output checker.

References come from sqrt/log directly (``golden_constant``,
``2*fx_log(2)``, ``lhs_value`` of the family instance), never from the
spigot or ``eval_P`` under test.  A reference is a triple
(mantissa, frac_bits, err_ulp) meaning the true value lies within
err_ulp * 2**-frac_bits of mantissa * 2**-frac_bits.  A constant's
digits never change, so references are computed once per checkout and
cached under ``perfbench/.cache`` (about 100 s on a 2-core Xeon, mostly
the three 200 000-bit digit references).

The checks are plain integer arithmetic and import nothing from the
program.  Run ``python3 perfbench/oracle.py`` to build missing
references.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

from workloads import DIGITS_COUNT, DIGITS_FAMILY_T, DIGITS_POS, EVAL_BITS, EVAL_FAMILY_T, formula_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE_DIR = os.path.join(HERE, ".cache")

_GUARD = 128
DIGITS_REF_BITS = DIGITS_POS[1] + DIGITS_COUNT + _GUARD
EVAL_REF_BITS = EVAL_BITS[1] + _GUARD
_CARRY_MARGIN = 8  # window bits must sit this far from a carry boundary


@dataclass(frozen=True)
class Ref:
    mantissa: int
    frac_bits: int
    err_ulp: int


def reference_specs() -> dict[str, int]:
    """Every reference any workload checks against: name -> precision."""
    specs = {"golden": DIGITS_REF_BITS, "log2": DIGITS_REF_BITS}
    for t in EVAL_FAMILY_T:
        specs[f"t{t}"] = EVAL_REF_BITS
    specs[f"t{DIGITS_FAMILY_T}"] = DIGITS_REF_BITS
    return specs


def _cache_path(name: str, bits: int) -> str:
    return os.path.join(CACHE_DIR, f"{name}-{bits}.json")


def missing_references() -> list[str]:
    return [n for n, b in reference_specs().items() if not os.path.exists(_cache_path(n, b))]


def load_references() -> dict[str, Ref]:
    refs = {}
    for name, bits in reference_specs().items():
        with open(_cache_path(name, bits), encoding="utf-8") as fh:
            d = json.load(fh)
        ref = Ref(int(d["mantissa"], 16), d["frac_bits"], d["err_ulp"])
        if ref.frac_bits != bits:
            raise ValueError(f"reference {name}: precision {ref.frac_bits}, expected {bits}")
        refs[name] = ref
    return refs


def build_references() -> None:
    """Compute and cache every missing reference with the checkout's own sqrt/log."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bbplog.family import family_coeffs, golden_constant, lhs_value
    from bbplog.numerics import FixedReal, fx_log

    os.makedirs(CACHE_DIR, exist_ok=True)
    for name in missing_references():
        bits = reference_specs()[name]
        if name == "golden":
            x = golden_constant(bits)
        elif name == "log2":
            x = fx_log(FixedReal.from_int(2, bits + 8)).mul_int(2).rescale(bits)
        else:
            x = lhs_value(family_coeffs(int(name[1:])), bits)
        path = _cache_path(name, bits)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump({"mantissa": format(x.mantissa, "x"), "frac_bits": x.frac_bits, "err_ulp": x.err_ulp}, fh)
        os.replace(path + ".tmp", path)


# -- checks -----------------------------------------------------------------
#
# Each check returns None when the output is right, otherwise a reason.
# A reason starting with "wrong:" means the program printed a result that
# contradicts the reference or its own promise (wrong digits, certified
# below the requested count, passed=false); "error:" means it gave no
# result (exception, SystemExit, nonzero exit code).


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def ref_name(argv: list[str]) -> str:
    """Which reference a digits or eval request is checked against."""
    path = _flag(argv, "--formula")
    if path is not None:
        for t in set(EVAL_FAMILY_T) | {DIGITS_FAMILY_T}:
            if path == formula_path(t):
                return f"t{t}"
        raise ValueError(f"no reference for formula file {path}")
    return _flag(argv, "--preset", "golden")


def reference_bits(ref: Ref, position: int, count: int) -> str:
    """Bits position+1 .. position+count of the reference's fraction.

    Raises when the reference's error could carry into the window, so a
    returned string is certain.
    """
    F = ref.frac_bits
    if ref.mantissa < 0 or position + count + _CARRY_MARGIN > F:
        raise ValueError("reference cannot certify this window")
    w = (ref.mantissa << position) & ((1 << F) - 1)
    low = w & ((1 << (F - count)) - 1)
    slack = ref.err_ulp << position
    if not (slack < 1 << (F - count - _CARRY_MARGIN) and slack <= low < (1 << (F - count)) - slack):
        raise ValueError("reference window on a carry boundary")
    return format(w >> (F - count), f"0{count}b")


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _single_line(out: str) -> str | None:
    lines = out.splitlines()
    return lines[0] if len(lines) == 1 else None


def check_digits(argv: list[str], out: str, ref: Ref) -> str | None:
    radix = int(_flag(argv, "--radix", "2"))
    pos = int(_flag(argv, "--pos"))
    count = int(_flag(argv, "--count"))
    line = _single_line(out)
    if line is None:
        return "wrong: expected one output line"
    f = _fields(line)
    if f.get("pos") != str(pos) or f.get("radix") != str(radix):
        return "wrong: position or radix not echoed"
    digits, certified = f.get("digits", ""), int(f.get("certified", "-1"))
    if radix == 16:
        if len(digits) != count // 4:
            return "wrong: digit count"
        bits, certified_bits = format(int(digits, 16), f"0{count}b"), 4 * certified
        bit_pos = 4 * pos
    else:
        bits, certified_bits, bit_pos = digits, certified, pos
    if len(bits) != count or set(bits) - {"0", "1"}:
        return "wrong: digit count"
    if certified_bits < count:
        return f"wrong: certified {certified} below the requested count"
    if bits[:certified_bits] != reference_bits(ref, bit_pos, count)[:certified_bits]:
        return "wrong: digits differ from the reference"
    return None


def _parse_decimal(text: str) -> tuple[int, int, int, bool]:
    """(sign, digits as an integer, fractional digit count, ends with ~)."""
    approx = text.endswith("~")
    text = text.rstrip("~")
    sign = -1 if text.startswith("-") else 1
    int_part, _, frac = text.lstrip("-").partition(".")
    digits = int_part + frac
    if not digits.isdigit():
        raise ValueError(f"not a decimal: {text[:40]!r}")
    n = 0
    for i in range(0, len(digits), 1000):  # under int()'s 4300-digit limit
        chunk = digits[i : i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return sign, n, len(frac), approx


def check_eval(argv: list[str], out: str, ref: Ref) -> str | None:
    bits = int(_flag(argv, "--bits"))
    requested = _flag(argv, "--digits")
    line = _single_line(out)
    if line is None:
        return "wrong: expected one output line"
    f = _fields(line)
    try:
        sign, num, k, approx = _parse_decimal(f["value"])
        err, F = int(f["err_ulp"]), int(f["frac_bits"])
    except (KeyError, ValueError):
        return "wrong: unparsable output"
    if F != bits:
        return "wrong: frac_bits differs from --bits"
    if err >= 1 << 32:
        return "wrong: error bound loses more than 32 bits"
    if requested is not None:
        if k != int(requested) or approx:
            return f"wrong: {k} digits certified of {requested} requested"
    elif k < (F - (2 * err + 1).bit_length()) * 30103 // 100000 - 6:
        return f"wrong: only {k} digits certified at {F} bits"
    # the print claims |x| in [num, num+1] * 10**-k; the reference claims
    # x in [m-e, m+e] * 2**-Fr.  Both hold, so the intervals must meet.
    m, e, Fr = sign * ref.mantissa, ref.err_ulp, ref.frac_bits
    scale = 10**k
    if (m + e) * scale < num << Fr or (m - e) * scale > (num + 1) << Fr:
        return "wrong: value outside the reference interval"
    return None


def check_verify(argv: list[str], out: str) -> str | None:
    bits = int(_flag(argv, "--bits"))
    kind = argv[1].removeprefix("--")
    subject = kind if kind == "corollary" else f"{kind}(t={_flag(argv, '--t')})"
    line = _single_line(out)
    if line is None or not line.startswith(f"REPORT {subject} "):
        return "wrong: expected one REPORT line for the check"
    f = _fields(line)
    if f.get("passed") != "true":
        return "wrong: passed=false"
    if int(f.get("bits", "-1")) < bits:
        return "wrong: bits below the requested count"
    return None


def check(record: dict, refs: dict[str, Ref]) -> str | None:
    """Check one request record (argv, exit code, stdout, error)."""
    if record["error"]:
        return f"error: {record['error']}"
    if record["rc"] != 0:
        return f"error: exit code {record['rc']}"
    argv, out = record["argv"], record["out"]
    if argv[0] == "digits":
        return check_digits(argv, out, refs[ref_name(argv)])
    if argv[0] == "eval":
        return check_eval(argv, out, refs[ref_name(argv)])
    return check_verify(argv, out)


def margin_bits(record: dict) -> int | None:
    """Reported bits minus requested bits of a passing verify request."""
    argv = record["argv"]
    if argv[0] != "verify" or record["rc"] != 0 or record["error"]:
        return None
    return int(_fields(record["out"]).get("bits", "0")) - int(_flag(argv, "--bits"))


if __name__ == "__main__":
    build_references()
