"""CLI surface: outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import subprocess
import sys

import pytest

import bbplog.cli as cli
import bbplog.formula as formula
import bbplog.spigot as spigot
from bbplog.cli import main
from bbplog.errors import DomainError
from bbplog.family import family_coeffs, golden_constant
from bbplog.formula import emit_formula
from bbplog.presets import GOLDEN_TEXT, LOG2_TEXT
from bbplog.spigot import DigitWindow
from bbplog.verify import GUARD_BITS, verify_theorem

from _oracles import fixedreal_bits


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv: str) -> tuple[int, str]:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.err


def forbid_sums(monkeypatch):
    """Make both engines' inner sums raise: a request that the caps refuse
    must exit before its engine sums any block."""

    def refuse(*args):
        raise AssertionError("a refused request summed a block")

    monkeypatch.setattr(spigot, "_partitioned_sum", refuse)
    monkeypatch.setattr(formula, "_block_fractions", refuse)


def stub_sums(monkeypatch) -> list[int]:
    """Stub both engines' inner sums so that they sum nothing, and return
    the list of the level counts they are asked for, one per engine call."""
    levels = []

    def head(plan, e0, width, k_end, parts):
        levels.append(k_end)
        return 0

    def groups(base, degree, length, terms, g, k0, k1):
        levels.append(k1)
        return itertools.repeat((0, 1))

    monkeypatch.setattr(spigot, "_partitioned_sum", head)
    monkeypatch.setattr(formula, "_block_fractions", groups)
    return levels


# -- digits -------------------------------------------------------------------


def test_digits_default_golden(capsys):
    code, out, _ = run(capsys, "digits", "--pos", "0", "--count", "32")
    assert code == 0
    oracle_bits = fixedreal_bits(golden_constant(256), 0, 32)
    assert out == f"pos=0 radix=2 digits={oracle_bits} certified=32\n"


def test_digits_hex_output(capsys):
    # the bits after 4 * pos, regrouped four to a hex digit
    for pos in (100, 10_000):
        code, out, _ = run(
            capsys, "digits", "--pos", str(pos), "--count", "32", "--radix", "16"
        )
        assert code == 0
        bits = fixedreal_bits(golden_constant(4 * pos + 256), 4 * pos, 32)
        assert out == f"pos={pos} radix=16 digits={int(bits, 2):08x} certified=8\n"


# the zero relation (8, -8, -4, -8, -2, -2, 1, 0) in base 16: the free
# parameter r of the pi formula in Bailey, Borwein & Plouffe, Math. Comp.
# 66 (1997); its value is 0, which no window at any width certifies
ZERO_TEXT = "bbp 1\ns 1\nb 16\nl 8\npre 1/1\nA 8 -8 -4 -8 -2 -2 1 0\n"


@pytest.mark.parametrize("radix, unit", [("2", 1), ("16", 4)])
def test_digits_prints_no_uncertified_digit_of_zero(capsys, tmp_path, radix, unit):
    path = tmp_path / "zero.bbp"
    path.write_text(ZERO_TEXT, encoding="utf-8")
    for bit_pos in (0, 1000, 100_000):
        pos = str(bit_pos // unit)
        code, out, _ = run(
            capsys, "digits", "--formula", str(path), "--pos", pos, "--count", "64", "--radix", radix
        )
        assert code == 0
        assert out == f"pos={pos} radix={radix} digits=~ certified=0\n"


def test_digits_stops_at_the_certified_prefix(capsys, monkeypatch):
    # 40 of 64 bits certified: 40 bits, or 10 hex digits, then ~
    bits = format(0x0123456789ABCDEF, "064b")
    monkeypatch.setattr(cli, "extract_bits", lambda plan, n, count, max_terms: DigitWindow(bits, 40))
    code, out, _ = run(capsys, "digits", "--count", "64")
    assert code == 0
    assert out == f"pos=0 radix=2 digits={bits[:40]}~ certified=40\n"
    code, out, _ = run(capsys, "digits", "--count", "64", "--radix", "16")
    assert code == 0
    assert out == "pos=0 radix=16 digits=0123456789~ certified=10\n"


def test_digits_count_zero_is_usage_error(capsys):
    # extract_bits rejects the count; main maps its ValidationError to 64
    code, out, err = run(capsys, "digits", "--count", "0")
    assert code == 64
    assert out == ""
    assert err == "bbplog: error: count: must be at least 1 bit\n"


@pytest.mark.parametrize("radix", ["2", "16"])
def test_digits_negative_pos_is_usage_error(capsys, radix):
    code, out, err = run(capsys, "digits", "--pos", "-1", "--count", "32", "--radix", radix)
    assert code == 64
    assert out == ""
    assert err == "bbplog: error: position: must be nonnegative\n"


def test_digits_hex_count_must_be_multiple_of_4(capsys):
    code, _ = run_usage_error(
        capsys, "digits", "--count", "31", "--radix", "16"
    )
    assert code == 64


@pytest.mark.parametrize("radix, unit", [("2", 1), ("16", 4)])
def test_digits_caps_exit_64_before_any_extraction(capsys, monkeypatch, radix, unit):
    # golden and log2 are within the head-term cap at the --pos and --count
    # caps: MAX_HEAD_TERMS is golden's count at the window's end there
    levels = stub_sums(monkeypatch)
    top = str(cli.MAX_POS_BITS // unit)
    for preset in ("golden", "log2"):
        code, out, _ = run(capsys, "digits", "--preset", preset, "--pos", top, "--count", str(cli.MAX_WINDOW_BITS), "--radix", radix)
        assert code == 0
        assert out.startswith(f"pos={top} radix={radix} digits=")
    assert levels == [1_500_208, 30_004_137]
    forbid_sums(monkeypatch)
    for flag, value in (("--pos", cli.MAX_POS_BITS // unit + 1), ("--count", cli.MAX_WINDOW_BITS + 4)):
        code, err = run_usage_error(capsys, "digits", flag, str(value), "--radix", radix)
        assert code == 64
        assert f"{flag} must be at most" in err


def test_each_request_counts_its_levels_once(capsys, monkeypatch):
    # the tail rule runs once per engine call, at the span that engine
    # sums to, and each cap is checked on that count, not on one of its own
    spans = []
    truncation = formula._truncation

    def counted(f, bits):
        spans.append(bits)
        return truncation(f, bits)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "bbplog" and getattr(module, "_truncation", None) is truncation:
            monkeypatch.setattr(module, "_truncation", counted)
    work = 256 + GUARD_BITS  # verify's default --bits
    for argv, expected in (
        (["eval", "--bits", "1000"], [1000]),
        (["digits", "--pos", "1000"], [1000 + 32 + 64]),
        (["digits", "--pos", "250", "--radix", "16"], [1000 + 32 + 64]),
        (["verify", "--theorem", "--t", "1,2"], [work, work]),
        (["verify", "--corollary"], [work, 32 + 64]),
    ):
        spans.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert spans == expected, argv


def test_formula_caps_exit_64_before_any_work(capsys, monkeypatch, tmp_path):
    # base-2 files of ones: without the caps, 4000 of them take 26 s at
    # --pos 1000, and 24 near the --pos cap make twenty times golden's
    # head terms there
    files = {}
    for ones in (4000, 24):
        path = tmp_path / f"ones{ones}.bbp"
        path.write_text(f"bbp 1\ns 1\nb 2\nl {ones}\npre 1/1\nA{' 1' * ones}\n", encoding="utf-8")
        files[ones] = ("--formula", str(path))
    forbid_sums(monkeypatch)
    for argv in (["digits", "--pos", "1000", *files[4000]], ["eval", "--bits", "64", *files[4000]]):
        code, err = run_usage_error(capsys, *argv)
        assert code == 64
        assert "4000 nonzero coefficients" in err
    # the 24-term file's last position and precision within the caps:
    # formula._truncation gives 1 500 209 levels at the window's end,
    # 1 500 132 + 32 + 64 bits, and 15 001 at 15 013 bits, 24 terms each;
    # one bit more takes a level more
    last_pos, last_bits = 1_500_132, 15_013
    for argv, message in (
        (["digits", "--pos", "29000000", *files[24]], "position 29000000 with count 32 takes 696001752 terms"),
        (["digits", "--pos", str(last_pos + 1), *files[24]], "position 1500133 with count 32 takes 36005040 terms"),
        (["eval", "--bits", str(last_bits + 1), *files[24]], "frac_bits 15014 takes 360048 terms"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert message in err
    # log2 at the --pos cap, golden and log2 at the --bits cap, and the
    # 24-term file at its last position and precision are within the caps
    levels = stub_sums(monkeypatch)
    within = (
        ["digits", "--pos", str(cli.MAX_POS_BITS), "--preset", "log2"],
        ["digits", "--pos", str(last_pos), *files[24]],
        ["eval", "--bits", str(cli.MAX_BITS)],
        ["eval", "--bits", str(cli.MAX_BITS), "--preset", "log2"],
        ["eval", "--bits", str(last_bits), *files[24]],
    )
    for argv in within:
        assert run(capsys, *argv)[0] == 0, argv
    assert levels == [30_000_073, 1_500_209, 15_001, 299_983, 15_001]


def test_eval_term_cap_weights_the_degree(capsys, monkeypatch, tmp_path):
    # a term's cost grows with the degree: a degree-128 copy of golden took
    # 6.4 s at --bits 20 000 (golden: 17 ms) before the cap counted it
    forbid_sums(monkeypatch)
    deep = tmp_path / "golden128.bbp"
    deep.write_text(GOLDEN_TEXT.replace("\ns 1\n", "\ns 128\n"), encoding="utf-8")
    code, out, err = run(capsys, "eval", "--bits", "300000", "--formula", str(deep))
    assert (code, out) == (64, "")
    assert "frac_bits 300000 takes 45708288 terms with this formula (each counted once per degree)" in err
    # formula._truncation gives it 117 levels at --bits 3 876 and 118 a
    # bit later, of 24 terms counted 128 times each
    code, out, err = run(capsys, "eval", "--bits", "3877", "--formula", str(deep))
    assert (code, out) == (64, "")
    assert "frac_bits 3877 takes 362496 terms" in err
    levels = stub_sums(monkeypatch)
    assert run(capsys, "eval", "--bits", "3876", "--formula", str(deep))[0] == 0
    # degree 1 at the cap: golden, log2 and family files
    within = [["--preset", "golden"], ["--preset", "log2"]]
    for t in (2, -3, 9):
        path = tmp_path / f"t{t}.bbp"
        path.write_text(emit_formula(family_coeffs(t).formula), encoding="utf-8")
        within.append(["--formula", str(path)])
    for flags in within:
        assert run(capsys, "eval", "--bits", str(cli.MAX_BITS), *flags)[0] == 0, flags
    assert levels[0] == 117 and len(levels) == 1 + len(within)


@pytest.mark.parametrize("bits", [64, 1000, 20_000])
def test_term_cap_counts_the_terms_eval_sums(capsys, monkeypatch, tmp_path, bits):
    # the eval cap's count is eval_P's levels times the nonzero
    # coefficients times the degree: eval_P checks it on the count it
    # sums.  A cap of 0 refuses every formula and reports the count
    texts = {"golden": GOLDEN_TEXT, "log2": LOG2_TEXT, "golden3": GOLDEN_TEXT.replace("\ns 1\n", "\ns 3\n")}
    texts["base3"] = f"bbp 1\ns 1\nb 3\nl 24\npre 1/1\nA{' 1' * 24}\n"
    for t in (2, -3, 9):
        texts[f"t{t}"] = emit_formula(family_coeffs(t).formula)
    expected = {}
    for name, text in texts.items():
        f = formula.parse_formula(text)
        expected[name] = formula.eval_P(f, bits).terms_used * sum(1 for a in f.coeffs if a) * f.degree
    monkeypatch.setattr(cli, "MAX_EVAL_TERMS", 0)
    forbid_sums(monkeypatch)
    for name, text in texts.items():
        path = tmp_path / f"{name}.bbp"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "eval", "--bits", str(bits), "--formula", str(path))
        assert (code, out) == (64, "")
        assert f"frac_bits {bits} takes {expected[name]} terms" in err, name


def test_eval_term_cap_counts_the_prefactor_bits(capsys, monkeypatch, tmp_path):
    # eval's K grows with the bits of max(|p|, q) * max|a_j| over q for the
    # prefactor p/q: the base-2 file of 128 ones with prefactor 10**4299
    # ran 7.9 s in eval_P at --bits 64 before the cap counted them
    def ones(name, pre):
        path = tmp_path / f"{name}.bbp"
        path.write_text(f"bbp 1\ns 1\nb 2\nl 128\npre {pre}\nA{' 1' * 128}\n", encoding="utf-8")
        return str(path)

    # at --bits 64, p = 2**2758 makes formula._truncation's 2 812 levels
    # of 128 terms, within 360 024; one bit more of p makes 2 813, and a
    # large q adds no levels
    forbid_sums(monkeypatch)
    for name, pre, message in (
        ("e4299", f"{10**4299}/1", "frac_bits 64 takes 1834624 terms"),
        ("p2759", f"{2**2759}/1", "frac_bits 64 takes 360064 terms"),
    ):
        code, out, err = run(capsys, "eval", "--bits", "64", "--formula", ones(name, pre))
        assert (code, out) == (64, "")
        assert message in err
    levels = stub_sums(monkeypatch)
    for name, pre in (("p2758", f"{2**2758}/1"), ("q3000", f"1/{2**3000}")):
        assert run(capsys, "eval", "--bits", "64", "--formula", ones(name, pre))[0] == 0, name
    assert levels == [2812, 60]


def test_digits_head_cap_counts_the_prefactor_bits(capsys, monkeypatch, tmp_path):
    # the spigot's k_end grows with p as eval's K does: the base-2 file of
    # 128 ones with prefactor 10**4299 has formula._truncation's 281 289
    # levels of 128 terms, within 36 005 016, at the end of a 32-bit
    # window at --pos 266 929, and one more a position later; with
    # prefactor 1/2**3000 it has them up to --pos 281 210, as a large q
    # adds no levels
    def ones(name, pre):
        path = tmp_path / f"{name}.bbp"
        path.write_text(f"bbp 1\ns 1\nb 2\nl 128\npre {pre}\nA{' 1' * 128}\n", encoding="utf-8")
        return str(path)

    big_p, big_q = ones("e4299", f"{10**4299}/1"), ones("q3000", f"1/{2**3000}")
    forbid_sums(monkeypatch)
    for path, pos in ((big_p, 266_930), (big_q, 281_211)):
        code, out, err = run(capsys, "digits", "--formula", path, "--pos", str(pos))
        assert (code, out) == (64, "")
        assert f"position {pos} with count 32 takes 36005120 terms" in err
    levels = stub_sums(monkeypatch)
    for path, pos in ((big_p, 266_929), (big_q, 281_210)):
        assert run(capsys, "digits", "--formula", path, "--pos", str(pos))[0] == 0, path
    assert levels == [281_289, 281_289]


def test_digits_caps_the_nonzero_coefficients_times_the_degree(capsys, monkeypatch, tmp_path):
    # a block's modulus holds nonzero * s factors per level: a copy of
    # golden of degree 5 (120 factors) is within the caps, one of degree 6
    # (144) exits 64 before any extraction
    paths = {}
    for degree in (5, 6):
        paths[degree] = tmp_path / f"golden{degree}.bbp"
        paths[degree].write_text(GOLDEN_TEXT.replace("\ns 1\n", f"\ns {degree}\n"), encoding="utf-8")
    forbid_sums(monkeypatch)
    code, err = run_usage_error(capsys, "digits", "--formula", str(paths[6]))
    assert code == 64
    assert (
        "bbplog digits: error: the formula has 144 nonzero coefficients counted once"
        f" per degree (degree 6); at most {cli.MAX_NONZERO} are allowed\n"
    ) in err
    # formula._truncation gives 300 041 levels of 24 terms of degree 5 at
    # the end of a 32-bit window at --pos 6 000 817, and one more a
    # position later
    last_pos = 6_000_817
    code, out, err = run(capsys, "digits", "--formula", str(paths[5]), "--pos", str(last_pos + 1))
    assert (code, out) == (64, "")
    assert "position 6000818 with count 32 takes 36005040 terms with this formula (each counted once per degree)" in err
    levels = stub_sums(monkeypatch)
    for pos in (0, last_pos):
        assert run(capsys, "digits", "--formula", str(paths[5]), "--pos", str(pos))[0] == 0
    assert levels[1] == 300_041 and len(levels) == 2


def test_digits_degree_above_max_exits_2_as_eval_does(capsys, tmp_path):
    # at any flag value: the term caps, which weigh the degree, must not
    # report such a formula first, as they did for eval at --bits 300000
    path = tmp_path / "deg129.bbp"
    path.write_text(f"bbp 1\ns {formula.MAX_DEGREE + 1}\nb 2\nl 1\npre 1/1\nA 1\n", encoding="utf-8")
    for command, word, flags in (
        ("digits", "extraction", ()),
        ("digits", "extraction", ("--pos", "30000000")),
        ("eval", "eval", ()),
        ("eval", "eval", ("--bits", "300000")),
    ):
        code, out, err = run(capsys, command, "--formula", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err == (
            f"bbplog: error: degree {formula.MAX_DEGREE + 1} not supported;"
            f" {word} needs degree <= {formula.MAX_DEGREE}\n"
        )


def test_handler_usage_error_shows_its_subcommand(capsys, tmp_path):
    # a cap a handler checks is reported with the subcommand's usage line
    path = tmp_path / "wide.bbp"
    path.write_text(f"bbp 1\ns 1\nb 2\nl 4000\npre 1/1\nA{' 1' * 4000}\n", encoding="utf-8")
    code, err = run_usage_error(capsys, "digits", "--formula", str(path), "--pos", "1000")
    assert code == 64
    assert err.startswith("usage: bbplog digits ")
    assert "bbplog digits: error: the formula has 4000 nonzero coefficients" in err


# BBP's pi formula, pi = P(1, 16, 8, (4, 0, 0, -2, -1, -1, 0, 0)): its
# hex digits are published, so they check digits from outside the code
PI_TEXT = "bbp 1\ns 1\nb 16\nl 8\npre 1/1\nA 4 0 0 -2 -1 -1 0 0\n"


@pytest.mark.parametrize("pos, digits", [
    ("0", "243f6a8885a308d3"),  # pi = 3.243f6a8885a308d3...
    # the position-10**6 entry in the table of Bailey, Borwein & Plouffe,
    # Math. Comp. 66 (1997): the table counts hex digits from 1 after the
    # point, --pos from 0, so its position 10**6 is --pos 999999
    pytest.param("999999", "26c65e52cb4593", marks=pytest.mark.slow),
])
def test_digits_of_pi_match_the_published_hex_digits(capsys, tmp_path, pos, digits):
    path = tmp_path / "pi.bbp"
    path.write_text(PI_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "digits", "--formula", str(path), "--radix", "16", "--pos", pos, "--count", "64")
    assert code == 0
    assert re.fullmatch(f"pos={pos} radix=16 digits={digits}[0-9a-f]* certified=16\n", out)


def test_digits_unsupported_formula_exits_2(capsys, tmp_path):
    path = tmp_path / "base5.bbp"
    path.write_text("bbp 1\ns 1\nb 5\nl 1\npre 1/1\nA 1\n", encoding="utf-8")
    code, out, err = run(capsys, "digits", "--formula", str(path))
    assert code == 2
    assert out == ""
    assert "base" in err


def test_digits_byte_identical_across_runs(capsys):
    args = ("digits", "--pos", "777", "--count", "48")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


# -- family -------------------------------------------------------------------


def test_family_corollary_matches_shipped_preset(capsys):
    code, out, _ = run(capsys, "family", "--t", "1", "--corollary")
    assert code == 0
    assert out == GOLDEN_TEXT


def test_family_t2_valid_file(capsys):
    code, out, _ = run(capsys, "family", "--t", "2")
    assert code == 0
    assert "b 1152921504606846976" in out  # 2**20 * 2**40
    assert "l 40" in out


def test_family_t_zero_exits_2(capsys):
    code, out, err = run(capsys, "family", "--t", "0")
    assert code == 2
    assert "nonzero" in err


def test_family_writes_output_file(capsys, tmp_path):
    path = tmp_path / "t3.bbp"
    code, out, _ = run(capsys, "family", "--t", "3", "-o", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("bbp 1\ns 1\n")


def test_family_unwritable_output_exits_64(capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "f.bbp"
    code, out, err = run(capsys, "family", "--t", "2", "-o", str(path))
    assert code == 64
    assert out == ""
    assert err.startswith(f"bbplog: error: cannot write {path}: ")
    assert "Traceback" not in err


def test_family_corollary_requires_t1(capsys):
    code, _ = run_usage_error(capsys, "family", "--t", "2", "--corollary")
    assert code == 64


def test_family_integer_too_long_for_file_format_exits_2(capsys):
    # base = 2**20 * t**40 has more digits than int() and str() accept
    code, out, err = run(capsys, "family", "--t", "1" + "0" * 120)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "too long" in err


# -- verify -------------------------------------------------------------------


def test_verify_theorem_range(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "--t", "1..3", "--bits", "128")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("REPORT theorem(t=") for line in lines)
    assert all("passed=true" in line for line in lines)


def test_verify_corollary_and_decomposition(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--corollary", "--decomposition", "--t", "1,-2", "--bits", "100",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # one corollary + two decompositions


def test_verify_requires_a_check(capsys):
    code, _ = run_usage_error(capsys, "verify")
    assert code == 64


def test_verify_bad_t_range(capsys):
    code, _ = run_usage_error(capsys, "verify", "--theorem", "--t", "3..1")
    assert code == 64


def test_verify_t_zero_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "--t", "0", "--bits", "64")
    assert code == 2


@pytest.mark.parametrize("check", ["--theorem", "--corollary", "--decomposition"])
def test_verify_bits_below_1_is_usage_error(capsys, check):
    # the verify_* functions reject the target; main maps their
    # ValidationError to 64
    code, out, err = run(capsys, "verify", check, "--bits", "0")
    assert code == 64
    assert out == ""
    assert err == "bbplog: error: target_bits: must be at least 1\n"


def test_verify_theorem_with_huge_t(capsys):
    # u(t)'s numerator, put into the formula label, passes the int/str limit
    t = "1" + "0" * 1500
    code, out, _ = run(capsys, "verify", "--theorem", "--t", t, "--bits", "64")
    assert code == 0
    assert out.startswith(f"REPORT theorem(t={t}) passed=true")


def test_verify_streams_reports_before_a_failure(capsys, monkeypatch):
    calls = []

    def theorem(t, bits):
        calls.append(t)
        if len(calls) == 3:
            raise DomainError("third check fails")
        return verify_theorem(t, bits)

    monkeypatch.setattr(cli, "verify_theorem", theorem)
    code, out, err = run(
        capsys, "verify", "--theorem", "--t", "1..1000000", "--bits", "64"
    )
    assert code == 2
    assert calls == [1, 2, 3]
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("REPORT theorem(t=") for line in lines)


def test_verify_reader_leaving_early_exits_1_without_traceback():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    argv = ["verify", "--theorem", "--t", "1..100000", "--bits", "64"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bbplog", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b"REPORT theorem(t=1)")
    proc.stdout.close()  # like `| head -1`
    try:
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
    assert b"Traceback" not in proc.stderr.read()
    proc.stderr.close()


@pytest.mark.parametrize(
    "argv", [["eval", "--preset", "log2"], ["verify", "--theorem", "--corollary"]]
)
def test_bits_above_the_cap_exit_64_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("the cap must be checked before any evaluation")

    for name in ("eval_P", "verify_theorem", "verify_corollary", "verify_decomposition"):
        monkeypatch.setattr(cli, name, refuse)
    code, err = run_usage_error(capsys, *argv, "--bits", str(cli.MAX_BITS + 1))
    assert code == 64
    assert "--bits must be in" in err and str(cli.MAX_BITS) in err


# -- eval ---------------------------------------------------------------------


# SHA-256 of eval's stdout, every certified digit printed, before eval_P
# stepped its block fractions (golden at 1 088 bits, t = 50 and t = -17:
# before eval_P folded short ranges group by group); (formula, --bits)
# -> digest
EVAL_DIGESTS = {
    ("golden", 1088): "dad63a24570711386077dd8e34e57b92c99b6d1706c898100d543eeb717bb4e6",
    ("golden", 4000): "39ad9abf747d5a5a9b17c234fb586c8d7d8d3ef388c8b5b241dc311624473bc2",
    ("golden", 20000): "5a0d8d18dafadd54f29ef951183b09197f90eef68a873f1a7f1d8c938760772c",
    ("log2", 4000): "d96e0274f85d040ff5bbf90d6bf3f42e67248841773a63c32cc460d0db373934",
    ("log2", 20000): "1b4e0efebf929aac3b42783328e410c7a8825b76e0a7e3c1d65e9861ff3cb012",
    ("t=2", 4000): "28187eedd646396c26475b0b23e85f094232e8340aa8bbd2eb02727009278fcc",
    ("t=2", 20000): "cc616196cd528ac5c4e135afb770dc45fd44af8f5c74b7ad6464af059153a2fb",
    ("t=-3", 4000): "1ae0f659a00049a30fc944c4f3b534343dd0b8485df259f9d117e569325b3f04",
    ("t=-3", 20000): "2055d35e1bd1db373ade35f719e390f932a3d6815de66ede5fa9565767712f1b",
    ("t=9", 4000): "835944ff5ea8015a3471d6cfd199028284e175acb33c39e1c7d1236f264b5ae0",
    ("t=9", 20000): "d3bb60252e1f5be514a7acc4cf7bccc628bec12cac7e71f38f0ed45821d4b3bf",
    ("t=50", 4000): "65fa14a6fea2c4b40525c5790bd077c7c1543d5d6e38be794d2db58031a0fd24",
    ("t=50", 8088): "a7b4eb6a2c5262942f71e21b735e09b189e15b8d11623e00cc9e7c440d2eed1a",
    ("t=-17", 8088): "5e37b9856335095633f99f5a66e260845acc144f283328e8b77586e961744583",
}


def test_eval_stdout_matches_pinned_digests(capsys, tmp_path):
    flags = {"golden": ["--preset", "golden"], "log2": ["--preset", "log2"]}
    for t in (2, -3, 9, 50, -17):
        path = tmp_path / f"t{t}.bbp"
        path.write_text(emit_formula(family_coeffs(t).formula), encoding="utf-8")
        flags[f"t={t}"] = ["--formula", str(path)]
    for (name, bits), digest in EVAL_DIGESTS.items():
        code, out, _ = run(capsys, "eval", "--bits", str(bits), *flags[name])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, bits)


@pytest.mark.slow
def test_eval_stdout_at_the_cap_matches_its_pinned_digest(capsys):
    # golden at --bits 300000, 90 307 certified fraction digits, recorded before
    # FixedReal.decimal's digit search moved into numerics._certified_digits
    code, out, _ = run(capsys, "eval", "--bits", "300000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "05f33c00879043524ef64a76d788d0153485618956f9787d7976cee7b43205ac"


def test_eval_bits_below_64_is_usage_error(capsys):
    # eval_P rejects the width before it counts the levels for its term
    # cap; main maps its ValidationError to 64
    for bits in ("63", "0", "-1"):
        code, out, err = run(capsys, "eval", "--preset", "log2", "--bits", bits)
        assert code == 64
        assert out == ""
        assert err == "bbplog: error: frac_bits: must be >= 64\n"


def test_eval_log2_preset(capsys):
    code, out, _ = run(capsys, "eval", "--preset", "log2", "--bits", "128")
    assert code == 0
    assert out.startswith("value=1.386294361119890618834464242916")
    assert "terms=" in out


def test_eval_golden_preset_matches_oracle_decimals(capsys):
    code, out, _ = run(capsys, "eval", "--preset", "golden", "--bits", "128")
    assert code == 0
    value = out.split()[0].removeprefix("value=")
    oracle = golden_constant(192).decimal(30)
    assert value.rstrip("~")[:20] == oracle[:20]


def test_eval_oversized_digits_prints_the_certified_line(capsys):
    # a million requested digits at 64 bits: only ~19 can be certified,
    # and computing the rest must not make the print slow
    _, short, _ = run(capsys, "eval", "--preset", "golden", "--bits", "64", "--digits", "100")
    code, out, _ = run(
        capsys, "eval", "--preset", "golden", "--bits", "64", "--digits", "1000000"
    )
    assert code == 0
    assert out == short


# (certified fraction digits, err_ulp) that eval printed with the former
# per-term evaluator (one floor division per nonzero term); the per-level
# fraction must never print fewer digits or a larger bound
PER_TERM_EVAL = {
    "golden": {64: (18, 3), 1000: (299, 3), 4000: (1203, 3)},
    "log2": {64: (17, 5), 1000: (299, 5), 4000: (1202, 5)},
    2: {64: (18, 3), 1000: (299, 3), 4000: (1203, 3)},
    -2: {64: (18, 3), 1000: (299, 3), 4000: (1202, 3)},
    7: {64: (17, 3), 1000: (300, 3), 4000: (1202, 3)},
    -9: {64: (18, 3), 1000: (300, 3), 4000: (1203, 3)},
    50: {64: (18, 3), 1000: (296, 3), 4000: (1202, 3)},
}


@pytest.mark.parametrize("name", list(PER_TERM_EVAL))
def test_eval_prints_no_fewer_digits_than_per_term_evaluator(capsys, tmp_path, name):
    if isinstance(name, int):
        path = tmp_path / f"t{name}.bbp"
        path.write_text(emit_formula(family_coeffs(name).formula), encoding="utf-8")
        source = ["--formula", str(path)]
    else:
        source = ["--preset", name]
    for bits, (digits, err_ulp) in PER_TERM_EVAL[name].items():
        code, out, _ = run(capsys, "eval", *source, "--bits", str(bits))
        assert code == 0
        fields = dict(kv.split("=", 1) for kv in out.split())
        assert len(fields["value"].rstrip("~").partition(".")[2]) >= digits
        assert int(fields["err_ulp"]) <= err_ulp


def test_eval_value_with_undefended_integer_part_prints_tilde(capsys, tmp_path):
    # sum_k 2**-k / (k+1)**100 = 1 + 2**-101 + ..., and a 2-ulp bound
    # at 64 bits reaches below 1: not even the integer part is defended
    path = tmp_path / "deg100.bbp"
    path.write_text("bbp 1\ns 100\nb 2\nl 1\npre 1/1\nA 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--formula", str(path), "--bits", "64")
    assert code == 0
    assert out.startswith("value=~ err_ulp=2 ")


def test_eval_degree_above_max_exits_2_before_any_power(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("the degree must be checked before any power is formed")

    monkeypatch.setattr(formula, "_truncation", refuse)
    path = tmp_path / "huge.bbp"
    path.write_text("bbp 1\ns 1000000000000\nb 2\nl 1\npre 1/1\nA 1\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--formula", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "bbplog: error: degree 1000000000000 not supported;"
        f" eval needs degree <= {formula.MAX_DEGREE}\n"
    )


def test_eval_malformed_file_exits_65(capsys, tmp_path):
    path = tmp_path / "broken.bbp"
    path.write_text("bbp 1\ns 1\nb 2\nl x\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--formula", str(path))
    assert code == 65
    assert "line 4" in err


def test_eval_digits_zero_is_usage_error(capsys):
    code, err = run_usage_error(capsys, "eval", "--digits", "0")
    assert code == 64
    assert err.endswith("bbplog eval: error: --digits must be positive\n")


# a formula file's input errors that no other test reaches, each with the
# message it must print
PREAMBLE = "bbp 1\ns 1\nb 2\n"
BAD_FILES = {
    "pre-den-zero": (PREAMBLE + "l 1\npre 1/0\nA 1\n", "line 5: prefactor denominator must be positive"),
    "pre-den-negative": (PREAMBLE + "l 1\npre 1/-3\nA 1\n", "line 5: prefactor denominator must be positive"),
    "trailing-line": (PREAMBLE + "l 1\npre 1/1\nA 1\nlabel x\n\nmore\n", "line 9: unexpected trailing line 'more'"),
    "length-zero": (PREAMBLE + "l 0\npre 1/1\nA \n", "line 4: length: must be a positive integer"),
    "base-one": ("bbp 1\ns 1\nb 1\nl 1\npre 1/1\nA 1\n", "line 3: base: must be >= 2"),
    "pre-zero": (PREAMBLE + "l 1\npre 0/1\nA 1\n", "line 5: prefactor: must be nonzero"),
    "coeffs-short": (PREAMBLE + "l 3\npre 1/1\nA 1 2\n", "line 6: coeffs: expected 3 entries, got 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
@pytest.mark.parametrize("command", ["eval", "digits"])
def test_formula_file_input_errors_exit_65(capsys, tmp_path, command, case):
    text, message = BAD_FILES[case]
    path = tmp_path / "bad.bbp"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--formula", str(path))
    assert code == 65
    assert out == ""
    assert err == f"bbplog: error: {path}: {message}\n"


def test_eval_missing_file_exits_65(capsys):
    code, _, err = run(capsys, "eval", "--formula", "/nonexistent/file.bbp")
    assert code == 65


@pytest.mark.parametrize("command", ["eval", "digits"])
def test_non_utf8_formula_file_exits_65(capsys, tmp_path, command):
    path = tmp_path / "bad.bbp"
    path.write_bytes(b"bbp 1\ns 1\nb \xff\xfe\n")
    code, out, err = run(capsys, command, "--formula", str(path))
    assert code == 65
    assert out == ""
    assert err.startswith(f"bbplog: error: cannot read {path}: ")
    assert err.count("\n") == 1


def test_eval_preset_and_formula_mutually_exclusive(capsys, tmp_path):
    path = tmp_path / "x.bbp"
    path.write_text(LOG2_TEXT, encoding="utf-8")
    code, _ = run_usage_error(
        capsys, "eval", "--preset", "log2", "--formula", str(path)
    )
    assert code == 64


def test_eval_formula_file_round_trip(capsys, tmp_path):
    path = tmp_path / "log2.bbp"
    path.write_text(LOG2_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--formula", str(path), "--bits", "96")
    assert code == 0
    assert out.startswith("value=1.3862943611")


# -- one process, many requests -------------------------------------------------


def test_requests_in_one_process_match_fresh_processes(capsys):
    # main reuses one parser per process; a request after a usage error
    # must still parse as it would in a fresh process
    requests = [
        ["digits", "--pos", "1000", "--count", "32"],
        ["digits", "--bogus"],
        ["eval", "--preset", "log2", "--bits", "128"],
        ["verify", "--theorem", "--t", "1..2", "--bits", "64"],
    ]

    def strip_ms(out):  # verify lines carry wall-clock milliseconds
        return re.sub(r" ms=\d+", "", out)

    src = os.path.dirname(os.path.dirname(cli.__file__))
    in_process, fresh = [], []
    for argv in requests:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, strip_ms(captured.out), captured.err))
        proc = subprocess.run(
            [sys.executable, "-m", "bbplog", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        fresh.append((proc.returncode, strip_ms(proc.stdout), proc.stderr))
    assert [code for code, _, _ in in_process] == [0, 64, 0, 0]
    assert in_process == fresh
