"""CLI surface: outputs, exit codes, determinism."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import bbplog.cli as cli
from bbplog.cli import main
from bbplog.errors import DomainError
from bbplog.family import family_coeffs, golden_constant
from bbplog.formula import emit_formula
from bbplog.presets import GOLDEN_TEXT, LOG2_TEXT
from bbplog.verify import verify_theorem

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


# -- digits -------------------------------------------------------------------


def test_digits_default_golden(capsys):
    code, out, _ = run(capsys, "digits", "--pos", "0", "--count", "32")
    assert code == 0
    oracle_bits = fixedreal_bits(golden_constant(256), 0, 32)
    assert out == f"pos=0 radix=2 digits={oracle_bits} certified=32\n"


def test_digits_hex_output(capsys):
    code, out, _ = run(
        capsys, "digits", "--pos", "100", "--count", "32", "--radix", "16"
    )
    assert code == 0
    expected = format(int(fixedreal_bits(golden_constant(1024), 400, 32), 2), "08x")
    assert out == f"pos=100 radix=16 digits={expected} certified=8\n"


def test_digits_count_zero_is_usage_error(capsys):
    code, err = run_usage_error(capsys, "digits", "--count", "0")
    assert code == 64
    assert "count" in err


def test_digits_hex_count_must_be_multiple_of_4(capsys):
    code, _ = run_usage_error(
        capsys, "digits", "--count", "31", "--radix", "16"
    )
    assert code == 64


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


def test_eval_malformed_file_exits_65(capsys, tmp_path):
    path = tmp_path / "broken.bbp"
    path.write_text("bbp 1\ns 1\nb 2\nl x\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--formula", str(path))
    assert code == 65
    assert "line 4" in err


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
