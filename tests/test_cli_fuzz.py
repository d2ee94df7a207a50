"""Property-based fuzzing of the formula file format and the CLI.

Every run is derandomized, so a failure reproduces on every machine.
Sizes stay small (--pos <= 10**4, --bits <= 2000, short --t ranges) so
that each run finishes: --t ranges have no cap and run for as long as
they ask, and at the caps on --pos (cli.MAX_POS_BITS) and --bits
(cli.MAX_BITS) one request still takes seconds to a minute.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bbplog.cli import main  # noqa: E402
from bbplog.errors import ValidationError  # noqa: E402
from bbplog.formula import BbpFormula, emit_formula, parse_formula  # noqa: E402
from bbplog.presets import GOLDEN_TEXT, LOG2_TEXT  # noqa: E402

EXIT_CODES = {0, 1, 2, 64, 65}

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

_labels = st.text(max_size=20).filter(
    lambda s: s == "" or s.splitlines() == [s]
)


@st.composite
def formulas(draw) -> BbpFormula:
    length = draw(st.integers(1, 6))
    coeffs = draw(
        st.lists(st.integers(-(10**30), 10**30), min_size=length, max_size=length)
        .filter(any)
    )
    num = draw(st.integers(-(10**20), 10**20).filter(bool))
    return BbpFormula(
        degree=draw(st.integers(1, 4)),
        base=draw(st.integers(2, 2**64)),
        length=length,
        coeffs=tuple(coeffs),
        prefactor=Fraction(num, draw(st.integers(1, 10**20))),
        label=draw(_labels),
    )


@FUZZ
@given(formulas())
def test_emit_parse_round_trip(f):
    text = emit_formula(f)
    assert parse_formula(text) == f
    assert emit_formula(parse_formula(text)) == text


@FUZZ
@given(st.text(max_size=20))
def test_label_with_a_line_break_is_rejected_or_round_trips(label):
    try:
        f = BbpFormula(1, 2, 1, (1,), Fraction(1), label=label)
    except ValidationError:
        return
    assert parse_formula(emit_formula(f)).label == label


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, err.getvalue()


def _assert_clean_exit(argv: list[str]) -> None:
    code, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err


# -- mutated formula files --------------------------------------------------

_SEEDS = [GOLDEN_TEXT.encode(), LOG2_TEXT.encode(), b"bbp 1\ns 2\nb 16\nl 2\npre -3/7\nA 5 -1\n"]
_tokens = st.one_of(
    st.integers(-(10**30), 10**30).map(lambda n: str(n).encode()),
    st.sampled_from([b"", b"0", b"-", b"/", b"1/0", b"x", b"bbp", b"label", b"A", b"  "]),
)


@st.composite
def mutated_files(draw) -> bytes:
    lines = draw(st.sampled_from(_SEEDS)).split(b"\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "dup", "token", "bytes", "cut"]))
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "token":
            words = lines[i].split(b" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(_tokens)
            lines[i] = b" ".join(words)
        elif kind == "bytes":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.binary(max_size=4)) + lines[i][at:]
        elif kind == "cut":
            lines = lines[: i + 1]
    return b"\n".join(lines)


@FUZZ
@given(
    mutated_files(),
    st.sampled_from(["eval", "digits"]),
    st.integers(64, 2000),
    st.integers(0, 10**4),
)
def test_mutated_formula_file_exits_cleanly(data, command, bits, pos):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.bbp")
        with open(path, "wb") as fh:
            fh.write(data)
        if command == "eval":
            argv = ["eval", "--formula", path, "--bits", str(bits)]
        else:
            argv = ["digits", "--formula", path, "--pos", str(pos)]
        _assert_clean_exit(argv)


# -- argv ---------------------------------------------------------------------

_junk = st.sampled_from(
    ["", "x", "-", "--", "-h", "nope", "1e3", "0x10", " 7", "1" + "0" * 5000]
)
_t_item = st.one_of(
    st.integers(-50, 50).map(str),
    st.tuples(st.integers(-50, 50), st.integers(-3, 3)).map(
        lambda p: f"{p[0]}..{p[0] + p[1]}"
    ),
)
_values = {
    "--pos": st.integers(-5, 10**4).map(str),
    "--count": st.integers(-1, 70).map(str),
    "--radix": st.sampled_from(["2", "16", "10"]),
    "--bits": st.integers(-5, 2000).map(str),
    "--digits": st.integers(-2, 700).map(str),
    "--preset": st.sampled_from(["golden", "log2", "pi"]),
    "--formula": st.just("/nonexistent/fuzz.bbp"),
}
_huge_t = st.sampled_from(["1" + "0" * 120, "1" + "0" * 1500, "1" + "0" * 5000])
_t_values = {
    "family": st.one_of(st.integers(-50, 50).map(str), _huge_t),
    "verify": st.one_of(st.lists(_t_item, min_size=1, max_size=3).map(",".join), _huge_t),
}
_switches = ["--theorem", "--corollary", "--decomposition"]
_flags = {
    "digits": ["--pos", "--count", "--radix", "--preset", "--formula"],
    "family": ["--t", "--corollary"],
    "verify": ["--t", "--bits", *_switches],
    "eval": ["--bits", "--digits", "--preset", "--formula"],
}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_flags)))
    argv = [command]
    if command in _t_values:
        values = {**_values, "--t": _t_values[command]}
        argv += ["--t", draw(values["--t"])]
    else:
        values = _values
    if command == "verify":
        argv.append(draw(st.sampled_from(_switches)))
    for _ in range(draw(st.integers(0, 4))):
        choice = draw(st.sampled_from([*_flags[command], "junk"]))
        if choice == "junk":
            argv.append(draw(_junk))
        elif choice in values:
            value = st.one_of(values[choice], values[choice], _junk)
            argv += [choice, draw(value)]
        else:
            argv.append(choice)
    return argv


@FUZZ
@given(argvs())
def test_argv_exits_cleanly(argv):
    _assert_clean_exit(argv)
