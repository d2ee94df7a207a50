"""Self-tests of the benchmark's request generator and output checker.

    python3 -m pytest -q perfbench

Runs in seconds: references here are small-precision ones computed on
the spot, not the cached 200 000-bit ones.
"""

from __future__ import annotations

import os
import re
import sys

import pytest

import oracle
import workloads
from worker import _call

sys.path.insert(0, os.path.join(oracle.ROOT, "src"))
from bbplog.cli import main  # noqa: E402
from bbplog.family import golden_constant  # noqa: E402


@pytest.fixture(scope="module")
def golden_ref() -> oracle.Ref:
    x = golden_constant(2000)
    return oracle.Ref(x.mantissa, x.frac_bits, x.err_ulp)


def _record(argv: list[str]) -> dict:
    rc, out, error = _call(main, argv)
    return {"argv": argv, "rc": rc, "out": out, "error": error, "s": 0.0}


def _refs(ref: oracle.Ref) -> dict[str, oracle.Ref]:
    return {"golden": ref}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert workloads.requests(workload, 7, 5) == workloads.requests(workload, 7, 5)
    assert workloads.requests(workload, 7, 5) != workloads.requests(workload, 8, 5)


def test_verify_bits_are_distinct():
    bits = [int(r[r.index("--bits") + 1]) for r in workloads.requests("verify-mix", 3, 20)]
    assert len(bits) == len(set(bits))
    assert all(workloads.VERIFY_BITS[0] <= b <= workloads.VERIFY_BITS[1] for b in bits)


@pytest.mark.parametrize("radix", ["2", "16"])
def test_digits_checker_counts_corruption(golden_ref, radix):
    rec = _record(["digits", "--radix", radix, "--pos", "300", "--count", "64"])
    assert oracle.check(rec, _refs(golden_ref)) is None

    flipped = dict(rec)
    digits = re.search(r"digits=(\S+)", rec["out"]).group(1)
    last = "0" if digits[-1] != "0" else "1"
    flipped["out"] = rec["out"].replace(f"digits={digits}", f"digits={digits[:-1]}{last}")
    assert oracle.check(flipped, _refs(golden_ref)).startswith("wrong")

    lowered = dict(rec)
    lowered["out"] = re.sub(r"certified=\d+", "certified=3", rec["out"])
    assert oracle.check(lowered, _refs(golden_ref)).startswith("wrong")


def test_eval_checker_counts_corruption(golden_ref):
    rec = _record(["eval", "--bits", "1500"])
    assert oracle.check(rec, _refs(golden_ref)) is None
    value = re.search(r"value=(\S+)", rec["out"]).group(1)
    i = 20  # change one certified digit
    bad = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1 :]
    corrupted = dict(rec, out=rec["out"].replace(value, bad))
    assert oracle.check(corrupted, _refs(golden_ref)).startswith("wrong")

    short = _record(["eval", "--bits", "1500", "--digits", "60"])
    assert oracle.check(short, _refs(golden_ref)) is None


def test_verify_checker_counts_passed_false():
    rec = _record(["verify", "--theorem", "--t", "3", "--bits", "300"])
    assert oracle.check(rec, {}) is None
    failed = dict(rec, out=rec["out"].replace("passed=true", "passed=false"))
    assert oracle.check(failed, {}).startswith("wrong")
    low = dict(rec, out=re.sub(r"bits=\d+", "bits=299", rec["out"]))
    assert oracle.check(low, {}).startswith("wrong")
    assert oracle.margin_bits(rec) > 0


def test_crash_and_usage_error_count_as_errors(golden_ref):
    # printing the full value above ~14 300 bits hits Python's int->str
    # limit in FixedReal.decimal (known defect); it must count as failed
    crash = {"argv": ["eval", "--bits", "15000"], "rc": None, "out": "",
             "error": "ValueError: Exceeds the limit (4300 digits)", "s": 0.0}
    assert oracle.check(crash, _refs(golden_ref)).startswith("error")
    usage = _record(["digits", "--count", "0"])
    assert usage["rc"] == 64
    assert oracle.check(usage, _refs(golden_ref)).startswith("error")


def test_reference_bits_refuses_windows_beyond_its_precision(golden_ref):
    with pytest.raises(ValueError):
        oracle.reference_bits(golden_ref, 1990, 64)
