"""Digit extraction against the sqrt/log oracle and its own invariants."""

from __future__ import annotations

import errno
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from functools import partial

import pytest

import bbplog.spigot as spigot_mod
from bbplog.cli import main
from bbplog.errors import UnsupportedFormulaError, ValidationError
from bbplog.family import family_coeffs, golden_constant, golden_formula
from bbplog.formula import MAX_DEGREE, BbpFormula, _block_fractions, _differences, _fold_levels, _stepper, eval_P
from bbplog.numerics import FixedReal, fx_log
from bbplog.spigot import build_plan, extract_bits

from _oracles import bbp_sum_exact, fixedreal_bits

LOG2_FORMULA = BbpFormula(
    degree=1, base=2, length=1, coeffs=(1,), prefactor=Fraction(1), label="2*log(2)"
)

# pi**2 = 9/8 * P(2, 64, 6, A) (Bailey, Borwein & Plouffe, Math. Comp. 66, 1997)
PI2_FORMULA = BbpFormula(
    degree=2, base=64, length=6, coeffs=(16, -24, -8, -6, 1, 0), prefactor=Fraction(9, 8), label="pi**2"
)


@pytest.fixture(scope="module")
def golden_plan():
    return build_plan(golden_formula())


@pytest.fixture(scope="module")
def log2_plan():
    return build_plan(LOG2_FORMULA)


# -- plan construction -------------------------------------------------------


def test_build_plan_golden(golden_plan):
    assert golden_plan.beta == 20
    assert len(golden_plan.nonzero) == 24
    assert golden_plan.q_odd == 3
    assert golden_plan.levels == 1
    # p = 5, q = 3 * 2**20 and the smallest |a_j| is 1: the pairs are
    # (j, 5 * a_j) with every s_j - s_min >= 0
    assert golden_plan.s_min == -20
    assert golden_plan.terms == tuple((j, 5 * a) for j, a in golden_plan.nonzero)


def test_build_plan_log2(log2_plan):
    assert log2_plan.beta == 1
    assert len(log2_plan.nonzero) == 1
    assert log2_plan.q_odd == 1
    assert log2_plan.levels == 16


def test_build_plan_rejects_non_power_of_two_base():
    f = BbpFormula(degree=1, base=5, length=1, coeffs=(1,), prefactor=Fraction(1))
    with pytest.raises(UnsupportedFormulaError, match="base"):
        build_plan(f)


def test_build_plan_rejects_a_degree_above_max_degree():
    f = BbpFormula(degree=MAX_DEGREE + 1, base=2, length=1, coeffs=(1,), prefactor=Fraction(1))
    with pytest.raises(UnsupportedFormulaError, match=f"extraction needs degree <= {MAX_DEGREE}"):
        build_plan(f)
    plan = build_plan(BbpFormula(degree=MAX_DEGREE, base=2, length=1, coeffs=(1,), prefactor=Fraction(1)))
    assert plan.levels == 1


def test_build_plan_counts_each_term_once_per_degree():
    # a block holds about _FOLD_TERMS factors of its modulus: 16 levels of
    # log2 at degree 1, 8 at degree 2, one from degree 16 on, and two of
    # pi**2 (5 nonzero coefficients, degree 2)
    for degree, levels in ((1, 16), (2, 8), (3, 6), (16, 1), (17, 1)):
        f = BbpFormula(degree=degree, base=2, length=1, coeffs=(1,), prefactor=Fraction(1))
        assert build_plan(f).levels == levels
    assert build_plan(PI2_FORMULA).levels == 2


# -- extraction vs oracle -----------------------------------------------------


def test_first_bits_of_golden_constant(golden_plan):
    window = extract_bits(golden_plan, 0, 32)
    assert window.certified == 32
    oracle = golden_constant(256)
    assert window.bits == fixedreal_bits(oracle, 0, 32)


def test_log2_plan_first_bits(log2_plan):
    # the constant is 2*log(2) = 1.386...; extraction sees its fraction
    window = extract_bits(log2_plan, 0, 32)
    assert window.certified == 32
    two_log2 = fx_log(FixedReal.from_int(2, 256)).mul_int(2)
    assert window.bits == fixedreal_bits(two_log2, 0, 32)


@pytest.mark.parametrize("position", [0, 100, 10_000])
def test_certified_bits_match_oracle(golden_plan, position):
    window = extract_bits(golden_plan, position, 48)
    oracle = golden_constant(position + 512)
    expected = fixedreal_bits(oracle, position, 48)
    assert window.certified == 48
    assert window.bits[: window.certified] == expected[: window.certified]


def test_overlap_coherence(golden_plan):
    rng = random.Random(20260817)
    for _ in range(25):
        n = rng.randrange(0, 3000)
        w1 = extract_bits(golden_plan, n, 48)
        w2 = extract_bits(golden_plan, n + 20, 48)
        assert w1.bits[20:] == w2.bits[:28]


def test_pi_squared_windows_match_eval():
    # degree 2: every factor of a block's modulus is squared
    plan = build_plan(PI2_FORMULA)
    value = eval_P(PI2_FORMULA, 20_000).value
    for n in (0, 1, 100, 1000, 5000, 10_000):
        window = extract_bits(plan, n, 64)
        assert window.certified == 64
        assert window.bits == fixedreal_bits(value, n, 64), n


@pytest.mark.parametrize("degree", [2, 3])
def test_higher_degree_windows_match_exact_sum(degree):
    # random formulas of base 2**beta and length <= 4; every certified bit
    # at positions 0 .. 200 against the exact partial sum and its tail
    rng = random.Random(20261019 + degree)
    count, n_max = 32, 200
    certified = []
    for length in range(1, 5):
        beta = rng.randint(1, 6)
        coeffs = tuple(rng.choice((0, rng.randint(-40, 40))) for _ in range(length - 1)) + (rng.randint(1, 40),)
        prefactor = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 9) << rng.randint(0, 8))
        f = BbpFormula(degree=degree, base=1 << beta, length=length, coeffs=coeffs, prefactor=prefactor)
        plan = build_plan(f)
        terms = (n_max + count + 40) // beta + 1
        partial = bbp_sum_exact(degree, f.base, coeffs, prefactor, terms)
        # every 1/(k*l + j)**s <= 1, so the tail is below a geometric series
        tail = abs(prefactor) * sum(map(abs, coeffs)) * Fraction(2, f.base**terms)
        for n in range(n_max + 1):
            lo, hi = (
                format(math.floor((partial + d) * 2 ** (n + count)) % (1 << count), f"0{count}b")
                for d in (-tail, tail)
            )
            window = extract_bits(plan, n, count)
            c = window.certified
            assert window.bits[:c] == lo[:c] == hi[:c], (f, n)
            certified.append(c)
    assert sum(c == count for c in certified) > 0.9 * len(certified)


# (beta, coeffs, prefactor), each a branch of the spigot's power-of-two split
# q = 2**w * q_odd, p*a_j = 2**x_j * c_j
SPLIT_CASES = {
    # odd q, even p*a_j: x_j - w >= 2, so nonnegative exponents reach past n // beta
    "odd-q-even-pa-beta1": (1, (4, -6, 0, 12), Fraction(2, 3)),
    # q = 2**9 > b = 2**4: for n < 9 every block is floored directly
    "q-pow2-beta4": (4, (1, -3, 0, 5), Fraction(7, 1 << 9)),
    # golden-like q = 3 * 2**25, b = 2**20, a_j = +-2**x, negative constant
    "golden-like-beta20": (20, (8, 0, -1, 2, 0, -16), Fraction(-5, 3 << 25)),
    # q' = 3**40 spans three int digits, and each block's modulus takes it
    "multi-digit-q-odd-beta4": (4, (3, 0, -5, 7), Fraction(5**28, 3**40 << 9)),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_power_of_two_split_matches_exact_sum(case):
    beta, coeffs, prefactor = SPLIT_CASES[case]
    f = BbpFormula(
        degree=1, base=1 << beta, length=len(coeffs), coeffs=coeffs, prefactor=prefactor
    )
    plan = build_plan(f)
    count, n_max = 32, 60
    terms = (n_max + count + 40) // beta + 1
    partial = bbp_sum_exact(1, f.base, coeffs, prefactor, terms)
    # every 1/(k*l + j) <= 1, so the tail is below a geometric series
    tail = abs(prefactor) * sum(map(abs, coeffs)) * Fraction(2, f.base**terms)
    for n in range(n_max + 1):
        lo, hi = (
            format(math.floor((partial + d) * 2 ** (n + count)) % (1 << count), f"0{count}b")
            for d in (-tail, tail)
        )
        assert lo == hi, "oracle interval straddles a window bit"
        window = extract_bits(plan, n, count)
        assert window.certified == count
        assert window.bits == lo


def _serial_block_sums(monkeypatch, plan, n):
    """One serial extraction and the arguments of its one _sum_blocks call,
    which sums every level from 0 to k_end."""
    calls = []
    real = spigot_mod._sum_blocks
    with monkeypatch.context() as m:
        m.setattr(spigot_mod, "_usable_cpus", lambda: 1)
        m.setattr(spigot_mod, "_sum_blocks", lambda *a: calls.append(a) or real(*a))
        window = extract_bits(plan, n, 64)
    (args,) = calls
    assert args[3] == 0
    return window, args


def _floor_switch(plan, n):
    """The first level of the first block whose exponent e is negative: the
    blocks before it are reduced mod 1 before their floor, the ones from it
    on are floored directly."""
    # the first level with a negative exponent
    first = max(0, (n + plan.s_min) // plan.beta + 1)
    return first - first % plan.levels


def test_determinism_and_partition_independence(monkeypatch):
    rng = random.Random(20261018)
    for formula in (golden_formula(), LOG2_FORMULA, family_coeffs(2).formula):
        plan = build_plan(formula)
        for n in (0, 59, 5000, 41_000):
            window, args = _serial_block_sums(monkeypatch, plan, n)
            assert window == extract_bits(plan, n, 64)
            *fixed, k0, k_end = args
            whole = spigot_mod._sum_blocks(*args)
            blocks = -(-k_end // plan.levels)  # the last one cut at k_end
            switch = _floor_switch(plan, n) // plan.levels
            cuts = [[blocks * i // p for i in range(p + 1)] for p in (1, 2, 3, 7)]
            cuts.append([0, switch, blocks])
            cuts.append([0, *sorted([switch, *(rng.randrange(blocks + 1) for _ in range(4))]), blocks])
            for bounds in cuts:
                # cut on block boundaries, the last part ending in the partial block
                levels = [min(b * plan.levels, k_end) for b in bounds]
                sums = [spigot_mod._sum_blocks(*fixed, a, b) for a, b in zip(levels, levels[1:])]
                assert sum(sums) == whole, (n, bounds)


def test_head_sum_brackets_the_exact_head(monkeypatch):
    # golden and t = +-2**s fold one level per block, log2 several; the
    # range's last blocks have negative exponents, floored in fixed point
    for formula in (golden_formula(), LOG2_FORMULA, *(family_coeffs(t).formula for t in (2, -4))):
        plan = build_plan(formula)
        beta, length = plan.beta, formula.length
        for n in (0, 1, 59, 60, 61, 500, 2000):
            _, args = _serial_block_sums(monkeypatch, plan, n)
            *_, width, k0, k1 = args
            assert k1 > _floor_switch(plan, n)
            acc = spigot_mod._sum_blocks(*args)

            def level(k):
                return [
                    formula.prefactor * a / (k * length + j) * Fraction(2) ** (n - beta * k)
                    for j, a in plan.nonzero
                ]

            exact = sum(t - math.floor(t) for k in range(k0, k1) for t in level(k))
            # acc is unmasked: compare its W-bit fraction with the exact one;
            # each block's floor loses less than one ulp
            excess = (exact * 2**width - acc) % 2**width
            assert 0 <= excess < -(-(k1 - k0) // plan.levels), (formula.label, n)
            # the levels left out past k1 add up to less than one ulp (summed
            # over 40 bits' worth of levels; the ones after are 2**-40 smaller)
            rest = sum(t for k in range(k1, k1 + 40 // beta + 1) for t in level(k))
            assert abs(rest) * 2**width < 1, (formula.label, n)


def test_certificate_interval_holds_the_true_floor(monkeypatch):
    # random base-2**beta formulas at positions 0 .. 39 (no fork): the floor
    # of the exact W-bit fraction lies in [acc - 1, acc + budget - 1] mod 2**W,
    # the interval the certificate claims, read where it is certified.  The
    # exact-sum tests compare certified bits only, which a level missing
    # from the sum seldom reaches.
    rng = random.Random(20261019)
    claims = []
    real = spigot_mod._certified_digits

    def certified_digits(lo, hi, width, r, count):
        # the spigot passes its interval's ends, acc - 1 and acc + budget - 1
        claims.append((lo + 1, width, hi - lo))
        return real(lo, hi, width, r, count)

    monkeypatch.setattr(spigot_mod, "_certified_digits", certified_digits)
    violations = []

    def coefficient():  # nonzero, of 1 to 31 bits
        return rng.choice((-1, 1)) * rng.randint(1, 1 << rng.randint(0, 30))

    for _ in range(300):
        beta = rng.choice((1, 2, 3, 4, 6, 8, 12, 16, 20))
        length, degree, count = rng.randint(1, 3), rng.randint(1, 2), rng.choice((1, 2, 8))
        coeffs = [rng.choice((0, coefficient())) for _ in range(length)]
        coeffs[rng.randrange(length)] = coefficient()
        prefactor = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))
        f = BbpFormula(degree=degree, base=1 << beta, length=length, coeffs=tuple(coeffs), prefactor=prefactor)
        plan = build_plan(f)
        # every 1/(k*l + j)**s <= 1, so the tail is below a geometric
        # series; enough levels put it below 2**-16 ulp at n = 39
        scale = abs(prefactor) * sum(map(abs, coeffs))
        terms = (39 + count + 64 + 16 + math.ceil(scale).bit_length()) // beta + 2
        partial = bbp_sum_exact(degree, f.base, f.coeffs, prefactor, terms)
        tail = scale * Fraction(2, f.base**terms)
        for n in range(40):
            claims.clear()
            extract_bits(plan, n, count)
            [(acc, width, budget)] = claims
            for x in (partial - tail, partial + tail):
                floor = (x.numerator << (n + width)) // x.denominator
                if (floor - acc + 1) % (1 << width) > budget:
                    violations.append((beta, f.coeffs, prefactor, n, count))
    assert violations == []


@pytest.mark.parametrize("formula", [golden_formula(), LOG2_FORMULA], ids=["golden", "log2"])
def test_budget_covers_blocks_that_each_lose_almost_an_ulp(formula, monkeypatch):
    # stubbed block fractions whose every floor at the W-bit accumulator
    # loses 1 - 2**-40 ulp, with e >= 0 (reduced mod 1) and e < 0 blocks
    # alike, and levels past k_end that add 2**-20 ulp, well inside the
    # one ulp the Bound paragraph allows them.  The floors sum to
    # acc = top - blocks, so the true W-bit floor is top = (P + 1) << 64:
    # acc + budget - 1, the top end of the Bound paragraph's integer
    # interval [acc - 1, acc + budget - 1], budget being one ulp per summed
    # block and one for the levels past k_end.  A top end one ulp lower
    # would certify P's last bit
    plan = build_plan(formula)
    n, count, P = 1000, 8, 0b10110100
    width = count + 64
    top = (P + 1) << 64
    e0 = n + plan.s_min
    exact = Fraction(1, 1 << (width + 20))  # the tail
    claims = []
    summed = 0
    real = spigot_mod._certified_digits

    def block_fractions(base, degree, length, terms, levels, k0, k1):
        nonlocal exact, summed
        blocks = -(-(k1 - k0) // levels)
        for k in range(k0, k1, levels):
            e = e0 - plan.beta * (min(k + levels, k1) - 1)
            ulps = (top - blocks if k == k0 else 0) + 1 - Fraction(1, 1 << 40)
            value = ulps / Fraction(2) ** (e + width)
            num, den = value.numerator * plan.q_odd, value.denominator
            exact += Fraction(num, den * plan.q_odd) * Fraction(2) ** e  # below 1: its own part mod 1
            summed += 1
            yield num, den

    def certified_digits(lo, hi, width, r, count):
        claims.append((lo + 1, hi - lo))
        return real(lo, hi, width, r, count)

    monkeypatch.setattr(spigot_mod, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(spigot_mod, "_block_fractions", block_fractions)
    monkeypatch.setattr(spigot_mod, "_certified_digits", certified_digits)
    window = extract_bits(plan, n, count)
    [(acc, budget)] = claims
    floor = exact.numerator * 2**width // exact.denominator
    assert floor == top
    assert budget == summed + 1
    assert floor == acc + budget - 1
    assert window.certified == count - 1
    assert window.bits[: window.certified] == format(floor >> 64, f"0{count}b")[: window.certified]


# the fold's formulas: golden and t = +-2**s fold one level per block
# (D = 24), log2 sixteen (D = 16); only t = -4 lifts N by a C > 0
FOLD_FORMULAS = {
    "golden": golden_formula,
    "log2": lambda: LOG2_FORMULA,
    **{f"t={t}": (lambda t=t: family_coeffs(t).formula) for t in (2, -4, 8, 32)},
}


@pytest.mark.parametrize("name", sorted(FOLD_FORMULAS))
def test_block_fractions_equal_the_fold(name):
    formula = FOLD_FORMULAS[name]()
    plan = build_plan(formula)
    levels = plan.levels
    degree = levels * len(plan.nonzero)
    for k0 in (0, levels, 37 * levels, 500_000):
        for blocks in (1, degree, degree + 1, degree + 2, 3 * degree + 5):
            # whole blocks, then (log2) the same range cut in a partial block
            for k1 in {k0 + blocks * levels, k0 + blocks * levels - levels // 2}:
                expected = []
                for k in range(k0, k1, levels):
                    cut = min(k + levels, k1)
                    expected.append(_fold_levels(formula.base, 1, formula.length, plan.terms, k, cut))
                got = list(_block_fractions(formula.base, 1, formula.length, plan.terms, levels, k0, k1))
                assert got == expected, (name, k0, blocks, k1 - k0)


def test_packed_fields_never_carry_at_position_10_7(golden_plan, monkeypatch):
    # the deeper part of golden's range at position 10**7 cut in two: the
    # widest registers a forked part steps
    plan = golden_plan
    levels = plan.levels
    degree = levels * len(plan.nonzero)
    calls = []  # the one serial _sum_blocks call, recorded and not run
    monkeypatch.setattr(spigot_mod, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(spigot_mod, "_sum_blocks", lambda *a: calls.append(a) or 0)
    extract_bits(plan, 10**7, 64)
    [(*_, k_end)] = calls
    k0 = k_end // levels // 2 * levels
    last = k_end // levels * levels - levels  # the last whole block
    fold = partial(_fold_levels, plan.formula.base, 1, plan.formula.length, plan.terms)
    table = [fold(k, k + levels) for k in range(k0, k0 + (degree + 1) * levels, levels)]
    regs, slot, low, c = _stepper(fold, levels, table, last)
    for _ in range((last - k0) // levels):
        regs += regs >> slot
    # the exact registers at the last block, from its fractions and the next D
    far = [fold(k, k + levels) for k in range(last, last + (degree + 1) * levels, levels)]
    dn = _differences([n + c * m for n, m in far])
    dm = _differences([m for _, m in far])
    assert regs >> (degree + 1) * slot == 0
    for i in range(degree + 1):
        field = regs >> i * slot & (1 << slot) - 1
        assert (field & (1 << low) - 1, field >> low) == (dn[i], dm[i]), i
        assert 0 <= dn[i] < 1 << low and 0 <= dm[i] < 1 << (slot - low), i


# sha256 of the windows below as printed by the per-term head sum that
# preceded the folded one (one modular power per term)
PINNED_WINDOWS = "6f658802baa6cfbe7cdce17a987cb0eabfd50c7e79db3aa0da8671469074de63"


def test_windows_match_the_per_term_head_sum():
    plans = [build_plan(f) for f in (golden_formula(), LOG2_FORMULA, family_coeffs(2).formula)]
    lines = []
    for plan in plans:
        for n in (*range(120), 20_000, 41_000, 60_000):
            for count in (1, 17, 64):
                w = extract_bits(plan, n, count)
                lines.append(f"{n} 2 {w.bits} {w.certified}\n")
            # 16 hex digits at hex position n, as `digits --radix 16` prints them
            w = extract_bits(plan, 4 * n, 64)
            lines.append(f"{n} 16 {int(w.bits, 2):016x} {w.certified // 4}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == PINNED_WINDOWS


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    # as on macOS: the CPU count, or one when the count is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert spigot_mod._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spigot_mod._usable_cpus() == 1


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_head_equals_serial(golden_plan, monkeypatch):
    n = 41_000  # 49 368 terms to k_end, enough for three parts
    default = extract_bits(golden_plan, n, 64)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(spigot_mod, "_usable_cpus", lambda: 3)
    three = extract_bits(golden_plan, n, 64)
    assert len(forks) == 2
    monkeypatch.setattr(spigot_mod, "_usable_cpus", lambda: 1)
    assert extract_bits(golden_plan, n, 64) == default == three
    assert len(forks) == 2
    _no_child_left()


@pytest.mark.parametrize("fault", ["raise", "short", "exit", "fork", "pipe"])
def test_parent_resums_the_range_of_a_failed_child(golden_plan, monkeypatch, fault):
    n = 41_000
    expected, _ = _serial_block_sums(monkeypatch, golden_plan, n)
    parent = os.getpid()
    real_sum, real_write, real_exit = spigot_mod._sum_blocks, os.write, os._exit
    parent_ranges = []

    def sum_blocks(*args):
        if os.getpid() == parent:
            parent_ranges.append(args[-2:])
        elif fault == "raise":
            raise RuntimeError("child failed")
        return real_sum(*args)

    def write(fd, data):  # the child's line cut in half, then exit 0
        return real_write(fd, data[: len(data) // 2] if os.getpid() != parent else data)

    def exit_(code):  # a whole line, then a nonzero exit
        real_exit(3 if os.getpid() != parent else code)

    def no_fork():
        raise BlockingIOError("no process to spare")

    def no_pipe():
        raise OSError(errno.EMFILE, "no descriptor to spare")

    monkeypatch.setattr(spigot_mod, "_sum_blocks", sum_blocks)
    if fault == "short":
        monkeypatch.setattr(os, "write", write)
    elif fault == "exit":
        monkeypatch.setattr(os, "_exit", exit_)
    elif fault == "fork":
        monkeypatch.setattr(os, "fork", no_fork)
    elif fault == "pipe":
        monkeypatch.setattr(os, "pipe", no_pipe)
    monkeypatch.setattr(spigot_mod, "_usable_cpus", lambda: 3)
    assert extract_bits(golden_plan, n, 64) == expected
    assert len(parent_ranges) == 3  # its own range, then both children's
    _no_child_left()


def test_no_fork_while_another_thread_runs(golden_plan, monkeypatch):
    expected, _ = _serial_block_sums(monkeypatch, golden_plan, 41_000)
    monkeypatch.setattr(spigot_mod, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a threaded process"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert extract_bits(golden_plan, 41_000, 64) == expected
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


def test_parent_failure_kills_the_children_before_reaping(golden_plan, monkeypatch):
    parent = os.getpid()
    real_sum = spigot_mod._sum_blocks

    def sum_blocks(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent failed")
        time.sleep(60)  # a child still summing its range
        return real_sum(*args)

    monkeypatch.setattr(spigot_mod, "_sum_blocks", sum_blocks)
    monkeypatch.setattr(spigot_mod, "_usable_cpus", lambda: 3)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="parent failed"):
        extract_bits(golden_plan, 41_000, 64)
    assert time.monotonic() - started < 20
    _no_child_left()


def test_a_forked_part_stops_once_its_parent_is_gone(golden_plan):
    args = (golden_plan, 1000 + golden_plan.s_min, 128, 0, 8)
    assert spigot_mod._sum_blocks(*args, os.getppid()) == spigot_mod._sum_blocks(*args)
    # this process's own pid is never its parent's
    with pytest.raises(ProcessLookupError):
        spigot_mod._sum_blocks(*args, os.getpid())


def test_children_leave_the_parents_stdout_buffer_alone():
    src = os.path.dirname(os.path.dirname(spigot_mod.__file__))
    script = (
        "import sys\n"
        "import bbplog.spigot as spigot\n"
        "from bbplog.family import golden_formula\n"
        "spigot._usable_cpus = lambda: 2\n"
        "sys.stdout.write('x')\n"
        "spigot.extract_bits(spigot.build_plan(golden_formula()), 200_000, 64)\n"
    )
    # a buffered stdout: an unbuffered one has nothing left to flush twice
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env={**env, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"x"


def _certified_prefix(acc, width, count, budget):
    """``certified`` as ``extract_bits`` computes it: the rule of
    ``numerics._certified_digits`` at r = 2 over the ends acc - 1 and
    acc + budget - 1 of the true accumulator's floor, at least 0."""
    return max(0, spigot_mod._certified_digits(acc - 1, acc + budget - 1, width, 2, count)[0])


def test_certified_prefix_checks_borrow_and_carry():
    # width 64, 8 requested bits: the low 56 bits decide both sides
    top = 0b10110011 << 56
    assert _certified_prefix(top | 1 << 40, 64, 8, 5) == 8
    # all-zero low word: a true value just below acc borrows from bit 8
    assert _certified_prefix(top, 64, 8, 5) < 8
    # low word within the budget of overflowing: the carry reaches bit 8
    assert _certified_prefix(top | (1 << 56) - 3, 64, 8, 5) < 8
    # acc = 0: a true value just below it borrows from every bit, and the
    # ends' integer parts, -1 and 0, differ
    assert _certified_prefix(0, 64, 8, 5) == 0
    # a carry out of the top: the ends' integer parts, 0 and 1, differ
    assert _certified_prefix((1 << 64) - 3, 64, 8, 5) == 0


def _certified_prefix_by_loop(acc, width, count, budget):
    """The prefix rule bit by bit: the longest c <= count whose low
    width - c bits neither borrow (are zero) nor carry (overflow by the
    budget less one)."""
    for c in range(count, 0, -1):
        low = acc & ((1 << (width - c)) - 1)
        if low >= 1 and low + budget - 1 < 1 << (width - c):
            return c
    return 0


def test_certified_prefix_equals_the_bit_by_bit_rule():
    rng = random.Random(20261018)
    cases = []
    for width, count in ((8, 1), (8, 8), (70, 6), (128, 64), (4200, 4096)):
        edges = range(count + 1) if count <= 64 else {0, 1, 2, 63, 64, 65, count - 1, count}
        for c in edges:
            step = 1 << (width - c)
            # the top end acc + budget - 1 lies `reach` above acc
            for reach in (0, 1, 2, 5, step - 1, 1 << (width - count)):
                # acc at the borrow edge (low width - c bits 0 or 1) and at
                # the carry edge (within reach of the next multiple)
                for base in (0, step, rng.randrange(1 << width) // step * step, (1 << width) - step):
                    for d in (0, 1, 2, step - reach - 1, step - reach, step - 1):
                        if 0 <= d < step:
                            cases.append((base + d, width, count, reach + 1))
        for _ in range(200):
            reach = rng.choice((0, 1, rng.randrange(1 << 12), rng.randrange(1 << width)))
            cases.append((rng.randrange(1 << width), width, count, reach + 1))
    for case in cases:
        assert _certified_prefix(*case) == _certified_prefix_by_loop(*case), case


def test_certified_prefix_equals_a_brute_force_at_small_widths():
    # every (acc, budget, count) at width <= 7, budget 1 to 2**width + 2:
    # a prefix is certified when every floor in [acc - 1, acc + budget - 1] is
    # a width-bit fraction and all of them agree on it, checked floor by
    # floor on their binary strings
    mismatches = []
    for width in range(1, 8):
        for acc in range(1 << width):
            first = format(acc - 1, f"0{width}b")
            # the common prefix of the floors so far; acc - 1 = -1 has none
            agreed = width if acc else 0
            for budget in range(1, 3 + (1 << width)):
                top = acc + budget - 1
                if top >= 1 << width:
                    agreed = 0
                else:
                    last = format(top, f"0{width}b")
                    agreed = min(agreed, next((i for i in range(width) if first[i] != last[i]), width))
                for count in range(1, width + 1):
                    if _certified_prefix(acc, width, count, budget) != min(agreed, count):
                        mismatches.append((acc, width, count, budget))
    assert mismatches == []


def test_wide_window_equals_four_joined_64_bit_windows(golden_plan):
    n = 100_000
    wide = extract_bits(golden_plan, n, 256)
    parts = [extract_bits(golden_plan, n + 64 * i, 64) for i in range(4)]
    assert wide.certified == 256
    assert all(w.certified == 64 for w in parts)
    assert wide.bits == "".join(w.bits for w in parts)


def _hex_digits(capsys, pos: int, count: int) -> str:
    # hex is a print format: `digits --radix 16` prints the bits at 4 * pos
    assert main(["digits", "--pos", str(pos), "--count", str(count), "--radix", "16"]) == 0
    return capsys.readouterr().out


def test_hex_regroups_bits(golden_plan, capsys):
    bits = extract_bits(golden_plan, 0, 32)
    out = _hex_digits(capsys, 0, 8 * 4)
    assert out == f"pos=0 radix=16 digits={int(bits.bits, 2):08x} certified=8\n"


def test_hex_window_matches_oracle_at_10k(capsys):
    out = _hex_digits(capsys, 10_000, 32)
    oracle = golden_constant(4 * 10_000 + 256)
    expected_bits = fixedreal_bits(oracle, 4 * 10_000, 32)
    assert f" digits={int(expected_bits, 2):08x} " in out


def test_window_validation(golden_plan):
    with pytest.raises(ValidationError, match="count"):
        extract_bits(golden_plan, 0, 0)
    with pytest.raises(ValidationError, match="count"):
        extract_bits(golden_plan, 0, -1)
    with pytest.raises(ValidationError, match="position"):
        extract_bits(golden_plan, -1, 8)
