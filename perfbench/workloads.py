"""Seeded request lists for the three workloads.

Each request is an argv list for ``bbplog.cli.main``.  A workload is a
closed loop: one client, one request in flight.  The list is fixed by
(workload, seed, seconds): the request count is ``seconds`` times a
per-workload rate calibrated so that one pass takes about ``seconds`` on
a 2-core Xeon at the commit that defined the benchmark.  A faster
program runs the same list in less time, so ``wall_s`` is the time to
the solution of a fixed batch.

Sizes are drawn log-uniformly by stratified sampling (one draw in each
of n equal-probability strata) and the request classes are interleaved
evenly along the sizes, so a different seed gives different inputs but
nearly the same total work and latency profile.  That keeps the spread
across seeds small without fixing the inputs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("digits-deep", "eval-wide", "verify-mix")

# requests per second of measuring, calibrated on a 2-core Xeon
RATE = {"digits-deep": 1.8, "eval-wide": 1.8, "verify-mix": 22.0}
MIN_REQUESTS = 12  # the tail percentile needs ten samples beyond it

FORMULA_DIR = "perfbench/.out/formulas"

# digits-deep: bit positions straddle ~41 000, where golden's head sum
# first splits into more than one chunk and the thread pool starts
DIGITS_POS = (20_000, 200_000)
DIGITS_COUNT = 64
DIGITS_FAMILY_T = 2
# eval-wide: eval_P is super-linear in precision; printing the full value
# fails above ~14 300 bits (known defect, counted as failed)
EVAL_BITS = (4_000, 20_000)
EVAL_FAMILY_T_ABS = range(2, 10)
EVAL_FAMILY_T = tuple(s * t for t in EVAL_FAMILY_T_ABS for s in (1, -1))
EVAL_DIGITS = 60
# verify-mix: from the acceptance tolerances up to 8x higher
VERIFY_BITS = (1_000, 8_000)
VERIFY_T_ABS = range(1, 51)


def formula_path(t: int) -> str:
    """Relative path of the family file for parameter t, written at set-up."""
    return f"{FORMULA_DIR}/t{t}.bbp"


def family_params(workload: str) -> tuple[int, ...]:
    """The family parameters whose formula files the workload's set-up writes."""
    if workload == "digits-deep":
        return (DIGITS_FAMILY_T,)
    if workload == "eval-wide":
        return EVAL_FAMILY_T
    return ()


def request_count(workload: str, seconds: float) -> int:
    return max(MIN_REQUESTS, round(seconds * RATE[workload]))


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw per equal-probability stratum, ascending."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + rng.random()) / n) for i in range(n)]


def _interleave(n: int, shares: dict[str, float]) -> list[str]:
    """Classes for n size-ordered slots, each spread evenly over the sizes.

    Smooth weighted round robin: every slot credits each class its share
    and the class with the most credit takes the slot, so each class gets
    n*share slots, give or take one.  The pattern is the same for every
    seed, which keeps the latency percentiles steady across seeds.
    """
    credit = dict.fromkeys(shares, 0.0)
    out = []
    for _ in range(n):
        for c, share in shares.items():
            credit[c] += share
        pick = max(credit, key=credit.__getitem__)
        credit[pick] -= 1
        out.append(pick)
    return out


def _params(rng: random.Random, magnitudes: range, n: int) -> list[int]:
    """n family parameters: every magnitude equally often, random signs.

    The magnitude sets the cost (the base is 2**20 * t**40), so it follows
    one fixed scrambled cycle for every seed; the seed picks the signs.
    """
    order = list(magnitudes)
    random.Random(0).shuffle(order)
    return [order[i % len(order)] * rng.choice((1, -1)) for i in range(n)]


def _digits(rng: random.Random, n: int) -> list[list[str]]:
    shares = {"golden2": 0.35, "golden16": 0.35, "log2": 0.15, "family": 0.15}
    out = []
    for cls, pos in zip(_interleave(n, shares), _strata(rng, n, *DIGITS_POS)):
        pos = int(pos)
        if cls == "golden16":
            argv = ["digits", "--radix", "16", "--pos", str(pos // 4)]
        else:
            argv = ["digits", "--pos", str(pos)]
        argv += ["--count", str(DIGITS_COUNT)]
        if cls == "log2":
            argv += ["--preset", "log2"]
        elif cls == "family":
            argv += ["--formula", formula_path(DIGITS_FAMILY_T)]
        out.append(argv)
    return out


def _eval(rng: random.Random, n: int) -> list[list[str]]:
    classes = _interleave(n, {"golden": 0.5, "log2": 0.25, "family": 0.25})
    ts = iter(_params(rng, EVAL_FAMILY_T_ABS, classes.count("family")))
    seen = dict.fromkeys(classes, 0)
    out = []
    for cls, bits in zip(classes, _strata(rng, n, *EVAL_BITS)):
        argv = ["eval", "--bits", str(int(bits))]
        if cls == "log2":
            argv += ["--preset", "log2"]
        elif cls == "family":
            argv += ["--formula", formula_path(next(ts))]
        if seen[cls] % 4 == 1:  # a quarter of each class prints --digits 60
            argv += ["--digits", str(EVAL_DIGITS)]
        seen[cls] += 1
        out.append(argv)
    return out


def _verify(rng: random.Random, n: int) -> list[list[str]]:
    classes = _interleave(n, {"decomposition": 0.45, "theorem": 0.45, "corollary": 0.10})
    ts = iter(_params(rng, VERIFY_T_ABS, n))
    lo, hi = VERIFY_BITS
    taken: set[int] = set()
    out = []
    for cls, bits in zip(classes, _strata(rng, n, lo, hi)):
        # without replacement, so caches keyed by precision do not
        # carry over between requests (as with a fresh process each)
        b = min(int(bits), hi)
        step = 1
        while b in taken or not lo <= b <= hi:
            b += step if step % 2 else -step
            step += 1
        taken.add(b)
        argv = ["verify", f"--{cls}", "--bits", str(b)]
        if cls != "corollary":
            argv += ["--t", str(next(ts))]
        out.append(argv)
    return out


_BUILDERS = {"digits-deep": _digits, "eval-wide": _eval, "verify-mix": _verify}


def requests(workload: str, seed: int, seconds: float) -> list[list[str]]:
    """The argv list of one pass; the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    out = _BUILDERS[workload](rng, request_count(workload, seconds))
    rng.shuffle(out)
    return out
