"""Time bbplog's layers and write one BENCH file: the medians and
quartiles of interleaved repeats, the host they ran on, and a probe that
flags a change of the host's speed during the run.

    python tests/bench_layers.py [--quick] [--out PATH]

Standard library only; pytest does not collect it, and it times the
source tree it sits in (``src/``), not an installed copy.  ``--out``
defaults to stdout.  ``--quick`` runs every row once at tiny sizes, a
smoke test of a few seconds; its figures mean nothing.

Each of ``REPEATS`` repeats runs every row once, in a fixed order, so a
slow phase of the host spreads over all rows instead of landing on one.
A row's sample is the time of one call, averaged over as many calls as
fill about ``SAMPLE_S``; the count is calibrated once, after a warm-up
call, and recorded as ``calls``.

The import rows start a fresh ``-S`` interpreter per sample, with
``PYTHONDONTWRITEBYTECODE=1``, and time the import statement inside it.
``import bbplog.cli`` and ``import bbplog.numerics`` set an empty
``PYTHONPYCACHEPREFIX``, so that every module imported is compiled, the
standard library's included; the rows ``(bbplog compiled)`` import a
fresh copy of ``src/bbplog`` with no ``__pycache__`` and no
``PYTHONPYCACHEPREFIX``, so the standard library loads from its bytecode
cache and only bbplog compiles.

The ``cap`` rows time each cost cap of ``bbplog.cli`` at its value:
golden's digits window at ``MAX_POS_BITS``, of ``MAX_WINDOW_BITS`` bits
and of 64, and eval (the sum and its full decimal print) and the
theorem (t = 1) and corollary checks at ``MAX_BITS``.  The ``shape``
rows come in pairs that sum equal term counts, counted as the caps count
them (levels by ``formula._truncation`` times nonzero coefficients times
degree), at a size where each takes at most about 2 s: the ratio of a
pair's medians is what a term of the shape beyond a cap costs against
one the cap admits.  Each pair follows its cap: base-2 files of
``MAX_NONZERO`` and of 8 * ``MAX_NONZERO`` ones in ``eval_P`` at
``MAX_EVAL_TERMS`` terms and in ``extract_bits`` at ``MAX_HEAD_TERMS`` /
64 head terms, and golden and its copy of degree ``MAX_DEGREE`` in
``eval_P`` at ``MAX_EVAL_TERMS`` / 4.

Before the first row and after every row, the probe times a fixed
pure-Python loop, a fixed big-int loop, and that big-int loop in two
forked processes side by side; the ratio of the slower of the two to
the lone loop is how much of a CPU the second process got (2 means
none).  A row's sample is flagged when a loop's time in a probe next to
it reads outside ``PHASE_BAND`` of the run's median for that loop, and
each row records the median ratio of the probes around it.  The probe
only flags; it never rescales a row.

The file names the code it timed by ``commit``, ``dirty`` (uncommitted
changes to tracked files) and ``src_sha256``, a SHA-256 of every file
under ``src/`` (bytecode and build metadata aside), so a file written
before its commit still names its tree.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from bbplog.cli import MAX_BITS, MAX_EVAL_TERMS, MAX_HEAD_TERMS, MAX_NONZERO, MAX_POS_BITS, MAX_WINDOW_BITS
from bbplog.family import family_coeffs, golden_formula
from bbplog.formula import MAX_DEGREE, BbpFormula, _truncation, eval_P
from bbplog.numerics import FixedReal, fx_log
from bbplog.presets import load_preset
from bbplog.spigot import build_plan, extract_bits
from bbplog.verify import verify_corollary, verify_decomposition, verify_theorem

SAMPLE_S = 0.05
PHASE_BAND = 1.25
REPEATS = 7


def _per_call(fn):
    """A row's timer: the seconds per call of ``fn()`` over ``calls`` calls."""

    def run(calls: int) -> float:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t) / calls

    return run


def _rows(quick: bool) -> list[tuple[str, dict, object]]:
    """(name, params, timer) for every row, in the order they run.

    A name is the same in a quick run; the params hold the sizes.
    """
    formulas = {"golden": golden_formula(), "log2": load_preset("log2")}
    pos = (1000, 2000, 4000) if quick else (10**4, 10**5, 10**6)
    bits = (1000, 2000) if quick else (10**4, 10**5)
    log_bits = (500, 1000) if quick else (4500, 10**5)
    verify_bits = (500, 1000) if quick else (8000, 30000)
    span = 2000 if quick else 20000
    rows = []
    for name, f in formulas.items():
        plan = build_plan(f)
        for tier, n in zip(("small", "medium", "large"), pos):
            rows.append((f"extract_bits {name} {tier}", {"pos": n, "count": 64}, _per_call(lambda p=plan, n=n: extract_bits(p, n, 64))))
    for name, f in formulas.items():
        for tier, b in zip(("small", "large"), bits):
            rows.append((f"eval_P {name} {tier}", {"bits": b}, _per_call(lambda f=f, b=b: eval_P(f, b))))
    for tier, b in zip(("small", "large"), log_bits):
        x = FixedReal.from_fraction(Fraction(13, 8), b)
        rows.append((f"fx_log 13/8 {tier}", {"bits": b}, _per_call(lambda x=x: fx_log(x))))
    for tier, b in zip(("small", "large"), verify_bits):
        rows.append((f"verify_theorem {tier}", {"t": 7, "bits": b}, _per_call(lambda b=b: verify_theorem(7, b))))
        rows.append((f"verify_corollary {tier}", {"bits": b}, _per_call(lambda b=b: verify_corollary(b))))
        rows.append((f"verify_decomposition {tier}", {"t": 7, "bits": b}, _per_call(lambda b=b: verify_decomposition(7, b))))
    for module in ("bbplog.cli", "bbplog.numerics"):
        rows.append((f"import {module}", {"fresh_interpreter": True}, _import_timer(module, stdlib_compiled=True)))
    for module in ("bbplog.cli", "bbplog.numerics"):
        rows.append((f"import {module} (bbplog compiled)", {"fresh_interpreter": True, "compiled": "bbplog"}, _import_timer(module, stdlib_compiled=False)))
    for name, f in (("golden", formulas["golden"]), ("t=9", family_coeffs(9).formula)):
        rows.append((f"_truncation {name}", {"bits": span}, _per_call(lambda f=f: _truncation(f, span))))
    return rows + _cap_rows(quick, formulas)


def _cap_rows(quick: bool, formulas: dict[str, BbpFormula]) -> list[tuple[str, dict, object]]:
    """The ``cap`` and ``shape`` rows (module docstring), at tiny sizes
    when quick."""
    pos, count, bits = (4000, 256, 2000) if quick else (MAX_POS_BITS, MAX_WINDOW_BITS, MAX_BITS)
    plan = build_plan(formulas["golden"])
    rows = [
        ("cap extract_bits golden", {"pos": pos, "count": count}, _per_call(lambda: extract_bits(plan, pos, count))),
        ("cap extract_bits golden count 64", {"pos": pos, "count": 64}, _per_call(lambda: extract_bits(plan, pos, 64))),
    ]
    for name, f in formulas.items():
        rows.append((f"cap eval_P {name}", {"bits": bits}, _per_call(lambda f=f: eval_P(f, bits))))
        # the value to print is computed once, by the warm-up call
        value = functools.cache(lambda f=f: eval_P(f, bits).value)
        rows.append((f"cap decimal {name}", {"bits": bits}, _per_call(lambda value=value: value().decimal())))
    rows.append(("cap verify_theorem", {"t": 1, "bits": bits}, _per_call(lambda: verify_theorem(1, bits))))
    rows.append(("cap verify_corollary", {"bits": bits}, _per_call(lambda: verify_corollary(bits))))

    eval_terms, head_terms, degree_terms = (MAX_EVAL_TERMS // 4, MAX_HEAD_TERMS // 128, MAX_EVAL_TERMS // 16) if quick else (MAX_EVAL_TERMS, MAX_HEAD_TERMS // 64, MAX_EVAL_TERMS // 4)
    for label, nonzero in (("MAX_NONZERO", MAX_NONZERO), ("8*MAX_NONZERO", 8 * MAX_NONZERO)):
        ones = BbpFormula(1, 2, nonzero, (1,) * nonzero, Fraction(1))
        b = _bits_within(ones, eval_terms)
        rows.append((f"shape eval_P ones {label}", {"nonzero": nonzero, "bits": b, "terms": _terms(ones, b)}, _per_call(lambda f=ones, b=b: eval_P(f, b))))
        # the head terms are counted at the window's end, pos + count + 64
        n = _bits_within(ones, head_terms) - 128
        rows.append((f"shape extract_bits ones {label}", {"nonzero": nonzero, "pos": n, "count": 64, "terms": _terms(ones, n + 128)}, _per_call(lambda p=build_plan(ones), n=n: extract_bits(p, n, 64))))
    golden = formulas["golden"]
    for label, degree in (("1", 1), ("MAX_DEGREE", MAX_DEGREE)):
        copy = BbpFormula(degree, golden.base, golden.length, golden.coeffs, golden.prefactor)
        b = _bits_within(copy, degree_terms)
        rows.append((f"shape eval_P golden degree {label}", {"degree": degree, "bits": b, "terms": _terms(copy, b)}, _per_call(lambda f=copy, b=b: eval_P(f, b))))
    return rows


def _terms(f: BbpFormula, bits: int) -> int:
    """The terms summed to ``bits`` bits, counted as the caps count them."""
    return _truncation(f, bits) * sum(1 for a in f.coeffs if a) * f.degree


def _bits_within(f: BbpFormula, terms: int) -> int:
    """The largest bit count whose ``_terms`` are at most ``terms``,
    searched below ``terms * f.base.bit_length()`` bits."""
    return bisect.bisect_right(range(terms * f.base.bit_length()), terms, key=lambda b: _terms(f, b)) - 1


def _import_timer(module: str, stdlib_compiled: bool):
    """A row's timer: the mean seconds ``import module`` takes in ``calls``
    fresh interpreters that compile every bbplog module they import, and
    every standard-library one too when ``stdlib_compiled``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"

    def run(calls: int) -> float:
        total = 0.0
        for _ in range(calls):
            with tempfile.TemporaryDirectory() as tmp:
                env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"} | {"PYTHONDONTWRITEBYTECODE": "1"}
                if stdlib_compiled:
                    env |= {"PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": tmp}
                else:
                    shutil.copytree(SRC / "bbplog", Path(tmp) / "bbplog", ignore=shutil.ignore_patterns("__pycache__"))
                    env["PYTHONPATH"] = tmp
                out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60)
            total += float(out.stdout)
        return total / calls

    return run


def _py_loop() -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - t


def _bigint_loop() -> float:
    t = time.perf_counter()
    x = (1 << 20000) - 1
    for _ in range(300):
        x = (x * x) >> 20000
    return time.perf_counter() - t


def _side_by_side() -> float:
    """The slower of two big-int loops run at once in forked processes."""
    children = []
    for _ in range(2):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            os.write(w, repr(_bigint_loop()).encode())
            os._exit(0)
        os.close(w)
        children.append((pid, r))
    slowest = 0.0
    for pid, r in children:
        with os.fdopen(r, "rb") as pipe:
            slowest = max(slowest, float(pipe.read()))
        os.waitpid(pid, 0)
    return slowest


def _probe() -> dict:
    lone = _bigint_loop()
    return {"py_loop_s": _py_loop(), "bigint_loop_s": lone, "side_by_side_ratio": _side_by_side() / lone}


def _stats(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _host() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu": model, "nproc": usable, "python": platform.python_version(), "platform": platform.platform()}


def _commit() -> dict:
    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    # the code timed, even before it is committed: every file under src/
    # but bytecode and build metadata, path and bytes, in sorted order
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        rel = path.relative_to(SRC)
        if path.is_file() and not any(part == "__pycache__" or part.endswith(".egg-info") for part in rel.parts):
            data = path.read_bytes()
            digest.update(b"%s\0%d\0%s" % (rel.as_posix().encode(), len(data), data))
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status), "src_sha256": digest.hexdigest()}


def run(quick: bool) -> dict:
    rows = _rows(quick)
    repeats = 1 if quick else REPEATS
    # the warm-up call sets the calls per sample
    calls = [1 if quick else max(1, round(SAMPLE_S / timer(1))) for _, _, timer in rows]
    samples = [[] for _ in rows]
    probes = [_probe()]
    for _ in range(repeats):
        for i, (_, _, timer) in enumerate(rows):
            samples[i].append(timer(calls[i]))
            probes.append(_probe())
    medians = {k: statistics.median(p[k] for p in probes) for k in probes[0]}

    def off(p: dict) -> bool:
        return any(not medians[k] / PHASE_BAND <= p[k] <= medians[k] * PHASE_BAND for k in ("py_loop_s", "bigint_loop_s"))

    out_rows = []
    for i, (name, params, _) in enumerate(rows):
        # the probes before and after sample r of row i
        around = [(probes[r * len(rows) + i], probes[r * len(rows) + i + 1]) for r in range(repeats)]
        flagged = sum(off(a) or off(b) for a, b in around)
        ratio = statistics.median(p["side_by_side_ratio"] for pair in around for p in pair)
        out_rows.append(
            {"name": name, "params": params, "calls": calls[i], "unit": "s", **_stats(samples[i]), "samples": samples[i], "flagged": flagged, "side_by_side_ratio": ratio}
        )
    return {
        "tool": "tests/bench_layers.py",
        "quick": quick,
        **_commit(),
        "host": _host(),
        "repeats": repeats,
        "sample_s": SAMPLE_S,
        "phase_band": PHASE_BAND,
        "probe": {k: _stats([p[k] for p in probes]) for k in probes[0]} | {"count": len(probes)},
        "probes": probes,
        "rows": out_rows,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="every row once at tiny sizes (a smoke test)")
    parser.add_argument("--out", default="-", help="the JSON file to write (default stdout)")
    args = parser.parse_args(argv)
    text = json.dumps(run(args.quick), indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
