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
call, and recorded as ``calls``.  The import rows start a fresh interpreter
per sample, with ``PYTHONDONTWRITEBYTECODE=1`` and an empty
``PYTHONPYCACHEPREFIX``, so that every module it imports is compiled,
and time the import statement inside it.

Before the first row and after every row, the probe times a fixed
pure-Python loop, a fixed big-int loop, and that big-int loop in two
forked processes side by side; the ratio of the slower of the two to
the lone loop is how much of a CPU the second process got (2 means
none).  A row's sample is flagged when a loop's time in a probe next to
it reads outside ``PHASE_BAND`` of the run's median for that loop, and
each row records the median ratio of the probes around it.  The probe
only flags; it never rescales a row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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

from bbplog.family import family_coeffs, golden_formula
from bbplog.formula import _truncation, eval_P
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
        rows.append((f"import {module}", {"fresh_interpreter": True}, _import_timer(module)))
    for name, f in (("golden", formulas["golden"]), ("t=9", family_coeffs(9).formula)):
        rows.append((f"_truncation {name}", {"bits": span}, _per_call(lambda f=f: _truncation(f, span))))
    return rows


def _import_timer(module: str):
    """A row's timer: the mean seconds ``import module`` takes in
    ``calls`` fresh interpreters that compile every module they import."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"

    def run(calls: int) -> float:
        total = 0.0
        for _ in range(calls):
            with tempfile.TemporaryDirectory() as empty:
                env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": empty}
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
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


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
