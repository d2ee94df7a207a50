"""bbplog benchmark: seeded CLI workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py``):
``digits-deep``, ``eval-wide`` and ``verify-mix``.  Each pass runs in a
fresh process (``worker.py``), so no cache inside the library carries over
between passes, as for a CLI user.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of seven
set-ups), ``wall_s``, ``latency_p50_s``, ``latency_tail_s`` (the highest
percentile with at least ten requests beyond it), ``success_ratio`` and
``peak_rss_mb``.  ``--trace 1`` runs the list three times (untraced,
untraced with ``BBP_THREADS=1``, traced) and prints the per-layer
metrics.  Every output is checked against a reference outside the timed
region.  The last stdout line is the JSON result; the line before it
records the environment.  The spans of a traced pass are written to
``perfbench/.out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import oracle
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
SETUP_SAMPLES = 7
BUILD_TIMEOUT_S = 850
PASS_TIMEOUT_S = 170


def _python(script: str, *args: str, env: dict | None = None, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {script} {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def _pass(a, mode: str, threads: str | None = None, spans_path: str | None = None) -> dict:
    env = dict(os.environ)
    env.pop("BBP_THREADS", None)
    if threads is not None:
        env["BBP_THREADS"] = threads
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode]
    if spans_path:
        args += ["--spans", spans_path]
    out = _python("worker.py", *args, env=env, timeout=PASS_TIMEOUT_S)
    return json.loads(out.splitlines()[-1])


def _check(records: list[dict], refs) -> tuple[list[str | None], int, int]:
    """Per-record verdicts, the number failed and the number wrong."""
    verdicts = [oracle.check(r, refs) for r in records]
    failed = sum(v is not None for v in verdicts)
    wrong = sum(v is not None and v.startswith("wrong") for v in verdicts)
    return verdicts, failed, wrong


def _tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    pct = 100 * (n - 10) // n
    return pct, s[n - 11]


def _env(a, requests: int, runs: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": a.workload,
        "seed": a.seed,
        "trace": a.trace,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "BBP_THREADS": "unset" + (", 1 for spigot.serial_s" if a.trace else ""),
        "runs": runs,
        "requests": requests,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(a, refs) -> tuple[dict, dict, int, int, int]:
    setups = [_pass(a, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = _pass(a, "plain")
    setups.append(res["setup_s"])
    records = res["records"]
    verdicts, failed, wrong = _check(records, refs)
    latencies = [r["s"] for r in records]
    pct, tail = _tail(latencies)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(res["wall_s"], "s"),
        "latency_p50_s": _metric(statistics.median(latencies), "s"),
        "latency_tail_s": _metric(tail, "s"),
        "success_ratio": _metric((len(records) - failed) / len(records), "1"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MiB"),
    }
    info = {"latency_tail_percentile": pct, "latency_samples": len(latencies), "setup_samples": len(setups),
            "failures": sorted({v for v in verdicts if v})}
    return metrics, info, len(records), failed, wrong


# per-layer metric -> the span total it reports (seconds, or calls)
_SPAN_METRICS = {
    "spigot.extract_bits_s": "spigot.extract_bits_s",
    "spigot.build_plan_s": "spigot.build_plan_s",
    "formula.eval_P_s": "formula.eval_P_s",
    "formula.parse_formula_s": "formula.parse_formula_s",
    "numerics.fx_log_s": "numerics.fx_log_s",
    "numerics.fx_log_calls": "numerics.fx_log_calls",
    "numerics.fx_sqrt_s": "numerics.fx_sqrt_s",
    "numerics.fx_sqrt_calls": "numerics.fx_sqrt_calls",
    "numerics.decimal_s": "numerics.decimal_s",
    "family.lhs_value_s": "family.lhs_value_s",
    "family.golden_constant_s": "family.golden_constant_s",
    "family.decomposition_s": "family.verify_li1_decomposition_s",
    "family.family_coeffs_s": "family.family_coeffs_s",
    "verify.theorem_s": "verify.verify_theorem_s",
    "verify.corollary_s": "verify.verify_corollary_s",
    "verify.decomposition_s": "verify.verify_decomposition_s",
}


def _per_layer(a, refs) -> tuple[dict, dict, int, int, int]:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{a.workload}-{a.seed}.jsonl")
    plain = _pass(a, "plain")
    serial = _pass(a, "plain", threads="1")
    traced = _pass(a, "traced", spans_path=spans_path)
    records = plain["records"] + serial["records"] + traced["records"]
    verdicts, failed, wrong = _check(records, refs)

    summary = spans.summarize(spans.read_spans(spans_path))
    counts = traced["counts"]
    margins = [m for r in traced["records"] if (m := oracle.margin_bits(r)) is not None]
    metrics = {
        name: _metric(int(summary.get(key, 0)), "count") if key.endswith("_calls")
        else _metric(summary.get(key, 0), "s")
        for name, key in _SPAN_METRICS.items()
    }
    window_bits = counts["spigot.window_bits"]
    metrics.update(
        {
            "spigot.head_terms": _metric(counts["spigot.head_terms"], "count"),
            "spigot.modpow_calls": _metric(counts.get("spigot.modpow_calls", 0), "count"),
            "spigot.certified_ratio": _metric(counts["spigot.certified_bits"] / window_bits if window_bits else 0, "1"),
            "spigot.serial_s": _metric(serial["wall_s"], "s"),
            "spigot.parallel_speedup": _metric(serial["wall_s"] / plain["wall_s"], "1"),
            "formula.eval_P_terms": _metric(counts["formula.eval_P_terms"], "count"),
            "numerics.fixedreal_ops": _metric(counts.get("numerics.fixedreal_ops", 0), "count"),
            "verify.min_margin_bits": _metric(min(margins) if margins else 0, "bits"),
        }
    )
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = _metric(summary.get(f"{layer}.self_s", 0), "s")
    metrics["trace.wall_s"] = _metric(traced["wall_s"], "s")
    metrics["trace.overhead_ratio"] = _metric(traced["wall_s"] / plain["wall_s"], "1")
    info = {"spans": os.path.relpath(spans_path, ROOT), "failures": sorted({v for v in verdicts if v})}
    return metrics, info, len(records), failed, wrong


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "bbplog", "cli.py")):
        raise SystemExit("perfbench: no bbplog sources under src/; run from the repository root")
    if oracle.missing_references():
        _python("oracle.py", timeout=BUILD_TIMEOUT_S)
    refs = oracle.load_references()

    measure = _per_layer if a.trace else _end_to_end
    metrics, info, attempted, failed, wrong = measure(a, refs)
    runs = 3 if a.trace else 1
    env = _env(a, attempted // runs, runs)
    print(json.dumps({"env": env, **info}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
