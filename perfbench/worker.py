"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` only sets up and reports ``setup_s``; ``plain`` runs the
request list untraced; ``traced`` runs it with spans and counts and
writes the spans to ``--spans``.  Run from the repository root.  Prints
one JSON object on stdout.

Set-up is what a user pays before the first request: import ``bbplog``,
write the workload's formula files with ``bbplog family --t T -o``, and
load the presets.  Each request then calls ``bbplog.cli.main`` in-process
with stdout and stderr captured; its output is checked later, by the
caller, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_bbplog():
    src = os.path.join(_ROOT, "src")
    sys.path.insert(0, src)
    import bbplog.cli
    import bbplog.presets

    if not os.path.abspath(bbplog.__file__).startswith(src + os.sep):
        raise ImportError(f"bbplog imported from {bbplog.__file__}, not {src}")
    return bbplog


def _call(main, argv: list[str]) -> tuple[int | None, str, str]:
    """Run one CLI request in-process: (exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), f"SystemExit({code}): {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        return None, out.getvalue(), f"{type(exc).__name__}: {str(exc)[:200]}"
    return rc, out.getvalue(), ""


def run(workload: str, seed: int, seconds: float, mode: str, spans_path: str | None) -> dict:
    argvs = workloads.requests(workload, seed, seconds)
    start = time.perf_counter()
    bbplog = _import_bbplog()
    os.makedirs(workloads.FORMULA_DIR, exist_ok=True)
    for t in workloads.family_params(workload):
        rc, _, error = _call(bbplog.cli.main, ["family", "--t", str(t), "-o", workloads.formula_path(t)])
        if rc != 0:
            raise RuntimeError(f"set-up: bbplog family --t {t} failed: {rc} {error}")
    for name in sorted(bbplog.presets.PRESETS):
        bbplog.presets.load_preset(name)
    result = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        return result

    from spans import Tracer

    tracer = Tracer() if mode == "traced" else None
    records = []
    with tracer or contextlib.nullcontext():
        begin = time.perf_counter()
        for i, argv in enumerate(argvs):
            if tracer:
                tracer.request = i
            t0 = time.perf_counter()
            rc, out, error = _call(bbplog.cli.main, argv)
            t1 = time.perf_counter()
            records.append({"argv": argv, "rc": rc, "out": out, "error": error, "s": t1 - t0})
        result["wall_s"] = time.perf_counter() - begin
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["records"] = records
    if tracer:
        tracer.write(spans_path)
        result["counts"] = tracer.counts()
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--spans")
    a = ap.parse_args()
    if a.mode == "traced" and not a.spans:
        ap.error("--spans is required with --mode traced")
    result = run(a.workload, a.seed, a.seconds, a.mode, a.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
