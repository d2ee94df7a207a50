"""In-memory spans around the calls into each bbplog module.

Tracing rebinds each public function, from outside the program, in every
``bbplog`` module that holds a reference to it (the defining module and
each module that imported it), so calls made inside the library are
traced too.  Hot kernels (``modpow`` and the ``FixedReal`` arithmetic
methods) are only counted.  A span is (name, start, end, parent index,
request id); self time is a span's duration minus what its children
cover.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "spigot", "formula", "numerics", "family", "verify")

# (layer, module, attribute); a dotted attribute names a method
SPANNED = (
    ("cli", "bbplog.cli", "main"),
    ("spigot", "bbplog.spigot", "build_plan"),
    ("spigot", "bbplog.spigot", "extract_bits"),
    ("spigot", "bbplog.spigot", "extract_hex"),
    ("formula", "bbplog.formula", "eval_P"),
    ("formula", "bbplog.formula", "parse_formula"),
    ("formula", "bbplog.formula", "emit_formula"),
    ("numerics", "bbplog.numerics", "fx_log"),
    ("numerics", "bbplog.numerics", "fx_sqrt"),
    ("numerics", "bbplog.numerics", "fx_atanh"),
    ("numerics", "bbplog.numerics", "FixedReal.decimal"),
    ("family", "bbplog.family", "family_coeffs"),
    ("family", "bbplog.family", "golden_formula"),
    ("family", "bbplog.family", "lhs_value"),
    ("family", "bbplog.family", "golden_constant"),
    ("family", "bbplog.family", "verify_li1_decomposition"),
    ("verify", "bbplog.verify", "verify_theorem"),
    ("verify", "bbplog.verify", "verify_corollary"),
    ("verify", "bbplog.verify", "verify_decomposition"),
)

_FIXEDREAL_OPS = (
    "__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__abs__",
    "mul_int", "div_int", "mul_fraction", "rescale",
)
COUNTED = (
    ("spigot.modpow_calls", "bbplog.numerics", ("modpow",)),
    ("numerics.fixedreal_ops", "bbplog.numerics", tuple(f"FixedReal.{op}" for op in _FIXEDREAL_OPS)),
)


class Tracer:
    """Installs the wrappers, records spans and counts, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.request = -1
        self.head_terms = 0
        self.eval_terms = 0
        self.certified_bits = 0
        self.window_bits = 0
        self._stack = threading.local()
        self._counters: dict[str, list[itertools.count]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans = self.spans
        local = self._stack
        probe = {"spigot.extract_bits": self._probe_window, "formula.eval_P": self._probe_eval}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("s", [])
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counter = itertools.count()
        self._counters[name].append(counter)
        tick = counter.__next__  # atomic under the GIL, so safe in pool threads

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # computed counts, derived from public results only

    def _probe_window(self, args, window) -> None:
        plan, n, count = args[:3]
        self.head_terms += (n // plan.beta + 1) * len(plan.nonzero)
        self.certified_bits += window.certified
        self.window_bits += count

    def _probe_eval(self, args, result) -> None:
        self.eval_terms += result.terms_used * sum(1 for a in args[0].coeffs if a)

    # -- installation -------------------------------------------------------

    def _rebind(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            if meth in vars(cls):
                self._undo.append((cls, meth, vars(cls)[meth]))
                setattr(cls, meth, make(vars(cls)[meth]))
            return
        fn = getattr(module, attr, None)
        if fn is None:
            return  # removed by a later version: its metrics read 0
        wrapped = make(fn)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "bbplog" and not name.startswith("bbplog."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, key, fn))
                    setattr(mod, key, wrapped)

    def __enter__(self) -> "Tracer":
        for layer, module, attr in SPANNED:
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            self._rebind(module, attr, functools.partial(self._span, name))
        for name, module, attrs in COUNTED:
            for attr in attrs:
                self._rebind(module, attr, functools.partial(self._count, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Counter totals; call once, after the pass (reading advances them)."""
        out = {name: sum(next(c) for c in cs) for name, cs in self._counters.items()}
        out.update(
            {
                "spigot.head_terms": self.head_terms,
                "formula.eval_P_terms": self.eval_terms,
                "spigot.certified_bits": self.certified_bits,
                "spigot.window_bits": self.window_bits,
            }
        )
        return out

    def write(self, path: str) -> None:
        """Write one JSON array per span: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Total seconds and calls per span name, and self seconds per layer."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), children in zip(spans, child_time):
        out[name + "_s"] += end - start
        out[name + "_calls"] += 1
        out[name.split(".")[0] + ".self_s"] += end - start - children
    return out
