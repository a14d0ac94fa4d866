"""Span recorder for the traced pass.

The tracer wraps each public layer function at every binding a caller can
look it up through (the defining module, every module that imported it by
name, and the package namespace), records one span per call, and restores
the original bindings on exit. Nothing inside the package is edited: the
wrappers exist only while ``Tracer.installed()`` is active.

A span is a list ``[name, thread, parent, start, end, op, extra]``:
``parent`` is the enclosing span object (``None`` for a root), ``op`` the
benchmark operation it belongs to, ``extra`` a dict of counts taken at the
boundary (bytes, method errors, compared trials) or ``None``.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "mcdm_weights"

#: module -> public functions whose self time the traced pass reports
LAYERS = {
    "io": ("parse_matrix", "sha256_digest", "build_report", "emit_report"),
    "matrix": ("validate_matrix", "generate_matrix"),
    "entropy": ("normalize_columns", "entropy_weights"),
    "dispersion": ("dwm_weights",),
    "compare": ("compare_weights", "rank_desc", "pearson", "spearman"),
    "cli": ("main", "run_benchmark"),
}

NAME, THREAD, PARENT, START, END, OP, EXTRA = range(7)


def _extra(name: str, args, result) -> dict | None:
    # counts taken at the layer boundary, after the span has closed
    if name == "io.parse_matrix":
        return {"bytes": len(args[0].encode("utf-8"))}
    if name == "io.emit_report":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "cli.run_benchmark":
        return {"compared": result.compared_trials, "trials": result.trials}
    return None


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._local = threading.local()
        self._method_error = sys.modules[PACKAGE + ".errors"].MethodError

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans, stack_of, method_error = self.spans, self._stack, self._method_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, threading.get_ident(), stack[-1] if stack else None,
                    0.0, 0.0, self.op, None]
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except method_error:
                span[EXTRA] = {"method_errors": 1}
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                spans.append(span)
            span[EXTRA] = _extra(name, args, result)
            return result

        return traced

    def adopting(self, fn):
        """Run ``fn`` on another thread under the span open here and now."""
        stack = self._stack()
        parent = stack[-1] if stack else None

        def adopted(*args, **kwargs):
            saved = getattr(self._local, "stack", None)
            self._local.stack = [parent] if parent is not None else []
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = saved

        return adopted

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding of every layer function for its wrapper."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        undo = []
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self.wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
        # run_benchmark's pool threads start with an empty span stack;
        # hand them the submitting span so their spans nest under it
        cli = sys.modules[PACKAGE + ".cli"]
        base = cli.ThreadPoolExecutor
        tracer = self

        class TracingExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopting(fn), *args, **kwargs)

        cli.ThreadPoolExecutor = TracingExecutor
        undo.append((cli, "ThreadPoolExecutor", base))
        try:
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children on other threads can overlap each other; the union of their
    intervals is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[id(span[PARENT])].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - _covered(children.get(id(span), []), span[START], span[END])
        for span in spans
    ]


def layer_names() -> list[str]:
    return [f"{m}.{f}" for m, functions in LAYERS.items() for f in functions]


def layer_metrics(spans: list[list], ops: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced operations ``ops``.

    ``*.self_ms`` is the median over operations of the per-operation summed
    self time; counts are totals divided by the number of operations.
    """
    names = layer_names()
    per_op = {op: dict.fromkeys(names, 0.0) for op in ops}
    calls = dict.fromkeys(names, 0)
    extra: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        per_op[span[OP]][span[NAME]] += own
        calls[span[NAME]] += 1
        for key, value in (span[EXTRA] or {}).items():
            extra[f"{span[NAME]}.{key}"] += value
    n = len(ops)
    out: dict[str, tuple[float, str]] = {}
    for name in names:
        out[f"{name}.self_ms"] = (
            1e3 * statistics.median(per_op[op][name] for op in ops), "ms/op")
        out[f"{name}.calls"] = (calls[name] / n, "calls/op")
    out["io.parse_matrix.bytes"] = (extra["io.parse_matrix.bytes"] / n, "B/op")
    out["io.emit_report.bytes"] = (extra["io.emit_report.bytes"] / n, "B/op")
    for name in ("entropy.entropy_weights", "dispersion.dwm_weights"):
        out[f"{name}.method_errors"] = (
            extra[f"{name}.method_errors"] / n, "errors/op")
    trials = extra["cli.run_benchmark.trials"]
    out["cli.run_benchmark.compared_ratio"] = (
        extra["cli.run_benchmark.compared"] / trials if trials else 0.0, "ratio")
    return out
