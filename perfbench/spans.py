"""Span tracing for the benchmark's traced runs.

While a ``Tracer`` is installed it replaces public functions of the choreo
modules with wrappers, each in the module that calls it, so that the
program's own calls go through them (``choreo.parser.lex`` is what the
parser calls, ``choreo.projector.merge_stm`` what the projector calls).
Every wrapped call records one span: name, start, end, parent span and the
benchmark operation it belongs to. Spans opened on the distributed workers'
threads have no parent of their own and are parented to the
``eval_distributed`` span that started those threads. Spans stay in memory
until ``write_jsonl``.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict, namedtuple


# (span name, module, attribute, count taken from the call's result or None).
# Counts are kept as integers on the span so that they repeat exactly.
PATCHES = [
    ("lexer", "choreo.parser", "lex", lambda result: len(result)),
    ("parser", "choreo.parser", "parse_program", lambda result: len(result[0].decls)),
    ("parser.desugar", "choreo.parser", "desugar_program", None),
    ("parser.desugar", "choreo.parser", "expand_literal_lists", None),
    ("checker", "choreo.checker", "check_program", lambda result: len(result[1].items)),
    ("projector", "choreo.projector", "project_program",
     lambda result: len(result[0].units)),
    ("merging", "choreo.projector", "merge_stm", None),
    ("merging", "choreo.projector", "big_merge", None),
    ("printer", "choreo.printer", "render_unit",
     lambda result: sum(1 for line in result.splitlines() if line.strip())),
    ("interpreter", "choreo.interpreter", "eval_global", None),
    ("distributed", "choreo.distributed", "eval_distributed", None),
    ("differential", "choreo.differential", "compare_reports", None),
    ("runtime.send", "choreo.runtime", "ChannelEndpoint.send_data", None),
    ("runtime.send_label", "choreo.runtime", "ChannelEndpoint.send_label", None),
    ("runtime.recv", "choreo.runtime", "ChannelEndpoint.receive_data", None),
    ("runtime.recv_label", "choreo.runtime", "ChannelEndpoint.receive_label", None),
]

SPAN_NAMES = sorted({p[0] for p in PATCHES})


# Times are perf_counter seconds; cpu is process_time seconds, all threads,
# and is taken only for eval_distributed.
Span = namedtuple("Span", "id parent op name start end count cpu")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # id of the benchmark operation in progress
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_root = None  # the eval_distributed span, for worker threads
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count):
        tracer = self
        roots_threads = name == "distributed"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._thread_root
            sid = next(tracer._ids)
            stack.append(sid)
            if roots_threads:
                tracer._thread_root = sid
            cpu0 = time.process_time()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu0 if roots_threads else 0.0
                stack.pop()
                if roots_threads:
                    tracer._thread_root = None
                n = count(result) if count and result is not None else 0
                tracer.spans.append(Span(sid, parent, tracer.op, name, start, end, n, cpu))

        return traced

    def install(self):
        for name, module, attr, count in PATCHES:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write_jsonl(self, path, t0):
        """One JSON object per span, gzipped; times in microseconds from t0."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start_us": round((s.start - t0) * 1e6, 1),
                    "end_us": round((s.end - t0) * 1e6, 1),
                    "count": s.count,
                }) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
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


def layer_table(spans):
    """Per span name: calls, total and self time (ms) and summed counts.

    Self time is a span's duration minus the part of it its children cover.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    table = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "count": 0, "cpu_ms": 0.0}
             for name in SPAN_NAMES}
    for s in spans:
        row = table[s.name]
        dur = s.end - s.start
        row["calls"] += 1
        row["total_ms"] += 1e3 * dur
        row["self_ms"] += 1e3 * (dur - _covered(children.get(s.id, ()), s.start, s.end))
        row["count"] += s.count
        row["cpu_ms"] += 1e3 * s.cpu
    return table
