"""In-memory span tracing for the benchmark's traced runs.

The tracer wraps public functions of the program from outside: it swaps a
module or class attribute for a wrapper that records a span around the
call, and puts the original back on ``uninstall``.  A span carries a name,
start and end (``perf_counter_ns``, CLOCK_MONOTONIC on Linux, so spans
from a server process and client timestamps share one clock), its parent
and a request id.  The parent is the innermost open span of the same
thread or asyncio task (a ``ContextVar``), so interleaved connections on
one event loop keep their own chains.  Self time is a span's duration
minus the durations of its direct children.

Spans stay in memory (up to ``keep``) and are written out at the end as
JSON lines ``[id, name, start, end, parent_id, request_id, child_ns]``;
per-name totals are kept for every span, kept or not.  Garbage-collector
pauses are recorded through ``gc.callbacks`` while the tracer is
installed.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import inspect
import json
import os
import time

_now = time.perf_counter_ns

# Span record slots.
ID, NAME, START, END, PARENT, REQ, CHILD = range(7)


class Tracer:
    def __init__(self, keep: int = 300_000) -> None:
        self.keep = keep
        self.spans: list[list] = []
        #: name -> [count, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        #: (start_ns, pause_ns) per collection while installed.
        self.gc_events: list[tuple[int, int]] = []
        self._gc_start = 0
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._targets: list[tuple[object, str, str]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._next_req = 0
        self.installed = False

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str, req=None) -> tuple:
        parent = self._current.get()
        if req is None:
            if parent is not None:
                req = parent[REQ]
            else:
                self._next_req += 1
                req = self._next_req
        self._next_id += 1
        rec = [self._next_id, name, _now(), 0, parent, req, 0]
        return rec, self._current.set(rec)

    def end(self, rec: list, token) -> None:
        rec[END] = end = _now()
        self._current.reset(token)
        dur = end - rec[START]
        parent = rec[PARENT]
        if parent is not None:
            parent[CHILD] += dur
        st = self.stats.get(rec[NAME])
        if st is None:
            st = self.stats[rec[NAME]] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - rec[CHILD]
        if len(self.spans) < self.keep:
            self.spans.append(rec)

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span (one request)."""
        rec, token = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(rec, token)

    # -- wrappers --------------------------------------------------------------

    def target(self, owner, attr: str, name) -> None:
        """Register ``owner.attr`` to be wrapped in spans called ``name``,
        or ``name(*args)`` when ``name`` is callable (to split one function's
        spans by the kind of call)."""
        self._targets.append((owner, attr, name))

    def _wrap_sync(self, name, fn):
        begin, end = self.begin, self.end
        label = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, token = begin(label(*args) if label else name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec, token)

        return traced

    def _wrap_async(self, name: str, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            rec, token = begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                end(rec, token)

        return traced

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, name in self._targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap_sync(name, raw.__func__))
            elif inspect.iscoroutinefunction(raw):
                wrapped = self._wrap_async(name, raw)
            else:
                wrapped = self._wrap_sync(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        gc.callbacks.append(self._on_gc)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        gc.callbacks.remove(self._on_gc)
        self.installed = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        else:
            self.gc_events.append((self._gc_start, _now() - self._gc_start))

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> dict[str, list[int]]:
        return {name: list(st) for name, st in self.stats.items()}

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w") as fh:
            for rec in self.spans:
                parent = rec[PARENT]
                fh.write(json.dumps([
                    rec[ID], rec[NAME], rec[START], rec[END],
                    parent[ID] if parent is not None else None,
                    rec[REQ], rec[CHILD],
                ]) + "\n")


def stats_delta(after: dict, before: dict) -> dict[str, list[int]]:
    """Per-name ``[count, total_ns, self_ns]`` accrued between snapshots."""
    out = {}
    for name, st in after.items():
        base = before.get(name, (0, 0, 0))
        out[name] = [st[i] - base[i] for i in range(3)]
    return out


def stats_from_spans(path: str, lo_ns: int, hi_ns: int) -> dict:
    """Per-name ``[count, total_ns, self_ns]`` over the spans in a written
    span file that started inside ``[lo_ns, hi_ns]``."""
    out: dict[str, list[int]] = {}
    if not os.path.exists(path):
        return out
    with open(path) as fh:
        for line in fh:
            _, name, start, end, _, _, child = json.loads(line)
            if lo_ns <= start <= hi_ns:
                st = out.setdefault(name, [0, 0, 0])
                dur = end - start
                st[0] += 1
                st[1] += dur
                st[2] += dur - child
    return out
