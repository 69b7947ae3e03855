"""In-memory span recording around public functions of the program.

The benchmark never edits the program: it replaces public functions and
methods with thin wrappers that open a span on entry and close it on
exit.  Each thread keeps a stack of open spans, so a span's *self time*
is its duration minus the durations of the spans opened inside it, and
the self times of one job add up to the job's wall time.

Two kinds of span:

* ``record`` spans (coarse layers: jobs, engine runs, executor calls, …)
  keep a full record ``(name, start, end, parent, job)``;
* ``count`` spans (hot layers called up to a million times per pass:
  the vertex kernel, warp, cluster sends, wire frames) only fold their
  count, duration and self time into per-thread totals, which keeps
  memory flat.

Wrappers are inert in any process but the one that installed them, so
forked executor workers run the original code at (almost) full speed.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "index")

    def __init__(self, name: str, start: float, index: Optional[int]):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index


class SpanRecorder:
    """Collects spans of the current process; see the module docstring."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.records: List[list] = []
        self._local = threading.local()
        self._totals: List[Dict[str, list]] = []
        self._lock = threading.Lock()

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.totals = {}
            local.job = None
            with self._lock:
                self._totals.append(local.totals)
        return local

    def set_job(self, job: Optional[str]) -> None:
        self._state().job = job

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    # -- span lifecycle ------------------------------------------------------

    def open(self, name: str, record: bool = True, start: Optional[float] = None):
        local = self._state()
        stack = local.stack
        index = None
        if record:
            parent = stack[-1].index if stack else None
            with self._lock:  # daemon connection threads record concurrently
                index = len(self.records)
                self.records.append([name, 0.0, 0.0, parent, local.job])
        frame = _Frame(name, _clock() if start is None else start, index)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        end = _clock()
        local = self._local
        stack = local.stack
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        if frame.index is not None:
            rec = self.records[frame.index]
            rec[1], rec[2] = frame.start, end
        total = local.totals.get(frame.name)
        if total is None:
            total = local.totals[frame.name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame.child
        return duration

    def count(self, name: str, n: int = 1) -> None:
        totals = self._state().totals
        total = totals.get(name)
        if total is None:
            total = totals[name] = [0, 0.0, 0.0]
        total[0] += n

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``name -> {"count", "total_s", "self_s"}`` over every thread."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            per_thread = list(self._totals)
        for totals in per_thread:
            for name, (count, total, self_s) in list(totals.items()):
                agg = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                agg["count"] += count
                agg["total_s"] += total
                agg["self_s"] += self_s
        return out

    def reset(self) -> None:
        self.records = []
        with self._lock:
            for totals in self._totals:
                totals.clear()

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        doc = {"records": self.records, "totals": self.totals()}
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, *, record: bool = True,
             on_result: Optional[Callable[[Any, float], None]] = None) -> None:
        """Replace ``owner.attr`` with a span-opening wrapper."""
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        fn = static.__func__ if kind is not None else static
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled or os.getpid() != recorder.pid:
                return fn(*args, **kwargs)
            frame = recorder.open(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = recorder.close(frame)
            if on_result is not None:
                on_result(result, duration)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def wrap_count(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        static = inspect.getattr_static(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder.enabled and os.getpid() == recorder.pid:
                recorder.count(name)
            return static(*args, **kwargs)

        wrapper.__wrapped__ = static
        setattr(owner, attr, wrapper)
