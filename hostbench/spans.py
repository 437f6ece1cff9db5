"""In-memory span recorder for the traced benchmark run.

The traced run wraps public entry points of the program with
:func:`instrument`; every wrapped call opens a span (name, start, end,
parent).  Per-event entry points, and anything they call, are folded
into one span per (entry, parent) carrying a call count, so a
million-event simulation stays a few hundred spans.  Nothing is
written until :meth:`SpanRecorder.chrome_trace` is called at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter


class SpanRecorder:
    """Spans as parallel lists indexed by span id; ``parent`` -1 is a root."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.calls: List[int] = []
        self.folded: List[bool] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._fold_ids: Dict[Tuple[str, int], int] = {}
        self._finished = False

    def _new(self, name: str, parent: int, folded: bool) -> int:
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)  # folded spans: accumulated duration until finish()
        self.parents.append(parent)
        self.calls.append(0)
        self.folded.append(folded)
        return len(self.names) - 1

    def enter(self, name: str, fold: bool = False) -> int:
        """Open a span under the innermost open one and return its id."""
        parent = self._stack[-1] if self._stack else -1
        if fold or (parent >= 0 and self.folded[parent]):
            key = (name, parent)
            sid = self._fold_ids.get(key)
            if sid is None:
                sid = self._fold_ids[key] = self._new(name, parent, True)
        else:
            sid = self._new(name, parent, False)
        self._stack.append(sid)
        return sid

    def leave(self, sid: int, start: float, end: float) -> None:
        """Close span ``sid``, which ran from ``start`` to ``end``."""
        self._stack.pop()
        self.calls[sid] += 1
        if self.folded[sid]:
            if self.calls[sid] == 1:
                self.starts[sid] = start
            self.ends[sid] += end - start
        else:
            self.starts[sid] = start
            self.ends[sid] = end

    def span(self, name: str):
        """Context manager for a span around benchmark-side code."""
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def finish(self) -> None:
        """Give folded spans concrete intervals.

        A folded span's duration is the sum of its calls.  It is laid out
        from its parent's start, after its folded siblings; because every
        call ran inside a call of the parent, the folded children of one
        parent sum to at most the parent's duration, so they nest.
        """
        if self._finished:
            return
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        cursor: Dict[int, float] = {}
        for sid, parent in enumerate(self.parents):
            if not self.folded[sid] or self.calls[sid] == 0:
                continue
            duration = self.ends[sid]
            if parent >= 0:
                self.starts[sid] = cursor.get(parent, self.starts[parent])
            self.ends[sid] = self.starts[sid] + duration
            cursor[parent] = self.ends[sid]
        self._finished = True

    # -- analysis ------------------------------------------------------

    def durations(self) -> List[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        dur = self.durations()
        child = [0.0] * len(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[sid]
        return [max(0.0, d - c) for d, c in zip(dur, child)]

    def per_entry(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, self_s, total_s}}`` summed over spans.

        ``total_s`` counts only outermost spans of a name, so recursion
        is not counted twice.
        """
        dur, own = self.durations(), self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for sid, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0})
            row["calls"] += self.calls[sid]
            row["self_s"] += own[sid]
            parent = self.parents[sid]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                row["total_s"] += dur[sid]
        return out

    def chrome_trace(self) -> Dict:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing).

        Single calls go on thread 1; folded per-event spans on thread 2,
        where their laid-out intervals nest by construction.
        """
        origin = min(self.starts) if self.starts else 0.0
        own = self.self_times()
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": "host"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "calls"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 2,
             "args": {"name": "folded per-event calls"}},
        ]
        fold_ids = set(self._fold_ids.values())
        for sid, name in enumerate(self.names):
            if self.calls[sid] == 0:
                continue
            events.append({
                "ph": "X", "name": name, "pid": 1,
                "tid": 2 if sid in fold_ids else 1,
                "ts": (self.starts[sid] - origin) * 1e6,
                "dur": (self.ends[sid] - self.starts[sid]) * 1e6,
                "args": {"calls": self.calls[sid],
                         "self_us": own[sid] * 1e6,
                         "parent": self.parents[sid]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _Span:
    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self.rec, self.name = rec, name

    def __enter__(self):
        self.sid = self.rec.enter(self.name)
        self.start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        self.rec.leave(self.sid, self.start, _clock())


def _resolve(path: str) -> Tuple[object, str, object]:
    """``"repro.sched.cg:segment_graph"`` -> (owner, attribute, value)."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


def _span_wrapper(rec: SpanRecorder, name: str, fn: Callable,
                  fold: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.enter(name, fold)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(sid, start, _clock())
    return wrapper


class Instrumentation:
    """Installed wrappers; :meth:`remove` puts the originals back.

    ``scopes`` names the packages and modules whose imported names are
    rebound as well (the program, and the benchmark module calling it).
    """

    def __init__(self, scopes: Tuple[str, ...] = ("repro",)) -> None:
        self.scopes = scopes
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, path: str, make: Callable[[Callable], Callable]) -> None:
        """Replace the entry point ``path`` by ``make(original)``.

        A method is replaced on its class.  A function is replaced in its
        module and in every loaded module of ``scopes`` that imported it
        by name, so calls from inside the program go through the wrapper.
        """
        owner, attr, value = _resolve(path)
        wrapped = make(value)
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not any(
                    name == scope or name.startswith(scope + ".")
                    for scope in self.scopes):
                continue
            for key, held in list(vars(module).items()):
                if held is value:
                    self._set(module, key, wrapped)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def instrument(rec: SpanRecorder, entries,
               scopes: Tuple[str, ...] = ("repro",)) -> Instrumentation:
    """Wrap each ``(metric name, "module:qualname", fold)`` entry point."""
    inst = Instrumentation(scopes)
    for name, path, fold in entries:
        inst.patch(path, lambda fn, n=name, f=fold:
                   _span_wrapper(rec, n, fn, f))
    return inst


def counting_wrapper(rec: SpanRecorder, prefix: str,
                     fn: Callable) -> Callable:
    """Count calls of a lookup as ``prefix.hits`` / ``prefix.misses``
    (``None`` means a miss) without opening a span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        rec.count(f"{prefix}.misses" if value is None
                  else f"{prefix}.hits")
        return value
    return wrapper


__all__ = ["Instrumentation", "SpanRecorder", "counting_wrapper",
           "instrument"]
