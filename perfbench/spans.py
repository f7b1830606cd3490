"""In-memory span tracer for the traced benchmark run.

Only the traced run installs wrappers, and it installs them from the
outside: :meth:`Tracer.patch` replaces a class method or the module
attribute a caller looks up with a timing wrapper, and
:meth:`Tracer.restore` puts the original back.  The program's source is
never edited.

A span is ``(id, parent, name, start_ns, end_ns, unit)``: the parent is
the span open in the same process when it started, and ``unit`` is the
cell seed or offer index the work belongs to.  Spans stay in memory;
each process writes its own file (forked workers at exit, through
:mod:`multiprocessing`'s finalizers) and :func:`load_spans` merges them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from typing import Any, Callable, Iterable

#: Clock shared by every process on the host (CLOCK_MONOTONIC on Linux).
clock = time.perf_counter_ns


class Tracer:
    """Records spans and counters for one process tree."""

    def __init__(self, out_dir: str | os.PathLike[str]) -> None:
        self.out_dir = pathlib.Path(out_dir)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Cell seed or offer index stamped on spans that start now.
        self.unit: Any = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[Any, str, Any]] = []
        #: Cleared by :meth:`restore`: a process forked later records nothing.
        self.active = True
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- recording -----------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        unit: Callable[[tuple, dict], Any] | None = None,
    ) -> Callable:
        """*fn* wrapped in a span; ``unit(args, kwargs)`` sets :attr:`unit`."""
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if unit is not None:
                self.unit = unit(args, kwargs)
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.unit))

        return traced

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # -- installing wrappers -------------------------------------------

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        unit: Callable[[tuple, dict], Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        self.replace(owner, attr, self.wrap(self.original(owner, attr), name, unit))

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr`` to *new* until :meth:`restore`."""
        self._undo.append((owner, attr, self.original(owner, attr)))
        setattr(owner, attr, new)

    @staticmethod
    def original(owner: Any, attr: str) -> Any:
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def restore(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def flush(self) -> pathlib.Path:
        """Write this process's spans and counters to ``spans-<pid>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "pid": os.getpid(),
                    "spans": self.spans,
                    "counters": dict(self.counters),
                }
            )
        )
        os.replace(tmp, path)
        return path

    def _after_fork(self) -> None:
        # A forked worker starts with its own empty record (in place, so
        # installed wrappers keep pointing at it) and writes it at exit.
        # Tracers of earlier traced rounds stay registered while anything
        # still holds one of their wrappers; they must cost a fork nothing.
        if not self.active:
            return
        self.spans.clear()
        self._stack.clear()
        self.counters.clear()
        mp_util.Finalize(None, self.flush, exitpriority=100)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._sid = next(tracer._ids)
        self._parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self._sid)
        self._start = clock()
        return self

    def __exit__(self, *exc: object) -> None:
        end = clock()
        tracer = self._tracer
        tracer._stack.pop()
        tracer.spans.append(
            (self._sid, self._parent, self._name, self._start, end, tracer.unit)
        )


# ---------------------------------------------------------------------------
# merging and self-time arithmetic
# ---------------------------------------------------------------------------


def load_spans(out_dir: str | os.PathLike[str]) -> tuple[list[dict], dict[str, float]]:
    """Merge every process's span file: spans keyed by ``(pid, id)``."""
    spans: list[dict] = []
    counters: dict[str, float] = defaultdict(float)
    for path in sorted(pathlib.Path(out_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        spans.extend(span_dicts(data["pid"], data["spans"]))
        for key, value in data["counters"].items():
            counters[key] += value
    return spans, dict(counters)


def span_dicts(pid: int, records: Iterable) -> list[dict]:
    return [
        {"pid": pid, "id": sid, "parent": parent, "name": name,
         "start": start, "end": end, "unit": unit}
        for sid, parent, name, start, end, unit in records
    ]


def self_times(spans: list[dict]) -> list[float]:
    """Self time (seconds) of each span, in input order.

    A span's self time is its duration minus the part of its interval
    that its direct children cover; children are matched by ``(pid,
    parent)``, so spans merged from several processes never claim each
    other as children.
    """
    children: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["pid"], s["parent"])].append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered = _covered(s["start"], s["end"], children.get((s["pid"], s["id"]), ()))
        out.append((s["end"] - s["start"] - covered) / 1e9)
    return out


def layer_totals(spans: list[dict]) -> dict[str, tuple[int, float]]:
    """``{name: (calls, self_seconds)}`` over *spans*."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        totals[s["name"]][0] += 1
        totals[s["name"]][1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}


def _covered(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
