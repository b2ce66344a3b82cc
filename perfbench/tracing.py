"""In-memory spans around the public calls into each layer.

The traced run wraps callables from outside the program: instance
attributes on the partitioner, matcher, allocator, engine and cluster, and
the module-level names that ``repro.core.loom`` and ``repro.serving.engine``
bind at import.  No file under ``src/`` changes, and the wrappers only read
the clock, so placements and answers stay bit-identical (the run checks it
through the output digests).

A span is ``(name, start, end, parent, request)``; ``parent`` is the index
of the enclosing span or -1.  Calls in one process nest strictly, so a
span's self time is its duration minus the summed durations of its direct
children.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, Optional[int]]


class Tracer:
    """Records spans in a list; written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: Request id stamped on spans opened while it is set (serve loops).
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, request_from_result: bool = False) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                request = result if request_from_result else self.request
                spans[index] = (name, start, end, parent, request)

        return traced

    def wrap_method(self, obj, attr: str, name: str, request_from_result: bool = False) -> None:
        """Shadow ``obj.attr`` with a traced instance attribute."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), request_from_result))
        self._restore.append(lambda: delattr(obj, attr))

    def patch_global(self, module, attr: str, name: str) -> None:
        """Replace a module-level name for the length of the traced pass."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original))
        self._restore.append(lambda: setattr(module, attr, original))

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per span name: call count, total and self seconds, durations,
        and call counts split by the parent span's name."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _request in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, object]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, _request = span
            row = out.get(name)
            if row is None:
                row = out[name] = {
                    "calls": 0,
                    "total_s": 0.0,
                    "self_s": 0.0,
                    "durations": [],
                    "by_parent": {},
                }
            duration = end - start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[index]
            row["durations"].append(duration)
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            by_parent = row["by_parent"]
            entry = by_parent.get(parent_name)
            if entry is None:
                entry = by_parent[parent_name] = [0, 0.0]
            entry[0] += 1
            entry[1] += duration - child_time[index]
        return out
