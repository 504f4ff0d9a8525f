"""Spans recorded from outside the program.

The tracer replaces a function with a wrapper that records a span (name,
start, end, parent span, request id) in memory.  A function imported with
``from .x import f`` is a separate binding in the importing module, so the
tracer rebinds every alias of the function in the given modules; otherwise
calls through the alias would escape the span.  Methods are replaced on
their class, and a class stands for its ``__init__``.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable, Optional

# (counter suffix, value to add for one call's result)
ResultCount = tuple[str, Callable[[object], int]]


class Tracer:
    def __init__(self) -> None:
        # one [name, start, end, parent index, request id] per call
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []

    def span_wrapper(self, name: str, fn: Callable,
                     result_count: Optional[ResultCount] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if result_count is not None:
                suffix, value = result_count
                counts[f"{name}.{suffix}"] += value(out)
            return out
        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules: Iterable[ModuleType], owner: object, attr: str,
                name: str, count_only: bool = False,
                result_count: Optional[ResultCount] = None) -> None:
        """Replace ``owner.attr`` and every module-level alias of it."""
        if isinstance(getattr(owner, attr), type):
            owner, attr = getattr(owner, attr), "__init__"
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        wrapper = (self.count_wrapper(name, original) if count_only
                   else self.span_wrapper(name, original, result_count))
        setattr(owner, attr, wrapper)
        if isinstance(owner, ModuleType):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict[str, dict]:
        """Calls and self seconds per span name.  Self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))
