"""Outside-in span tracer.

Spans are recorded by wrapping functions from the benchmark's side: the
package under test is not edited.  A span is (name, start, end, parent), kept
in memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of all
spans under one root add up to the root's duration.

Modules bind each other's functions by value (``from .exact import
lp_feasible``), so patching the defining module alone would miss the copies.
``Tracer.install`` therefore replaces every binding of the original function
object in every loaded module of the package.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack = [-1]
        self._patches: list = []

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``observe(args, result)`` runs
        after the span closes, to count what crossed the boundary."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1]]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self, package: str, targets) -> None:
        """Wrap each (module, attribute, span name, observe) target at every
        binding of the same function object in ``package``'s modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for module, attr, name, observe in targets:
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def layer_times(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - c
        return out

    def flags_under(self, match: Callable[[str], bool]) -> list[bool]:
        """Per span: does its name, or an ancestor's, satisfy ``match``?"""
        flags: list[bool] = []
        for name, _, _, parent in self.spans:
            flags.append(match(name) or (parent >= 0 and flags[parent]))
        return flags

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
