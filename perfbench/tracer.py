"""Spans around calls into biplanekit's public functions.

The library has no tracing of its own yet, so the traced run patches the
module attributes through which the library calls itself (for example
`augmentation.build_state`, which `maximal_augment` looks up at call time)
with wrappers that record a span.  Nothing inside the library changes,
and the patches are removed after every traced operation.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    """Records spans in memory; `install` patches, `remove` restores."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(
        self,
        name: str,
        func: Callable,
        on_return: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].children_s += span.duration
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def install(self, targets: list[tuple[str, Callable, Callable | None]]) -> None:
        """Patch each target function in every biplanekit module that holds it.

        A target is (span name, function, on_return hook).  Patching every
        module catches calls made through `from .x import f` names too.
        """
        modules = [
            m for k, m in sys.modules.items() if k == "biplanekit" or k.startswith("biplanekit.")
        ]
        for name, func, hook in targets:
            wrapper = self.wrap(name, func, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def totals(spans: list[Span]) -> dict[str, float]:
    """Inclusive seconds per span name; nested calls of one name count once."""
    out: dict[str, float] = {}
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            out[s.name] = out.get(s.name, 0.0) + s.duration
    return out
