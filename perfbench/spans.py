"""Spans recorded from outside the library, around calls into its modules.

A `Tracer` replaces a function by name where its callers look it up (a module
global or a class attribute) with a wrapper that records a span, and puts
every original back on `restore`. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

# observe(args, kwargs, result, tracer) records counts next to a span
Observer = Callable[[tuple, dict, object, "Tracer"], None]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1   # index into Tracer.spans, -1 at the top level
    op: int = -1       # index into Tracer.op_phases, -1 outside any operation


class Tracer:
    """Records spans, operations and counts; owns the patches that feed them."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op_phases: List[int] = []   # training phase, 0 for eval
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.tensors = 0   # autodiff tensors constructed while patched
        self._stack: List[int] = []
        self._op = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf(), parent=parent, op=self._op))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = perf()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} ended out of order")

    def begin_op(self, phase: int) -> int:
        """Open the span of one operation: a train step, or eval instance."""
        self.op_phases.append(phase)
        self._op = len(self.op_phases) - 1
        return self.begin(f"op.step.p{phase}" if phase else "op.instance")

    def end_op(self, idx: int) -> None:
        self.end(idx)
        self._op = -1

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- patching -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(args, kwargs, result, self)
            return result
        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set `owner.attr`, remembering the original for `restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(self, owner: object, attr: str, name: str,
                   observe: Optional[Observer] = None) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def count_constructions(self, cls: type) -> None:
        """Count calls to `cls.__init__` in `self.tensors`."""
        init = cls.__init__

        def counted(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)
        self.patch(cls, "__init__", counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def patched(self, install: Callable[["Tracer"], None]):
        """Install patches with `install(self)`; restore them on exit."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op}) + "\n")

