"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the program from the
outside (``patch`` replaces the attribute on its owning class or module,
``restore`` puts every original back), so the program's source carries no
tracing code.  Each call through a wrapper is one span.  Spans are
aggregated per name as ``[count, total seconds, child seconds]``; a span's
self time is its duration minus the time its child spans cover.  The open
spans form a stack, so the span that caused a call is the one below it.

A call that re-enters a span of the same name directly (``REDQueue.push``
calling ``DropTailQueue.push`` through ``super()``) is folded into the
outer span, so one logical operation counts once.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Tuple


class SpanRecorder:
    def __init__(self) -> None:
        #: name -> [count, total_s, child_s]
        self.stats: Dict[str, List[float]] = {}
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: class name -> instances built while collection was on
        self.instances: Dict[str, list] = {}

    # -- wrapping ------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by a
        traced wrapper recording spans under ``name``."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def collect(self, cls: type) -> None:
        """Keep every instance of ``cls`` (or a subclass chaining up to
        its ``__init__``) built while patched, to read its counters."""
        original = vars(cls)["__init__"]
        seen = self.instances.setdefault(cls.__name__, [])

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            seen.append(obj)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = init

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def count(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        entry = self.stats.get(name, (0, 0.0, 0.0))
        return entry[1] - entry[2]

    def per_call_us(self, name: str, self_time: bool = False) -> float:
        calls = self.count(name)
        if not calls:
            return 0.0
        seconds = self.self_s(name) if self_time else self.total_s(name)
        return seconds / calls * 1e6

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer, the layer being the span name's
        first dotted component."""
        layers: Dict[str, float] = {}
        for name in self.stats:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_s(name)
        return layers

    def as_dict(self) -> dict:
        return {name: {"count": int(c), "total_s": total,
                       "self_s": total - child}
                for name, (c, total, child) in sorted(self.stats.items())}
