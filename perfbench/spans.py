"""
In-memory span recording around the program's public entry points.

A Tracer replaces chosen module attributes and class methods with wrappers
that record one span per call: its name, start, end, parent span and the
operation it belongs to.  Spans live in flat arrays so that the million-odd
polynomial products of a suite pass fit in a few tens of megabytes; they are
written out only when the pass ends.  Counters are updated at the same
boundaries.  remove() restores every original attribute.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Sequence


def self_times(parent: Sequence[int], start: Sequence[float], end: Sequence[float]) -> array:
    """
    Each span's duration minus the time its child spans cover.

    Spans are indexed in the order they started, parent -1 marks a root.
    Children of one span never overlap, as calls in one thread are nested.
    """
    child = array("d", bytes(8 * len(start)))
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return array("d", (end[i] - start[i] - child[i] for i in range(len(start))))


def outermost(parent: Sequence[int], name: Sequence[int]) -> bytearray:
    """1 for spans with no ancestor of the same name (their time is not counted twice)."""
    above = array("Q", bytes(8 * len(parent)))  # bit set of the names on each span's ancestor chain
    flags = bytearray(len(parent))
    for i, p in enumerate(parent):
        if p >= 0:
            above[i] = above[p] | (1 << name[p])
        flags[i] = not (above[i] >> name[i]) & 1
    return flags


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("B")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def wrap(self, owner: object, attr: str, span: str, count: Callable | None = None) -> None:
        """Record a `span` for every call of owner.attr; count(counts, args, result) after it."""
        original = getattr(owner, attr)
        sid = self._name_id(span)
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack
        )
        counts, clock, tracer = self.counts, time.perf_counter, self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(end)
            end.append(0.0)
            name.append(sid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON header line, then the raw name, parent, op, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.end),
            "arrays": [["name", "B"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)

    def summary(self, op_count: int) -> dict:
        """
        Per span name: calls, inclusive seconds (outermost spans only), self
        seconds; per operation: self seconds of each layer (the name's prefix
        before the first dot); and the counters.
        """
        selfs = self_times(self.parent, self.start, self.end)
        top = outermost(self.parent, self.name)
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        layers = sorted({n.split(".")[0] for n in self.names})
        layer_of = [layers.index(n.split(".")[0]) for n in self.names]
        per_op = [[0.0] * op_count for _ in layers]
        for i, sid in enumerate(self.name):
            calls[sid] += 1
            self_s[sid] += selfs[i]
            if top[i]:
                inclusive[sid] += self.end[i] - self.start[i]
            if self.op[i] >= 0:
                per_op[layer_of[sid]][self.op[i]] += selfs[i]
        return {
            "spans": {
                n: {"calls": calls[k], "inclusive_s": inclusive[k], "self_s": self_s[k]}
                for k, n in enumerate(self.names)
            },
            "layer_op_self_s": dict(zip(layers, per_op)),
            "counts": dict(self.counts),
        }
