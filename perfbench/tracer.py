"""In-memory spans around the public functions of the birkhoff_lab layers.

A `Tracer` replaces each listed function or method with a wrapper that
records one span per call: name, start, end, parent span and repetition id,
plus an optional work count computed from the call's arguments (bound to
their parameter names) and its result.
`from .x import y` copies a binding, so a module function is rebound in every
module namespace that holds it. `restore` puts the originals back.

Spans live in flat arrays and are written out once, at the end of a run.
A span's self time is its duration minus the durations of its child spans;
in a single-threaded process children of one span never overlap, so their
durations add up to the part of the parent's interval they cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Target:
    """One wrapped layer function: `module.qualname`, e.g. `curves.evolve`."""

    module: str
    qualname: str
    count: Callable | None = None  # (arguments by parameter name, result) -> work count

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


class Tracer:
    def __init__(self, package: str, targets: list[Target],
                 clock: Callable[[], float] = time.perf_counter):
        self.package, self.targets, self.clock = package, targets, clock
        self.names: list[str] = []
        self.start, self.end, self.work = array("d"), array("d"), array("d")
        self.parent, self.rep, self.name_id = array("i"), array("i"), array("i")
        self.repetition = 0  # stamped on every span
        self.paused = False  # wrappers call straight through while paused
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        nid = self.span_id(name)
        signature = inspect.signature(fn) if count is not None else None
        clock, stack = self.clock, self._stack
        start, end, parent, rep, name_id, work = (
            self.start, self.end, self.parent, self.rep, self.name_id, self.work
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            rep.append(self.repetition)
            name_id.append(nid)
            work.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work[idx] = float(count(bound.arguments, out))
            return out

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span named `name` (used for the benchmark's steps)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for t in self.targets:
            owner = sys.modules[f"{self.package}.{t.module}"]
            attr_path = t.qualname.split(".")
            for part in attr_path[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[attr_path[-1]]
            wrapper = self.wrap(t.name, original, t.count)
            if isinstance(owner, type):  # a method: the class holds the only binding
                self._rebind(owner, attr_path[-1], original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        """All spans as arrays, with each span's self time and a has-children flag."""
        t = {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "rep": np.array(self.rep, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.float64),
        }
        dur = t["end"] - t["start"]
        child = np.zeros_like(dur)
        nested = t["parent"][t["parent"] >= 0]
        np.add.at(child, nested, dur[t["parent"] >= 0])
        t["self"] = dur - child
        t["has_children"] = np.zeros(len(dur), dtype=bool)
        t["has_children"][nested] = True
        # spans are recorded in call order, so a root's descendants directly follow it
        idx = np.arange(len(dur))
        t["root"] = np.maximum.accumulate(np.where(t["parent"] < 0, idx, 0)) if len(dur) else idx
        return t

    def save(self, path) -> None:
        t = self.table()
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: t[k] for k in ("name_id", "parent", "rep", "start", "end", "work")})
