"""In-memory span recorder and the wrappers that feed it.

A span is ``(name, start, end, parent, unit)``: wall-clock bounds from
``time.perf_counter``, the index of the enclosing span (``-1`` at the
top) and the id of the benchmark unit (round or trial set) it ran in.
Spans come from wrappers installed *from this package* around public
functions of ``repro`` — the program under ``src/`` is not edited.

Spans nest strictly (everything runs on one thread), so a span's self
time is its duration minus the durations of its direct children, and the
self times of every span inside a unit add up to the unit's root span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class SpanRecorder:
    """Keeps every span in parallel lists until :meth:`write` dumps them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = [-1]
        self.unit = -1

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(_clock())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.units.append(self.unit)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def self_times(self) -> list[float]:
        """Per-span self time in seconds (duration minus direct children)."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, start, end,
        parent, unit (times in seconds from the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("idx\tname\tstart_s\tend_s\tparent\tunit\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.starts[i] - t0:.9f}\t"
                    f"{self.ends[i] - t0:.9f}\t{self.parents[i]}\t"
                    f"{self.units[i]}\n"
                )


def _wrap(fn, rec: SpanRecorder, name: str, tally=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if tally is not None:
            tally(rec, out)
        return out

    return traced


def wrap_method(cls, attr: str, rec: SpanRecorder, name: str, tally=None) -> None:
    """Replace ``cls.attr`` (defined on ``cls`` itself) with a traced wrapper."""
    setattr(cls, attr, _wrap(cls.__dict__[attr], rec, name, tally))


def wrap_function(module, attr: str, rec: SpanRecorder, name: str, tally=None) -> None:
    """Trace a module-level function everywhere it was imported.

    ``from .batched import batched_divide`` copies the reference into the
    importing module, so every ``repro`` and ``perfbench`` module global
    bound to the same object is swapped, not just the defining one.
    """
    fn = getattr(module, attr)
    traced = _wrap(fn, rec, name, tally)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] not in ("repro", "perfbench"):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, traced)


def aggregate(rec: SpanRecorder, units: set[int]) -> dict:
    """Per-name totals over ``units``: self seconds, inclusive seconds
    (outermost occurrence only, so recursion is not double counted),
    and call counts."""
    own = rec.self_times()
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    names, parents = rec.names, rec.parents
    for i, name in enumerate(names):
        if rec.units[i] not in units:
            continue
        self_s[name] += own[i]
        calls[name] += 1
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            incl_s[name] += rec.ends[i] - rec.starts[i]
    return {"self_s": self_s, "incl_s": incl_s, "calls": calls}


def unit_self_sums(rec: SpanRecorder) -> dict[int, float]:
    """Sum of all span self times per unit."""
    own = rec.self_times()
    sums: dict[int, float] = defaultdict(float)
    for i, unit in enumerate(rec.units):
        sums[unit] += own[i]
    return sums
