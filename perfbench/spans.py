"""Tracing from outside the program: wrappers around public functions.

A :class:`Tracer` replaces each traced function in every ``ramsey_forge``
namespace that binds it (the modules import each other's functions by
name), records one span per call, and puts the originals back on
:meth:`Tracer.remove`.  Spans live in flat arrays until the pass ends;
self time is a span's duration minus the durations of its direct children,
which is exact because every traced call runs to completion on one thread.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, timebase=None) -> None:
        """``timebase`` maps an array of ``perf_counter`` readings to the
        times the results report (speed.Clock.reference); by default the
        readings themselves."""
        self.timebase = timebase
        self.names: list[str] = []
        self.name_span = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object, bool, bool]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """A function that records a span per call of ``fn``.

        ``on_result(result)`` and ``on_error(exc)`` update counters; the
        exception is always re-raised.
        """
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.name_span, self.parent, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation -----------------------------------------------------

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` in every package namespace that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, **hooks)
        for mod in _package_modules(module):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced, frozen=False)

    def patch_attribute(self, owner, attr: str, name: str, **hooks) -> None:
        """Wrap an attribute of a class or of a (possibly frozen) instance."""
        original = getattr(owner, attr)
        self._set(owner, attr, self.wrap(name, original, **hooks),
                  frozen=not isinstance(owner, type))

    def _set(self, owner, attr: str, value, frozen: bool) -> None:
        has_own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), has_own, frozen))
        (object.__setattr__ if frozen else setattr)(owner, attr, value)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._restore:
            owner, attr, original, has_own, frozen = self._restore.pop()
            if has_own:
                (object.__setattr__ if frozen else setattr)(owner, attr, original)
            else:
                (object.__delattr__ if frozen else delattr)(owner, attr)

    # -- results ----------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        convert = self.timebase or np.copy
        return {
            "name": np.frombuffer(self.name_span, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": convert(np.frombuffer(self.start, dtype=np.float64)),
            "end": convert(np.frombuffer(self.end, dtype=np.float64)),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name."""
        t = self.span_table()
        dur = t["end"] - t["start"]
        has_parent = t["parent"] >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, t["parent"][has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(t["name"], minlength=k)
        self_s = np.bincount(t["name"], weights=dur - covered, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def calls_under(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        if child not in self.names or parent not in self.names:
            return 0
        t = self.span_table()
        mine = (t["name"] == self.names.index(child)) & (t["parent"] >= 0)
        return int(np.count_nonzero(
            t["name"][t["parent"][mine]] == self.names.index(parent)))

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.span_table())


def _package_modules(module) -> list:
    package = module.__name__.split(".")[0]
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]
