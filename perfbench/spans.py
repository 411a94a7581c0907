"""Span recorder for the benchmark's traced run.

The benchmark attributes wall time to layers without touching the
program: :func:`install` rebinds public functions at the module (or
class) attribute where their callers look them up, so every call runs
inside a span. A span records its name, start, end, parent span and run
id (one run id per measured operation: one fit, or one serving pass).
Spans live in flat in-memory arrays and are written once, when the run
ends (:meth:`Recorder.save`).

Self time of a span is its duration minus the durations of its direct
children. Callers here are single-threaded, so children never overlap
and that difference is exactly the part of the interval the children do
not cover. Summed over all names, self times add up to the time the
top-level spans cover; what they leave of an operation's wall time is
reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MISSING = object()


class Recorder:
    """Nested spans and counters of one traced run, held in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack: "list[int]" = []
        self.run_id = -1
        #: ``(run id, wall seconds)`` of every operation.
        self.operations: "list[tuple[int, float]]" = []
        self.counters: Counter = Counter()

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(np.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    @contextmanager
    def operation(self):
        """One measured operation: a new run id and its wall time."""
        if self._stack:
            raise RuntimeError("an operation must start outside every span")
        self.run_id += 1
        t0 = self.clock()
        try:
            yield
        finally:
            self.operations.append((self.run_id, self.clock() - t0))

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, counter: "str | None" = None,
             classify: "str | None" = None):
        """``fn`` inside a span; optionally count calls (by result field)."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                key = counter
                if classify is not None:
                    key = f"{counter}.{getattr(result, classify)}"
                self.counters[key] += 1
            return result

        return traced

    def wrap_generator(self, name: str, fn, counter: "str | None" = None):
        """A generator function whose every ``next`` runs inside a span."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    if counter is not None:
                        self.counters[counter] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # ------------------------------------------------------------------
    def arrays(self) -> "dict[str, np.ndarray]":
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def self_times(self) -> "dict[str, float]":
        """Total self seconds per span name."""
        a = self.arrays()
        if a["start"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = np.bincount(
            a["name_id"], weights=dur - children, minlength=len(self.names)
        )
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def unattributed(self) -> float:
        """Total operation wall time not covered by a top-level span."""
        a = self.arrays()
        top = a["parent"] < 0
        covered = float(np.sum(a["end"][top] - a["start"][top]))
        return sum(wall for _, wall in self.operations) - covered

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            op_run=np.array([r for r, _ in self.operations], dtype=np.int32),
            op_wall=np.array([w for _, w in self.operations], dtype=np.float64),
            **self.arrays(),
        )


@dataclass(frozen=True)
class Hook:
    """One rebinding: ``module:attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    span: str
    counter: "str | None" = None
    #: Count calls per value of this attribute of the result.
    classify: "str | None" = None
    generator: bool = False
    #: Workloads the hook is installed on (empty: all of them).
    workloads: "tuple[str, ...]" = ()


def _owner(hook: Hook):
    owner = importlib.import_module(hook.module)
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(hooks, recorder: Recorder, workload: str):
    """Rebind every hook that applies to ``workload``.

    Returns ``(restore, missing)``: calling ``restore()`` puts every
    original back; ``missing`` names hooks whose target no longer exists
    (their metrics then read 0 rather than failing the run).
    """
    undo = []
    missing = []
    for hook in hooks:
        if hook.workloads and workload not in hook.workloads:
            continue
        try:
            owner, name = _owner(hook)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(f"{hook.module}:{hook.attr}")
            continue
        own = vars(owner).get(name, _MISSING)
        if hook.generator:
            traced = recorder.wrap_generator(hook.span, original, hook.counter)
        else:
            traced = recorder.wrap(hook.span, original, hook.counter, hook.classify)
        setattr(owner, name, traced)
        undo.append((owner, name, own))

    def restore() -> None:
        for owner, name, own in reversed(undo):
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)

    return restore, missing
