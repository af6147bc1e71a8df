"""Span recorder that traces condseq from outside, without editing it.

``Tracer.install`` wraps every public function and every public method of the
public classes defined in the traced modules.  Methods are wrapped on the
class, so calls through ``self`` are seen; functions are rebound in every
loaded ``condseq`` module namespace that bound them through ``from ...
import`` (``bench`` binds ``learn_exact`` and ``tv_exact``, for example), so
no caller keeps an untraced reference.  Properties, class methods, static
methods and dunder methods are left alone.

Each span records its name, start, end, parent span and run, appended to flat
arrays kept in memory; ``summary`` turns them into per-name self time
(duration minus the child spans it covers) and call counts, and ``dump``
writes them out when the benchmark ends.  Leaf functions called hundreds of
thousands of times per run (``Hmm.step``) are only counted: a span for each
call would cost more than the call, so their time stays in their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# The layers of the benchmark.  ``sequences`` is below timer resolution and is
# measured through its callers; ``cli`` is a thin shell over ``bench``;
# ``approx_basis`` has no workload of its own.
LAYERS = ("oracles", "distributions", "estimation", "sampling_learner",
          "exact_learner", "oom", "metrics", "generators", "bench")

PACKAGE = "condseq"
ROOT = "perfbench.run"
COUNT_ONLY = frozenset({"distributions.Hmm.step"})


class Tracer:
    """Records nested spans around wrapped callables.

    ``probes`` maps a span name to ``f(args, kwargs) -> tuple`` whose result
    is kept per span in ``notes``, for counts that depend on arguments.
    """

    def __init__(self, probes: dict | None = None) -> None:
        self.probes = dict(probes or {})
        self.counts: dict[str, int] = {}
        self.run_counts: dict[int, dict[str, int]] = {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, tuple] = {}
        self.run_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._wrap_counter(name, fn)
        nid = self._intern(name)
        probe = self.probes.get(name)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, notes, stack = self.start, self.end, self.notes, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            if probe is not None:
                notes[idx] = probe(args, kwargs)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _wrap_counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def root(self, run_id: int):
        """Record the root span of one benchmark run, and its call counts."""
        self.run_id = run_id
        before = dict(self.counts)
        idx = len(self.start)
        self.name.append(self._intern(ROOT))
        self.parent.append(-1)
        self.run.append(run_id)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self.run_counts[run_id] = {k: v - before.get(k, 0)
                                       for k, v in self.counts.items()}

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public callables and rebind imported names."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[object, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, mod.__name__)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def _wrap_class(self, layer: str, cls: type, mod_name: str) -> None:
        seen: set[str] = set()
        for klass in cls.__mro__:
            if klass.__module__ != mod_name:
                continue
            for attr, fn in vars(klass).items():
                if attr.startswith("_") or attr in seen or not inspect.isfunction(fn):
                    continue
                seen.add(attr)
                self._patch(cls, attr, self._wrap(f"{layer}.{cls.__name__}.{attr}", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Self seconds and calls per span name, summed over all runs.

        ``wall_s`` is the summed duration of the root spans, the traced wall
        time of the runs.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        k = len(self.names)
        self_by = np.bincount(a["name"], weights=dur - child, minlength=k)
        calls_by = np.bincount(a["name"], minlength=k)
        root = a["name"] == self._ids.get(ROOT, -1)
        calls = {n: int(calls_by[i]) for i, n in enumerate(self.names)}
        calls.update(self.counts)
        return {
            "self_s": {n: float(self_by[i]) for i, n in enumerate(self.names)},
            "calls": calls,
            "wall_s": float(dur[root].sum()),
        }

    def calls_per_run(self, name: str) -> dict[int, int]:
        """How often ``name`` was entered in each run."""
        if name in COUNT_ONLY:
            return {run: c.get(name, 0) for run, c in self.run_counts.items()}
        nid = self._ids.get(name)
        if nid is None:
            return {}
        a = self.arrays()
        runs, counts = np.unique(a["run"][a["name"] == nid], return_counts=True)
        return dict(zip(runs.tolist(), counts.tolist()))

    def spans_under(self, name: str, parent: str) -> list[int]:
        """Indices of ``name`` spans whose direct parent is a ``parent`` span."""
        nid, pid = self._ids.get(name), self._ids.get(parent)
        if nid is None or pid is None:
            return []
        a = self.arrays()
        hit = (a["name"] == nid) & (a["parent"] >= 0)
        hit[hit] = a["name"][a["parent"][hit]] == pid
        return np.flatnonzero(hit).tolist()

    def dump(self, path) -> None:
        """Write every span, the name table and the probe notes to ``path``."""
        note_idx = np.array(sorted(self.notes), dtype=np.int64)
        note_val = np.array([self.notes[i] for i in note_idx.tolist()], dtype=float)
        np.savez_compressed(path, names=np.array(self.names), note_idx=note_idx,
                            note_val=note_val, counts=json.dumps(self.run_counts),
                            **self.arrays())


_MISSING = object()
