"""Span recording from outside the program.

A :class:`SpanLog` holds spans (name, start, end, parent, size) in flat
arrays (32 bytes a span), so a traced run of a million calls stays
near 32 MB.  :class:`Wrappers` installs timing wrappers around functions
and methods of the ``repro`` package and puts the originals back on
exit; nothing under ``src/`` is edited.

Simulator callbacks are not functions the program exposes, so they are
timed through the simulator's own profiler hook
(``Simulator.profiler``): each executed event becomes a ``cb:<site>``
span whose children are the wrapped calls made inside the callback.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

__all__ = ["SpanLog", "Wrappers", "FirstEvent", "callback_site"]


def callback_site(fn) -> str:
    """Name of the code that scheduled a callback: its qualified name,
    with the ``.<locals>.<lambda>`` suffix of a scheduling lambda cut
    so every lambda names the method that scheduled it."""
    name = getattr(fn, "__qualname__", None) or type(fn).__name__
    return name.removesuffix(".<locals>.<lambda>")


class SpanLog:
    """Spans kept in memory as parallel arrays, written out at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, size: int = 1) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.size.append(size)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def record_callback(self, fn, dt: float) -> None:
        """Profiler hook: the event callback that just returned becomes a
        span under the enclosing ``Simulator.step`` span, and the spans
        opened during the callback move under it."""
        t_end = perf_counter()
        step = self.stack[-1]
        i = len(self.name)
        self.name.append(self.name_id("cb:" + callback_site(fn)))
        self.parent.append(step)
        self.size.append(1)
        self.start.append(t_end - dt)
        self.end.append(t_end)
        parent = self.parent
        for j in range(step + 1, i):
            if parent[j] == step:
                parent[j] = i

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its children.

        Children are synchronous calls, so they never overlap one
        another and the part of the parent they cover is their sum.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has], weights=dur[has], minlength=len(dur)
        )
        return dur - covered

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _resolve(module: str, attr: str):
    """(owner, name, raw attribute) for ``module:Class.meth`` or a
    module-level function."""
    mod = importlib.import_module(module)
    owner = mod
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def _timed(fn, log: SpanLog, nid: int, size_of):
    open_, close = log.open, log.close

    if size_of is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid, size_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
    return wrapper


class Wrappers:
    """Context manager that times every target while it is active.

    ``targets`` are ``(module, attribute, span name, size_of)`` tuples;
    ``size_of(args)`` gives the span's work size (walks, vertices) from
    the positional arguments, or None counts one per call.  A module
    level function is replaced in every ``repro`` module that imported
    it by name, so call sites see the wrapper whichever way they reach
    it.  Each simulator created while active reports its event
    callbacks to the log.
    """

    def __init__(self, log: SpanLog, targets):
        self.log = log
        self.targets = list(targets)
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, name, old, new) -> None:
        self._undo.append((owner, name, old))
        setattr(owner, name, new)

    def __enter__(self) -> "Wrappers":
        try:
            for module, attr, span, size_of in self.targets:
                owner, name, raw = _resolve(module, attr)
                nid = self.log.name_id(span)
                if isinstance(raw, (classmethod, staticmethod)):
                    timed = type(raw)(_timed(raw.__func__, self.log, nid, size_of))
                    self._patch(owner, name, raw, timed)
                elif isinstance(owner, type):
                    self._patch(owner, name, raw, _timed(raw, self.log, nid, size_of))
                else:
                    timed = _timed(raw, self.log, nid, size_of)
                    for mname, mod in list(sys.modules.items()):
                        if mod is not None and (mname == "repro" or mname.startswith("repro.")):
                            for key, val in list(vars(mod).items()):
                                if val is raw:
                                    self._patch(mod, key, raw, timed)
            self._hook_simulators()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _hook_simulators(self) -> None:
        from repro.sim.engine import Simulator

        init = Simulator.__dict__["__init__"]
        hook = _CallbackHook(self.log)

        @functools.wraps(init)
        def hooked_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            sim.profiler = hook

        self._patch(Simulator, "__init__", init, hooked_init)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class _CallbackHook:
    """Duck-typed ``Simulator.profiler`` feeding callbacks to a log."""

    __slots__ = ("record",)

    def __init__(self, log: SpanLog):
        self.record = log.record_callback

    def loop_started(self) -> None:
        pass

    def loop_stopped(self) -> None:
        pass


class FirstEvent:
    """Marks the end of a run's set-up: the first entry into
    ``Simulator.run``, or for a cluster the return of
    ``ShardHosts.setup`` (the router's first epoch starts right after),
    whichever comes first.

    Everything before the mark (engine sessions, hot-block preload,
    cluster shard set-up) is set-up; from it to the result is the
    measured run.  These are the only wrappers an untraced measurement
    carries; each adds one Python call, once per run (``ShardHosts.setup``)
    or once per epoch (``Simulator.run`` in a cluster shard).
    """

    def __init__(self):
        self.t: float | None = None
        self._undo: list[tuple[type, str, object]] = []

    def __enter__(self) -> "FirstEvent":
        from repro.cluster.pool import ShardHosts
        from repro.sim.engine import Simulator

        run = Simulator.__dict__["run"]
        setup = ShardHosts.__dict__["setup"]

        @functools.wraps(run)
        def marked_run(sim, *args, **kwargs):
            if self.t is None:
                self.t = perf_counter()
            return run(sim, *args, **kwargs)

        @functools.wraps(setup)
        def marked_setup(hosts, *args, **kwargs):
            out = setup(hosts, *args, **kwargs)
            if self.t is None:
                self.t = perf_counter()
            return out

        self._undo = [(Simulator, "run", run), (ShardHosts, "setup", setup)]
        Simulator.run = marked_run
        ShardHosts.setup = marked_setup
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, old in self._undo:
            setattr(owner, name, old)
