"""Discrete-event simulation kernel.

A tiny, fast event engine: callbacks scheduled at absolute or relative
times, executed in (time, priority, sequence) order.  All simulator
components (flash channels, accelerators, schedulers) share one
:class:`Simulator` and advance its clock only through events, so causality
is guaranteed by construction.

The engine deliberately has no notion of processes or coroutines: the
FlashWalker models are state machines whose transitions are event
callbacks, which profiles far better in CPython than generator-based
processes (see the hpc-parallel guide: measure, keep the hot path flat).
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Callable

from ..common.errors import SimulationError

__all__ = ["Event", "Simulator"]


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`."""

    __slots__ = ("time", "priority", "seq", "fn", "cancelled")

    def __init__(self, time: float, priority: int, seq: int, fn: Callable[[], None]):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.9f}, prio={self.priority}, {state})"


class Simulator:
    """Event queue + simulation clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.at(1.0, lambda: fired.append(sim.now))
    >>> _ = sim.after(0.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [0.5, 1.0]
    """

    def __init__(self):
        self.now: float = 0.0
        #: Heap of ``(time, priority, seq, event)``: tuples compare in C,
        #: and the unique ``seq`` settles every tie before the event.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._events_executed = 0
        self._running = False
        #: Optional :class:`~repro.obs.profile.EventLoopProfiler`; None
        #: (the default) keeps the hot path to a single attribute check.
        self.profiler = None

    # -- scheduling ---------------------------------------------------------

    def at(self, time: float, fn: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``fn`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: t={time} < now={self.now}"
            )
        seq = next(self._seq)
        ev = Event(time, priority, seq, fn)
        heapq.heappush(self._queue, (time, priority, seq, ev))
        return ev

    def after(self, delay: float, fn: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``fn`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self.now + delay, fn, priority)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if queue empty."""
        while self._queue:
            ev = heapq.heappop(self._queue)[3]
            if ev.cancelled:
                continue
            if ev.time < self.now:  # pragma: no cover - defensive
                raise SimulationError(
                    f"event time {ev.time} behind clock {self.now}"
                )
            self.now = ev.time
            self._events_executed += 1
            prof = self.profiler
            if prof is None:
                ev.fn()
            else:
                t0 = perf_counter()
                ev.fn()
                prof.record(ev.fn, perf_counter() - t0)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at that time (remaining events stay
        queued); ``max_events`` bounds work as a runaway guard.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        if self.profiler is not None:
            self.profiler.loop_started()
        try:
            executed = 0
            while self._queue:
                nxt = self._peek()
                if nxt is None:
                    break
                if until is not None and nxt.time > until:
                    self.now = until
                    return
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                self.step()
                executed += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            if self.profiler is not None:
                self.profiler.loop_stopped()

    def _peek(self) -> Event | None:
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][3] if self._queue else None

    # -- introspection --------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.9f}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
