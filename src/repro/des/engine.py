"""Event loop for the discrete-event kernel.

The :class:`Engine` owns simulated time and a heap of pending
:class:`Event` objects.  Events carry callback lists; processes
(:mod:`repro.des.process`) are built on top of events.  The loop is
deterministic: events scheduled at the same time fire in ``(priority,
insertion order)``.

Fast path (million-client fleets)
---------------------------------
Three mechanisms keep the per-event constant factor down without changing
any observable semantics:

* **Batched run loop** — :meth:`Engine.run` pops and fires events in one
  tight loop with the heap and bound methods held in locals, instead of
  paying a ``peek()``/``step()`` method-dispatch round trip per event.
  The loop is *specialized once per call*: the pool and clock-check
  branches are hoisted out of the event loop by selecting one of three
  loop variants up front, so the common configuration pays zero dead
  conditionals per event (guarded by ``benchmarks/test_engine_fastpath``).
* **Lazy cancellation** — :meth:`Event.cancel` marks a scheduled event
  dead; the run loop discards it on pop.  This replaces O(n) removal from
  the heap (or from long callback lists) for abandoned timeouts.
* **Timeout slab/pool** — with ``Engine(pool_timeouts=True)``, fired
  :class:`Timeout` objects with no remaining listeners are recycled
  through a free list, so a fleet simulation allocates O(live processes)
  timeout objects rather than O(total events).  Pooling is opt-in because
  code that holds a reference to a fired timeout and inspects it later
  would observe the recycled (re-armed) state; the fleet simulators never
  do (timeouts are always ``yield``-ed and dropped).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

#: Priority constants — lower fires first at equal timestamps.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LATE = 2


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling into the past)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.des.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, may be *scheduled* (given a fire time), and
    finally *fires*, invoking its callbacks with itself as argument.  Events
    can succeed with a value or fail with an exception; a failed event whose
    failure is never consumed raises at fire time so errors do not pass
    silently.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_scheduled", "_fired", "_defused", "_cancelled")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._fired = False
        self._defused = False
        self._cancelled = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (scheduled to fire)."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._fired

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered")
        return self._value

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel will not re-raise it."""
        self._defused = True

    @property
    def cancelled(self) -> bool:
        """True once the event has been lazily cancelled."""
        return self._cancelled

    def cancel(self) -> None:
        """Lazily cancel a scheduled event: it will never fire.

        The heap entry stays in place and is discarded when popped — O(1)
        instead of an O(n) heap removal.  Cancelling an already-fired event
        is a kernel misuse error; cancelling twice is a no-op.
        """
        if self._fired:
            raise SimulationError("cannot cancel an event that already fired")
        self._cancelled = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        self._trigger(True, value, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0, priority: int = PRIORITY_NORMAL) -> "Event":
        """Schedule this event to fire as a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, exception, delay, priority)
        return self

    def _trigger(self, ok: bool, value: Any, delay: float, priority: int) -> None:
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._ok = ok
        self._value = value
        self.engine._schedule(self, delay, priority)
        self._scheduled = True

    def _fire(self) -> None:
        self._fired = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """A pre-triggered delay event (the kernel's hottest allocation).

    Construction bypasses the generic :meth:`Event._trigger` guard chain —
    a fresh timeout cannot already be triggered — and schedules directly.
    Instances may be recycled through the engine's slab when pooling is on
    (see :meth:`Engine.timeout`).
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        # Deliberately does not call Event.__init__/succeed: one attribute
        # sweep plus one heap push is the whole construction.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._fired = False
        self._defused = False
        self._cancelled = False
        engine._schedule(self, delay)

    def _rearm(self, delay: float, value: Any) -> None:
        """Reset a recycled instance and schedule it again (pool path)."""
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._fired = False
        self._defused = False
        self._cancelled = False
        self.engine._schedule(self, delay)


class Engine:
    """Discrete-event simulation engine.

    Examples
    --------
    >>> eng = Engine()
    >>> seen = []
    >>> def hello():
    ...     yield eng.timeout(5.0)
    ...     seen.append(eng.now)
    >>> _ = eng.process(hello())
    >>> eng.run()
    >>> seen
    [5.0]
    """

    __slots__ = (
        "_now",
        "_queue",
        "_counter",
        "_active",
        "_pool",
        "_pool_timeouts",
        "_pool_cap",
        "_check_clock",
        "events_fired",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        pool_timeouts: bool = False,
        pool_cap: int = 4096,
        check_clock: bool = False,
    ) -> None:
        self._now = float(start_time)
        self._queue: list = []
        # Monotonic insertion counter (tie-break at equal time+priority).  A
        # plain int rather than itertools.count so the full scheduling state
        # is a value: repro.resilience.snapshot serializes and restores it
        # exactly, keeping resumed tie-breaks identical to uninterrupted ones.
        self._counter = 0
        self._active = 0  # scheduled-but-unfired events
        self._pool: list = []  # recycled Timeout slab (pool_timeouts=True)
        self._pool_timeouts = bool(pool_timeouts)
        self._pool_cap = int(pool_cap)
        self._check_clock = bool(check_clock)
        #: Cumulative heap pops across run()/step() calls (observability;
        #: updated once per run() call, not per event).
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def drained(self) -> bool:
        """True when no events remain (cancelled entries count as present).

        The invariant layer uses this after a run: a fleet simulation that
        leaves live events behind terminated early, which would silently
        truncate every ledger.
        """
        return not self._queue

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires after ``delay`` simulated seconds.

        With ``pool_timeouts=True`` the instance may come from the recycle
        slab instead of a fresh allocation.
        """
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        if self._pool:
            ev = self._pool.pop()
            ev._rearm(delay, value)
            return ev
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a generator as a simulation process (see :class:`Process`)."""
        from repro.des.process import Process

        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int = PRIORITY_NORMAL) -> None:
        seq = self._counter
        self._counter = seq + 1
        heapq.heappush(self._queue, (self._now + delay, priority, seq, event))
        self._active += 1

    def peek(self) -> float:
        """Time of the next event, or ``inf`` when the queue is empty.

        May name a lazily-cancelled event: cancellations are only resolved
        when the entry is popped.
        """
        return self._queue[0][0] if self._queue else float("inf")

    def pending_entries(self) -> tuple:
        """Heap-ordered snapshot view of the scheduled entries.

        Each entry is ``(time, priority, seq, event)`` in the internal heap
        order (a valid binary heap, *not* fire order); lazily-cancelled
        events are still present.  This is the read side of the
        checkpoint/restore protocol in :mod:`repro.resilience.snapshot` —
        restoring the tuple list verbatim reproduces pop order exactly.
        """
        return tuple(self._queue)

    def step(self) -> None:
        """Fire the single next (non-cancelled) event."""
        while True:
            if not self._queue:
                raise SimulationError("step() on an empty event queue")
            time, _prio, _seq, event = heapq.heappop(self._queue)
            self._active -= 1
            self.events_fired += 1
            if event._cancelled:
                continue
            if time < self._now:  # pragma: no cover - heap invariant guards this
                raise SimulationError("event queue corrupted: time moved backwards")
            self._now = time
            event._fire()
            return

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        When ``until`` is given, the clock is advanced exactly to ``until``
        even if the last event fires earlier, so monitors see a full window.

        This is the batched fast path: the queue, the pop, and the recycle
        slab are bound to locals so each event costs one tuple unpack and
        one ``_fire`` call, with no per-event property or method dispatch.
        The per-event pool and clock-check conditionals are hoisted out of
        the loop entirely: ``run`` picks one of three specialized loops up
        front (pooled, plain, checked), so the common configuration runs a
        branch-free event loop.  With ``check_clock=True`` every pop
        additionally asserts the fire time never precedes the clock
        (paranoid mode for the validation subsystem).
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        bound = float("inf") if until is None else until
        if self._check_clock:
            self._run_heap_checked(bound)
        elif self._pool_timeouts:
            self._run_heap_pooled(bound)
        else:
            self._run_heap_plain(bound)
        if until is not None:
            self._now = max(self._now, float(until))

    def _run_heap_pooled(self, bound: float) -> None:
        """Heap backend, timeout pooling on, no clock checks (fleet config)."""
        queue = self._queue
        pop = heapq.heappop
        pool = self._pool
        pool_cap = self._pool_cap
        fired = 0
        try:
            while queue:
                if queue[0][0] > bound:
                    break
                time, _prio, _seq, event = pop(queue)
                fired += 1
                if event._cancelled:
                    if type(event) is Timeout and len(pool) < pool_cap:
                        pool.append(event)
                    continue
                self._now = time
                event._fire()
                if (
                    type(event) is Timeout
                    and not event.callbacks
                    and len(pool) < pool_cap
                ):
                    pool.append(event)
        finally:
            self._active -= fired
            self.events_fired += fired

    def _run_heap_plain(self, bound: float) -> None:
        """Heap backend, no pooling, no clock checks."""
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        try:
            while queue:
                if queue[0][0] > bound:
                    break
                time, _prio, _seq, event = pop(queue)
                fired += 1
                if event._cancelled:
                    continue
                self._now = time
                event._fire()
        finally:
            self._active -= fired
            self.events_fired += fired

    def _run_heap_checked(self, bound: float) -> None:
        """Heap backend with the paranoid per-event clock assertion."""
        queue = self._queue
        pop = heapq.heappop
        pool = self._pool if self._pool_timeouts else None
        pool_cap = self._pool_cap
        fired = 0
        try:
            while queue:
                if queue[0][0] > bound:
                    break
                time, _prio, _seq, event = pop(queue)
                fired += 1
                if time < self._now:
                    raise SimulationError(
                        f"event queue corrupted: time moved backwards ({time} < {self._now})"
                    )
                if event._cancelled:
                    if pool is not None and type(event) is Timeout and len(pool) < pool_cap:
                        pool.append(event)
                    continue
                self._now = time
                event._fire()
                if (
                    pool is not None
                    and type(event) is Timeout
                    and not event.callbacks
                    and len(pool) < pool_cap
                ):
                    pool.append(event)
        finally:
            self._active -= fired
            self.events_fired += fired
