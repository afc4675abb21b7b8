"""Discrete-event simulation kernel.

A minimal, dependency-free event loop in the style of SimPy: simulation
actors are Python generators that ``yield`` :class:`Event` objects and are
resumed when those events fire.  The kernel is deterministic — given the
same seed streams (see :mod:`repro.sim.rand`) a simulation replays
identically, which the test suite relies on.

Virtual time is a ``float`` in **seconds**.  Nothing in the kernel sleeps
on the wall clock; large cluster runs execute in milliseconds of real time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "drive",
    "total_events_processed",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


# Event lifecycle states.
PENDING = 0
TRIGGERED = 1  # scheduled on the event queue, callbacks not yet run
PROCESSED = 2  # callbacks have run

# Process-wide event tally across every Environment, so experiment
# runners can report events/s without holding a reference to each env
# their sweeps create.
_total_events = 0


def _add_total(processed: int) -> None:
    global _total_events
    _total_events += processed


def total_events_processed() -> int:
    """Events processed by all Environments since interpreter start."""
    return _total_events


def _schedule_at(env: "Environment", when: float, entry: Any) -> None:
    """Queue ``entry`` to run at absolute time ``when``.

    ``entry`` is anything with a ``_run_callbacks()`` method: a
    triggered :class:`Event`, or a reusable wake-up object that a
    callback-driven actor pushes again for each of its services, so a
    service costs one heap entry and no fresh event.  ``when`` must not
    be earlier than ``env.now``.
    """
    heapq.heappush(env._queue, (when, next(env._eid), entry))


class Event:
    """A happening at a point in simulated time.

    Events move through three states: *pending* (created), *triggered*
    (given a value/exception and scheduled), *processed* (callbacks ran).
    Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = PENDING

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        if self._state == PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        # Inline env._push: succeed() fires once per queue grant /
        # process completion, the second-hottest scheduling site.
        env = self.env
        heapq.heappush(env._queue, (env._now, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.
        """
        if self._state != PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._value = exception
        self._ok = False
        self._state = TRIGGERED
        self.env._push(self)
        return self

    def _run_callbacks(self) -> None:
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # ``not >=`` also rejects NaN, which would break the heap order.
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        # Direct slot initialization (no Event.__init__ call): a Timeout
        # is born triggered, and this constructor runs once per modeled
        # stage latency — the hottest allocation site in the kernel.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self.delay = delay
        heapq.heappush(env._queue, (env._now + delay, next(env._eid), self))


class Initialize(Event):
    """Internal: starts a freshly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._value = None
        self._ok = True
        self._state = TRIGGERED
        self.callbacks.append(process._resume)
        env._push(self)


class Process(Event):
    """A running simulation actor wrapping a generator.

    The process *is itself an event* that triggers when the generator
    returns (value = its return value); other processes may
    ``yield proc`` to join on it.  An exception the generator raises is
    not caught: it propagates out of :meth:`Environment.run` and ends
    the run.  Nothing interrupts a process from outside.
    """

    __slots__ = ("generator", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def _resume(self, event: Event) -> None:
        # The kernel's hottest function: one call per process wake-up.
        # Advance the generator directly (no per-resume closure) and
        # handle the yielded event inline.
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; only Event "
                f"instances may be yielded")
        if target._state == PROCESSED:
            # Already complete: resume immediately via a fresh hook so the
            # event queue stays the single source of ordering.
            hook = Event(self.env)
            hook._value, hook._ok = target._value, target._ok
            hook.callbacks.append(self._resume)
            hook._state = TRIGGERED
            self.env._push(hook)
        else:
            target.callbacks.append(self._resume)


def drive(generator: Generator, done: Callable[[Any], None]) -> None:
    """Run an event-yielding generator on event callbacks, not a Process.

    The first step runs now, inside the caller, so an exception raised
    before the first ``yield`` propagates here.  Each later step runs
    inside the callbacks of the event the generator waits on, as a
    process's would; a failed event's exception is thrown into the
    generator, and an already-processed one resumes it at once.
    ``done(value)`` receives the return value inside the event that
    completed the generator.  No Initialize event is scheduled, so a
    generator driven this way costs only the events it yields.
    """
    _Driven(generator, done).step()


class _Driven:
    """One generator run by :func:`drive`.

    What waits on each event is a bound method of this object, not a
    closure over itself, so nothing refers back to it once the event
    has fired: a finished drive is freed by reference counting at once
    instead of lingering as cyclic garbage until a full collection.
    """

    __slots__ = ("generator", "done")

    def __init__(self, generator: Generator, done: Callable[[Any], None]):
        self.generator = generator
        self.done = done

    def step(self, event: Optional[Event] = None) -> None:
        generator = self.generator
        while True:
            try:
                if event is None:
                    target = next(generator)
                elif event._ok:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self.done(stop.value)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"driven generator yielded {target!r}; only Event "
                    f"instances may be yielded")
            if target._state != PROCESSED:
                target.callbacks.append(self.step)
                return
            event = target


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite waits."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._pending_count = 0
        for evt in self.events:
            if evt._state == PROCESSED:
                self._observe(evt)
            else:
                evt.callbacks.append(self._observe)
                self._pending_count += 1
        self._check_trivial()

    def _check_trivial(self) -> None:
        raise NotImplementedError

    def _observe(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when every constituent event has triggered.

    Value is a dict mapping each event to its value.
    """

    __slots__ = ("_done",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self._done = 0
        super().__init__(env, events)

    def _check_trivial(self) -> None:
        if self._state == PENDING and self._done == len(self.events):
            self.succeed({e: e._value for e in self.events})

    def _observe(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed({e: e._value for e in self.events})


class AnyOf(Condition):
    """Triggers as soon as any constituent event triggers.

    Value is a dict of the events that had triggered at that moment.
    """

    __slots__ = ()

    def _check_trivial(self) -> None:
        if self._state == PENDING and any(
                e._state == PROCESSED for e in self.events):
            self.succeed({e: e._value for e in self.events
                          if e._state == PROCESSED})

    def _observe(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed({e: e._value for e in self.events
                      if e._state == PROCESSED})


class Environment:
    """The simulation clock plus the event queue.

    Pending events live in one binary heap of ``(time, eid, event)``
    triples; the insertion counter ``eid`` breaks time ties in FIFO
    order, so a given schedule always pops in the same order.

    An exception raised inside a process propagates out of :meth:`run`
    (or :meth:`step`) at the simulated time it was raised: the run ends
    there.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now`.
    """

    __slots__ = ("_now", "_queue", "_eid", "events_processed")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = itertools.count()
        #: Total events whose callbacks have run (step() / run() loops).
        self.events_processed = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    # -- event constructors ----------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator,
                name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _push(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue,
                       (self._now + delay, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process one event; advances :attr:`now` to its timestamp."""
        global _total_events
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        _total_events += 1
        event._run_callbacks()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (stop when the clock would pass it), an
        :class:`Event` (stop when it triggers, returning its value), or
        ``None`` (run until no events remain).

        Each loop below inlines :meth:`step` with the heap and pop
        hoisted into locals — the dispatch loop itself is a measurable
        slice of large modeled runs.
        """
        queue = self._queue
        pop = heapq.heappop
        if isinstance(until, Event):
            stop_evt = until
            processed = 0
            try:
                while not stop_evt._state:          # PENDING
                    if not queue:
                        raise SimulationError(
                            "simulation ran dry before the awaited event "
                            "fired")
                    when, _, event = pop(queue)
                    self._now = when
                    processed += 1
                    event._run_callbacks()
            finally:
                self.events_processed += processed
                _add_total(processed)
            if not stop_evt._ok:
                raise stop_evt._value
            return stop_evt._value

        if until is not None:
            horizon = float(until)
            if math.isnan(horizon):
                raise ValueError("until=nan is not a time")
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self._now})")
            processed = 0
            try:
                while queue and queue[0][0] <= horizon:
                    when, _, event = pop(queue)
                    self._now = when
                    processed += 1
                    event._run_callbacks()
            finally:
                self.events_processed += processed
                _add_total(processed)
            self._now = max(self._now, horizon)
            return None

        processed = 0
        try:
            while queue:
                when, _, event = pop(queue)
                self._now = when
                processed += 1
                event._run_callbacks()
        finally:
            self.events_processed += processed
            _add_total(processed)
        return None
