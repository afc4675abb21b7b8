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
    "Interrupt",
    "AllOf",
    "AnyOf",
    "CalendarQueue",
    "SimulationError",
    "drive",
    "total_events_processed",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Raised inside a process that another actor interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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


# -- scheduler selection ---------------------------------------------------
# An Environment starts on a binary heap and may migrate to a
# CalendarQueue when, at a run()/step() boundary, the pending set is
# dense enough that bucketing beats log-n sifts.  Migration never
# happens mid-loop: the push fast paths branch on ``env._cal`` per call,
# so a queue representation is stable for the whole of one run() loop.
SCHEDULERS = ("auto", "heap", "calendar")

#: Pending events at a run()/step() boundary before "auto" migrates.
_CAL_THRESHOLD = 512

#: Target mean occupancy per calendar bucket when sizing the width.
#: Larger buckets amortize one ``list.sort()`` (C Timsort) over many
#: O(1) tail pops, which measures faster than per-item heap sifts.
_CAL_PER_BUCKET = 128

#: An active bucket this many times over target marks the widths stale
#: (event density shifted since migration) and triggers a lazy rebuild
#: at the next run()/step() boundary.
_CAL_REBUILD_FACTOR = 32

#: Late pushes accumulated since the last (re)build before the queue
#: re-derives its bucket width from the *current* pending density,
#: mid-run.  This rescues the common degenerate migration: the pending
#: set at migration time is all at one instant (process Initialize
#: events), the span-based width collapses to one bucket, and every
#: subsequent push would be an O(bucket) insort forever.
_CAL_REBUCKET_LATE = 512

#: Rebuckets allowed per queue before we conclude the workload is
#: genuinely hostile to bucketing (always pushes at now) and leave the
#: rest to the boundary demotion guard.
_CAL_MAX_REBUILDS = 16

#: "auto" demotes back to the heap when more than this fraction of
#: pushes land in the already-draining bucket — each such push is an
#: O(bucket) insort, the calendar's only pathological case.  The
#: denominator is events processed since migration (≈ pushes in steady
#: state) so the hot push path doesn't have to maintain a counter.
_CAL_LATE_FRACTION = 0.25

#: Events processed since migration before the late-fraction demotion
#: guard may fire (small counts are all noise).
_CAL_GUARD_MIN_EVENTS = 4096

#: reference_mode() sets this True so A/B runs replay on the exact
#: pre-pass heap scheduler.  Only consulted at migration points.
_FORCE_HEAP = False

# Process-level calibration verdict for the "auto" policy: "calendar"
# or "heap", measured once by scheduler_calibration().  None = not yet
# measured.
_AUTO_VERDICT: Optional[str] = None


class CalendarQueue:
    """Bucketed event queue (a one-tier calendar / ladder queue).

    Items are ``(time, eid, event)`` triples.  Buckets of ``width``
    seconds are keyed by ``int(time * inv_width)``; the *active* bucket
    (everything at or before the bucket currently being drained) is kept
    **sorted descending**, so the next event is always ``active[-1]``
    and a pop is an O(1) ``list.pop()`` — no sift at all.  Future
    buckets stay as unsorted lists that are sorted (one C Timsort call)
    only when the clock reaches them.  For dense pending sets this
    replaces two O(log n) heap sifts per event with an append, a tail
    pop and 1/``per_bucket``-th of a sort.

    Pops come out in exactly ``(time, eid)`` order — the same total
    order as the binary heap — so swapping representations can never
    change a simulation's event order.

    The queue also keeps cheap structural counters (``_late``,
    ``_needs_rebuild``, ``_rebuilds``) that the Environment reads at
    run()/step() boundaries to drive density-adaptive rebuilds and the
    "auto" policy's demote-to-heap guard.
    """

    __slots__ = ("width", "_inv", "_cur", "_active", "_future",
                 "_bucket_ids", "per_bucket", "_late",
                 "_needs_rebuild", "_rebuilds")

    def __init__(self, width: float, per_bucket: int = _CAL_PER_BUCKET):
        if not (width > 0 and math.isfinite(width)):
            raise ValueError(f"bucket width must be finite and > 0, "
                             f"got {width!r}")
        self.width = width
        self._inv = 1.0 / width
        self.per_bucket = per_bucket
        self._cur = -(1 << 62)  # bucket id currently draining
        self._active: list[tuple[float, int, Event]] = []   # sorted desc
        self._future: dict[int, list[tuple[float, int, Event]]] = {}
        self._bucket_ids: list[int] = []  # heap of future bucket ids
        self._late = 0      # pushes that landed in the draining bucket
        self._needs_rebuild = False
        self._rebuilds = 0

    def __len__(self) -> int:
        # Computed, not maintained: keeping a counter would cost two
        # attribute ops on every push AND pop of the hot loops, and
        # emptiness (the only hot question) falls out of
        # ``_active``/``_bucket_ids`` for free.
        n = len(self._active)
        for bucket in self._future.values():
            n += len(bucket)
        return n

    def push(self, item: tuple[float, int, Event]) -> None:
        # NOTE: the body of this fast path is replicated inline at the
        # three hot scheduling sites (Timeout.__init__, Event.succeed,
        # Environment._push) — a method call per push would cost more
        # than the heap's single C heappush.  Keep them in sync.
        try:
            b = int(item[0] * self._inv)
        except (OverflowError, ValueError):  # inf/nan timestamps
            b = 1 << 62
        if b > self._cur:
            try:
                self._future[b].append(item)
            except KeyError:
                self._future[b] = [item]
                heapq.heappush(self._bucket_ids, b)
        else:
            self._push_late(item)

    def _push_late(self, item: tuple[float, int, Event]) -> None:
        """Slow path: push into the bucket being drained (a zero-delay
        event scheduled by a callback) — binary-insert into the
        descending active list so pops stay in total order."""
        self._late += 1
        active = self._active
        lo, hi = 0, len(active)
        while lo < hi:
            mid = (lo + hi) >> 1
            if active[mid] > item:
                lo = mid + 1
            else:
                hi = mid
        active.insert(lo, item)
        if (self._late >= _CAL_REBUCKET_LATE
                and len(active) > self.per_bucket
                and self._rebuilds < _CAL_MAX_REBUILDS):
            # The widths are wrong for the live density (classic case:
            # migration snapshot was all same-instant events, span 0,
            # one giant bucket).  Re-derive them now.
            self._rebucket()

    def _advance(self) -> None:
        b = heapq.heappop(self._bucket_ids)
        items = self._future.pop(b)
        self._cur = b
        items.sort(reverse=True)
        self._active = items
        if len(items) > _CAL_REBUILD_FACTOR * self.per_bucket:
            # Density shifted since the widths were chosen; ask for a
            # recompaction at the next safe boundary.
            self._needs_rebuild = True

    def pop(self) -> tuple[float, int, Event]:
        """Remove and return the earliest item; caller checks len()."""
        if not self._active:
            self._advance()
        return self._active.pop()

    def min_time(self) -> float:
        """Timestamp of the earliest item, or ``inf`` when empty."""
        if not self._active:
            if not self._bucket_ids:
                return float("inf")
            self._advance()
        return self._active[-1][0]

    # -- structural health (read by Environment at boundaries) ----------
    def drain_items(self) -> list[tuple[float, int, Event]]:
        """Remove and return every pending item (order unspecified) —
        the demotion/rebuild path back to a flat list."""
        items = list(self._active)
        for bucket in self._future.values():
            items.extend(bucket)
        self._active = []
        self._future = {}
        self._bucket_ids = []
        return items

    def _rebucket(self) -> None:
        """Re-derive the bucket width from the current pending density
        and redistribute every item — O(n), amortized by the late
        pushes it eliminates.  Pop order is unaffected (the items and
        their total order don't change, only the bucketing)."""
        items = self.drain_items()
        lo = math.inf
        hi = -math.inf
        for it in items:
            t = it[0]
            if t < lo:
                lo = t
            if t > hi:
                hi = t
        span = hi - lo
        if span > 0 and math.isfinite(span):
            width = max(span * self.per_bucket / len(items), 1e-12)
            self.width = width
            self._inv = 1.0 / width
        # else: keep the old width; the counter reset below still stops
        # rebucket attempts from looping on every late push.
        self._cur = -(1 << 62)   # everything lands in future buckets
        for it in items:
            self.push(it)
        self._late = 0
        self._needs_rebuild = False
        self._rebuilds += 1

    @classmethod
    def from_items(cls, items: list[tuple[float, int, Event]],
                   per_bucket: int = _CAL_PER_BUCKET) -> "CalendarQueue":
        """Build a queue sized from the density of ``items``.

        Width is chosen so a bucket holds ~``per_bucket`` of the current
        pending items on average — the event-density heuristic.  A
        degenerate span (all items at one instant) degrades gracefully
        to a single bucket, i.e. plain sorted-list behaviour.
        """
        lo = math.inf
        hi = -math.inf
        for it in items:
            t = it[0]
            if t < lo:
                lo = t
            if t > hi:
                hi = t
        span = hi - lo
        if not (span > 0 and math.isfinite(span)):
            width = 1.0
        else:
            width = max(span * per_bucket / len(items), 1e-12)
        q = cls(width, per_bucket=per_bucket)
        for it in items:
            q.push(it)
        q._late = 0     # construction pushes are not runtime signal
        return q


def _calibration_trial(n: int = 1024, rounds: int = 4096) -> tuple[float,
                                                                   float]:
    """One timed head-to-head of the two queue representations.

    Both run the same synthetic hold pattern (pop the minimum, push a
    replacement a fixed horizon ahead — the canonical event-loop access
    pattern) over the same items; returns (heap_s, calendar_s).
    """
    import time as _time
    items = [((i * 0.6180339887498949) % 1.0, i, None) for i in range(n)]
    horizon = 0.33

    heap = sorted(items)
    t0 = _time.perf_counter()
    eid = n
    for _ in range(rounds):
        when, _, _obj = heapq.heappop(heap)
        heapq.heappush(heap, (when + horizon, eid, None))
        eid += 1
    heap_s = _time.perf_counter() - t0

    cal = CalendarQueue.from_items(list(items))
    push, pop = cal.push, cal.pop
    t0 = _time.perf_counter()
    eid = n
    for _ in range(rounds):
        when, _, _obj = pop()
        push((when + horizon, eid, None))
        eid += 1
    cal_s = _time.perf_counter() - t0
    return heap_s, cal_s


def scheduler_calibration(force: Optional[str] = None, trials: int = 3
                          ) -> str:
    """The "auto" policy's measured verdict: "calendar" or "heap".

    Runs a short (few-ms, once per process) head-to-head of the two
    queue representations on this interpreter and caches the winner.
    "auto" only migrates off the heap when the calendar *measurably*
    wins here — an honest adaptive policy instead of a hopeful one.
    Pass ``force`` to pin the verdict (tests), or ``force=""`` to clear
    the cache and re-measure.
    """
    global _AUTO_VERDICT
    if force is not None:
        _AUTO_VERDICT = force or None
        if _AUTO_VERDICT is not None and _AUTO_VERDICT not in ("heap",
                                                               "calendar"):
            raise ValueError(f"force must be 'heap' or 'calendar', "
                             f"got {force!r}")
    if _AUTO_VERDICT is None:
        heap_best = math.inf
        cal_best = math.inf
        for _ in range(trials):
            heap_s, cal_s = _calibration_trial()
            heap_best = min(heap_best, heap_s)
            cal_best = min(cal_best, cal_s)
        _AUTO_VERDICT = "calendar" if cal_best <= heap_best else "heap"
    return _AUTO_VERDICT


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
        # The calendar branch replicates CalendarQueue.push's fast path
        # (see the NOTE there) — a method call per push costs more than
        # the whole bucket computation.
        env = self.env
        cal = env._cal
        when = env._now
        item = (when, next(env._eid), self)
        if cal is None:
            heapq.heappush(env._queue, item)
        else:
            try:
                b = int(when * cal._inv)
            except (OverflowError, ValueError):
                b = 1 << 62
            if b > cal._cur:
                try:
                    cal._future[b].append(item)
                except KeyError:
                    cal._future[b] = [item]
                    heapq.heappush(cal._bucket_ids, b)
            else:
                cal._push_late(item)
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
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Direct slot initialization (no Event.__init__ call): a Timeout
        # is born triggered, and this constructor runs once per modeled
        # stage latency — the hottest allocation site in the kernel.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self.delay = delay
        cal = env._cal
        when = env._now + delay
        item = (when, next(env._eid), self)
        if cal is None:
            heapq.heappush(env._queue, item)
        else:
            # Replicates CalendarQueue.push's fast path (see the NOTE
            # there): this is the hottest scheduling site in the kernel.
            try:
                b = int(when * cal._inv)
            except (OverflowError, ValueError):
                b = 1 << 62
            if b > cal._cur:
                try:
                    cal._future[b].append(item)
                except KeyError:
                    cal._future[b] = [item]
                    heapq.heappush(cal._bucket_ids, b)
            else:
                cal._push_late(item)


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
    returns (value = its return value) or raises (failure).  Other
    processes may ``yield proc`` to join on it, or call
    :meth:`interrupt` to raise :class:`Interrupt` inside it.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._waiting_on is not None:
            target = self._waiting_on
            if self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            # An interrupted wait on a resource request withdraws the
            # request — otherwise the slot would later be granted to a
            # process that is no longer listening and leak forever.
            cancel = getattr(target, "cancel", None)
            if callable(cancel) and not target.triggered:
                cancel()
            self._waiting_on = None
        hook = Event(self.env)
        hook.callbacks.append(self._resume_interrupt(cause))
        hook.succeed()

    def _resume_interrupt(self, cause: Any) -> Callable[[Event], None]:
        def do_resume(_evt: Event) -> None:
            if not self.is_alive:  # finished before the interrupt landed
                return
            self._step(lambda: self.generator.throw(Interrupt(cause)))
        return do_resume

    def _resume(self, event: Event) -> None:
        # The kernel's hottest function: one call per process wake-up.
        # Advance the generator directly (no per-resume closure) and
        # handle the yielded event inline.
        self._waiting_on = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            env._active_process = None
            self.fail(exc)
            return
        except BaseException as exc:
            env._active_process = None
            if env.strict:
                raise
            self.fail(exc)
            return
        env._active_process = None
        self._wait_on(target)

    def _step(self, advance: Callable[[], Any]) -> None:
        self.env._active_process = self
        try:
            target = advance()
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An uncaught Interrupt terminates the process as a failure.
            self.env._active_process = None
            self.fail(exc)
            return
        except BaseException as exc:
            self.env._active_process = None
            if self.env.strict:
                raise
            self.fail(exc)
            return
        self.env._active_process = None
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
            self._waiting_on = hook
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


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

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now`.
    strict:
        When True (the default), an exception escaping a process propagates
        out of :meth:`run` immediately instead of failing the process
        event — the right behaviour for tests.
    scheduler:
        ``"auto"`` (default) starts on a binary heap and migrates to a
        :class:`CalendarQueue` at a run()/step() boundary once the
        pending set reaches ``_CAL_THRESHOLD`` events *and* the
        once-per-process :func:`scheduler_calibration` microbenchmark
        says the calendar wins on this interpreter; after migration it
        demotes back to the heap (permanently, per env) if the
        calendar's late-push fraction shows the workload is hostile to
        bucketing.  ``"heap"`` pins the binary heap; ``"calendar"``
        migrates at the first non-empty boundary and never demotes.
        Both schedulers pop in identical ``(time, eid)`` order, so the
        choice never changes simulated results.
    """

    __slots__ = ("_now", "_queue", "_cal", "_scheduler", "_eid",
                 "_active_process", "strict", "events_processed",
                 "_cal_banned", "_cal_mark")

    def __init__(self, initial_time: float = 0.0, strict: bool = True,
                 scheduler: str = "auto"):
        if scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler must be one of {SCHEDULERS}, "
                             f"got {scheduler!r}")
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._cal: Optional[CalendarQueue] = None
        self._scheduler = scheduler
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        self.strict = strict
        #: Total events whose callbacks have run (step() / run() loops).
        self.events_processed = 0
        # "auto" demoted this env back to the heap once: stay there —
        # flapping between representations would churn for nothing.
        self._cal_banned = False
        # events_processed at calendar migration; the demotion guard's
        # denominator (events since ≈ pushes since, in steady state).
        self._cal_mark = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

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
        cal = self._cal
        item = (self._now + delay, next(self._eid), event)
        if cal is None:
            heapq.heappush(self._queue, item)
        else:
            cal.push(item)

    def _maybe_switch(self) -> None:
        """Pick the queue representation at a run()/step() boundary.

        Heap -> calendar when the pending set is dense enough AND — for
        "auto" — the per-process calibration says the calendar actually
        wins on this interpreter.  An already-migrated "auto" env is
        health-checked: if the calendar reports pathological behaviour
        (late-push fraction past :data:`_CAL_LATE_FRACTION`), it demotes
        back to the heap and stays there.  Stale bucket widths trigger a
        density-adaptive rebuild instead.  Representation changes happen
        only here, never mid-loop, and both sides pop in identical
        ``(time, eid)`` order, so none of this can change simulated
        results.  ``reference_mode()`` pins ``_FORCE_HEAP`` so A/B
        replays stay on the pre-pass heap.
        """
        cal = self._cal
        if cal is not None:
            done = self.events_processed - self._cal_mark
            if (self._scheduler == "auto"
                    and done >= _CAL_GUARD_MIN_EVENTS
                    and cal._late > done * _CAL_LATE_FRACTION):
                # Post-migration pop/push cost regressed: demote.
                self._queue = cal.drain_items()
                heapq.heapify(self._queue)
                self._cal = None
                self._cal_banned = True
            elif cal._needs_rebuild and (cal._active or cal._bucket_ids):
                self._cal = CalendarQueue.from_items(cal.drain_items(),
                                                     per_bucket=cal.per_bucket)
                self._cal_mark = self.events_processed
            return
        if _FORCE_HEAP or self._cal_banned:
            return
        mode = self._scheduler
        if mode == "heap":
            return
        n = len(self._queue)
        if not n:
            return
        if mode == "calendar" or (n >= _CAL_THRESHOLD
                                  and scheduler_calibration() == "calendar"):
            self._cal = CalendarQueue.from_items(self._queue)
            self._queue = []
            self._cal_mark = self.events_processed

    @property
    def scheduler_active(self) -> str:
        """Queue representation currently in use: "heap" or "calendar"."""
        return "heap" if self._cal is None else "calendar"

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._cal is not None:
            return self._cal.min_time()
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process one event; advances :attr:`now` to its timestamp."""
        global _total_events
        self._maybe_switch()
        cal = self._cal
        if cal is None:
            if not self._queue:
                raise SimulationError("step() on an empty event queue")
            when, _, event = heapq.heappop(self._queue)
        else:
            if not (cal._active or cal._bucket_ids):
                raise SimulationError("step() on an empty event queue")
            when, _, event = cal.pop()
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
        self._maybe_switch()
        if self._cal is not None:
            return self._run_calendar(until)
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

    def _run_calendar(self, until: Optional[float | Event]) -> Any:
        """The run() loops against a migrated :class:`CalendarQueue`.

        Mirrors the heap loops exactly — same stop conditions, same
        accounting — with pops inlined against the calendar's sorted
        active bucket (next event is always ``active[-1]``), which
        yields the identical ``(time, eid)`` order.
        """
        cal = self._cal
        assert cal is not None
        if isinstance(until, Event):
            stop_evt = until
            processed = 0
            try:
                while not stop_evt._state:          # PENDING
                    active = cal._active
                    if not active:
                        if not cal._bucket_ids:
                            raise SimulationError(
                                "simulation ran dry before the awaited "
                                "event fired")
                        cal._advance()
                        active = cal._active
                    when, _, event = active.pop()
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
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self._now})")
            processed = 0
            try:
                while True:
                    active = cal._active
                    if not active:
                        if not cal._bucket_ids:
                            break
                        cal._advance()
                        active = cal._active
                    when = active[-1][0]
                    if when > horizon:
                        break
                    _, _, event = active.pop()
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
            while True:
                active = cal._active
                if not active:
                    if not cal._bucket_ids:
                        break
                    cal._advance()
                    active = cal._active
                when, _, event = active.pop()
                self._now = when
                processed += 1
                event._run_callbacks()
        finally:
            self.events_processed += processed
            _add_total(processed)
        return None
