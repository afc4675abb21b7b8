"""Instrumented blocking queues — the channels gluing DLBooster together.

Every arrow in the paper's Figure 3 (FIFO cmd queues, Free/Full batch
queues, Trans Queues, packet/block queues) is a :class:`Channel`: a
bounded FIFO that counts its puts and gets.  A channel built while a
metrics registry is installed also gets occupancy and wait-time
monitors, so experiments can report where time is spent without extra
plumbing; one built without a registry skips them, since nothing else
reads them, and each hot-path update is one ``is None`` test.

Channels can additionally be armed with a :class:`ShedPolicy` — the
admission-control half of the supervision layer.  A shed-armed channel
rejects items whose deadline has already passed at enqueue
(*reject-on-admit*) and/or discards expired items transparently at
dequeue (*drop-expired-at-dequeue*), counting every shed.  An unarmed
channel (the default) is byte-identical to a build without this
feature: every hot-path hook is one ``is None`` test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .core import Environment, Event
from .monitor import Counter, LatencyRecorder, TimeWeighted, registry_active
from .resources import Store

__all__ = ["Channel", "DirectGet", "QueuePair", "ShedPolicy", "deadline_of"]

# Returned by Channel._took for an item an armed policy discarded.
_SHED = object()


class DirectGet:
    """An idle callback-driven consumer parked on a :class:`Channel`.

    The store hands it an item synchronously, inside the put that
    supplied it (no grant event); it counts the get exactly as
    :meth:`Channel.get` would, then calls ``fn(item)``.
    """

    __slots__ = ("channel", "fn")

    def __init__(self, channel: "Channel", fn: Callable[[Any], None]):
        self.channel = channel
        self.fn = fn

    def succeed(self, stamped: tuple[float, Any]) -> None:
        item = self.channel._took(stamped)
        if item is _SHED:
            ok, item = self.channel.take(self)
            if not ok:
                return
        self.fn(item)


def deadline_of(item: Any) -> float:
    """Default deadline extractor: the item's absolute ``deadline_at``
    (``inf`` — never sheds — when the item carries no deadline)."""
    return getattr(item, "deadline_at", math.inf)


@dataclass(frozen=True)
class ShedPolicy:
    """Deadline-aware admission control for one :class:`Channel`.

    ``reject_on_admit`` drops an already-expired item instead of
    enqueuing it (the cheapest place to shed: the work never occupies a
    slot).  ``drop_expired_at_dequeue`` makes ``get``/``try_get`` skip
    items that expired while queued, so consumers only ever see live
    work.  ``on_shed(item, where)`` — ``where`` in ``{"admit",
    "dequeue"}`` — lets callers complete per-item bookkeeping (e.g.
    failing a request's ``done_event`` so closed-loop clients reissue).
    """

    deadline_of: Callable[[Any], float] = deadline_of
    reject_on_admit: bool = False
    drop_expired_at_dequeue: bool = True
    on_shed: Optional[Callable[[Any, str], None]] = None

    def expired(self, item: Any, now: float) -> bool:
        return self.deadline_of(item) <= now


class Channel:
    """A bounded FIFO channel with put/get counts, plus occupancy/wait
    monitors when built under an installed metrics registry."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 name: str = "channel", shed: Optional[ShedPolicy] = None):
        self.env = env
        self.name = name
        self._store = Store(env, capacity=capacity, name=name)
        # Only a registry reads the monitors, so only a registry gets them.
        self.occupancy: Optional[TimeWeighted] = None
        self.wait: Optional[LatencyRecorder] = None
        if registry_active():
            self.occupancy = TimeWeighted(env, 0, name=f"{name}.occupancy")
            self.wait = LatencyRecorder(name=f"{name}.wait")
        self.put_count = 0
        self.get_count = 0
        self.shed: Optional[ShedPolicy] = None
        self._shed_count: Optional[Counter] = None
        if shed is not None:
            self.arm_shed(shed)

    def arm_shed(self, policy: ShedPolicy) -> None:
        """Attach a deadline shed policy (e.g. by a Supervisor, after the
        channel's owner constructed it)."""
        self.shed = policy
        if self._shed_count is None:
            self._shed_count = Counter(self.env, name=f"{self.name}.shed")

    @property
    def shed_total(self) -> int:
        """Items shed by the armed policy (0 when unarmed)."""
        return int(self._shed_count.total) if self._shed_count else 0

    def _shed_item(self, item: Any, where: str) -> None:
        self._shed_count.add()
        if self.shed.on_shed is not None:
            self.shed.on_shed(item, where)

    def _rejects_at_admit(self, item: Any) -> bool:
        if self.shed is not None and self.shed.reject_on_admit \
                and self.shed.expired(item, self.env.now):
            self._shed_item(item, "admit")
            return True
        return False

    @property
    def capacity(self) -> float:
        return self._store.capacity

    def __len__(self) -> int:
        return len(self._store)

    # Bookkeeping shared by every put and get flavour.  A put counts
    # once its item is admitted; a get, once it holds the item.
    def _admitted(self, _event: Any = None) -> None:
        self.put_count += 1
        if self.occupancy is not None:
            self.occupancy.set(len(self._store.items))

    def _took(self, stamped: tuple[float, Any]) -> Any:
        """Account one dequeued ``(enq_t, item)``: returns the item, or
        ``_SHED`` when an armed policy discarded it as expired."""
        enq_t, item = stamped
        now = self.env._now
        if self.shed is not None and self.shed.drop_expired_at_dequeue \
                and self.shed.expired(item, now):
            if self.occupancy is not None:
                self.occupancy.set(len(self._store.items))
            self._shed_item(item, "dequeue")
            return _SHED
        self.get_count += 1
        if self.wait is not None:
            self.wait.record(now - enq_t)
            self.occupancy.set(len(self._store.items))
        return item

    def put(self, item: Any) -> Generator:
        """Generator: blocks while the channel is full.

        With a ``reject_on_admit`` shed policy armed, an already-expired
        item is shed instead of enqueued (and the put returns at once).
        """
        if self.shed is not None and self._rejects_at_admit(item):
            return
        yield self._store.put((self.env._now, item))
        self._admitted()

    def get(self) -> Generator:
        """Generator: blocks while the channel is empty; returns the item.

        With a ``drop_expired_at_dequeue`` shed policy armed, items that
        expired while queued are discarded (counted, never returned) and
        the get keeps waiting for live work.
        """
        store = self._store
        while True:
            item = self._took((yield store.get()))
            if item is not _SHED:
                return item

    def offer(self, item: Any) -> Optional[Event]:
        """Callback-form put: no event when the item is handled at once.

        Returns None when the item was admitted (or shed on admit) now.
        Otherwise the channel is full: returns the pending put, which
        triggers once the item is admitted and counted.
        """
        if self.shed is not None and self._rejects_at_admit(item):
            return None
        pending = self._store.offer((self.env._now, item))
        if pending is None:
            self._admitted()
        else:
            pending.callbacks.append(self._admitted)
        return pending

    def take(self, waiter: "DirectGet") -> tuple[bool, Any]:
        """Callback-form get: ``(True, item)`` when live work is queued
        and no earlier getter waits; otherwise parks ``waiter``, whose
        callback later receives the item, and returns ``(False, None)``.
        """
        store = self._store
        while True:
            ok, stamped = store.take(waiter)
            if not ok:
                return False, None
            item = self._took(stamped)
            if item is not _SHED:
                return True, item

    def try_put(self, item: Any) -> bool:
        """Non-blocking put.  Returns True when the item was *handled* —
        enqueued, or shed by an armed reject-on-admit policy."""
        if self._rejects_at_admit(item):
            return True
        ok = self._store.try_put((self.env.now, item))
        if ok:
            self._admitted()
        return ok

    def try_get(self) -> tuple[bool, Any]:
        while True:
            ok, stamped = self._store.try_get()
            if not ok:
                return False, None
            item = self._took(stamped)
            if item is not _SHED:
                return True, item

    def drain(self) -> list[Any]:
        """Non-blocking: remove and return everything currently buffered."""
        out = []
        while True:
            ok, item = self.try_get()
            if not ok:
                return out
            out.append(item)


class QueuePair:
    """A free/full queue pair — the recycling idiom of Algorithms 2 & 3.

    ``free`` holds idle carriers (memory units, device batches); ``full``
    holds loaded ones.  Conservation — every carrier is in exactly one of
    {free, full, in-flight} — is checked by :meth:`in_flight`.
    """

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 name: str = "qpair"):
        self.env = env
        self.name = name
        self.free = Channel(env, capacity, name=f"{name}.free")
        self.full = Channel(env, capacity, name=f"{name}.full")
        self._population = 0

    def seed(self, carriers: list[Any]) -> None:
        """Load initial carriers into the free queue (non-blocking)."""
        for c in carriers:
            if not self.free.try_put(c):
                raise OverflowError(f"{self.name}: seed exceeds capacity")
            self._population += 1

    @property
    def population(self) -> int:
        return self._population

    def in_flight(self) -> int:
        """Carriers currently held by neither queue."""
        return self._population - len(self.free) - len(self.full)
