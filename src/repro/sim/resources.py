"""Shared-resource primitives built on the event kernel.

Two families:

* :class:`Resource` — a counted semaphore with FIFO queueing; models
  CPU-core pools, PCIe lanes, database reader slots.
* :class:`Store` — a buffer of discrete items with put/get blocking; the
  basis of every queue in the system (FIFO cmd queues, batch queues,
  Trans Queues).

All waiters are served in strict FIFO order so simulations are
deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .core import PROCESSED, Environment, Event, SimulationError

__all__ = ["Request", "Release", "Resource", "Store"]


class Request(Event):
    """Pending acquisition of one slot of a :class:`Resource`.

    Usable as a context manager in generator code::

        req = resource.request()
        yield req
        ...critical section...
        resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._enqueue(self)


class Release(Event):
    """Acknowledges a release (for symmetry with :class:`Request`).

    Born processed: no caller needs to wait on a release, so it takes
    no queue entry.  A process that does ``yield`` one still resumes at
    the same instant.
    """

    __slots__ = ()

    def __init__(self, env: Environment):
        super().__init__(env)
        self._state = PROCESSED


class Resource:
    """Counted FIFO resource with ``capacity`` slots."""

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: list[Request] = []
        self._waiters: deque[Request] = deque()

    # -- public API --------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> Release:
        if request not in self._users:
            raise SimulationError(
                f"release of a request not holding {self.name}")
        self._users.remove(request)
        self._grant_next()
        return Release(self.env)

    # -- internals -----------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        self._waiters.append(request)
        self._grant_next()

    def _grant_next(self) -> None:
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            self._users.append(nxt)
            nxt.succeed(nxt)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        # Direct slot initialization (no Event.__init__): one StorePut
        # is created per queue operation — a kernel-hot allocation.
        self.env = store.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = 0                 # PENDING
        self.item = item
        items = store.items
        if not store._put_waiters and len(items) < store.capacity:
            # Immediate admit: no earlier putter to overtake, room in the
            # buffer.  succeed() first, then serve any waiting getter —
            # the exact order _drain() would produce.
            items.append(item)
            self.succeed()
            if store._get_waiters:
                store._drain()
        else:
            store._put_waiters.append(self)
            store._drain()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        self.env = store.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = 0                 # PENDING
        items = store.items
        if items and not store._get_waiters:
            # Immediate serve: item available, no earlier getter to
            # overtake.  succeed() first, then admit any putter freed by
            # the vacated slot — the exact order _drain() would produce.
            self.succeed(items.popleft())
            if store._put_waiters:
                store._drain()
        else:
            store._get_waiters.append(self)
            # Putters only wait while the buffer is full, so an empty
            # buffer proves there is nothing to drain.
            if items:
                store._drain()


class Store:
    """A buffer of items with blocking put/get.

    ``capacity`` bounds the number of buffered items; a full store blocks
    putters, an empty one blocks getters.  FIFO both ways.

    Besides the event-based ``put``/``get``, callback-driven consumers
    use :meth:`offer` and :meth:`take`, which cost no event when they
    complete at once.  A getter parked by :meth:`take` is a *direct*
    waiter: any object whose ``succeed(item)`` takes the item
    synchronously, inside the put that supplied it.
    """

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 name: str = "store"):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._put_waiters: deque[StorePut] = deque()
        self._get_waiters: deque[StoreGet] = deque()
        self._draining = False

    # -- public API --------------------------------------------------
    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def offer(self, item: Any) -> Optional[StorePut]:
        """Put without an event when possible.

        Admits ``item`` and returns None when there is room and no
        earlier putter to overtake; otherwise queues it behind them and
        returns the pending :class:`StorePut`, which triggers on
        admission.
        """
        items = self.items
        if not self._put_waiters and len(items) < self.capacity:
            items.append(item)
            if self._get_waiters:
                self._drain()
            return None
        return StorePut(self, item)

    def take(self, waiter: Any) -> tuple[bool, Any]:
        """Get without an event when possible.

        Returns ``(True, item)`` when an item is buffered and no earlier
        getter waits for it.  Otherwise parks ``waiter`` (a direct
        waiter, see the class docstring) in the getter queue and returns
        ``(False, None)``; the waiter receives its item later through
        ``waiter.succeed(item)``.
        """
        items = self.items
        if items and not self._get_waiters:
            item = items.popleft()
            if self._put_waiters:
                self._drain()
            return True, item
        self._get_waiters.append(waiter)
        if items:
            self._drain()
        return False, None

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False when the store is full."""
        if len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        self._drain()
        return True

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; ``(False, None)`` when empty."""
        if not self.items:
            return False, None
        item = self.items.popleft()
        self._drain()
        return True, item

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        return len(self.items)

    # -- internals -----------------------------------------------------
    def _drain(self) -> None:
        # Hot path: runs on every put/get.  Deques and capacity live in
        # locals.
        #
        # Reentrancy: a StorePut/StoreGet's succeed() only schedules
        # callbacks, but a direct waiter's succeed() runs its consumer
        # now, and that consumer may re-enter this store (take its next
        # item, or put back into it) before returning.  Only the
        # outermost call drains; a nested one returns at once.  That is
        # safe because every nested call happens inside a succeed() of
        # the outer pass, which then counts as progress and runs another
        # round over the live deques.  The grant order stays the
        # admit-then-serve loop's and nesting never goes deeper than
        # one drain per store.
        if self._draining:
            return
        self._draining = True
        items = self.items
        puts = self._put_waiters
        gets = self._get_waiters
        capacity = self.capacity
        try:
            while True:
                progressed = False
                # Admit puts while there is room.
                while puts and len(items) < capacity:
                    putter = puts.popleft()
                    items.append(putter.item)
                    putter.succeed()
                    progressed = True
                # Serve getters in arrival order.
                while gets and items:
                    getter = gets.popleft()
                    getter.succeed(items.popleft())
                    progressed = True
                if not progressed:
                    return
        finally:
            self._draining = False
