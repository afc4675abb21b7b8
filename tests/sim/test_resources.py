"""Unit tests for the Resource and Store primitives."""

import inspect
import sys

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def user(env, name):
        req = res.request()
        yield req
        grants.append((name, env.now))
        yield env.timeout(10.0)
        res.release(req)

    for name in "abc":
        env.process(user(env, name))
    env.run(until=5.0)
    assert [g[0] for g in grants] == ["a", "b"]
    env.run(until=15.0)
    assert grants[-1] == ("c", 10.0)


def test_resource_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Environment(), capacity=0)


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name, hold):
        req = res.request()
        yield req
        order.append(name)
        yield env.timeout(hold)
        res.release(req)

    for name in ["first", "second", "third"]:
        env.process(user(env, name, 1.0))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_release_foreign_request_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_count_and_queue_len():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    res.request()
    env.run()
    assert res.count == 1
    assert res.queue_len == 1
    res.release(r1)
    env.run()
    assert res.count == 1
    assert res.queue_len == 0


def test_release_schedules_no_event():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    env.run()
    before = env.events_processed
    ack = res.release(req)
    assert ack.processed and ack.ok and ack.value is None
    env.run()
    assert env.events_processed == before


def test_yielded_release_resumes_at_once():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(1.0)
        value = yield res.release(req)
        log.append(("holder", env.now, value))

    def waiter(env):
        yield env.timeout(0.5)
        req = res.request()
        yield req
        log.append(("waiter", env.now, None))
        res.release(req)

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert log == [("waiter", 1.0, None), ("holder", 1.0, None)]


# ---------------------------------------------------------------- Store
def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1.0)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            out.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert out == [0, 1, 2]


def test_store_capacity_blocks_putter():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put("a")
        times.append(("put-a", env.now))
        yield store.put("b")
        times.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [("put-a", 0.0), ("put-b", 5.0)]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((item, env.now))

    def producer(env):
        yield env.timeout(3.0)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [("x", 3.0)]


def test_store_offer_and_take_cost_no_event():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.offer("a") is None
    pending = store.offer("b")           # full: parks a StorePut
    assert pending is not None and not pending.triggered
    assert store.take(object()) == (True, "a")
    assert pending.triggered             # admitted when "a" left
    env.run()
    assert env.events_processed == 1     # only the parked put's ack


def test_reentrant_direct_waiter_is_served_without_recursion():
    # A direct waiter's succeed() runs inside the put that fed it.  This
    # one re-parks itself and puts its next item back into the same
    # store, so each grant happens inside the previous one; _drain must
    # turn that into iterations, not nested calls.
    env = Environment()
    store = Store(env)
    seen = []

    class Echo:
        def succeed(self, item):
            seen.append(item)
            if item < 300:
                assert store.take(self) == (False, None)
                assert store.offer(item + 1) is None

    echo = Echo()
    assert store.take(echo) == (False, None)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        store.offer(0)
    finally:
        sys.setrecursionlimit(limit)
    assert seen == list(range(301))
    assert len(store) == 0


def test_store_try_put_try_get():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.try_put("a") is True
    assert store.try_put("b") is False
    ok, item = store.try_get()
    assert ok and item == "a"
    ok, item = store.try_get()
    assert not ok and item is None


def test_store_capacity_validation():
    with pytest.raises(ValueError):
        Store(Environment(), capacity=0)


def test_store_len_tracks_buffer():
    env = Environment()
    store = Store(env)
    store.try_put(1)
    store.try_put(2)
    assert len(store) == 2 and store.level == 2
