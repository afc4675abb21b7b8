"""Additional kernel edge cases: condition failure paths and channel
instrumentation under churn."""

from repro.sim import Channel, Environment
from repro.telemetry import MetricsRegistry


def test_all_of_fails_fast_on_failed_member():
    env = Environment()
    good = env.timeout(5.0)
    bad = env.event()
    caught = []

    def p(env):
        try:
            yield env.all_of([good, bad])
        except RuntimeError as exc:
            caught.append((env.now, str(exc)))

    env.process(p(env))

    def failer(env):
        yield env.timeout(1.0)
        bad.fail(RuntimeError("member died"))

    env.process(failer(env))
    env.run()
    # Fails at t=1 without waiting for the 5 s member.
    assert caught == [(1.0, "member died")]


def test_any_of_fails_on_failed_member():
    env = Environment()
    slow = env.timeout(5.0)
    bad = env.event()
    caught = []

    def p(env):
        try:
            yield env.any_of([slow, bad])
        except ValueError:
            caught.append(env.now)

    env.process(p(env))
    bad.fail(ValueError("x"))
    env.run()
    assert caught == [0.0]


def test_nested_conditions():
    env = Environment()
    got = []

    def p(env):
        inner = env.all_of([env.timeout(1.0), env.timeout(2.0)])
        outer = env.any_of([inner, env.timeout(10.0)])
        yield outer
        got.append(env.now)

    env.process(p(env))
    env.run(until=20.0)
    assert got == [2.0]


def test_channel_occupancy_under_churn():
    env = Environment()
    with MetricsRegistry().installed():
        ch = Channel(env, capacity=4)

    def producer(env):
        for i in range(100):
            yield from ch.put(i)

    def consumer(env):
        for _ in range(100):
            yield env.timeout(0.01)
            yield from ch.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ch.put_count == ch.get_count == 100
    # Bounded channel: occupancy never exceeded capacity.
    assert ch.occupancy.max_value <= 4
    assert ch.wait.count == 100


def test_run_until_already_processed_event():
    env = Environment()
    evt = env.timeout(1.0, value="done")
    env.run()  # processes the timeout
    assert env.run(until=evt) == "done"  # returns at once, no dry-run error


def test_event_fail_then_value_accessible():
    env = Environment()
    evt = env.event()
    exc = RuntimeError("kept")
    evt.fail(exc)
    env.run()
    assert evt.ok is False
    assert evt.value is exc
