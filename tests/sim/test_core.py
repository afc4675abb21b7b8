"""Unit tests for the DES kernel (repro.sim.core)."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, SimulationError


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_custom_start():
    assert Environment(initial_time=7.5).now == 7.5


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.0)
    env.run()
    assert env.now == 3.0


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_nan_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(float("nan"))
    assert env.peek() == float("inf")       # nothing was scheduled


def test_run_until_nan_rejected():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(ValueError):
        env.run(until=float("nan"))
    assert env.now == 0.0 and env.peek() == 1.0


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def p(env):
        v = yield env.timeout(1.0, value="payload")
        seen.append(v)

    env.process(p(env))
    env.run()
    assert seen == ["payload"]


def test_process_sequences_timeouts():
    env = Environment()
    trace = []

    def p(env):
        yield env.timeout(1.0)
        trace.append(env.now)
        yield env.timeout(2.5)
        trace.append(env.now)

    env.process(p(env))
    env.run()
    assert trace == [1.0, 3.5]


def test_processes_interleave_in_time_order():
    env = Environment()
    trace = []

    def p(env, name, delay):
        yield env.timeout(delay)
        trace.append((name, env.now))

    env.process(p(env, "slow", 2.0))
    env.process(p(env, "fast", 1.0))
    env.run()
    assert trace == [("fast", 1.0), ("slow", 2.0)]


def test_same_time_events_fire_fifo():
    env = Environment()
    trace = []

    def p(env, name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in "abc":
        env.process(p(env, name))
    env.run()
    assert trace == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def p(env):
        while True:
            yield env.timeout(1.0)

    env.process(p(env))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def p(env):
        yield env.timeout(2.0)
        return 42

    proc = env.process(p(env))
    assert env.run(until=proc) == 42
    assert env.now == 2.0


def test_run_until_never_fires_raises():
    env = Environment()
    orphan = env.event()
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_join_on_process_gets_return_value():
    env = Environment()
    got = []

    def worker(env):
        yield env.timeout(3.0)
        return "result"

    def waiter(env, target):
        value = yield target
        got.append((env.now, value))

    target = env.process(worker(env))
    env.process(waiter(env, target))
    env.run()
    assert got == [(3.0, "result")]


def test_join_on_already_finished_process():
    env = Environment()
    got = []

    def worker(env):
        yield env.timeout(1.0)
        return "early"

    def late_waiter(env, target):
        yield env.timeout(5.0)
        value = yield target
        got.append((env.now, value))

    target = env.process(worker(env))
    env.process(late_waiter(env, target))
    env.run()
    assert got == [(5.0, "early")]


def test_event_succeed_wakes_waiters():
    env = Environment()
    gate = env.event()
    woken = []

    def waiter(env):
        v = yield gate
        woken.append((env.now, v))

    def opener(env):
        yield env.timeout(4.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert woken == [(4.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    gate.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_strict_mode_propagates_process_errors():
    """The kernel is always strict: a process's exception is not caught."""
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("bug in process")

    env.process(bad(env))
    with pytest.raises(ValueError, match="bug in process"):
        env.run()


@pytest.mark.parametrize("until", [
    pytest.param(lambda env: None, id="until-none"),
    pytest.param(lambda env: 5.0, id="until-time"),
    pytest.param(lambda env: env.event(), id="until-event"),
])
def test_process_error_ends_run_where_raised(until):
    """Each of run()'s three loops lets the error out at t=1.0, with the
    Initialize event and the timeout counted."""
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("bug in process")

    env.process(bad(env))
    with pytest.raises(ValueError, match="bug in process"):
        env.run(until(env))
    assert env.now == 1.0
    assert env.events_processed == 2


def test_yield_non_event_rejected():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="yielded"):
        env.run()


def test_all_of_waits_for_slowest():
    env = Environment()
    got = []

    def p(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        result = yield env.all_of([t1, t2])
        got.append((env.now, sorted(result.values())))

    env.process(p(env))
    env.run()
    assert got == [(3.0, ["a", "b"])]


def test_any_of_fires_on_fastest():
    env = Environment()
    got = []

    def p(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(3.0, value="slow")
        result = yield env.any_of([t1, t2])
        got.append((env.now, list(result.values())))

    env.process(p(env))
    env.run(until=10.0)
    assert got == [(1.0, ["fast"])]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    got = []

    def p(env):
        yield env.all_of([])
        got.append(env.now)

    env.process(p(env))
    env.run()
    assert got == [0.0]


def test_peek_and_step():
    env = Environment()
    env.timeout(2.0)
    env.timeout(5.0)
    assert env.peek() == 2.0
    env.step()
    assert env.now == 2.0
    assert env.peek() == 5.0


def test_step_empty_queue_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_determinism_two_runs_identical():
    def build_and_run():
        env = Environment()
        trace = []

        def p(env, name, period):
            while env.now < 10:
                yield env.timeout(period)
                trace.append((name, env.now))

        env.process(p(env, "x", 1.7))
        env.process(p(env, "y", 2.3))
        env.run(until=20.0)
        return trace

    assert build_and_run() == build_and_run()


def test_drive_runs_generator_and_frees_it_without_gc():
    """A driven generator runs on callbacks and, once done, is freed by
    reference counting: no cycle keeps it for the cyclic collector."""
    import gc
    import weakref

    from repro.sim import drive

    env = Environment()
    results = []

    def work(env):
        yield env.timeout(1.0)
        yield env.timeout(0.5)
        return env.now

    gen = work(env)
    alive = weakref.ref(gen)
    gc.disable()
    try:
        drive(gen, results.append)
        del gen
        env.run()
        assert results == [1.5]
        assert alive() is None
    finally:
        gc.enable()
