"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    Event,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 5.0
    assert sim.now == 5.0


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        return v

    p = sim.process(proc())
    sim.run()
    assert p.value == "hello"


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_processes_interleave_deterministically():
    sim = Simulator()
    trace = []

    def proc(name, delay):
        yield sim.timeout(delay)
        trace.append((name, sim.now))
        yield sim.timeout(delay)
        trace.append((name, sim.now))

    sim.process(proc("a", 2.0))
    sim.process(proc("b", 3.0))
    sim.run()
    assert trace == [("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0)]


def test_fifo_order_among_simultaneous_events():
    sim = Simulator()
    trace = []

    def proc(name):
        yield sim.timeout(1.0)
        trace.append(name)

    for name in "abcd":
        sim.process(proc(name))
    sim.run()
    assert trace == list("abcd")


def test_process_waits_on_process():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 99

    def parent():
        result = yield sim.process(child())
        return result + 1

    p = sim.process(parent())
    sim.run()
    assert p.value == 100


def test_yield_already_fired_event_resumes_immediately():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent(c):
        yield sim.timeout(5.0)
        v = yield c  # c finished long ago
        assert sim.now == 5.0
        return v

    c = sim.process(child())
    p = sim.process(parent(c))
    sim.run()
    assert p.value == "done"


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as e:
            return f"caught {e}"

    p = sim.process(parent())
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_raises_from_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return 7

    p = sim.process(proc())
    assert sim.run(until=p) == 7


def test_run_until_failed_event_raises():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        raise KeyError("x")

    p = sim.process(proc())
    with pytest.raises(KeyError):
        sim.run(until=p)


def test_run_until_deadline_stops_clock_there():
    # Both kernels: an event at exactly the deadline runs, the clock
    # stops at the deadline, and a later event stays pending until the
    # next run().
    for fast in (True, False):
        sim = Simulator(fast=fast)
        log = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            log.append((tag, sim.now))

        sim.process(proc(100.0, "late"))
        sim.process(proc(10.0, "at"))
        sim.run(until=10.0)
        assert sim.now == 10.0
        assert log == [("at", 10.0)]
        sim.run(until=50.0)
        assert sim.now == 50.0 and log == [("at", 10.0)]
        sim.run()
        assert sim.now == 100.0
        assert log == [("at", 10.0), ("late", 100.0)]


def test_run_until_deadline_runs_same_time_cohort():
    """A cohort of zero-delay events at the deadline (microqueue
    entries under the fast kernel) all run before run() returns, in
    the same order under both kernels."""
    traces = []
    for fast in (True, False):
        sim = Simulator(fast=fast)
        trace = []
        gate = Event(sim)

        def opener():
            yield sim.timeout(1.0)
            for i in range(3):
                yield sim.timeout(0)
                trace.append(("tick", i, sim.now))
            gate.succeed("open")

        def waiter(name):
            v = yield gate
            trace.append((name, v, sim.now))
            yield sim.timeout(0.5)
            trace.append((name, "late", sim.now))

        sim.process(opener())
        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert trace == [("tick", 0, 1.0), ("tick", 1, 1.0),
                         ("tick", 2, 1.0), ("a", "open", 1.0),
                         ("b", "open", 1.0)]
        sim.run()
        assert sim.now == 1.5
        assert trace[5:] == [("a", "late", 1.5), ("b", "late", 1.5)]
        traces.append(trace)
    assert traces[0] == traces[1]


def test_run_until_deadline_under_perturbation():
    """With perturbation armed, running to a deadline and then on
    pops the same events in the same order as one run() to the end."""
    def run(deadlines):
        sim = Simulator()
        sim.enable_perturbation(seed=3)
        log = []

        def proc(tag, delay):
            yield sim.timeout(delay)
            log.append(tag)
            yield sim.timeout(0)
            log.append((tag, sim.now))

        for i in range(6):
            sim.process(proc(i, 2.0))
        sim.process(proc("late", 3.0))
        for d in deadlines:
            sim.run(until=d)
            assert sim.now == d
            if d == 2.0:
                assert "late" not in log and len(log) == 12
        sim.run()
        assert sim.now == 3.0
        return log

    assert run([2.0, 2.5]) == run([])


def test_run_until_past_deadline_rejected():
    sim = Simulator()

    def noop():
        yield sim.timeout(1.0)

    sim.process(noop())
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=sim.now - 1.0)


def test_event_succeed_twice_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_fail_requires_exception():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(TypeError):
        evt.fail("not an exception")


def test_yield_non_event_is_an_error():
    sim = Simulator()

    def proc():
        yield 42

    sim.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_cross_simulator_event_rejected():
    sim1 = Simulator()
    sim2 = Simulator()

    def proc():
        yield sim2.timeout(1.0)

    sim1.process(proc())
    with pytest.raises(SimulationError, match="different Simulator"):
        sim1.run()


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def child(delay, val):
        yield sim.timeout(delay)
        return val

    def parent():
        vals = yield AllOf(sim, [
            sim.process(child(3.0, "slow")),
            sim.process(child(1.0, "fast")),
        ])
        return vals

    p = sim.process(parent())
    sim.run()
    assert p.value == ["slow", "fast"]
    assert sim.now == 3.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent():
        vals = yield AllOf(sim, [])
        return vals

    p = sim.process(parent())
    sim.run()
    assert p.value == []


def test_all_of_fails_fast_on_child_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("bad child")

    def ok():
        yield sim.timeout(5.0)

    def parent():
        try:
            yield AllOf(sim, [sim.process(bad()), sim.process(ok())])
        except ValueError:
            return sim.now

    p = sim.process(parent())
    sim.run()
    assert p.value == 1.0


def test_nested_yield_from_composition():
    sim = Simulator()

    def inner():
        yield sim.timeout(1.0)
        return 10

    def middle():
        v = yield from inner()
        yield sim.timeout(1.0)
        return v + 5

    def outer():
        v = yield from middle()
        return v * 2

    p = sim.process(outer())
    sim.run()
    assert p.value == 30
    assert sim.now == 2.0


def test_zero_delay_timeouts_preserve_creation_order():
    sim = Simulator()
    trace = []

    def proc(n):
        yield sim.timeout(0.0)
        trace.append(n)

    for i in range(5):
        sim.process(proc(i))
    sim.run()
    assert trace == [0, 1, 2, 3, 4]
