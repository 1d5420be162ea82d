"""Fast-path kernel edge cases: microqueue, trampoline, slow-mode parity.

Every behavioral test here runs under both kernels (``fast`` fixture);
the contract (DESIGN.md "Kernel fast paths") is that simulated
results, event ordering, and final scheduler state are bit-for-bit
identical — only wall-clock and the ``kernel.*`` counters may differ.
"""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Simulator,
)


@pytest.fixture(params=[True, False], ids=["fast", "slow"])
def fast(request):
    return request.param


# -- conditions over already-triggered events -------------------------------
def test_any_of_over_already_triggered_events(fast):
    sim = Simulator(fast=fast)

    def proc():
        a = Event(sim).succeed("a")
        b = Event(sim).succeed("b")
        v = yield AnyOf(sim, [a, b])
        return v

    p = sim.process(proc())
    sim.run()
    assert p.value == "a"


def test_all_of_over_already_triggered_events(fast):
    sim = Simulator(fast=fast)

    def proc():
        a = Event(sim).succeed("a")
        b = Event(sim).succeed("b")
        v = yield AllOf(sim, [a, b])
        return v

    p = sim.process(proc())
    sim.run()
    assert p.value == ["a", "b"]


def test_all_of_over_processed_events(fast):
    # Constituents that were *processed* (not just scheduled) before
    # the condition is built take the synchronous _check path.
    sim = Simulator(fast=fast)
    a = Event(sim).succeed("a")
    b = Event(sim).succeed("b")
    sim.run()
    assert a.processed and b.processed

    def proc():
        v = yield AllOf(sim, [a, b])
        return v

    p = sim.process(proc())
    sim.run()
    assert p.value == ["a", "b"]


def test_any_of_mixed_triggered_and_pending(fast):
    sim = Simulator(fast=fast)
    pending = Event(sim)

    def proc():
        fired = Event(sim).succeed("now")
        v = yield AnyOf(sim, [pending, fired])
        return v

    p = sim.process(proc())
    sim.run()
    assert p.value == "now"
    assert not pending.triggered


# -- interrupts vs the microqueue -------------------------------------------
def test_interrupt_process_blocked_on_immediate_event(fast):
    # The interrupt must detach the victim from an event already
    # sitting in the microqueue; the event itself still gets processed.
    sim = Simulator(fast=fast)
    trace = []
    imm = Event(sim)

    def victim():
        try:
            yield imm
            trace.append("value")
        except Interrupt as exc:
            trace.append(("interrupted", exc.cause))

    def attacker(p):
        imm.succeed("v")
        p.interrupt("bang")
        return
        yield

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert trace == [("interrupted", "bang")]
    assert imm.processed


# -- FIFO ordering across the microqueue/heap boundary ----------------------
def test_fifo_across_microqueue_and_heap(fast):
    # At time 1.0 the heap holds b's timeout (earlier seq) while a's
    # immediate event (later seq) sits in the microqueue: the heap
    # entry must win, exactly as the heap-only kernel orders them.
    sim = Simulator(fast=fast)
    trace = []

    def a():
        yield sim.timeout(1.0)
        trace.append("a1")
        e = Event(sim)
        e.succeed()
        yield e
        trace.append("a2")

    def b():
        yield sim.timeout(1.0)
        trace.append("b1")

    sim.process(a())
    sim.process(b())
    sim.run()
    assert trace == ["a1", "b1", "a2"]


def test_urgent_microqueue_beats_normal(fast):
    # URGENT immediate events (process completions) are consumed before
    # earlier-seq NORMAL immediates never — priority dominates seq.
    sim = Simulator(fast=fast)
    trace = []

    def child():
        trace.append("child")
        return "cv"
        yield

    def parent():
        e = Event(sim)
        e.succeed(priority=1)  # NORMAL, scheduled first
        p = sim.process(child())
        v = yield p            # URGENT completion, scheduled second
        trace.append(("joined", v))
        yield e
        trace.append("normal")

    sim.process(parent())
    sim.run()
    assert trace == ["child", ("joined", "cv"), "normal"]


def test_zero_delay_timeout_orders_with_immediates(fast):
    # timeout(0) and Event.succeed land in the same timestamp; FIFO
    # (seq) order must hold between them in both kernels.
    sim = Simulator(fast=fast)
    trace = []

    def w(name, evt):
        yield evt
        trace.append(name)

    t1 = sim.timeout(0.0)
    e = Event(sim).succeed()
    t2 = sim.timeout(0.0)
    sim.process(w("t1", t1))
    sim.process(w("e", e))
    sim.process(w("t2", t2))
    sim.run()
    assert trace == ["t1", "e", "t2"]


# -- trampoline correctness -------------------------------------------------
def test_trampoline_runs_other_callbacks_first(fast):
    # When a chain-consumed event has other waiters, they must observe
    # it exactly as if the loop had popped it (callbacks before resume).
    sim = Simulator(fast=fast)
    trace = []
    shared = Event(sim)

    def watcher():
        v = yield shared
        trace.append(("watcher", v))

    def chainer():
        shared.succeed("s")
        yield shared
        trace.append("chainer")

    sim.process(watcher())
    sim.process(chainer())
    sim.run()
    assert trace == [("watcher", "s"), "chainer"]


def test_immediate_chain_matches_slow_kernel():
    def workload(sim):
        trace = []

        def side(evt):
            yield evt
            trace.append("side")

        def chain():
            for i in range(3):
                e = Event(sim)
                e.succeed(i)
                if i == 1:
                    sim.process(side(e))
                v = yield e
                trace.append(v)
            yield sim.timeout(1.0)
            trace.append("t1")

        sim.process(chain())
        sim.run()
        return trace, sim.now

    fast_trace = workload(Simulator(fast=True))
    slow_trace = workload(Simulator(fast=False))
    assert fast_trace == slow_trace


def test_run_until_event_stops_inline_chains(fast):
    # A process resumed by the `until` event must not run further
    # ahead than the heap-only kernel: pending immediates stay pending.
    sim = Simulator(fast=fast)
    trace = []
    stop = Event(sim)

    def waiter():
        v = yield stop
        trace.append(("resumed", v))
        e = Event(sim)
        e.succeed()
        yield e
        trace.append("inline")

    def trigger():
        yield sim.timeout(1.0)
        stop.succeed("x")

    sim.process(waiter())
    sim.process(trigger())
    assert sim.run(until=stop) == "x"
    assert trace == [("resumed", "x")]
    # The rest of the chain resumes when run() is called again.
    sim.run()
    assert trace == [("resumed", "x"), "inline"]


def test_run_until_already_queued_stop(fast):
    # The stop event is consumed mid-chain by the process itself.
    sim = Simulator(fast=fast)
    trace = []
    stop = Event(sim)

    def proc():
        stop.succeed("sv")
        v = yield stop
        trace.append(("got", v))
        e = Event(sim)
        e.succeed()
        yield e
        trace.append("past-stop")

    sim.process(proc())
    assert sim.run(until=stop) == "sv"
    assert trace == [("got", "sv")]
    sim.run()
    assert trace == [("got", "sv"), "past-stop"]


# -- counters ---------------------------------------------------------------
def _churn(sim, n=200):
    def proc():
        for _ in range(n):
            e = Event(sim)
            e.succeed()
            yield e

    sim.process(proc())
    sim.run()


def test_fast_kernel_counts_fast_events_and_trampolines():
    sim = Simulator(fast=True)
    _churn(sim)
    assert sim.fast_events > 0
    assert sim.trampolines > 0
    assert sim.fast_events + sim.heap_events == sim._seq


def test_slow_kernel_never_uses_fast_paths():
    sim = Simulator(fast=False)
    _churn(sim)
    assert sim.fast_events == 0
    assert sim.trampolines == 0
    assert sim.heap_events == sim._seq


def test_env_var_selects_kernel(monkeypatch):
    monkeypatch.setenv("MEGAMMAP_SLOW_KERNEL", "1")
    assert not Simulator()._fast
    monkeypatch.setenv("MEGAMMAP_SLOW_KERNEL", "0")
    assert Simulator()._fast
    monkeypatch.delenv("MEGAMMAP_SLOW_KERNEL")
    assert Simulator()._fast
