"""Property test: the kernel's pop order is the (time, priority, seq)
total order, whatever mix of microqueues and heap the events were
routed through.

This is the invariant every fast path must preserve.
"""

import random

import pytest

from repro.sim import Event, Simulator
from repro.sim.engine import NORMAL, URGENT


def _fire_at(sim, when, fn, priority):
    """Run ``fn()`` at absolute time ``when`` at the given priority,
    through the kernel's ordinary ``(time, priority, seq)`` schedule
    (the public API has no delayed URGENT event)."""
    evt = Event(sim)
    evt.callbacks = [lambda _evt: fn()]
    evt._ok = True
    evt._value = None
    sim._schedule(evt, priority, when - sim.now)


def _random_schedule(sim, rng, budget):
    """Drive a randomized event storm; return (expected, fired).

    Every scheduled callback may schedule more events with random
    delays (zero → microqueues; µs to tens of ms → heap) and random
    priorities. ``expected`` records (time, priority, seq) in
    scheduling order — the kernel assigns its internal seq in the same
    order — and ``fired`` records execution order.
    """
    expected = []
    fired = []
    pending = set()
    state = {"seq": 0, "left": budget}

    def schedule(delay, priority):
        when = sim.now + delay
        seq = state["seq"]
        state["seq"] += 1
        label = (when, priority, seq)
        expected.append(label)
        pending.add(label)
        _fire_at(sim, when, lambda: on_fire(label), priority)

    def on_fire(label):
        # The kernel invariant: every pop is the (time, priority, seq)
        # minimum of everything scheduled-and-unfired at that moment.
        assert label == min(pending), (label, min(pending))
        pending.discard(label)
        fired.append(label)
        for _ in range(rng.randrange(3)):
            if state["left"] <= 0:
                return
            state["left"] -= 1
            kind = rng.randrange(4)
            if kind == 0:
                delay = 0.0
            elif kind == 1:
                delay = rng.uniform(0.0, 5e-4)
            elif kind == 2:
                delay = rng.uniform(5e-4, 2e-3)
            else:
                delay = rng.uniform(2e-3, 5e-2)  # service-period range
            schedule(delay, rng.choice((URGENT, NORMAL)))

    # A seed burst with duplicate timestamps to stress the tiebreaks.
    times = [0.0, 1e-3, 1e-3, 2e-3] + \
        [rng.choice((5e-4, 1e-3, rng.uniform(0, 4e-2)))
         for _ in range(60)]
    for t in times:
        if state["left"] <= 0:
            break
        state["left"] -= 1
        schedule(t, rng.choice((URGENT, NORMAL)))
    sim.run()
    return expected, fired


@pytest.mark.parametrize("seed", range(8))
def test_pop_order_is_time_priority_seq_total_order(seed):
    rng = random.Random(seed)
    sim = Simulator()
    expected, fired = _random_schedule(sim, rng, budget=400)
    # Everything fired exactly once (the min-of-pending assertion
    # inside the storm checked the order at every single pop).
    assert len(fired) == len(expected)
    assert sorted(fired) == sorted(expected)


@pytest.mark.parametrize("seed", range(4))
def test_total_order_matches_slow_kernel(monkeypatch, seed):
    """The fast kernel (microqueues + cohorts) fires the exact
    sequence the plain-heap kernel fires."""
    runs = []
    for slow in ("0", "1"):
        monkeypatch.setenv("MEGAMMAP_SLOW_KERNEL", slow)
        sim = Simulator()
        assert sim._fast == (slow == "0")
        runs.append(_random_schedule(sim, random.Random(seed), 300))
    (_, fired_fast), (_, fired_slow) = runs
    assert fired_fast == fired_slow

