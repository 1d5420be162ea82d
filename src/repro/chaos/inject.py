"""The fault-injection plane: applies a :class:`ChaosPlan` to a live
:class:`~repro.core.system.MegaMmapSystem`.

One :class:`ChaosInjector` installs itself as the ``chaos`` hook of
the network fabric and every device, then runs a driver process that
walks the plan's timed faults (crashes/restarts/corruption) and sweeps
the conservation invariants after each one. Window faults
(partition/delay/drop/stall) are consulted by the hooks at transfer
time.

Crashes are **safe by default**: a node is only failed once every
at-risk page it primaries (volatile or unpersisted-dirty) has a live
replica elsewhere — otherwise the crash is deferred and retried, and
eventually skipped. This keeps seeded campaigns meaningful: the point
is to exercise recovery, not to certify that losing the only copy of
a page loses data.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.chaos.checker import HistoryRecorder, check_conservation
from repro.chaos.plan import ChaosPlan, Fault
from repro.net.message import RETRY_HEADER
from repro.sim.rand import py_rng

#: Bounded retransmission attempts under the drop fault.
MAX_SEND_ATTEMPTS = 3
#: How many times a deferred (unsafe) crash is retried before skipping.
CRASH_RETRIES = 8


class ChaosInjector:
    """Applies one plan; exposes the network/device chaos hooks."""

    def __init__(self, system, plan: ChaosPlan,
                 recorder: Optional[HistoryRecorder] = None):
        self.system = system
        self.plan = plan
        self.recorder = recorder
        self.rng = py_rng(plan.seed, "chaos-inject")
        self.applied: List[Tuple[str, float, str]] = []
        self.skipped: List[Tuple[Fault, str]] = []
        self.conservation_problems: List[str] = []
        self._windows = {
            kind: [f for f in plan.faults if f.kind == kind]
            for kind in ("partition", "delay", "drop", "stall")}
        #: The window fault of each ``applied`` entry (by index), and
        #: the window faults a transfer or device operation met.
        self._window_at: Dict[int, Fault] = {}
        self._felt: Set[Fault] = set()
        self._proc = None

    # -- installation ----------------------------------------------------
    def install(self) -> "ChaosInjector":
        self.system.network.chaos = self
        for dmsh in self.system.dmshs:
            for dev in dmsh:
                dev.chaos = self
        if self.plan.perturb:
            self.system.sim.enable_perturbation(
                py_rng(self.plan.seed, "perturb").getrandbits(63))
        self._proc = self.system.sim.process(self._driver(),
                                             name="chaos-driver")
        return self

    # -- window lookup ---------------------------------------------------
    def _active(self, kind: str, now: float) -> Optional[Fault]:
        for f in self._windows[kind]:
            if f.time <= now < f.end:
                return f
        return None

    def _partition_heal(self, src: int, dst: int,
                        now: float) -> Optional[float]:
        heal = None
        for f in self._windows["partition"]:
            if f.time <= now < f.end \
                    and (src in f.nodes) != (dst in f.nodes):
                self._felt.add(f)
                heal = f.end if heal is None else max(heal, f.end)
        return heal

    def felt(self, i: int) -> bool:
        """Whether ``applied[i]`` did anything: a crash or corruption
        always; a window fault when a transfer (or, for a stall, a
        device operation) met it. A window nothing crossed left
        nothing to detect."""
        f = self._window_at.get(i)
        return f is None or f in self._felt

    # -- network hook (Network.transfer yields through this) -------------
    def on_transfer(self, net, src: int, dst: int, nbytes: int, link):
        sim = self.system.sim
        if src == dst:
            return
        while True:
            heal = self._partition_heal(src, dst, sim.now)
            if heal is None:
                break
            net.monitor and net.monitor.count("chaos.partition_stalls")
            yield sim.timeout(heal - sim.now)
        f = self._active("delay", sim.now)
        if f is not None:
            jitter = f.param * self.rng.random()
            if jitter > 0.0:
                self._felt.add(f)
                net.monitor and net.monitor.count("chaos.delays")
                yield sim.timeout(jitter)
        f = self._active("drop", sim.now)
        if f is not None:
            attempts = 1
            while attempts < MAX_SEND_ATTEMPTS \
                    and self.rng.random() < f.param:
                attempts += 1
            if attempts > 1:
                self._felt.add(f)
                # Each lost attempt re-pays the payload plus the loss
                # signal at link speed. net.bytes stays goodput; the
                # overhead lands on its own counter.
                extra = (attempts - 1) * (nbytes + RETRY_HEADER)
                if net.monitor is not None:
                    net.monitor.count("chaos.retransmits",
                                      attempts - 1)
                    net.monitor.count("chaos.retrans_bytes", extra)
                for _ in range(attempts - 1):
                    yield sim.timeout(
                        link.xfer_time(nbytes + RETRY_HEADER))

    # -- device hook (Device._xfer adds this to its service time) --------
    def stall_time(self, device, nbytes: int, write: bool) -> float:
        f = self._active("stall", self.system.sim.now)
        if f is None or device.spec.kind == "dram":
            return 0.0
        self._felt.add(f)
        if device.monitor is not None:
            device.monitor.count("chaos.stalls")
        return f.param * device.spec.xfer_time(nbytes, write)

    # -- the timed-fault driver ------------------------------------------
    def _driver(self):
        sim = self.system.sim
        events = []
        for i, f in enumerate(self.plan.faults):
            events.append((f.time, i, "start", f))
            if f.kind == "crash":
                events.append((f.end, i, "restart", f))
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        for t, _i, phase, f in events:
            if t > sim.now:
                yield sim.timeout(t - sim.now)
            if phase == "restart":
                self._apply_restart(f)
            elif f.kind == "crash":
                yield from self._apply_crash(f)
            elif f.kind == "corrupt":
                self._apply_corrupt(f)
            else:
                # Window faults need no application step — the hooks
                # consult the schedule — but the invariant sweep below
                # still runs at every fault boundary.
                self._window_at[len(self.applied)] = f
                self._record(f.kind, f.node)
            self._sweep()

    def _record(self, kind: str, *fields) -> None:
        self.applied.append((kind, float(self.system.sim.now),
                             ",".join(str(f) for f in fields)))
        if self.recorder is not None:
            self.recorder.on_chaos(kind, *fields)

    def _sweep(self) -> None:
        if self.recorder is not None:
            problems = self.recorder.check_conservation()
        else:
            problems = check_conservation(self.system)
        self.conservation_problems.extend(problems)

    # -- crash / restart -------------------------------------------------
    def _crash_safe(self, node: int) -> bool:
        rel = self.system.reliability
        dur = self.system.durability
        if node in rel.failed_nodes:
            return False
        live = [n for n in range(len(self.system.dmshs))
                if n != node and n not in rel.failed_nodes]
        if not live:
            return False
        for info in self.system.hermes.residents(node):
            vec = self.system.vectors.get(info.bucket)
            if vec is None or vec.destroyed:
                continue
            at_risk = vec.volatile or info.key in vec.dirty_pages
            if not at_risk:
                continue  # clean nonvolatile: the backend has it
            if any(rn in live for rn, _t in info.replicas):
                continue
            # Durable mode: a barrier-committed WAL copy of the
            # latest shipped bytes makes the crash recoverable even
            # with no replica — exercising exactly that path is the
            # point of the durability campaigns.
            if dur.covers_clean(info.bucket, info.key):
                continue
            return False
        return True

    def _apply_crash(self, f: Fault):
        sim = self.system.sim
        rel = self.system.reliability
        retry = max(f.duration / (2 * CRASH_RETRIES),
                    self.plan.horizon / 200.0)
        for _attempt in range(CRASH_RETRIES):
            if self._crash_safe(f.node):
                lost = rel.fail_node(f.node)
                self.system.monitor.count("chaos.crashes")
                self._record("crash", f.node, lost)
                return
            yield sim.timeout(retry)
            if sim.now >= f.end:
                break
        self.skipped.append((f, "unsafe_crash"))
        self.system.monitor.count("chaos.crashes_skipped")

    def _apply_restart(self, f: Fault) -> None:
        rel = self.system.reliability
        if f.node in rel.failed_nodes:
            rel.restore_node(f.node)
            self.system.monitor.count("chaos.restarts")
            self._record("restart", f.node)

    # -- corruption ------------------------------------------------------
    def _eligible_corruption_victims(self):
        rel = self.system.reliability
        victims = []
        for info in self.system.hermes.mdm.all_blobs():
            if info.node < 0 or info.node in rel.failed_nodes:
                continue
            vec = self.system.vectors.get(info.bucket)
            if vec is None or vec.destroyed:
                continue
            if (info.bucket, info.key) not in rel.checksums:
                continue  # no baseline: the flip would be undetectable
            dev = self.system.dmshs[info.node].tier(info.tier)
            if (info.bucket, info.key) not in dev:
                continue
            live_replica = any(
                rn not in rel.failed_nodes and rn != info.node
                for rn, _t in info.replicas)
            recoverable = live_replica or (
                not vec.volatile and info.key not in vec.dirty_pages)
            if recoverable:
                victims.append((info.bucket, info.key))
        victims.sort(key=lambda v: (v[0], str(v[1])))
        return victims

    def _apply_corrupt(self, f: Fault) -> None:
        from repro.core.reliability import corrupt_page
        victims = self._eligible_corruption_victims()
        if not victims:
            self.skipped.append((f, "no_eligible_page"))
            self.system.monitor.count("chaos.corruptions_skipped")
            return
        name, key = victims[f.pick % len(victims)]
        if corrupt_page(self.system, name, key,
                        byte_offset=int(f.param)):
            self.system.monitor.count("chaos.corruptions")
            self._record("corrupt", name, key)
        else:
            self.skipped.append((f, "blob_vanished"))
