"""Queue disciplines (packet schedulers).

Every egress interface owns one :class:`QueueDiscipline`.  The reproduction
implements the scheduler family the paper's end-to-end QoS chain relies on:

* :class:`DropTailFifo` — the best-effort baseline (claim C2's "plain IP").
* :class:`PriorityScheduler` — strict priority across classes (EF gets the
  wire whenever it has a packet).
* :class:`WeightedRoundRobin` — packet-granularity weighted service.
* :class:`DeficitRoundRobin` — byte-accurate weighted service (Shreedhar &
  Varghese), the workhorse for AF classes.
* :class:`FairQueueing` — self-clocked fair queueing (SCFQ), a packetized
  approximation of GPS with per-class weights; the "WFQ" of vendor specs.

Class-based queueing with borrowing (CBQ), which the paper places at the
customer premises (§5), lives in :mod:`repro.qos.cbq` and composes these.

A discipline is a pure data structure driven by the interface: ``enqueue``
may refuse (tail drop or an active-queue-management decision), ``dequeue``
picks the next packet for the transmitter.  All byte accounting uses the
packet's wire size so MPLS shim and ESP overheads count against queues,
exactly as they would on a real box.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

from repro.net.drops import DropReason
from repro.net.packet import Packet

__all__ = [
    "ClassifyFn",
    "DropCallback",
    "QueueDiscipline",
    "DropPolicy",
    "ClassStats",
    "DropTailFifo",
    "ClassQueue",
    "PriorityScheduler",
    "WeightedRoundRobin",
    "DeficitRoundRobin",
    "FairQueueing",
]

# Maps a packet to a class index (0-based).  Interior nodes classify on the
# MPLS EXP field or outer DSCP; see repro.qos.classifier for builders.
ClassifyFn = Callable[[Packet], int]

#: Per-packet counter/drop-hook switch.  True (the default) keeps the
#: :class:`ClassStats` bumps and drop-callback notifications every test and
#: telemetry session expects.  The sweep runner and benchmarks flip it off
#: through :func:`repro.obs.runtime.set_packet_counters` so an unobserved
#: run pays nothing per packet for observability it is not using.  Flow
#: metrics (the experiment results) come from sinks, not these counters, so
#: the off-path changes no experiment output.
COUNTERS = True

# Invoked when a discipline refuses a packet: (pkt, reason, now).  Wired by
# the owning Interface so queue losses reach the TraceBus / flight recorder
# with a taxonomy (QUEUE_TAIL vs QUEUE_AQM) instead of only bumping
# ClassStats.dropped.
DropCallback = Callable[[Packet, DropReason, float], None]


class DropPolicy(Protocol):
    """Active-queue-management hook consulted on every enqueue.

    Implementations (RED/WRED in :mod:`repro.qos.red`) return True when the
    packet should be dropped *despite* buffer space remaining.
    """

    def should_drop(self, pkt: Packet, backlog_bytes: int, now: float) -> bool: ...

    def notify_dequeue(self, backlog_bytes: int, now: float) -> None: ...


@dataclass(slots=True)
class ClassStats:
    """Per-class counters every discipline maintains."""

    enqueued: int = 0
    dropped: int = 0
    dequeued: int = 0
    bytes_sent: int = 0


class QueueDiscipline:
    """Abstract scheduler; see module docstring for the contract."""

    #: Fluid background load (hybrid traffic plane): the analytic rate of
    #: fluid aggregates sharing this egress and the equivalent standing
    #: backlog they contribute.  Class-level zero defaults keep the
    #: pure-packet path cost-free; the FluidRouter writes instance values
    #: at envelope epochs via :meth:`set_fluid_background`.  Disciplines
    #: that consult AQM state fold ``fluid_standing_bytes`` into the
    #: backlog their drop policy sees (see :class:`DropTailFifo`) so RED
    #: reacts to congestion contributed by traffic it never enqueues.
    fluid_background_bps: float = 0.0
    fluid_standing_bytes: int = 0

    def set_fluid_background(self, bps: float, standing_bytes: int = 0) -> None:
        """Charge analytic fluid load on this discipline (hybrid mode).

        ``bps`` is the summed envelope rate crossing the egress;
        ``standing_bytes`` an M/M/1-style estimate of the backlog that
        load would keep resident.  Zeroing both restores exact
        pure-packet behaviour.
        """
        self.fluid_background_bps = float(bps)
        self.fluid_standing_bytes = int(standing_bytes)

    def enqueue(self, pkt: Packet, now: float) -> bool:
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        raise NotImplementedError

    def next_eligible(self, now: float) -> float:
        """Earliest absolute time a queued packet may become dequeueable.

        Work-conserving disciplines always have something eligible whenever
        backlogged, so the default is ``now``.  Non-work-conserving ones
        (CBQ with a regulated class, shapers) override this so the driving
        interface knows when to retry instead of going idle forever.
        """
        return now

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def backlog_bytes(self) -> int:
        raise NotImplementedError

    def set_drop_callback(self, cb: DropCallback | None) -> None:
        """Install (or clear) the drop-notification callback.

        Default is a no-op so exotic disciplines keep working; concrete
        disciplines that can refuse packets override this.
        """


class DropTailFifo(QueueDiscipline):
    """Single FIFO with byte and packet capacity limits; optional AQM.

    Parameters
    ----------
    capacity_packets / capacity_bytes:
        Tail-drop thresholds; ``None`` disables that limit.
    drop_policy:
        Optional AQM (e.g. RED) consulted before the tail-drop check.
    """

    def __init__(
        self,
        capacity_packets: int | None = 100,
        capacity_bytes: int | None = None,
        drop_policy: DropPolicy | None = None,
    ) -> None:
        self._q: deque[Packet] = deque()
        self._bytes = 0
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self.drop_policy = drop_policy
        self.stats = ClassStats()
        self.on_drop: DropCallback | None = None

    def set_drop_callback(self, cb: DropCallback | None) -> None:
        self.on_drop = cb

    def enqueue(self, pkt: Packet, now: float) -> bool:
        # ``fluid_standing_bytes`` (class default 0) folds the hybrid
        # plane's analytic backlog into the AQM view and the shared-buffer
        # byte bound; pure-packet runs add a literal zero.
        if self.drop_policy is not None and self.drop_policy.should_drop(
            pkt, self._bytes + self.fluid_standing_bytes, now
        ):
            if COUNTERS:
                self.stats.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(pkt, DropReason.QUEUE_AQM, now)
            return False
        if (
            self.capacity_packets is not None
            and len(self._q) >= self.capacity_packets
        ) or (
            self.capacity_bytes is not None
            and self._bytes + pkt.wire_bytes + self.fluid_standing_bytes
            > self.capacity_bytes
        ):
            if COUNTERS:
                self.stats.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(pkt, DropReason.QUEUE_TAIL, now)
            return False
        self._q.append(pkt)
        self._bytes += pkt.wire_bytes
        if COUNTERS:
            self.stats.enqueued += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._q:
            return None
        pkt = self._q.popleft()
        self._bytes -= pkt.wire_bytes
        if COUNTERS:
            self.stats.dequeued += 1
            self.stats.bytes_sent += pkt.wire_bytes
        if self.drop_policy is not None:
            self.drop_policy.notify_dequeue(
                self._bytes + self.fluid_standing_bytes, now
            )
        return pkt

    def __len__(self) -> int:
        return len(self._q)

    @property
    def backlog_bytes(self) -> int:
        return self._bytes


@dataclass
class ClassQueue:
    """One class's FIFO inside a classful scheduler."""

    name: str = ""
    capacity_packets: int | None = 100
    capacity_bytes: int | None = None
    drop_policy: DropPolicy | None = None
    q: deque[Packet] = field(default_factory=deque)
    bytes: int = 0
    stats: ClassStats = field(default_factory=ClassStats)
    on_drop: DropCallback | None = field(default=None, repr=False)

    def push(self, pkt: Packet, now: float) -> bool:
        if self.drop_policy is not None and self.drop_policy.should_drop(
            pkt, self.bytes, now
        ):
            if COUNTERS:
                self.stats.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(pkt, DropReason.QUEUE_AQM, now)
            return False
        if (
            self.capacity_packets is not None and len(self.q) >= self.capacity_packets
        ) or (
            self.capacity_bytes is not None
            and self.bytes + pkt.wire_bytes > self.capacity_bytes
        ):
            if COUNTERS:
                self.stats.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(pkt, DropReason.QUEUE_TAIL, now)
            return False
        self.q.append(pkt)
        self.bytes += pkt.wire_bytes
        if COUNTERS:
            self.stats.enqueued += 1
        return True

    def pop(self, now: float) -> Packet:
        pkt = self.q.popleft()
        self.bytes -= pkt.wire_bytes
        if COUNTERS:
            self.stats.dequeued += 1
            self.stats.bytes_sent += pkt.wire_bytes
        if self.drop_policy is not None:
            self.drop_policy.notify_dequeue(self.bytes, now)
        return pkt

    def head(self) -> Packet:
        return self.q[0]

    def __len__(self) -> int:
        return len(self.q)


class _ClassfulBase(QueueDiscipline):
    """Shared plumbing for classful schedulers: classify + per-class FIFOs.

    Total backlog is tracked in ``_count`` (every subclass bumps it on a
    successful push and drops it on a successful pop), so ``len(qdisc)`` —
    which the driving interface consults on every transmit cycle — is O(1)
    instead of a sum over class queues.
    """

    def __init__(self, classes: Sequence[ClassQueue], classify: ClassifyFn) -> None:
        if not classes:
            raise ValueError("need at least one class queue")
        self.classes = list(classes)
        self.classify = classify
        self._count = 0

    def _class_for(self, pkt: Packet) -> ClassQueue:
        idx = self.classify(pkt)
        if not 0 <= idx < len(self.classes):
            idx = len(self.classes) - 1  # unknown traffic -> last (best effort)
        return self.classes[idx]

    def enqueue(self, pkt: Packet, now: float) -> bool:
        ok = self._class_for(pkt).push(pkt, now)
        if ok:
            self._count += 1
        return ok

    def set_drop_callback(self, cb: DropCallback | None) -> None:
        for cq in self.classes:
            cq.on_drop = cb

    def __len__(self) -> int:
        return self._count

    @property
    def backlog_bytes(self) -> int:
        return sum(c.bytes for c in self.classes)


class PriorityScheduler(_ClassfulBase):
    """Strict priority: class 0 is served whenever non-empty, then 1, ...

    Gives EF the tightest delay bound but can starve lower classes — the
    E9a ablation quantifies exactly that trade-off.
    """

    def dequeue(self, now: float) -> Optional[Packet]:
        for cq in self.classes:
            if cq.q:
                self._count -= 1
                return cq.pop(now)
        return None


class WeightedRoundRobin(_ClassfulBase):
    """Weighted round robin at packet granularity.

    Each round, class *i* may send up to ``weights[i]`` packets.  Simple and
    cheap, but unfair for mixed packet sizes (big packets buy bandwidth) —
    which is precisely why DRR/WFQ exist; the ablation shows the difference.
    """

    def __init__(
        self,
        classes: Sequence[ClassQueue],
        classify: ClassifyFn,
        weights: Sequence[int],
    ) -> None:
        super().__init__(classes, classify)
        if len(weights) != len(self.classes):
            raise ValueError("weights/classes length mismatch")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = list(weights)
        self._current = 0
        self._credit = self.weights[0]

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._count == 0:
            return None
        n = len(self.classes)
        for _ in range(2 * n):  # at most one full rotation + restarts
            cq = self.classes[self._current]
            if cq.q and self._credit > 0:
                self._credit -= 1
                self._count -= 1
                return cq.pop(now)
            self._current = (self._current + 1) % n
            self._credit = self.weights[self._current]
        return None  # pragma: no cover - unreachable when backlog > 0


class DeficitRoundRobin(_ClassfulBase):
    """Deficit round robin (byte-accurate weighted service).

    ``quanta[i]`` bytes of credit are added to class *i* each time the
    round-robin pointer reaches it; a class may send packets while its
    deficit covers them.  O(1) per packet provided each quantum is at least
    one MTU.
    """

    def __init__(
        self,
        classes: Sequence[ClassQueue],
        classify: ClassifyFn,
        quanta: Sequence[int],
    ) -> None:
        super().__init__(classes, classify)
        if len(quanta) != len(self.classes):
            raise ValueError("quanta/classes length mismatch")
        if any(q <= 0 for q in quanta):
            raise ValueError("quanta must be positive")
        self.quanta = list(quanta)
        self.deficits = [0] * len(self.classes)
        self._active: deque[int] = deque()
        self._in_active = [False] * len(self.classes)

    def enqueue(self, pkt: Packet, now: float) -> bool:
        idx = self.classify(pkt)
        if not 0 <= idx < len(self.classes):
            idx = len(self.classes) - 1
        ok = self.classes[idx].push(pkt, now)
        if ok:
            self._count += 1
            if not self._in_active[idx]:
                self._active.append(idx)
                self._in_active[idx] = True
                self.deficits[idx] = 0
        return ok

    def dequeue(self, now: float) -> Optional[Packet]:
        while self._active:
            idx = self._active[0]
            cq = self.classes[idx]
            if not cq.q:  # drained during its turn
                self._active.popleft()
                self._in_active[idx] = False
                continue
            if self.deficits[idx] < cq.head().wire_bytes:
                # Head does not fit: grant quantum and rotate to back.
                self._active.rotate(-1)
                new_head = self._active[0]
                if new_head == idx:
                    self.deficits[idx] += self.quanta[idx]
                else:
                    self.deficits[new_head] += self.quanta[new_head]
                # Ensure progress even for a single active class whose head
                # exceeds one quantum: keep granting on each visit.
                continue
            pkt = cq.pop(now)
            self._count -= 1
            self.deficits[idx] -= pkt.wire_bytes
            if not cq.q:
                self._active.popleft()
                self._in_active[idx] = False
                self.deficits[idx] = 0
            return pkt
        return None


class FairQueueing(_ClassfulBase):
    """Self-clocked fair queueing (SCFQ) — packetized weighted fair queueing.

    Each arriving packet gets a finish tag ``F = max(V, F_prev(class)) +
    size/weight`` where ``V`` is the tag of the packet in service; the
    scheduler always sends the smallest finish tag.  Approximates GPS within
    one packet per class, which is what vendors ship as "WFQ".
    """

    def __init__(
        self,
        classes: Sequence[ClassQueue],
        classify: ClassifyFn,
        weights: Sequence[float],
    ) -> None:
        super().__init__(classes, classify)
        if len(weights) != len(self.classes):
            raise ValueError("weights/classes length mismatch")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = [float(w) for w in weights]
        self._virtual = 0.0
        self._last_finish = [0.0] * len(self.classes)
        self._tags: list[deque[float]] = [deque() for _ in self.classes]

    def enqueue(self, pkt: Packet, now: float) -> bool:
        idx = self.classify(pkt)
        if not 0 <= idx < len(self.classes):
            idx = len(self.classes) - 1
        cq = self.classes[idx]
        if not cq.push(pkt, now):
            return False
        self._count += 1
        start = max(self._virtual, self._last_finish[idx])
        finish = start + pkt.wire_bytes / self.weights[idx]
        self._last_finish[idx] = finish
        self._tags[idx].append(finish)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        best = -1
        best_tag = float("inf")
        for idx, tags in enumerate(self._tags):
            if tags and tags[0] < best_tag:
                best_tag = tags[0]
                best = idx
        if best < 0:
            if self._count == 0:
                self._virtual = 0.0  # idle system: reset virtual clock
            return None
        self._tags[best].popleft()
        self._virtual = best_tag
        self._count -= 1
        return self.classes[best].pop(now)
