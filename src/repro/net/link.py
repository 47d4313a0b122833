"""Interfaces and links.

An :class:`Interface` is a node's attachment point with an *output queue*
and a transmitter; a :class:`Link` is a simplex channel with a bit rate and
propagation delay.  Duplex connectivity is two simplex links.

Transmission is store-and-forward: the egress interface serializes one
packet at a time (``wire_bytes * 8 / rate_bps`` seconds) and the link then
delays it by its propagation time before handing it to the remote node.
Queueing behaviour is delegated to a pluggable queue discipline (see
``repro.qos.queues``); the interface only drives the
enqueue → (idle?) → dequeue → transmit → repeat cycle.

Egress *conditioners* (classifier/meter/marker chains from ``repro.qos``)
run before the queue discipline and may drop or remark packets — this is
where the DiffServ traffic-conditioning block of claim C6 attaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.drops import DropReason
from repro.net.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.qos.queues import QueueDiscipline

__all__ = ["Interface", "Link", "InterfaceStats"]

Conditioner = Callable[[Packet, float], Optional[Packet]]


@dataclass(slots=True)
class InterfaceStats:
    """Egress counters for one interface."""

    tx_packets: int = 0
    tx_bytes: int = 0
    enqueued: int = 0
    dropped: int = 0
    conditioner_dropped: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the transmitter was busy."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class Link:
    """Simplex channel: delivers packets to ``dst_node`` after ``delay_s``.

    The serialisation time lives in the sending :class:`Interface`; the link
    adds only propagation delay (so back-to-back packets can be "in flight"
    simultaneously, as on a real wire).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dst_node: "Node",
        dst_ifname: str,
        delay_s: float,
    ) -> None:
        self.sim = sim
        self.name = name
        self.dst_node = dst_node
        self.dst_ifname = dst_ifname
        self.delay_s = float(delay_s)
        self._up = True
        # Link state is routing-topology state: the owning Network wires
        # this to its topology-generation bump so *any* ``link.up`` write —
        # not just DuplexLink.set_up — invalidates cached domain views.
        # The changed link rides on the callback so listeners (e.g. the
        # convergence tracer) know *which* link flipped.
        self.on_state_change: Optional[Callable[["Link"], None]] = None

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        value = bool(value)
        changed = value != self._up
        self._up = value
        if changed and self.on_state_change is not None:
            self.on_state_change(self)

    def carry(self, pkt: Packet) -> None:
        """Propagate ``pkt`` to the far end (silently lost if link is down)."""
        if not self._up:
            return
        self.sim.schedule_call(self.delay_s, self.dst_node.receive, pkt, self.dst_ifname)


class Interface:
    """A node's egress attachment: conditioners + queue discipline + transmitter.

    Parameters
    ----------
    sim:
        The simulation kernel.
    node:
        Owning node (used for naming and receive dispatch on the peer).
    name:
        Interface name, unique within the node (``"eth0"``...).
    rate_bps:
        Transmit rate in bits per second.
    qdisc:
        Queue discipline instance; defaults are installed by the topology
        builder (a plain DropTail FIFO unless QoS is configured).
    """

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        name: str,
        rate_bps: float,
        qdisc: "QueueDiscipline",
    ) -> None:
        self.sim = sim
        self.node = node
        self.name = name
        # Fluid background load (hybrid traffic plane): analytic rate of
        # fluid aggregates currently crossing this interface.  Packets
        # share the transmitter with that load, so serialization runs at
        # the *effective* residual rate.  ``_eff_rate_bps`` is precomputed
        # whenever either input changes (the ``rate_bps`` property setter
        # and ``set_fluid_load``) so the hot path pays nothing when no
        # fluid is charged (it equals rate_bps exactly, same float).
        self.fluid_load_bps = 0.0
        self._rate_bps = float(rate_bps)
        self._eff_rate_bps = self._rate_bps
        self.qdisc = qdisc  # property setter: also wires the drop callback
        self.link: Link | None = None
        self.conditioners: list[Conditioner] = []
        self.stats = InterfaceStats()
        self._busy = False
        # Pending wake-up for non-work-conserving qdiscs: one coalesced
        # timer at the earliest eligible time, not one per blocked enqueue.
        self._retry_event = None
        self._retry_time = math.inf
        # Populated by the topology builder: far-end node/interface names,
        # used by routing to translate next-hop decisions into interfaces.
        self.peer_node: "Node | None" = None
        self.peer_ifname: str | None = None

    # ------------------------------------------------------------------
    def attach(self, link: Link, peer_node: "Node", peer_ifname: str) -> None:
        """Wire this interface to its outgoing simplex link."""
        self.link = link
        self.peer_node = peer_node
        self.peer_ifname = peer_ifname

    def add_conditioner(self, fn: Conditioner) -> None:
        """Append an egress conditioner (classify/meter/mark/police stage)."""
        self.conditioners.append(fn)

    @property
    def rate_bps(self) -> float:
        """Line rate.  Assignment (tests reshape links post-construction)
        re-derives the effective serialization rate under any fluid load."""
        return self._rate_bps

    @rate_bps.setter
    def rate_bps(self, value: float) -> None:
        self._rate_bps = float(value)
        self.set_fluid_load(self.fluid_load_bps)

    def set_fluid_load(self, bps: float) -> None:
        """Charge ``bps`` of analytic (fluid) background load on this egress.

        Called by the hybrid traffic plane's FluidRouter at envelope
        epochs.  Real packets then serialize at the residual rate
        ``rate_bps - bps`` (floored at 0.1% of line rate so a transient
        overshoot cannot stall the transmitter), which is how packet-mode
        queues *see* fluid utilization they never enqueue.  ``bps = 0``
        restores the exact original rate — the pure-packet hot path is
        untouched (``Interface.rate_bps`` itself is never rewritten).
        """
        self.fluid_load_bps = float(bps)
        if bps <= 0.0:
            self._eff_rate_bps = self._rate_bps
        else:
            self._eff_rate_bps = max(self._rate_bps - bps, self._rate_bps * 1e-3)

    # ------------------------------------------------------------------
    # Queue discipline: assignment (including post-construction swaps by
    # experiments/tests) re-wires the drop callback so queue and AQM losses
    # always reach the TraceBus/flight recorder with their taxonomy.
    # Hot methods read ``_qdisc`` directly to skip the property descriptor.
    @property
    def qdisc(self) -> "QueueDiscipline":
        return self._qdisc

    @qdisc.setter
    def qdisc(self, q: "QueueDiscipline") -> None:
        self._qdisc = q
        q.set_drop_callback(self._queue_drop)

    def _queue_drop(self, pkt: Packet, reason: DropReason, now: float) -> None:
        """Called by the queue discipline when it refuses a packet.

        With telemetry off (no flight recorder, no drop subscribers) this
        is two attribute loads and two jumps — congestion experiments that
        drop thousands of packets pay nothing for the unobserved hooks.
        """
        trace = self.node.trace
        fl = trace.flight
        if fl is not None:
            fl.drop(now, self.node.name, pkt, reason.value, ifname=self.name)
        if trace.active("drop"):
            trace.publish(
                "drop",
                now,
                node=self.node.name,
                iface=self.name,
                reason=reason.value,
                pkt=pkt,
            )

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Run conditioners, enqueue, and kick the transmitter.

        Returns False when the packet was dropped (by a conditioner or the
        queue discipline).
        """
        now = self.sim.now
        if self.conditioners:
            for fn in self.conditioners:
                out = fn(pkt, now)
                if out is None:
                    self.stats.conditioner_dropped += 1
                    self._queue_drop(pkt, DropReason.CONDITIONER, now)
                    return False
                pkt = out
        if not self._qdisc.enqueue(pkt, now):
            self.stats.dropped += 1
            return False
        self.stats.enqueued += 1
        fl = self.node.trace.flight
        if fl is not None:
            fl.enqueue(now, self.node.name, pkt, self.name, len(self._qdisc))
        if not self._busy:
            if self._retry_event is None:
                self._transmit_next()
            else:
                # Transmitter idle but regulated: a retry timer is already
                # armed at the earliest eligible time.  Only act if this
                # arrival made something eligible sooner — either right now
                # (a borrow-capable / conformant class was empty until this
                # packet) or earlier than the armed wake-up.  Everything
                # else keeps the one coalesced timer instead of paying a
                # cancel + re-schedule + failed dequeue per blocked
                # enqueue.
                t = self._qdisc.next_eligible(now)
                if t <= now:
                    self._transmit_next()
                elif t < self._retry_time:
                    self._retry_event.cancel()
                    self._retry_time = t
                    self._retry_event = self.sim.schedule(
                        t - now, self._transmit_next
                    )
        return True

    def send_batch(self, pkts: "list[Packet]") -> None:
        # Kept because the benchmark tracer names it; nothing here calls it.
        for pkt in pkts:
            self.send(pkt)

    # ------------------------------------------------------------------
    def _transmit_next(self) -> None:
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
            self._retry_time = math.inf
        now = self.sim.now
        pkt = self._qdisc.dequeue(now)
        if pkt is None:
            self._busy = False
            # Non-work-conserving discipline with backlog: wake up when the
            # earliest regulated packet becomes eligible (e.g. CBQ class
            # waiting for its allocation bucket to refill).
            if len(self._qdisc) > 0:
                t = self._qdisc.next_eligible(now)
                if t != float("inf"):
                    self._retry_time = t
                    self._retry_event = self.sim.schedule(
                        max(t - now, 1e-9), self._transmit_next
                    )
            return
        fl = self.node.trace.flight
        if fl is not None:
            fl.dequeue(now, self.node.name, pkt, self.name, len(self._qdisc))
        self._busy = True
        tx_time = pkt.wire_bytes * 8.0 / self._eff_rate_bps
        self.stats.busy_time += tx_time
        self.sim.schedule_call(tx_time, self._transmit_done, pkt)

    def _transmit_done(self, pkt: Packet) -> None:
        # ``Link.carry`` is fused inline: one call frame per forwarded
        # packet matters at millions of packet-hops per experiment.
        self.stats.tx_packets += 1
        self.stats.tx_bytes += pkt.wire_bytes
        link = self.link
        if link is not None and link._up:
            self.sim.schedule_call(
                link.delay_s, link.dst_node.receive, pkt, link.dst_ifname
            )
        self._transmit_next()

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def backlog_packets(self) -> int:
        return len(self.qdisc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.node.name}.{self.name} {self.rate_bps/1e6:g}Mbps>"
