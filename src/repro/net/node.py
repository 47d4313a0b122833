"""Node base classes.

A :class:`Node` owns a set of interfaces and receives packets from links.
Concrete behaviours (IP router, LSR, PE, host) subclass :meth:`Node.handle`.

Per-packet *processing cost* is modeled explicitly because claim C4 of the
paper is about exactly this: a conventional router spends ``ip_lookup_s``
per packet on longest-prefix match and header inspection, while an LSR
spends ``label_lookup_s`` on an exact-match label lookup.  Costs default to
zero (infinite-speed lookup) so QoS experiments are not confounded; the
forwarding-cost experiment (E3) turns them on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.net.address import IPv4Address, Prefix
from repro.net.drops import DropReason
from repro.net.link import Interface
from repro.net.packet import POOL, Packet
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

__all__ = [
    "Node",
    "Host",
    "ProcessingModel",
    "NodeStats",
]


@dataclass(slots=True)
class ProcessingModel:
    """Per-packet CPU costs, in seconds.

    ``crypto_bps`` models IPsec encrypt/decrypt throughput (bits/second of
    payload through the crypto engine); 0 disables crypto cost.
    """

    ip_lookup_s: float = 0.0
    label_lookup_s: float = 0.0
    crypto_bps: float = 0.0

    def crypto_time(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` through the crypto engine."""
        if self.crypto_bps <= 0:
            return 0.0
        return nbytes * 8.0 / self.crypto_bps


@dataclass(slots=True)
class NodeStats:
    """Aggregate per-node counters.

    The three ``dropped_*`` buckets are the legacy coarse view (kept for
    the experiment harnesses); ``by_reason`` holds the full
    :class:`~repro.net.drops.DropReason` breakdown keyed by reason string.
    """

    rx_packets: int = 0
    forwarded: int = 0
    delivered: int = 0
    dropped_no_route: int = 0
    dropped_ttl: int = 0
    dropped_other: int = 0
    by_reason: dict[str, int] = field(default_factory=dict)

    @property
    def dropped_total(self) -> int:
        return self.dropped_no_route + self.dropped_ttl + self.dropped_other


class Node:
    """Base network element: interfaces + address ownership + dispatch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace: TraceBus | None = None,
        processing: ProcessingModel | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.trace = trace or TraceBus()
        self.processing = processing or ProcessingModel()
        self.interfaces: dict[str, Interface] = {}
        self.addresses: dict[IPv4Address, str] = {}  # address -> ifname ('' = loopback)
        self.connected_prefixes: dict[Prefix, str] = {}  # subnet -> ifname
        self.loopback: IPv4Address | None = None
        # Routing domain tag: provider routers are "core"; customer equipment
        # is "customer" and stays out of the provider IGP (its addresses may
        # overlap other customers').
        self.domain: str = "core"
        self.stats = NodeStats()
        self.local_sinks: list[Callable[[Packet], None]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_interface(self, iface: Interface) -> Interface:
        if iface.name in self.interfaces:
            raise ValueError(f"{self.name}: duplicate interface {iface.name}")
        self.interfaces[iface.name] = iface
        return iface

    def set_loopback(self, addr: IPv4Address | str) -> None:
        """Assign the node's stable loopback address (used as router id)."""
        a = IPv4Address.parse(addr)
        self.loopback = a
        self.addresses[a] = ""

    def add_address(
        self, addr: IPv4Address | str, ifname: str, subnet: Prefix | None = None
    ) -> None:
        a = IPv4Address.parse(addr)
        self.addresses[a] = ifname
        if subnet is not None:
            self.connected_prefixes[subnet] = ifname

    def owns(self, addr: IPv4Address) -> bool:
        """True when ``addr`` is one of this node's own addresses."""
        return addr in self.addresses

    def add_local_sink(self, fn: Callable[[Packet], None]) -> None:
        """Register a callback for packets addressed to this node."""
        self.local_sinks.append(fn)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet, ifname: str) -> None:
        """Entry point called by the incoming link."""
        self.stats.rx_packets += 1
        pkt.hops += 1
        fl = self.trace.flight
        if fl is not None:
            fl.rx(self.sim.now, self.name, pkt, ifname)
        self.handle(pkt, ifname)

    def handle(self, pkt: Packet, ifname: str) -> None:
        """Forward/deliver/drop ``pkt``; overridden by concrete nodes."""
        raise NotImplementedError

    def receive_batch(self, items: list[tuple[Packet, str]]) -> None:
        # Kept because the benchmark tracer names it; nothing here calls it.
        for pkt, ifname in items:
            self.receive(pkt, ifname)

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def deliver_local(self, pkt: Packet) -> None:
        """Hand a packet addressed to this node to the local application(s).

        Delivery ends a pooled packet's life-cycle: once every sink has
        run, the shell goes back to the freelist for the next emission.
        """
        self.stats.delivered += 1
        fl = self.trace.flight
        if fl is not None:
            fl.deliver(self.sim.now, self.name, pkt)
        slo = self.trace.slo
        if slo is not None:
            slo.deliver(self.sim.now, self.name, pkt)
        for sink in self.local_sinks:
            sink(pkt)
        if pkt.pooled:
            POOL.release(pkt)

    def drop(self, pkt: Packet, reason: "DropReason | str") -> None:
        """Account and trace a packet drop.

        ``reason`` is normally a :class:`DropReason`; legacy string reasons
        are parsed through the taxonomy (unknown strings land in OTHER but
        keep their verbatim text in ``by_reason`` and on the trace record).
        """
        r = DropReason.parse(reason)
        cat = r.category
        if cat == "no_route":
            self.stats.dropped_no_route += 1
        elif cat == "ttl":
            self.stats.dropped_ttl += 1
        else:
            self.stats.dropped_other += 1
        text = reason if isinstance(reason, str) else r.value
        by = self.stats.by_reason
        by[text] = by.get(text, 0) + 1
        fl = self.trace.flight
        if fl is not None:
            fl.drop(self.sim.now, self.name, pkt, text)
        if self.trace.active("drop"):
            self.trace.publish(
                "drop", self.sim.now, node=self.name, reason=text, pkt=pkt
            )

    def transmit(self, pkt: Packet, ifname: str) -> None:
        """Queue ``pkt`` on interface ``ifname`` for transmission."""
        iface = self.interfaces.get(ifname)
        if iface is None or iface.link is None:
            self.drop(pkt, DropReason.NO_IFACE)
            return
        self.stats.forwarded += 1
        iface.send(pkt)

    def after_processing(self, cost_s: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after a modeled CPU cost (immediately when zero).

        Zero-cost processing bypasses the scheduler entirely — the common
        case — so experiments that do not model CPU pay nothing for the
        hook.  The forwarding pipeline (``repro.dataplane``) applies the
        same rule inline with ``Simulator.schedule_call`` to avoid the
        per-packet closure; this thunk-based variant is kept for gateways
        and tests that already hold a zero-argument callable.
        """
        if cost_s <= 0.0:
            fn()
        else:
            self.sim.schedule(cost_s, fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """End system: sources/sinks traffic, forwards everything to a gateway.

    A host delivers packets addressed to itself and sends everything else
    out its single interface (the access link towards its CE/router).
    """

    def __init__(self, sim: Simulator, name: str, **kw) -> None:
        super().__init__(sim, name, **kw)
        self.gateway_ifname: str | None = None

    def handle(self, pkt: Packet, ifname: str) -> None:
        if self.owns(pkt.ip.dst):
            self.deliver_local(pkt)
            return
        self.send(pkt)

    def send(self, pkt: Packet) -> None:
        """Originate (or forward) a packet via the configured gateway."""
        out = self.gateway_ifname
        if out is None:
            if len(self.interfaces) != 1:
                self.drop(pkt, DropReason.NO_ROUTE)
                return
            out = next(iter(self.interfaces))
        self.transmit(pkt, out)
