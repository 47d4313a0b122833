"""The unified data-plane forwarding engine.

One :class:`ForwardingPipeline` instance per forwarding node replaces the
three hand-duplicated ``handle()`` implementations that ``Router``,
``Lsr``, and ``PeRouter`` used to carry.  The pipeline is staged::

    ingress ─→ [vrf-demux] ─→ [label-op] ─→ lookup ─→ [qos-mark] ─→ egress

Bracketed stages are enabled by composition, not subclass overrides: a
plain ``Router`` runs ingress → lookup → egress; an ``Lsr`` enables the
label-op stage (LFIB processing, FTN label imposition with DSCP→EXP
marking); a ``PeRouter`` additionally enables VRF demux for its
attachment circuits.  The per-hop semantics — TTL decrement before
lookup, drop taxonomy, flight-recorder event ordering — live here once,
which is what the paper's claim C4 ("label swapping makes the per-hop
data plane cheap and uniform") looks like as code.

Performance notes (measured, see benchmarks/test_simulator_performance.py):

* Zero-closure hot path: when a node's modeled processing cost is zero —
  the default — stages call each other directly; closures are allocated
  only when a nonzero cost forces a trip through the scheduler, and even
  then :meth:`Simulator.schedule_call` stores the arguments on the event
  instead of building a ``bind()`` closure.
* Exact-match fast caches: the destination→decision flow cache fronts the
  LPM trie, the label→entry cache fronts the LFIB, and per-VRF caches
  front the VRF tables.  All are generation-stamped (``GenCache``) so SPF
  reconvergence, ``reset_ldp``, FRR activation, and VRF churn invalidate
  them without any notification protocol.
* ``flow_hash`` memoizes its CRC32 on the packet — the 5-tuple is
  immutable for a packet's lifetime, so the ECMP key is computed at most
  once per packet rather than once per hop.

Logical lookup counters (``fib.lookups``, ``lfib.lookups``) are bumped on
cache hits too, so experiment E8's per-node lookup census keeps its
meaning ("packets that consulted this table") regardless of cache state.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any

from repro.dataplane.caches import GenCache
from repro.net.address import IPv4Address, Prefix
from repro.net.drops import DropReason
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.mpls.lfib import FtnTable, Lfib, Nhlfe
    from repro.routing.fib import Fib, RouteEntry

# MPLS symbols are resolved the first time a node enables the label-op
# stage: ``repro.mpls``'s package init pulls FRR → Lsr → Router, and Router
# imports this module, so a load-time import would close the cycle.  Until
# then both names are None — every code path that touches them is only
# reachable on MPLS-enabled pipelines.
LabelOp: Any = None
IMPLICIT_NULL: Any = None


def _resolve_mpls_symbols() -> None:
    global LabelOp, IMPLICIT_NULL
    if LabelOp is None:
        from repro.mpls.label import IMPLICIT_NULL as _implicit_null
        from repro.mpls.lfib import LabelOp as _label_op

        LabelOp = _label_op
        IMPLICIT_NULL = _implicit_null

__all__ = ["ForwardingPipeline", "flow_hash"]


def dscp_to_exp(dscp: int) -> int:
    """Self-replacing lazy alias for :func:`repro.qos.dscp.dscp_to_exp`.

    ``repro.qos``'s package init pulls IntServ, which pulls SPF, which
    needs ``Router`` — importing it at module load would close a cycle
    through this module.  The first call rebinds this global to the real
    function, so the hot path pays the indirection exactly once.
    """
    global dscp_to_exp
    from repro.qos.dscp import dscp_to_exp as real

    dscp_to_exp = real
    return real(dscp)


def flow_hash(pkt: Packet) -> int:
    """Stable per-flow hash over the 5-tuple (the classic ECMP key).

    CRC32 rather than ``hash()`` so path selection is identical across
    processes and Python versions — determinism again.  The result is
    memoized on the packet: the 5-tuple never mutates in flight, so the
    key string is built at most once per packet instead of at every ECMP
    hop.
    """
    h = pkt.flow_hash_cache
    if h is None:
        ip = pkt.ip
        key = f"{ip.src.value}|{ip.dst.value}|{ip.proto}|{ip.src_port}|{ip.dst_port}"
        h = zlib.crc32(key.encode("ascii"))
        pkt.flow_hash_cache = h
    return h


class ForwardingPipeline:
    """Staged forwarding engine shared by Router, Lsr, and PeRouter.

    The owning node supplies environment (interfaces, stats, trace bus,
    processing model) and the tables; the pipeline owns the per-packet
    control flow and the fast caches.  Stages read mutable node policy
    (``impose_exp``, ``qos_exp_mapping``, ``exp_mode``, ``vpn_deliver``)
    at packet time so experiments can flip them mid-run.
    """

    __slots__ = (
        "node", "sim", "fib", "lfib", "ftn", "vrf_of_circuit", "vrfs",
        "flow_cache", "label_cache", "tunnel_cache", "vrf_caches",
    )

    def __init__(self, node, fib: "Fib") -> None:
        self.node = node
        self.sim = node.sim
        self.fib = fib
        self.lfib: Lfib | None = None
        self.ftn: FtnTable | None = None
        self.vrf_of_circuit: dict | None = None
        self.vrfs: dict | None = None
        self.flow_cache = GenCache(fib)
        self.label_cache: GenCache | None = None
        self.tunnel_cache: GenCache | None = None
        self.vrf_caches: dict[str, GenCache] = {}

    # ------------------------------------------------------------------
    # Stage composition
    # ------------------------------------------------------------------
    def enable_mpls(self, lfib: Lfib, ftn: FtnTable) -> None:
        """Plug in the label-op stage (LSR): LFIB processing + imposition.

        The flow cache is rebuilt to also watch the FTN generation — an
        IP-path decision now includes "does this FEC have a binding".
        """
        _resolve_mpls_symbols()
        self.lfib = lfib
        self.ftn = ftn
        self.flow_cache = GenCache(self.fib, ftn)
        self.label_cache = GenCache(lfib)

    def enable_vrf_demux(self, vrf_of_circuit: dict, vrfs: dict) -> None:
        """Plug in the VRF demux stage (PE): circuit→VRF ingress mapping."""
        assert self.ftn is not None, "VRF demux requires the MPLS stage"
        self.vrf_of_circuit = vrf_of_circuit
        self.vrfs = vrfs
        self.tunnel_cache = GenCache(self.ftn)

    def stages(self) -> tuple[str, ...]:
        """The composed stage sequence (for conformance tests and docs)."""
        out = ["ingress"]
        if self.vrf_of_circuit is not None:
            out.append("vrf-demux")
        if self.lfib is not None:
            out.append("label-op")
        out.append("lookup")
        if self.lfib is not None:
            out.append("qos-mark")
        out.append("egress")
        return tuple(out)

    # ------------------------------------------------------------------
    # Ingress stage
    # ------------------------------------------------------------------
    def ingress(self, pkt: Packet, ifname: str) -> None:
        """Entry point from ``Node.handle``: demux to the right stage.

        Zero modeled cost (the default) falls straight through to the
        next stage — no closure, no scheduler round-trip.  Nonzero costs
        go through ``schedule_call``, which stores the stage arguments on
        the event rather than allocating a closure.
        """
        node = self.node
        if self.vrf_of_circuit is not None and not pkt.mpls_stack:
            vrf = self.vrf_of_circuit.get(ifname)
            if vrf is not None:
                # Customer packet entering its VPN at this PE.
                cost = node.processing.ip_lookup_s
                if cost <= 0.0:
                    self.customer_stage(pkt, vrf)
                else:
                    self.sim.schedule_call(cost, self.customer_stage, pkt, vrf)
                return
        if pkt.mpls_stack:
            if self.lfib is None:
                # Labeled packet at a non-MPLS router: the deployment
                # scenario of Fig. 4 never lets this happen (LSPs terminate
                # at LSR edges); treat it as a configuration error rather
                # than silently routing.
                node.drop(pkt, DropReason.LABELED_AT_IP_ROUTER)
                return
            cost = node.processing.label_lookup_s
            if cost <= 0.0:
                self.mpls_stage(pkt)
            else:
                self.sim.schedule_call(cost, self.mpls_stage, pkt)
            return
        if node.owns(pkt.ip.dst):
            node.deliver_local(pkt)
            return
        cost = node.processing.ip_lookup_s
        if cost <= 0.0:
            self.ip_stage(pkt)
        else:
            self.sim.schedule_call(cost, self.ip_stage, pkt)

    def ingress_batch(self, items: "list[tuple[Packet, str]]") -> None:
        # Kept because the benchmark tracer names it; nothing here calls it.
        for pkt, ifname in items:
            self.node.receive(pkt, ifname)

    # ------------------------------------------------------------------
    # Label-op stage (MPLS fast path)
    # ------------------------------------------------------------------
    def mpls_stage(self, pkt: Packet) -> None:
        """LFIB processing for the top of stack; iterative across pops.

        ``POP_PROCESS`` on a multi-level stack continues the loop instead
        of recursing, so label-stack depth costs no Python stack frames.
        """
        node = self.node
        sim = self.sim
        lfib = self.lfib
        cache = self.label_cache
        fl = node.trace.flight
        while True:
            top = pkt.mpls_stack[-1]
            label = top.label
            entry = cache.get(label)
            if entry is None:
                entry = lfib.lookup(label)
                if entry is None:
                    node.drop(pkt, DropReason.NO_LABEL)
                    return
                cache.put(label, entry)
            else:
                lfib.lookups += 1  # logical lookup served from the cache
            op = entry.op
            if op is LabelOp.SWAP:
                if pkt.decrement_ttl() <= 0:
                    node.drop(pkt, DropReason.TTL)
                    return
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "swap",
                                old=label, new=entry.out_label)
                pkt.swap_label(entry.out_label)  # EXP is preserved across swaps
                node.transmit(pkt, entry.out_ifname)
                return
            if op is LabelOp.POP:
                if pkt.decrement_ttl() <= 0:
                    node.drop(pkt, DropReason.TTL)
                    return
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "pop", old=label)
                pkt.pop_label()
                node.transmit(pkt, entry.out_ifname)
                return
            if op is LabelOp.POP_PROCESS:
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "pop", old=label)
                pkt.pop_label()
                if pkt.mpls_stack:
                    continue  # inner label is also ours
                if node.owns(pkt.ip.dst):
                    node.deliver_local(pkt)
                else:
                    self.ip_stage(pkt)
                return
            if op is LabelOp.SWAP_PUSH:
                # FRR local repair: restore the label the merge point
                # expects, then tunnel it over the bypass LSP.  EXP is
                # copied onto the bypass entry so the detour keeps the class.
                if pkt.decrement_ttl() <= 0:
                    node.drop(pkt, DropReason.TTL)
                    return
                exp = top.exp
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "swap",
                                old=label, new=entry.out_label)
                    fl.label_op(sim.now, node.name, pkt, "push",
                                new=entry.push_label)
                pkt.swap_label(entry.out_label)
                pkt.push_label(entry.push_label, exp=exp)
                node.transmit(pkt, entry.out_ifname)
                return
            if op is LabelOp.VPN:
                if fl is not None:
                    fl.label_op(sim.now, node.name, pkt, "pop", old=label)
                pkt.pop_label()
                vpn_deliver = node.vpn_deliver
                if vpn_deliver is None:
                    node.drop(pkt, DropReason.VPN_LABEL_NO_VRF)
                else:
                    vpn_deliver(pkt, entry.vrf)
                return
            node.drop(pkt, DropReason.BAD_LFIB_OP)  # pragma: no cover
            return

    # ------------------------------------------------------------------
    # Lookup stage (IP path, with optional label imposition)
    # ------------------------------------------------------------------
    def ip_stage(self, pkt: Packet) -> None:
        """TTL, flow-cache / LPM lookup, FTN imposition check, dispatch."""
        node = self.node
        if pkt.decrement_ttl() <= 0:
            node.drop(pkt, DropReason.TTL)
            return
        fib = self.fib
        ftn = self.ftn
        dst = pkt.ip.dst
        decision = self.flow_cache.get(dst.value)
        if decision is None:
            if ftn is None:
                route = fib.lookup(dst)
                nhlfe = None
            else:
                match = fib.lookup_prefix(dst)
                if match is None:
                    route = nhlfe = None
                else:
                    prefix, route = match
                    nhlfe = ftn.lookup(prefix)
            self.flow_cache.put(dst.value, (route, nhlfe))
        else:
            route, nhlfe = decision
            if ftn is None:
                fib.lookups += 1  # logical lookup served from the cache
        if nhlfe is not None:
            self.impose(pkt, nhlfe)
            return
        if route is None:
            node.drop(pkt, DropReason.NO_ROUTE)
            return
        self.dispatch(pkt, route)

    # ------------------------------------------------------------------
    # QoS-mark stage (label imposition with DSCP→EXP)
    # ------------------------------------------------------------------
    def impose(self, pkt: Packet, nhlfe: Nhlfe) -> None:
        """Push the NHLFE's label stack and transmit.

        Implicit-null labels in the stack are not pushed (PHP on a one-hop
        tunnel).  EXP comes from the packet's DSCP unless the node's
        ``impose_exp`` pins a fixed value.
        """
        node = self.node
        impose_exp = node.impose_exp
        exp = impose_exp if impose_exp is not None else dscp_to_exp(pkt.ip.dscp)
        fl = node.trace.flight
        for label in nhlfe.labels:
            if label == IMPLICIT_NULL:
                continue
            if fl is not None:
                fl.label_op(self.sim.now, node.name, pkt, "push", new=label)
            pkt.push_label(label, exp=exp)
        node.transmit(pkt, nhlfe.out_ifname)

    # ------------------------------------------------------------------
    # Egress dispatch stage
    # ------------------------------------------------------------------
    def dispatch(self, pkt: Packet, entry: "RouteEntry") -> None:
        """Send ``pkt`` out the interface selected by ``entry``.

        With ECMP alternates present, the egress is chosen by the
        (memoized) flow hash — all packets of one flow share a path (no
        reordering), while distinct flows spread across the equal-cost set.
        """
        if entry.alternates:
            paths = entry.all_paths
            out_ifname, _nh = paths[flow_hash(pkt) % len(paths)]
            self.node.transmit(pkt, out_ifname)
            return
        self.node.transmit(pkt, entry.out_ifname)

    # ------------------------------------------------------------------
    # VRF stages (PE)
    # ------------------------------------------------------------------
    def _vrf_lookup(self, vrf, dst: IPv4Address) -> Any:
        """Cached LPM inside one VRF; negative results are not cached."""
        cache = self.vrf_caches.get(vrf.name)
        if cache is None:
            cache = self.vrf_caches[vrf.name] = GenCache(vrf)
        route = cache.get(dst.value)
        if route is None:
            route = vrf.lookup(dst)
            if route is not None:
                cache.put(dst.value, route)
        return route

    def customer_stage(self, pkt: Packet, vrf) -> None:
        """Customer packet arriving on an attachment circuit (VPN ingress)."""
        node = self.node
        fa = node.trace.flows
        if fa is not None:
            fa.ingress(node.name, vrf.name, pkt)
        if pkt.decrement_ttl() <= 0:
            node.drop(pkt, DropReason.TTL)
            return
        route = self._vrf_lookup(vrf, pkt.ip.dst)
        if route is None:
            node.drop(pkt, DropReason.NO_VRF_ROUTE)
            return
        if route.kind == "local":
            # Site-to-site through one PE (both sites on this PE).
            node.transmit(pkt, route.out_ifname)
            return
        self.remote_stage(pkt, route)

    def remote_stage(self, pkt: Packet, route) -> None:
        """Impose the two-level VPN stack and enter the tunnel to the
        egress PE (QoS-mark: DSCP copied into EXP per the node's policy)."""
        node = self.node
        exp = dscp_to_exp(pkt.ip.dscp) if node.qos_exp_mapping else 0
        inner_exp = exp if node.exp_mode == "both" else 0
        fl = node.trace.flight
        if fl is not None:
            fl.label_op(self.sim.now, node.name, pkt, "push", new=route.vpn_label)
        pkt.push_label(route.vpn_label, exp=inner_exp)
        # Resolve the tunnel to the egress PE's loopback through the FTN
        # (an LDP binding or a TE tunnel autoroute).
        tunnel = self._tunnel_nhlfe(route.remote_pe)
        if tunnel is None:
            pkt.pop_label()
            node.drop(pkt, DropReason.NO_TUNNEL)
            return
        for label in tunnel.labels:
            if label != IMPLICIT_NULL:
                if fl is not None:
                    fl.label_op(self.sim.now, node.name, pkt, "push", new=label)
                pkt.push_label(label, exp=exp)
        node.transmit(pkt, tunnel.out_ifname)

    def _tunnel_nhlfe(self, remote_pe: IPv4Address) -> Nhlfe | None:
        """Cached FTN resolution of an egress-PE loopback (/32 FEC)."""
        cache = self.tunnel_cache
        nhlfe = cache.get(remote_pe.value)
        if nhlfe is None:
            nhlfe = self.ftn.lookup(Prefix.of(remote_pe, 32))
            if nhlfe is not None:
                cache.put(remote_pe.value, nhlfe)
        return nhlfe

    def vpn_egress(self, pkt: Packet, vrf_name: str) -> None:
        """Egress side: tunnel label already removed, VPN label popped."""
        node = self.node
        vrfs = self.vrfs
        vrf = vrfs.get(vrf_name) if vrfs is not None else None
        if vrf is None:
            node.drop(pkt, DropReason.UNKNOWN_VRF)
            return
        fa = node.trace.flows
        if fa is not None:
            fa.egress(node.name, vrf.name, pkt)
        route = self._vrf_lookup(vrf, pkt.ip.dst)
        if route is None or route.kind != "local":
            # Hairpinning remote->remote through an egress PE would be a
            # provisioning loop; refuse rather than bounce across the core.
            node.drop(pkt, DropReason.NO_VRF_ROUTE)
            return
        node.transmit(pkt, route.out_ifname)

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, Any]:
        """Counters for every enabled cache (observability/test hook)."""
        out: dict[str, Any] = {"flow": self.flow_cache.stats()}
        if self.label_cache is not None:
            out["label"] = self.label_cache.stats()
        if self.tunnel_cache is not None:
            out["tunnel"] = self.tunnel_cache.stats()
        if self.vrf_caches:
            out["vrf"] = {name: c.stats() for name, c in self.vrf_caches.items()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ForwardingPipeline {self.node.name} {'+'.join(self.stages())}>"
