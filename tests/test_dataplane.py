"""Tests for the unified data-plane pipeline (repro.dataplane).

Covers the refactor's contracts:

* Router, Lsr, and PeRouter all forward through one shared
  :class:`~repro.dataplane.ForwardingPipeline` (parity suite);
* the generation-stamped flow/label/VRF caches go cold after every
  control-plane event that changed a forwarding table — SPF
  reconvergence with a real topology delta, ``reset_ldp``, FRR bypass
  activation, VRF route churn — and stay warm when the tables are
  untouched (a no-op ``reconverge`` leaves FIB generations alone);
* ``POP_PROCESS`` label stacks are processed iteratively (no recursion);
* ``flow_hash`` is memoized on the packet.
"""

import sys
import zlib

from repro.dataplane import ForwardingPipeline, GenCache, flow_hash
from repro.mpls import (
    FastReroute,
    Lsr,
    TrafficEngineering,
    reset_ldp,
    run_ldp,
)
from repro.mpls.lfib import LabelOp, LfibEntry
from repro.net.address import IPv4Address, Prefix
from repro.net.packet import IPHeader, Packet
from repro.routing.router import Router
from repro.routing.router import flow_hash as flow_hash_reexport
from repro.routing.spf import converge, reconverge
from repro.topology import Network, attach_host, build_fish
from repro.vpn.pe import PeRouter
from repro.vpn.provision import VpnProvisioner


def pkt(src="10.0.0.1", dst="10.0.0.2", ttl=64, sport=0, dport=0):
    return Packet(
        ip=IPHeader(IPv4Address.parse(src), IPv4Address.parse(dst), ttl=ttl,
                    src_port=sport, dst_port=dport),
        payload_bytes=100,
    )


# ----------------------------------------------------------------------
# flow_hash memoization
# ----------------------------------------------------------------------
class TestFlowHashMemoization:
    def test_memoizes_crc32_on_packet(self):
        p = pkt(sport=1234, dport=80)
        assert p.flow_hash_cache is None
        h = flow_hash(p)
        ip = p.ip
        key = f"{ip.src.value}|{ip.dst.value}|{ip.proto}|{ip.src_port}|{ip.dst_port}"
        assert h == zlib.crc32(key.encode("ascii"))
        assert p.flow_hash_cache == h

    def test_cached_value_wins_over_header(self):
        # The 5-tuple is immutable in flight, so the memo is never
        # invalidated — even a (non-modeled) header rewrite keeps the hash.
        p = pkt()
        h = flow_hash(p)
        p.ip.dst = IPv4Address.parse("10.99.99.99")
        assert flow_hash(p) == h

    def test_distinct_flows_distinct_hashes(self):
        assert flow_hash(pkt(sport=1)) != flow_hash(pkt(sport=2))

    def test_router_reexport_is_same_function(self):
        assert flow_hash_reexport is flow_hash


# ----------------------------------------------------------------------
# GenCache
# ----------------------------------------------------------------------
class _FakeTable:
    def __init__(self):
        self.generation = 0


class TestGenCache:
    def test_hit_miss_counters(self):
        t = _FakeTable()
        c = GenCache(t)
        assert c.get("k") is None and c.misses == 1
        c.put("k", "v")
        assert c.get("k") == "v" and c.hits == 1

    def test_primary_generation_bump_flushes(self):
        t = _FakeTable()
        c = GenCache(t)
        c.get("k"); c.put("k", "v")
        t.generation += 1
        assert c.get("k") is None
        assert c.invalidations == 1 and len(c) == 0

    def test_secondary_generation_bump_flushes(self):
        t, u = _FakeTable(), _FakeTable()
        c = GenCache(t, u)
        c.get("k"); c.put("k", "v")
        u.generation += 1
        assert c.get("k") is None and c.invalidations == 1

    def test_stable_generation_keeps_entries(self):
        t = _FakeTable()
        c = GenCache(t)
        c.get("k"); c.put("k", "v")
        for _ in range(5):
            assert c.get("k") == "v"
        assert c.invalidations == 0 and c.hits == 5


# ----------------------------------------------------------------------
# POP_PROCESS: iterative label-stack processing
# ----------------------------------------------------------------------
class TestPopProcessIterative:
    def _lsr_with_stack(self, depth):
        net = Network()
        a = net.add_node(Lsr(net.sim, "a"))
        b = net.add_node(Lsr(net.sim, "b"))
        net.connect(a, b, 10e6, 0.001)
        p = pkt(dst=str(a.loopback))
        labels = range(100, 100 + depth)
        for label in labels:
            a.lfib.install(label, LfibEntry(LabelOp.POP_PROCESS))
        # Stack bottom-up so label 100+depth-1 is on top and popped first.
        for label in labels:
            p.push_label(label)
        return net, a, p

    def test_depth_10_stack_delivered(self):
        net, a, p = self._lsr_with_stack(10)
        a.handle(p, "in")
        assert a.stats.delivered == 1
        assert not p.mpls_stack

    def test_deep_stack_needs_no_python_stack(self):
        # Regression guard for the old recursive _handle_mpls: with one
        # Python frame per popped label a 200-deep stack would blow the
        # tightened recursion limit; the iterative loop runs in O(1) frames.
        net, a, p = self._lsr_with_stack(200)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            a.handle(p, "in")
        finally:
            sys.setrecursionlimit(limit)
        assert a.stats.delivered == 1


# ----------------------------------------------------------------------
# Cache invalidation on control-plane events
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    def _router_line(self):
        net = Network()
        r = [net.add_router(f"r{i}") for i in range(3)]
        net.connect(r[0], r[1]); net.connect(r[1], r[2])
        converge(net)
        return net, r

    def test_flow_cache_hits_on_repeat_destination(self):
        net, r = self._router_line()
        dst = str(r[2].loopback)
        for _ in range(3):
            net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
            net.run(until=net.sim.now + 1.0)
        fc = r[0].pipeline.flow_cache
        assert fc.misses == 1 and fc.hits == 2
        assert r[2].stats.delivered == 3

    def test_flow_cache_cold_after_reconverge(self):
        # A reconverge that actually rewrote r0's FIB (link flap on the
        # r1-r2 hop withdraws and reinstalls the r2 routes) must flush.
        net, r = self._router_line()
        dst = str(r[2].loopback)
        net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
        net.run(until=net.sim.now + 1.0)
        fc = r[0].pipeline.flow_cache
        before = fc.invalidations
        dl = net.link_between("r1", "r2")
        dl.set_up(False)
        reconverge(net)
        dl.set_up(True)
        reconverge(net)
        net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
        net.run(until=net.sim.now + 1.0)
        assert fc.invalidations == before + 1
        assert fc.misses == 2 and fc.hits == 0
        assert r[2].stats.delivered == 2

    def test_flow_cache_warm_after_noop_reconverge(self):
        # No topology change -> no FIB change -> generations hold and the
        # cached decision keeps serving (it is provably still valid).
        net, r = self._router_line()
        dst = str(r[2].loopback)
        net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
        net.run(until=net.sim.now + 1.0)
        fc = r[0].pipeline.flow_cache
        before = fc.invalidations
        reconverge(net)
        net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
        net.run(until=net.sim.now + 1.0)
        assert fc.invalidations == before
        assert fc.misses == 1 and fc.hits == 1
        assert r[2].stats.delivered == 2

    def test_lookup_census_counts_cache_hits(self):
        # E8's per-node lookup counters must keep meaning "packets that
        # consulted this table" whether or not the cache answered.
        net, r = self._router_line()
        dst = str(r[2].loopback)
        for _ in range(4):
            net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
            net.run(until=net.sim.now + 1.0)
        assert r[0].fib.lookups == 4

    def _ldp_line(self):
        net = Network()
        r = [net.add_node(Lsr(net.sim, f"r{i}")) for i in range(3)]
        net.connect(r[0], r[1]); net.connect(r[1], r[2])
        converge(net)
        run_ldp(net)
        return net, r

    def test_label_cache_hits_on_lsp(self):
        net, r = self._ldp_line()
        dst = str(r[2].loopback)
        for _ in range(3):
            net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
            net.run(until=net.sim.now + 1.0)
        lc = r[1].pipeline.label_cache
        assert lc.hits == 2 and lc.misses == 1
        assert r[1].lfib.lookups == 3
        assert r[2].stats.delivered == 3

    def test_caches_cold_after_reset_ldp(self):
        net, r = self._ldp_line()
        dst = str(r[2].loopback)
        net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
        net.run(until=net.sim.now + 1.0)
        before = r[0].pipeline.flow_cache.invalidations
        reset_ldp(net)
        # The ingress flow cache watches the FTN generation: the cached
        # (route, nhlfe) decision must not keep imposing withdrawn labels.
        net.sim.schedule(0.0, lambda: r[0].handle(pkt(dst=dst), "in"))
        net.run(until=net.sim.now + 1.0)
        assert r[0].pipeline.flow_cache.invalidations == before + 1
        assert r[2].stats.delivered == 2        # second packet went plain IP
        assert r[1].lfib.lookups == 1           # no labeled packet reached r1

    def test_label_cache_cold_after_lfib_churn(self):
        net = Network()
        a = net.add_node(Lsr(net.sim, "a"))
        b = net.add_node(Lsr(net.sim, "b"))
        net.connect(a, b)
        a.lfib.install(16, LfibEntry(LabelOp.SWAP, out_label=17, out_ifname="to-b"))
        for _ in range(2):
            p = pkt()
            p.push_label(16)
            net.sim.schedule(0.0, lambda q=p: a.handle(q, "in"))
            net.run(until=net.sim.now + 1.0)
        lc = a.pipeline.label_cache
        assert lc.hits == 1
        before = lc.invalidations
        a.lfib.install(18, LfibEntry(LabelOp.SWAP, out_label=19, out_ifname="to-b"))
        p = pkt()
        p.push_label(16)
        net.sim.schedule(0.0, lambda: a.handle(p, "in"))
        net.run(until=net.sim.now + 1.0)
        assert lc.invalidations == before + 1

    def test_label_cache_cold_after_frr_activation(self):
        net = Network()
        nodes = build_fish(net, rate_bps=10e6, trunk_rate_bps=30e6,
                           node_factory=lambda n, name: n.add_node(Lsr(n.sim, name)))
        tx = attach_host(net, nodes["A"], "10.71.0.1", name="tx")
        attach_host(net, nodes["F"], "10.71.0.2", name="rx")
        converge(net)
        te = TrafficEngineering(net)
        lsp = te.signal("prim", ["A", "B", "G", "H", "E", "F"], 2e6, php=False)
        te.autoroute(lsp, [Prefix.parse("10.71.0.2/32")])
        frr = FastReroute(te)
        frr.protect_lsp(lsp)
        g = nodes["G"]

        net.sim.schedule(0.0, lambda: tx.send(pkt("10.71.0.1", "10.71.0.2")))
        net.run(until=net.sim.now + 1.0)
        assert g.pipeline.label_cache.misses >= 1
        before = g.pipeline.label_cache.invalidations

        net.link_between("G", "H").set_up(False)
        assert frr.trigger_link_failure("G", "H") == 1
        net.sim.schedule(0.0, lambda: tx.send(pkt("10.71.0.1", "10.71.0.2")))
        net.run(until=net.sim.now + 1.0)
        # The PLR's swapped-in SWAP_PUSH entry bumped its LFIB generation;
        # a stale cached SWAP toward the dead link must not survive.
        assert g.pipeline.label_cache.invalidations == before + 1
        assert nodes["F"].interfaces["to-rx"].stats.tx_packets == 2

    def test_vrf_cache_cold_after_route_churn(self):
        net = Network(seed=5)
        pe1 = net.add_node(PeRouter(net.sim, "pe1"))
        p = net.add_node(Lsr(net.sim, "p"))
        pe2 = net.add_node(PeRouter(net.sim, "pe2"))
        net.connect(pe1, p); net.connect(p, pe2)
        prov = VpnProvisioner(net)
        vpn = prov.create_vpn("corp")
        s1 = prov.add_site(vpn, pe1, prefix="10.1.0.0/24")
        s2 = prov.add_site(vpn, pe2, prefix="10.2.0.0/24")
        converge(net)
        run_ldp(net)
        prov.converge_bgp()
        h1, h2 = s1.hosts[0], s2.hosts[0]
        dst = str(next(a for a in h2.addresses if str(a).startswith("10.2.0.")))

        for _ in range(2):
            net.sim.schedule(0.0, lambda: h1.send(pkt("10.1.0.1", dst)))
            net.run(until=net.sim.now + 1.0)
        cache = pe1.pipeline.vrf_caches["corp"]
        assert cache.hits >= 1
        before = cache.invalidations

        pe1.vrfs["corp"].withdraw("10.2.0.0/24")
        net.sim.schedule(0.0, lambda: h1.send(pkt("10.1.0.1", dst)))
        net.run(until=net.sim.now + 1.0)
        assert cache.invalidations == before + 1


# ----------------------------------------------------------------------
# Pipeline parity: one engine, three node classes
# ----------------------------------------------------------------------
class TestPipelineParity:
    def _one_of_each(self):
        net = Network()
        return (
            net.add_router("r"),
            net.add_node(Lsr(net.sim, "lsr")),
            net.add_node(PeRouter(net.sim, "pe")),
        )

    def test_all_nodes_share_the_engine_class(self):
        for node in self._one_of_each():
            assert type(node.pipeline) is ForwardingPipeline

    def test_no_subclass_overrides_handle(self):
        # The refactor's core claim: per-hop logic lives in the pipeline,
        # not in three divergent handle() reimplementations.
        assert "handle" not in vars(Lsr)
        assert "handle" not in vars(PeRouter)
        assert Lsr.handle is Router.handle
        assert PeRouter.handle is Router.handle

    def test_stage_composition_per_class(self):
        r, lsr, pe = self._one_of_each()
        assert r.pipeline.stages() == ("ingress", "lookup", "egress")
        assert lsr.pipeline.stages() == (
            "ingress", "label-op", "lookup", "qos-mark", "egress")
        assert pe.pipeline.stages() == (
            "ingress", "vrf-demux", "label-op", "lookup", "qos-mark", "egress")

    def _line_of(self, factory):
        net = Network()
        n = [net.add_node(factory(net.sim, f"n{i}")) for i in range(3)]
        net.connect(n[0], n[1]); net.connect(n[1], n[2])
        converge(net)
        return net, n

    def test_plain_ip_forwarding_identical_across_classes(self):
        # Without MPLS/VPN configuration all three classes must make the
        # exact same per-hop decisions for an IP packet.
        results = {}
        for factory in (Router, Lsr, PeRouter):
            net, n = self._line_of(factory)
            got = []
            n[2].add_local_sink(got.append)
            p = pkt(dst=str(n[2].loopback), ttl=64)
            # Same-time arrival with TTL 1: dies at n0, p is unaffected.
            dying = pkt(dst=str(n[2].loopback), ttl=1)
            net.sim.schedule(0.0, lambda: n[0].handle(p, "in"))
            net.sim.schedule(0.0, lambda: n[0].handle(dying, "in"))
            net.run(until=net.sim.now + 1.0)
            assert len(got) == 1 and got[0] is p
            assert n[0].stats.dropped_ttl == 1
            results[factory.__name__] = (got[0].ip.ttl, got[0].hops,
                                         n[1].stats.forwarded)
        assert len(set(results.values())) == 1

    def test_labeled_packet_at_ip_router_is_config_error(self):
        net = Network()
        r = net.add_router("r")
        p = pkt()
        p.push_label(500)
        r.handle(p, "in")
        assert r.stats.dropped_other == 1
