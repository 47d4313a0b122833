"""Unit + property tests for packets and MPLS label-stack operations."""

import pytest
from hypothesis import given, strategies as st

from repro.net.address import IPv4Address
from repro.net.packet import (
    IPV4_HEADER_BYTES,
    MPLS_SHIM_BYTES,
    POOL,
    IPHeader,
    MplsEntry,
    Packet,
    PacketError,
    PacketPool,
)
from repro.obs import runtime
from repro.topology import Network


def mk(payload=100, dscp=0, ttl=64):
    return Packet(
        ip=IPHeader(IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2"),
                    dscp=dscp, ttl=ttl),
        payload_bytes=payload,
    )


class TestWireSize:
    def test_plain_ip(self):
        assert mk(100).wire_bytes == 100 + IPV4_HEADER_BYTES

    def test_each_label_adds_shim(self):
        p = mk(100)
        for depth in range(1, 4):
            p.push_label(15 + depth)
            assert p.wire_bytes == 100 + IPV4_HEADER_BYTES + depth * MPLS_SHIM_BYTES

    def test_encapsulation_nests(self):
        inner = mk(100)
        outer = Packet(
            ip=IPHeader(IPv4Address(1), IPv4Address(2)),
            inner=inner, encrypted=True, encap_overhead=30,
        )
        assert outer.wire_bytes == inner.wire_bytes + 30 + IPV4_HEADER_BYTES

    def test_encap_overhead_without_inner(self):
        p = mk(100)
        p.encap_overhead = 8
        assert p.wire_bytes == 100 + 8 + IPV4_HEADER_BYTES


class TestLabelStack:
    def test_push_swap_pop_cycle(self):
        p = mk()
        p.push_label(100, exp=5)
        assert p.top_label.label == 100 and p.top_label.exp == 5
        p.swap_label(200)
        assert p.top_label.label == 200
        assert p.top_label.exp == 5  # EXP preserved across swap
        entry = p.pop_label()
        assert entry.label == 200
        assert p.top_label is None

    def test_two_level_stack_order(self):
        p = mk()
        p.push_label(30)   # VPN label (bottom)
        p.push_label(40)   # tunnel label (top)
        assert p.top_label.label == 40
        p.pop_label()
        assert p.top_label.label == 30

    def test_swap_empty_raises(self):
        with pytest.raises(PacketError):
            mk().swap_label(5)

    def test_pop_empty_raises(self):
        with pytest.raises(PacketError):
            mk().pop_label()

    def test_label_range_validation(self):
        with pytest.raises(PacketError):
            mk().push_label(1 << 20)
        with pytest.raises(PacketError):
            MplsEntry(label=5, exp=9)
        p = mk()
        p.push_label(5)
        with pytest.raises(PacketError):
            p.swap_label(1 << 20)

    def test_swap_can_set_exp(self):
        p = mk()
        p.push_label(7, exp=1)
        p.swap_label(8, exp=4)
        assert p.top_label.exp == 4

    @given(st.lists(st.integers(min_value=16, max_value=0xFFFFF), min_size=1, max_size=8))
    def test_push_pop_lifo(self, labels):
        p = mk()
        for lbl in labels:
            p.push_label(lbl)
        popped = [p.pop_label().label for _ in labels]
        assert popped == list(reversed(labels))
        assert p.top_label is None


class TestTtl:
    def test_push_inherits_ip_ttl(self):
        p = mk(ttl=37)
        p.push_label(16)
        assert p.top_label.ttl == 37

    def test_push_inherits_label_ttl(self):
        p = mk(ttl=37)
        p.push_label(16)
        p.top_label.ttl = 9
        p.push_label(17)
        assert p.top_label.ttl == 9

    def test_decrement_targets_top_label(self):
        p = mk(ttl=10)
        p.push_label(16)
        assert p.decrement_ttl() == 9
        assert p.ip.ttl == 10  # IP TTL untouched while labeled

    def test_pop_propagates_ttl_down_to_ip(self):
        """RFC 3443 uniform model: MPLS TTL writes back on pop."""
        p = mk(ttl=10)
        p.push_label(16)
        p.decrement_ttl()
        p.decrement_ttl()
        p.pop_label()
        assert p.ip.ttl == 8

    def test_pop_propagates_between_labels(self):
        p = mk(ttl=20)
        p.push_label(16)
        p.push_label(17)
        p.decrement_ttl()
        p.pop_label()
        assert p.top_label.ttl == 19

    def test_decrement_ip_when_unlabeled(self):
        p = mk(ttl=2)
        assert p.decrement_ttl() == 1
        assert p.decrement_ttl() == 0


class TestEncapsulation:
    def test_innermost_unwraps_chain(self):
        inner = mk()
        mid = Packet(ip=IPHeader(IPv4Address(1), IPv4Address(2)), inner=inner)
        outer = Packet(ip=IPHeader(IPv4Address(3), IPv4Address(4)), inner=mid)
        assert outer.innermost() is inner
        assert inner.innermost() is inner

    def test_classifiable_dscp_is_outer(self):
        inner = mk(dscp=46)
        outer = Packet(
            ip=IPHeader(IPv4Address(1), IPv4Address(2), dscp=0),
            inner=inner, encrypted=True,
        )
        assert outer.classifiable_dscp() == 0  # claim C3: inner EF invisible
        assert inner.classifiable_dscp() == 46

    def test_uids_unique(self):
        assert mk().uid != mk().uid

    def test_header_copy_is_independent(self):
        h = IPHeader(IPv4Address(1), IPv4Address(2), dscp=10)
        c = h.copy()
        c.dscp = 20
        assert h.dscp == 10


# ----------------------------------------------------------------------
# Pool recycling: a reused shell must not leak its previous life.
# ----------------------------------------------------------------------


def _dirty_packet() -> Packet:
    pkt = Packet(
        ip=IPHeader(IPv4Address.parse("10.9.0.1"),
                    IPv4Address.parse("10.9.0.2"), dscp=46, ttl=3),
        payload_bytes=500, flow=("old", 1), seq=7,
    )
    pkt.mpls_stack.append(MplsEntry(label=777, exp=5, ttl=31))
    pkt.mpls_stack.append(MplsEntry(label=888, exp=1, ttl=31))
    pkt.flow_hash_cache = 0xDEAD
    pkt.encap_overhead = 57
    pkt.encrypted = True
    pkt.vc_id = 42
    _ = pkt.wire_bytes  # memoize _wire
    return pkt


def test_pool_recycled_packet_is_clean() -> None:
    pool = PacketPool(max_size=4)
    dirty = _dirty_packet()
    dirty.pooled = True
    pool.release(dirty)
    assert len(pool) == 1
    # Release itself must already scrub retained-object state (the
    # freelist must not pin headers/stacks while parked).
    assert dirty.mpls_stack == [] and dirty.ip is None
    assert dirty.flow_hash_cache is None and dirty._wire is None

    ip = IPHeader(IPv4Address.parse("10.8.0.1"),
                  IPv4Address.parse("10.8.0.2"), dscp=0, ttl=64)
    fresh = pool.acquire(ip=ip, payload_bytes=64, flow=("new", 0), seq=0,
                         created=1.0)
    assert fresh is dirty  # recycled shell, not a new allocation
    assert fresh.mpls_stack == []
    assert fresh.flow_hash_cache is None
    assert fresh.encap_overhead == 0
    assert fresh.encrypted is False
    assert fresh.vc_id is None
    assert fresh.inner is None
    assert fresh.ip.dscp == 0 and fresh.ip.ttl == 64
    assert fresh.hops == 0
    # wire_bytes recomputes from the new life, no stale memo
    assert fresh.wire_bytes == 20 + 64


def test_pool_counters_track_hits_misses_releases() -> None:
    pool = PacketPool(max_size=2)
    ip = IPHeader(IPv4Address.parse("10.8.0.1"),
                  IPv4Address.parse("10.8.0.2"))
    a = pool.acquire(ip=ip, payload_bytes=1, flow=None, seq=0, created=0.0)
    assert (pool.hits, pool.misses, pool.releases) == (0, 1, 0)
    pool.release(a)
    assert pool.releases == 1
    b = pool.acquire(ip=ip, payload_bytes=1, flow=None, seq=1, created=0.5)
    assert b is a
    assert (pool.hits, pool.misses) == (1, 1)


def test_global_pool_exports_gauges() -> None:
    from repro.obs.telemetry import Telemetry

    runtime.reset()
    try:
        net = Network(seed=1)
        net.add_router("r")
        tel = Telemetry(net, profile=False)
        snap = tel.scrape().snapshot()
        for gauge in ("repro_pool_occupancy", "repro_pool_capacity",
                      "repro_pool_hits", "repro_pool_misses",
                      "repro_pool_releases"):
            assert gauge in snap
        (series,) = snap["repro_pool_capacity"]["series"]
        assert series["value"] == POOL.max_size
    finally:
        runtime.reset()
