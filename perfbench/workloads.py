"""The benchmark's three workloads, their output checks and their counters.

Each workload runs the program through its experiment entry points and
hands back *units*: the fixed piece of work whose host time is one sample.  A
unit's exact counters and canonical result rows are hashed into a digest;
the digest of the recorded default seed (``--seed 0``) is pinned below, and
every seed is held to the end-of-run invariants.

Workloads
=========

``vpn-sla-packet`` — ``run_e5`` (paper claim C6), all four ablation stages.
    Why: the paper's full end-to-end QoS chain and its heaviest per-packet
    work: CE CBQ, DSCP→EXP at the PE, two-label imposition, label swap, VRF
    disposition, WFQ-on-EXP in the core and the PE's EF policer.  Sources
    are open-loop (CBR voice/bulk/background, one on/off data flow); the
    control plane is negligible (4 sites).  One unit is one ``run_e5``
    call at its default 8 s measure window, builds included (under 1% of
    it; ``setup_s`` times the same four builds on their own).
    Should move it: engine, link, node, qdisc (classful: CBQ, WFQ),
    pipeline label path, traffic sources and sinks.
    Should not move it: MP-BGP delta operations, provisioning churn.
    Seed findings: 133,496 packet-hops and 294,774 events per unit
    (2.21 events/hop); 0 ``ingress_batch`` calls — the burst tier is never
    reached, so deleting it should move nothing here.

``elastic-aqm-ip`` — ``run_e12a_aqm``: four Reno flows over plain IP
    routers, DropTail then RED.
    Why: the same engine, link, qdisc and pipeline layers used differently
    — a closed loop (ACK clocking, RTO timers), classless queues with RED,
    and IP longest-prefix match instead of label operations.  One unit is
    one ``run_e12a_aqm`` call at its default 15 s duration; ``setup_s``
    times the same line topology build and SPF converge, twice.
    Should move it: engine, link, node (most strongly: it has the highest
    share of per-hop event overhead), RED/DropTail qdisc, pipeline IP path,
    elastic sources.  Should not move it: classful schedulers, the label
    path, anything in the control plane beyond the one SPF converge.
    Seed findings: 2.01 events/hop; 0 ``ingress_batch`` calls.

``vpn-churn-storm`` — a seeded stream of operator actions against a
    converged N=1000-site ``mpls_base`` (paper claim C1; experiment E15).
    Why: pure control plane with zero packet events, so it is the bypass
    workload for every data-plane change; its ``setup_s`` is a full SPF +
    LDP + MP-BGP converge while its timed operations are incremental
    deltas.  Each action is valid in the state it meets and is two timed
    operations: site remove / re-add + ``export_delta``, P–P link down /
    up with ``reconverge``, PE drain / restore, VPN wave add (8 sites +
    ``converge_bgp``) / remove.  The mix is E15's storm script
    (``e15_churn.churn_storms`` at its defaults): per round 10 site flaps,
    2 link flaps, 1 PE drain and 1 VPN wave.  One unit is a block of 18
    such rounds (504 operations) in seeded order, on seeded sites, PEs and
    links; a run times at least three blocks.  The mix, not a measurement
    of an operator network, decides ``churn_op_p99_ms`` and
    ``bgp.updates_per_op``: PE restores and wave adds are 1 in 14
    operations and hold most of the time and the UPDATEs.
    Should move it: ``vpn.bgp`` delta operations, ``vpn.vrf`` installs,
    ``vpn.provision``; ``routing.spf`` for the link-flap operations.
    Should not move it: any engine, link, qdisc, pipeline or traffic
    change.
    Every unit rebuilds the base (timed as ``setup_s``) and replays the
    seed's block on it, so all units of a run do identical work: the
    decommissioned CEs that ``remove_site`` leaves in the graph would
    otherwise make each block slower than the one before.  The fresh base
    is frozen out of the cyclic collector (``gc.freeze``): otherwise a
    block triggers three or four full collections, each a 0.1–0.2 s pass
    over the whole base, on whichever operation crosses the allocation
    threshold, which adds host-dependent noise, not work of the block.
    Seed findings: one site flap (remove + re-add + ``export_delta``)
    costs ~7 ms at N=1000 and ~13 ms at N=2000, and ``MpBgp._sync_exports``
    holds ~70% of it under cProfile, so the "incremental" path still
    scales with the number of sites per PE.  A site-flap operation sends
    14 UPDATEs, a wave operation 112, a PE restore 3,500.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import hostref
from repro.experiments import e1_scalability, e5_sla, e12_elastic
from repro.experiments.common import make_qdisc_factory
from repro.net.address import IPv4Address, Prefix
from repro.routing import spf
from repro.validate import validate
from repro.vpn.bgp import MpBgp

# Digests of the default seed (``--seed 0``), recorded from this benchmark
# at the commit that introduced it.  Only an intended change of results may
# update them, and the change that does says so.
RECORDED_DIGESTS = {
    "vpn-sla-packet": "897c004a751f1e58821d89d87f16ef3cbcc22db88459f6a3ee3e0830492c045d",
    "elastic-aqm-ip": "ca1f42ba693f4ff851b71f14eed1af2b306dc37ee0295741e1481323a6e7c4c1",
    "vpn-churn-storm": "8f2912cdc55aaefe91de6e20f588001197f85c0e08bf1b0009b2284ebd0670b9",
}

E5_SEED, E12A_SEED, CHURN_BASE_SEED = 41, 121, 13
CHURN_SITES = 1000
# Actions per round, from the storm script of E15
# (``repro.experiments.e15_churn.churn_storms`` defaults: 10 site flaps,
# 2 link flaps, one PE drain, one VPN wave of 8 sites); each action is two
# operations.
CHURN_MIX = (("site-flap", 10), ("link-flap", 2), ("pe-drain", 1), ("vpn-wave", 1))
WAVE_SITES = 8
CHURN_ROUNDS = 18     # rounds per block: 504 operations
SEGMENT_OPS = 72      # churn operations between host-speed kernel runs


@dataclass
class Unit:
    """One timed sample and everything needed to check it."""

    seconds: float
    work: int                     # packet-hops, or churn operations
    nets: list[Any]
    material: dict[str, Any]      # canonical rows + exact counters
    extra: dict[str, Any] = field(default_factory=dict)
    ops: int = 1                  # operations attempted
    errors: list[str] = field(default_factory=list)   # operations that raised

    @property
    def digest(self) -> str:
        blob = json.dumps(self.material, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Counters and invariants shared by every workload
# ----------------------------------------------------------------------
def _interfaces(net: Any):
    for node in net.nodes.values():
        yield from node.interfaces.values()


def exact_counters(nets: list[Any]) -> dict[str, Any]:
    """Counters that repeat exactly for a seed, summed over ``nets``."""
    drops: dict[str, int] = {}
    out = {"events": 0, "hops": 0, "rx": 0, "delivered": 0, "node_drops": 0,
           "queue_drops": 0, "conditioner_drops": 0, "backlog": 0, "busy": 0}
    cp: dict[str, int] = {}
    for net in nets:
        out["events"] += net.sim.events_processed
        for node in net.nodes.values():
            st = node.stats
            out["rx"] += st.rx_packets
            out["delivered"] += st.delivered
            out["node_drops"] += st.dropped_total
            for reason, n in st.by_reason.items():
                drops[reason] = drops.get(reason, 0) + n
        for iface in _interfaces(net):
            st = iface.stats
            out["hops"] += st.tx_packets
            out["queue_drops"] += st.dropped
            out["conditioner_drops"] += st.conditioner_dropped
            out["backlog"] += len(iface.qdisc)
            out["busy"] += int(iface.busy)
        for key, n in net.counters.snapshot().items():
            if key.startswith(("bgp.", "ldp.")):
                cp[key] = cp.get(key, 0) + n
    drops["queue"] = out["queue_drops"]
    drops["conditioner"] = out["conditioner_drops"]
    out["drops_by_reason"] = dict(sorted(drops.items()))
    out["control_plane"] = dict(sorted(cp.items()))
    return out


def network_problems(net: Any) -> list[str]:
    """``validate`` must be clean and every live cache entry must equal a
    fresh lookup in the cache's source tables."""
    return [f"validate: {issue}" for issue in validate(net)] + cache_problems(net)


def cache_problems(net: Any) -> list[str]:
    """Compare every entry of every live forwarding cache with a fresh
    lookup of its key in the tables the cache stands in front of.

    ``verify_cache_coherence`` is not used: it reports each cache whose
    captured generation trails its table, which its own contract calls
    legal live state (the next probe flushes it), and it never looks at
    the entries.  Here a trailing cache is skipped for the same reason,
    and a live one must serve exactly what the tables say now.
    """
    problems: list[str] = []

    def live(cache: Any) -> bool:
        return cache._gen_p == cache._primary.generation and (
            cache._secondary is None or cache._gen_s == cache._secondary.generation)

    def compare(name: str, cache: Any, fresh: Any) -> None:
        if cache is None or not live(cache):
            return
        for key, value in list(cache._entries.items()):
            expected = fresh(key)
            if value != expected:
                problems.append(f"{name}[{key}]: cached {value!r} != table {expected!r}")

    for node in net.nodes.values():
        pipe = getattr(node, "pipeline", None)
        if pipe is None:
            continue
        fib, lfib, ftn = pipe.fib, pipe.lfib, pipe.ftn
        # Lookups count themselves; keep the tables' counters as they were.
        saved = [(t, t.lookups) for t in (fib, lfib) if t is not None]

        def flow(key: int) -> tuple[Any, Any]:
            if ftn is None:
                return fib.lookup(key), None
            match = fib.lookup_prefix(key)
            return (None, None) if match is None else (match[1], ftn.lookup(match[0]))

        compare(f"{node.name}.flow_cache", pipe.flow_cache, flow)
        compare(f"{node.name}.label_cache", pipe.label_cache, lambda k: lfib.lookup(k))
        compare(f"{node.name}.tunnel_cache", pipe.tunnel_cache,
                lambda k: ftn.lookup(Prefix.of(IPv4Address(k), 32)))
        for vrf_name, cache in pipe.vrf_caches.items():
            compare(f"{node.name}.vrf[{vrf_name}]", cache,
                    lambda k, vrf=cache._primary: vrf.lookup(IPv4Address(k)))
        for table, lookups in saved:
            table.lookups = lookups
    return problems


def conservation_problems(originated: int, c: dict[str, Any]) -> list[str]:
    """Every packet a source emitted is delivered, dropped, or still in the
    network (queued, serializing, or propagating)."""
    in_flight = c["hops"] - c["rx"]
    accounted = (c["delivered"] + c["node_drops"] + c["queue_drops"]
                 + c["conditioner_drops"] + c["backlog"] + c["busy"] + in_flight)
    problems = []
    if in_flight < 0:
        problems.append(f"more arrivals ({c['rx']}) than transmissions ({c['hops']})")
    if originated != accounted:
        problems.append(f"packets not conserved: emitted {originated} != accounted {accounted}")
    return problems


def cache_hit_ratio(nets: list[Any]) -> float:
    """Hits over lookups of every forwarding-pipeline cache in ``nets``."""
    hits = lookups = 0

    def walk(stats: Any) -> None:
        nonlocal hits, lookups
        if "hits" in stats:
            hits += stats["hits"]
            lookups += stats["hits"] + stats["misses"]
        else:
            for value in stats.values():
                walk(value)

    for net in nets:
        for node in net.nodes.values():
            pipe = getattr(node, "pipeline", None)
            if pipe is not None:
                walk(pipe.cache_stats())
    return hits / lookups if lookups else 0.0


class Workload:
    """What the runner needs from a workload."""

    name = ""
    packet = True         # False: control plane only, checked once at the end
    setup_reps = 1        # timed set-ups before every unit
    min_units = 1

    def release(self) -> None:
        """Drop what the previous set-up built, before the untimed
        collection that precedes the next one."""

    def setup(self) -> None:
        pass

    def unit(self) -> Unit:
        raise NotImplementedError

    def problems(self, unit: Unit) -> list[str]:
        raise NotImplementedError

    def emitted(self, unit: Unit) -> int:
        """Packets the unit's traffic sources emitted."""
        return 0

    def elastic(self, unit: Unit) -> tuple[int, int]:
        """Retransmitted segments and timeouts of the unit's elastic flows."""
        return 0, 0

    def seal(self, unit: Unit) -> None:
        """Record the unit's counters, then release its networks so memory
        does not grow with the number of units in a run."""
        unit.extra.update(emitted=self.emitted(unit), elastic=self.elastic(unit),
                          cache_ratio=cache_hit_ratio(unit.nets),
                          counters=exact_counters(unit.nets))
        unit.extra.pop("raw", None)
        unit.nets = []


# ----------------------------------------------------------------------
# Packet workloads
# ----------------------------------------------------------------------
class VpnSlaPacket(Workload):
    name = "vpn-sla-packet"
    setup_reps = 3
    FLOWS = ("voice", "data", "bulk", "background")

    def __init__(self, seed: int) -> None:
        self.seed = E5_SEED + seed

    def setup(self) -> None:
        for stage in e5_sla.STAGES:
            e5_sla._build(stage, self.seed)

    def unit(self) -> Unit:
        t0 = perf_counter()
        rows, raw = e5_sla.run_e5(seed=self.seed)
        seconds = perf_counter() - t0
        nets = [raw[stage]["net"] for stage in e5_sla.STAGES]
        counters = exact_counters(nets)
        return Unit(seconds, counters["hops"], nets, {"rows": rows, "counters": counters},
                    {"raw": raw})

    def problems(self, unit: Unit) -> list[str]:
        out: list[str] = []
        for stage in e5_sla.STAGES:
            result = unit.extra["raw"][stage]
            net = result["net"]
            flows = [result[k] for k in self.FLOWS]
            c = exact_counters([net])
            out += [f"{stage}: {p}" for p in network_problems(net)]
            out += [f"{stage}: {p}" for p in conservation_problems(sum(f.sent for f in flows), c)]
            received = sum(f.received for f in flows)
            if received != c["delivered"]:
                out.append(f"{stage}: sinks recorded {received} != delivered {c['delivered']}")
        return out

    def emitted(self, unit: Unit) -> int:
        return sum(unit.extra["raw"][s][k].sent for s in e5_sla.STAGES for k in self.FLOWS)


class ElasticAqmIp(Workload):
    name = "elastic-aqm-ip"
    setup_reps = 10
    KINDS = ("droptail", "red")

    def __init__(self, seed: int) -> None:
        self.seed = E12A_SEED + seed

    def setup(self) -> None:
        for _ in self.KINDS:
            e12_elastic._elastic_testbed(self.seed, make_qdisc_factory("fifo"))

    def unit(self) -> Unit:
        t0 = perf_counter()
        rows, raw = e12_elastic.run_e12a_aqm(seed=self.seed)
        seconds = perf_counter() - t0
        nets = [raw[kind]["net"] for kind in self.KINDS]
        counters = exact_counters(nets)
        return Unit(seconds, counters["hops"], nets, {"rows": rows, "counters": counters},
                    {"raw": raw})

    @staticmethod
    def _originated(net: Any) -> int:
        # Hosts forward nothing here: every transmit a host makes is an
        # emission (data segments and probes at tx, ACKs at rx).
        return net.nodes["tx"].stats.forwarded + net.nodes["rx"].stats.forwarded

    def problems(self, unit: Unit) -> list[str]:
        out: list[str] = []
        for kind in self.KINDS:
            result = unit.extra["raw"][kind]
            net, probe = result["net"], result["probe"]
            c = exact_counters([net])
            out += [f"{kind}: {p}" for p in network_problems(net)]
            out += [f"{kind}: {p}" for p in conservation_problems(self._originated(net), c)]
            # One ACK per data segment delivered at the receiver.
            rx = net.nodes["rx"].stats
            data_in = rx.delivered - probe.sink.record(probe.flow).count
            if rx.forwarded != data_in:
                out.append(f"{kind}: {rx.forwarded} ACKs for {data_in} delivered segments")
        return out

    def emitted(self, unit: Unit) -> int:
        return sum(self._originated(unit.extra["raw"][k]["net"]) for k in self.KINDS)

    def elastic(self, unit: Unit) -> tuple[int, int]:
        flows = [f for k in self.KINDS for f in unit.extra["raw"][k]["flows"]]
        return sum(f.retransmits for f in flows), sum(f.timeouts for f in flows)


# ----------------------------------------------------------------------
# Control-plane churn workload
# ----------------------------------------------------------------------
class VpnChurnStorm(Workload):
    name = "vpn-churn-storm"
    packet = False
    min_units = 3         # each unit runs on the base its set-up just built

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ctx: dict[str, Any] | None = None

    def release(self) -> None:
        self.ctx = None
        gc.unfreeze()

    def setup(self) -> None:
        """Build and converge a fresh base; every unit starts from one, so
        each unit replays the same seeded block on the same state."""
        self.ctx = e1_scalability.mpls_base(CHURN_SITES, seed=CHURN_BASE_SEED)
        gc.freeze()      # see the module docstring
        net = self.ctx["net"]
        self.rng = random.Random(f"vpn-churn-storm:{self.seed}")
        self.p_links = sorted(
            (a, b) for a in net.nodes for b in net.nodes
            if a < b and a.startswith("P") and b.startswith("P") and net.link_between(a, b)
        )
        self.waves = 0
        self.initial_sites = self._site_set()

    def _site_set(self) -> list[tuple[str, str]]:
        vpn = self.ctx["prov"].vpns["corp"]
        return sorted((s.pe.name, str(s.prefix)) for s in vpn.sites)

    def _block(self) -> list[str]:
        """The action kinds of one block: fixed counts, seeded order."""
        kinds = [k for k, n in CHURN_MIX for _ in range(n * CHURN_ROUNDS)]
        self.rng.shuffle(kinds)
        return kinds

    # Each action returns two operations; the second restores what the
    # first changed, so every action is valid in the state the stream leaves.
    def _action(self, kind: str) -> tuple[Any, Any]:
        net, prov = self.ctx["net"], self.ctx["prov"]
        rng = self.rng
        if kind == "site-flap":
            vpn = prov.vpns["corp"]
            site = vpn.sites[rng.randrange(len(vpn.sites))]
            pe = site.pe

            def readd() -> None:
                prov.add_site(vpn, pe, prefix=site.prefix, num_hosts=0)
                prov.bgp_engine().export_delta(pe, pe.vrfs[vpn.name])

            return lambda: prov.remove_site(site), readd
        if kind == "link-flap":
            link = net.link_between(*self.p_links[rng.randrange(len(self.p_links))])

            def flap(up: bool) -> int:
                link.set_up(up)
                return spf.reconverge(net)

            return lambda: flap(False), lambda: flap(True)
        if kind == "pe-drain":
            pes = prov.pes()
            pe = pes[rng.randrange(len(pes))]
            return lambda: prov.drain_pe(pe), lambda: prov.restore_pe(pe)
        self.waves += 1
        name = f"wave{self.waves}"
        offset = rng.randrange(len(prov.pes()))

        def wave_up() -> None:
            wave = prov.create_vpn(name, supernet="172.16.0.0/12")
            pes = prov.pes()
            for i in range(WAVE_SITES):
                prov.add_site(wave, pes[(offset + i) % len(pes)], num_hosts=0)
            prov.converge_bgp()

        return wave_up, lambda: prov.remove_vpn(name)

    def unit(self) -> Unit:
        """One block of operations on the current base; times each one.

        A block runs for seconds, longer than the host keeps one speed, so
        the host-speed kernel runs every ``SEGMENT_OPS`` operations and each
        operation's latency is normalized by the kernel runs around its
        segment (``extra["latencies"]``; raw in ``extra["raw_latencies"]``).
        An operation that raises is timed up to the raise and reported in
        ``errors``; the block goes on, and the end-of-run checks judge the
        state it leaves.
        """
        net = self.ctx["net"]
        raw: list[float] = []
        marks = [(0, hostref.kernel_seconds())]   # (ops done, kernel seconds)
        records: list[list[Any]] = []
        errors: list[str] = []
        before = net.counters.snapshot()
        for kind in self._block():
            for phase, op in enumerate(self._action(kind)):
                t0 = perf_counter()
                try:
                    ret = op()
                except Exception as exc:
                    ret = f"raised {type(exc).__name__}"
                    errors.append(f"op {len(raw)} ({kind}, phase {phase}) raised {exc!r}")
                raw.append(perf_counter() - t0)
                after = net.counters.snapshot()
                delta = {k: after.get(k, 0) - before.get(k, 0)
                         for k in after.keys() | before.keys() if after.get(k, 0) != before.get(k, 0)}
                records.append([kind, phase, dict(sorted(delta.items())),
                                ret if isinstance(ret, (int, str)) else None])
                before = after
                if len(raw) % SEGMENT_OPS == 0:
                    marks.append((len(raw), hostref.kernel_seconds()))
        if marks[-1][0] != len(raw):
            marks.append((len(raw), hostref.kernel_seconds()))
        latencies: list[float] = []
        for (i, k0), (j, k1) in zip(marks, marks[1:]):
            f = hostref.factor(k0, k1)
            latencies += [t * f for t in raw[i:j]]
        material = {"ops": records, "sites": self._site_set() == self.initial_sites}
        return Unit(sum(raw), len(raw), [net], material,
                    {"latencies": latencies, "raw_latencies": raw, "records": records,
                     "norm": sum(latencies) / sum(raw)},
                    ops=len(raw), errors=errors)

    def problems(self, unit: Unit) -> list[str]:
        net, prov = self.ctx["net"], self.ctx["prov"]
        out = network_problems(net)
        if self._site_set() != self.initial_sites:
            out.append("site set differs from the provisioned one")
        if prov.bgp_engine().drained:
            out.append(f"PEs left drained: {sorted(prov.bgp_engine().drained)}")
        # Every PE's VRFs must equal a from-scratch converge of the final
        # site set: flush the BGP-learned routes and converge a new engine.
        incremental = self._vrf_routes()
        for pe in prov.pes():
            for vrf in pe.vrfs.values():
                vrf.remove_many([p for p, r in vrf.routes().items() if r.kind == "remote"])
        MpBgp(net, prov.pes()).converge()
        if incremental != self._vrf_routes():
            out.append("incremental VRF state differs from a full converge")
        return out

    def _vrf_routes(self) -> dict[tuple[str, str], dict]:
        return {(pe.name, vrf.name): dict(vrf.routes())
                for pe in self.ctx["prov"].pes() for vrf in pe.vrfs.values()}


WORKLOADS = {w.name: w for w in (VpnSlaPacket, ElasticAqmIp, VpnChurnStorm)}
