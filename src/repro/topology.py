"""Network container and topology builders.

:class:`Network` owns the simulator, the nodes, and the duplex links, and
provides the wiring helpers every experiment uses: create routers/LSRs/
hosts, connect them with rate+delay+metric links, export a ``networkx``
graph for the control-plane computations (SPF, CSPF), and collect link
utilization at the end of a run.

Topology builders at the bottom create the recurring shapes of the
evaluation: a line, a star, the classic *fish* traffic-engineering
topology, and a 12-node reference ISP backbone modeled on the two-level
(core + POP) structure the paper's Fig. 4 sketches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import networkx as nx

from repro.net.address import IPv4Address, Prefix
from repro.net.link import Interface, Link
from repro.net.node import Host, Node
from repro.qos.queues import DropTailFifo, QueueDiscipline
from repro.routing.router import Router
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.trace import Counter, TraceBus

__all__ = [
    "DuplexLink",
    "Network",
    "build_line",
    "build_star",
    "build_full_mesh",
    "build_fish",
    "attach_host",
    "build_waxman",
    "build_backbone",
]

QdiscFactory = Callable[[Node, str], QueueDiscipline]


def _default_qdisc(node: Node, ifname: str) -> QueueDiscipline:
    return DropTailFifo(capacity_packets=100)


@dataclass
class DuplexLink:
    """Bookkeeping record for one bidirectional connection.

    ``addr_a``/``addr_b`` and the ``egress_*`` pairs are precomputed by
    :meth:`Network.connect` so the control plane resolves a next hop with
    one attribute read instead of scanning the peer's address table;
    ``net`` points back at the owning network so :meth:`set_up` can bump
    its topology generation (link state is part of the IGP topology).

    Invariant: every routing-relevant mutation must bump the owning
    network's ``topology_generation``, or cached domain views go stale.
    The writable surfaces are guarded — ``metric`` is a property that
    bumps on rewrite, and direct ``link_ab.up`` / ``link_ba.up`` writes
    bump through the :class:`~repro.net.link.Link` state-change hook
    :meth:`Network.connect` wires — so callers may mutate them directly
    instead of going through :meth:`set_up`.
    """

    a: Node
    b: Node
    if_ab: Interface
    if_ba: Interface
    link_ab: Link
    link_ba: Link
    rate_bps: float
    delay_s: float
    metric: float
    addr_a: IPv4Address | None = None
    addr_b: IPv4Address | None = None
    egress_a: tuple[str, IPv4Address] | None = None  # a's (out_if, next hop)
    egress_b: tuple[str, IPv4Address] | None = None  # b's (out_if, next hop)
    net: "Network | None" = None

    def set_up(self, up: bool) -> None:
        """Raise/fail both directions (simulates a link cut)."""
        self.link_ab.up = up
        self.link_ba.up = up
        if self.net is not None:
            self.net.topology_generation += 1

    def utilization(self, elapsed: float) -> tuple[float, float]:
        """(a→b, b→a) transmitter utilization over ``elapsed`` seconds."""
        return (
            self.if_ab.stats.utilization(elapsed),
            self.if_ba.stats.utilization(elapsed),
        )


def _dl_metric_get(self: DuplexLink) -> float:
    return self._metric


def _dl_metric_set(self: DuplexLink, value: float) -> None:
    changed = getattr(self, "_metric", value) != value
    self._metric = value
    if changed:
        net = getattr(self, "net", None)
        if net is not None:
            net.topology_generation += 1


# ``metric`` is IGP state, so rewriting it must invalidate cached domain
# views exactly like a link up/down.  The property is installed after the
# dataclass machinery has generated ``__init__`` (a ``metric = property()``
# line in the class body would read as a field default); the __init__
# assignment itself runs before ``self.net`` exists and never bumps.
DuplexLink.metric = property(_dl_metric_get, _dl_metric_set)  # type: ignore[assignment]


class Network:
    """A simulated network: kernel + nodes + links + address plan.

    Infrastructure addressing is automatic: loopbacks from 172.16.0.0/16
    (one /32 per node) and point-to-point /30s from 192.168.0.0/16.  The
    10.0.0.0/8 space is deliberately left to *customers*, so VPN experiments
    can use overlapping 10/8 plans without colliding with the provider.
    """

    LOOPBACK_POOL = Prefix.parse("172.16.0.0/16")
    LINKNET_POOL = Prefix.parse("192.168.0.0/16")

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator()
        self.trace = TraceBus()
        self.streams = RandomStreams(seed)
        self.counters = Counter()
        self.nodes: dict[str, Node] = {}
        self.duplex_links: list[DuplexLink] = []
        self.default_qdisc_factory: QdiscFactory = _default_qdisc
        # Structural version of the routing topology (nodes, links, link
        # state).  The control plane caches its domain views behind this
        # counter — the GenCache pattern from ``repro.dataplane.caches``.
        self.topology_generation = 0
        self._domain_views: dict = {}
        self._spf_state: dict = {}
        # Observability attachment points: extra link state-change
        # listeners (each called with the simplex Link that changed) and
        # the convergence tracer the control-plane hook sites notify.
        # Both default empty/None so unobserved networks pay nothing.
        self.link_listeners: list[Callable[[Link], None]] = []
        self.convergence_tracer = None
        # Address allocators are plain integer cursors, not live iterators:
        # the network must serialize (repro.sim.snapshot pickles the whole
        # object graph) and a half-consumed generator cannot.
        self._next_loopback = 1
        self._next_linknet = 0
        # ``None`` unless the process-wide telemetry switch is on (see
        # repro.obs.runtime); imported late so repro.topology stays importable
        # without pulling the whole observability stack into every user.
        from repro.obs.runtime import attach_if_enabled

        self.telemetry = attach_if_enabled(self)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node: Node, loopback: bool = True) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.trace = self.trace
        self.topology_generation += 1
        if loopback and node.loopback is None:
            node.set_loopback(self._alloc_loopback())
        return node

    def _alloc_loopback(self) -> IPv4Address:
        """Next free loopback /32 (resumable: a restored network keeps
        allocating where the snapshotted one stopped)."""
        n = self._next_loopback
        if n >= self.LOOPBACK_POOL.num_addresses - 1:
            raise ValueError("loopback pool exhausted")
        self._next_loopback = n + 1
        return self.LOOPBACK_POOL.host(n)

    def _alloc_linknet(self) -> Prefix:
        """Next free point-to-point /30 out of the linknet pool."""
        step = 1 << 2  # /30
        base = self.LINKNET_POOL.network + self._next_linknet * step
        if base >= self.LINKNET_POOL.network + self.LINKNET_POOL.num_addresses:
            raise ValueError("linknet pool exhausted")
        self._next_linknet += 1
        return Prefix(base, 30)

    def add_router(self, name: str, **kw) -> Router:
        return self.add_node(Router(self.sim, name, **kw))  # type: ignore[return-value]

    def add_host(self, name: str, **kw) -> Host:
        return self.add_node(Host(self.sim, name, **kw), loopback=False)  # type: ignore[return-value]

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def routers(self) -> list[Router]:
        """All nodes with a FIB (plain routers, LSRs, PEs)."""
        return [n for n in self.nodes.values() if isinstance(n, Router)]

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(
        self,
        a: Node | str,
        b: Node | str,
        rate_bps: float = 10e6,
        delay_s: float = 1e-3,
        metric: float = 1.0,
        qdisc_factory: QdiscFactory | None = None,
    ) -> DuplexLink:
        """Create a duplex link between ``a`` and ``b``.

        Each direction gets its own interface (named ``to-<peer>``), queue
        discipline, and simplex :class:`Link`.  A fresh /30 subnet is
        assigned so routed next hops resolve to real addresses.
        """
        na = self.nodes[a] if isinstance(a, str) else a
        nb = self.nodes[b] if isinstance(b, str) else b
        factory = qdisc_factory or self.default_qdisc_factory

        if_ab_name = self._ifname(na, nb)
        if_ba_name = self._ifname(nb, na)
        if_ab = Interface(self.sim, na, if_ab_name, rate_bps, factory(na, if_ab_name))
        if_ba = Interface(self.sim, nb, if_ba_name, rate_bps, factory(nb, if_ba_name))
        na.add_interface(if_ab)
        nb.add_interface(if_ba)

        subnet = self._alloc_linknet()
        addr_a, addr_b = subnet.host(1), subnet.host(2)
        na.add_address(addr_a, if_ab_name, subnet)
        nb.add_address(addr_b, if_ba_name, subnet)

        link_ab = Link(self.sim, f"{na.name}->{nb.name}", nb, if_ba_name, delay_s)
        link_ba = Link(self.sim, f"{nb.name}->{na.name}", na, if_ab_name, delay_s)
        link_ab.on_state_change = link_ba.on_state_change = self._link_state_changed
        if_ab.attach(link_ab, nb, if_ba_name)
        if_ba.attach(link_ba, na, if_ab_name)

        dl = DuplexLink(
            na, nb, if_ab, if_ba, link_ab, link_ba, rate_bps, delay_s, metric,
            addr_a=addr_a, addr_b=addr_b,
            egress_a=(if_ab_name, addr_b), egress_b=(if_ba_name, addr_a),
            net=self,
        )
        self.duplex_links.append(dl)
        self.topology_generation += 1
        return dl

    @staticmethod
    def _ifname(node: Node, peer: Node) -> str:
        base = f"to-{peer.name}"
        name = base
        n = 2
        while name in node.interfaces:
            name = f"{base}.{n}"
            n += 1
        return name

    def _bump_topology(self) -> None:
        """Invalidate cached domain views / SPF state after a structural
        change."""
        self.topology_generation += 1

    def _link_state_changed(self, link: Link) -> None:
        """Link up-state hook (wired into every Link by :meth:`connect`):
        bump the topology generation and fan out to observers."""
        self.topology_generation += 1
        for fn in self.link_listeners:
            fn(link)

    def link_between(self, a: str, b: str) -> Optional[DuplexLink]:
        """First duplex link between the two named nodes, if any."""
        for dl in self.duplex_links:
            if {dl.a.name, dl.b.name} == {a, b}:
                return dl
        return None

    # ------------------------------------------------------------------
    # Graph export & reporting
    # ------------------------------------------------------------------
    def domain_view(self, domain: str = "core"):
        """Cached indexed snapshot of one routing domain (see ``spf_core``).

        Rebuilt when ``topology_generation`` moves *or* the domain's
        membership changes — ``node.domain`` reassignment (the inter-AS
        experiments do this) doesn't bump the counter, so membership is
        re-derived on every call; that scan is O(nodes), dwarfed by any
        SPF the caller is about to run.
        """
        from repro.routing.spf_core import DomainView

        members = [
            name for name, node in self.nodes.items()
            if isinstance(node, Router) and node.domain == domain
        ]
        view = self._domain_views.get(domain)
        if (
            view is not None
            and view.generation == self.topology_generation
            and view.order_names == members
        ):
            return view
        view = DomainView.build(self, domain, members)
        self._domain_views[domain] = view
        return view

    def graph(self, routers_only: bool = False) -> nx.Graph:
        """Undirected topology graph with metric/rate/delay edge attributes."""
        g = nx.Graph()
        for name, node in self.nodes.items():
            if routers_only and not isinstance(node, Router):
                continue
            g.add_node(name, node=node)
        for dl in self.duplex_links:
            if dl.a.name in g and dl.b.name in g:
                g.add_edge(
                    dl.a.name,
                    dl.b.name,
                    metric=dl.metric,
                    rate_bps=dl.rate_bps,
                    delay_s=dl.delay_s,
                    duplex=dl,
                )
        return g

    def run(self, until: float) -> float:
        """Run the simulation to ``until`` seconds."""
        return self.sim.run(until=until)

    def link_utilization(self, elapsed: float) -> dict[str, float]:
        """Per-direction transmitter utilization ``{"A->B": frac, ...}``."""
        out: dict[str, float] = {}
        for dl in self.duplex_links:
            ua, ub = dl.utilization(elapsed)
            out[f"{dl.a.name}->{dl.b.name}"] = ua
            out[f"{dl.b.name}->{dl.a.name}"] = ub
        return out

    def total_drops(self) -> int:
        """All queue + conditioner drops across every interface."""
        return sum(
            i.stats.dropped + i.stats.conditioner_dropped
            for n in self.nodes.values()
            for i in n.interfaces.values()
        )


def attach_host(
    net: Network,
    router: Node,
    addr: str,
    name: str | None = None,
    rate_bps: float = 100e6,
    delay_s: float = 0.1e-3,
    advertise: bool = True,
) -> Host:
    """Create a host with address ``addr`` behind ``router``, fully wired.

    Installs the router's host route, the host's gateway, and (optionally)
    injects the /32 into the IGP so every core router can reach it after
    :func:`repro.routing.spf.converge`.
    """
    from repro.net.address import IPv4Address, Prefix
    from repro.routing.fib import RouteEntry
    from repro.routing.router import Router as _Router

    if isinstance(router, str):
        # connect() resolves names too, but the route installation below
        # needs the node object — a bare name would silently skip it and
        # leave the host unreachable.
        router = net.nodes[router]
    host = net.add_host(name or f"h-{addr.replace('.', '-')}")
    dl = net.connect(host, router, rate_bps, delay_s)
    host.gateway_ifname = dl.if_ab.name
    a = IPv4Address.parse(addr)
    host.add_address(a, dl.if_ab.name)
    host.set_loopback(a)
    if isinstance(router, _Router):
        # Register the host /32 as a *connected* prefix so reconvergence
        # after a failure reinstalls it (clear_routes flushes the FIB).
        router.connected_prefixes[Prefix.of(a, 32)] = dl.if_ba.name
        router.fib.install(
            Prefix.of(a, 32), RouteEntry(dl.if_ba.name, None, source="connected")
        )
        if advertise:
            router.advertised_prefixes.add(Prefix.of(a, 32))
    return host


# ---------------------------------------------------------------------------
# Topology builders
# ---------------------------------------------------------------------------

def build_line(
    net: Network, n: int, prefix: str = "r", rate_bps: float = 10e6, delay_s: float = 1e-3
) -> list[Router]:
    """``r0 - r1 - ... - r{n-1}`` chain of routers."""
    routers = [net.add_router(f"{prefix}{i}") for i in range(n)]
    for i in range(n - 1):
        net.connect(routers[i], routers[i + 1], rate_bps, delay_s)
    return routers


def build_star(
    net: Network, n_leaves: int, rate_bps: float = 10e6, delay_s: float = 1e-3
) -> tuple[Router, list[Router]]:
    """Hub router with ``n_leaves`` spokes (the paper's small-WAN case)."""
    hub = net.add_router("hub")
    leaves = [net.add_router(f"leaf{i}") for i in range(n_leaves)]
    for leaf in leaves:
        net.connect(hub, leaf, rate_bps, delay_s)
    return hub, leaves


def build_full_mesh(
    net: Network, n: int, prefix: str = "m", rate_bps: float = 10e6, delay_s: float = 1e-3
) -> list[Router]:
    """Complete graph on ``n`` routers — the O(N²) shape of claim C1."""
    routers = [net.add_router(f"{prefix}{i}") for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            net.connect(routers[i], routers[j], rate_bps, delay_s)
    return routers


def build_fish(
    net: Network,
    rate_bps: float = 10e6,
    slow_rate_bps: float | None = None,
    trunk_rate_bps: float | None = None,
    delay_s: float = 1e-3,
    node_factory: Callable[[Network, str], Router] | None = None,
) -> dict[str, Router]:
    """The classic traffic-engineering "fish".

    ::

              C --- D
             /       \\
        A - B         E - F
             \\       /
              G --- H

    Both branches are three links, but the top branch carries metric 2 per
    link so *all* shortest-path traffic piles onto the bottom (B-G-H-E) —
    the congestion CSPF then relieves by placing overflow tunnels on the
    top branch (E6).
    """
    make = node_factory or (lambda n, name: n.add_router(name))
    names = ["A", "B", "C", "D", "E", "F", "G", "H"]
    nodes = {name: make(net, name) for name in names}
    slow = slow_rate_bps if slow_rate_bps is not None else rate_bps
    trunk = trunk_rate_bps if trunk_rate_bps is not None else rate_bps
    net.connect(nodes["A"], nodes["B"], trunk, delay_s)               # head trunk
    net.connect(nodes["B"], nodes["C"], rate_bps, delay_s, metric=2)  # top branch
    net.connect(nodes["C"], nodes["D"], rate_bps, delay_s, metric=2)
    net.connect(nodes["D"], nodes["E"], rate_bps, delay_s, metric=2)
    net.connect(nodes["B"], nodes["G"], slow, delay_s)                # bottom branch
    net.connect(nodes["G"], nodes["H"], slow, delay_s)
    net.connect(nodes["H"], nodes["E"], slow, delay_s)
    net.connect(nodes["E"], nodes["F"], trunk, delay_s)               # tail trunk
    return nodes


def build_waxman(
    net: Network,
    n: int,
    alpha: float = 0.4,
    beta: float = 0.4,
    rate_bps: float = 10e6,
    delay_per_unit_s: float = 5e-3,
    prefix: str = "w",
    node_factory: Callable[[Network, str], Router] | None = None,
    rng=None,
) -> list[Router]:
    """Waxman random graph: the standard synthetic ISP topology model.

    Nodes scatter uniformly on the unit square; an edge (u, v) exists with
    probability ``alpha * exp(-d(u,v) / (beta * sqrt(2)))``.  Link
    propagation delay scales with Euclidean distance.  A spanning chain is
    added first so the result is always connected (common practice —
    disconnected samples are useless for routing studies).

    ``rng`` defaults to the network's "topology.waxman" stream.
    """
    import math

    if not 0 < alpha <= 1 or beta <= 0:
        raise ValueError("need 0 < alpha <= 1 and beta > 0")
    make = node_factory or (lambda nn, name: nn.add_router(name))
    gen = rng if rng is not None else net.streams.stream("topology.waxman")
    routers = [make(net, f"{prefix}{i}") for i in range(n)]
    xy = gen.random((n, 2))
    max_d = math.sqrt(2.0)

    def connect(i: int, j: int) -> None:
        d = float(math.dist(xy[i], xy[j]))
        net.connect(routers[i], routers[j], rate_bps,
                    max(1e-4, d * delay_per_unit_s))

    for i in range(n - 1):          # connectivity backbone
        connect(i, i + 1)
    for i in range(n):
        for j in range(i + 2, n):   # chain already covers j == i+1
            d = float(math.dist(xy[i], xy[j]))
            if gen.random() < alpha * math.exp(-d / (beta * max_d)):
                connect(i, j)
    return routers


#: Adjacency of the 12-node reference backbone: 4 fully-meshed core routers
#: (P1..P4) and 8 POP edge routers, two per core, dual-homed for resilience.
BACKBONE_EDGES: tuple[tuple[str, str], ...] = (
    ("P1", "P2"), ("P1", "P3"), ("P1", "P4"), ("P2", "P3"), ("P2", "P4"), ("P3", "P4"),
    ("E1", "P1"), ("E1", "P2"), ("E2", "P1"), ("E2", "P3"),
    ("E3", "P2"), ("E3", "P4"), ("E4", "P2"), ("E4", "P1"),
    ("E5", "P3"), ("E5", "P1"), ("E6", "P3"), ("E6", "P4"),
    ("E7", "P4"), ("E7", "P2"), ("E8", "P4"), ("E8", "P3"),
)


def build_backbone(
    net: Network,
    core_rate_bps: float = 45e6,     # DS3-class trunks of the era
    edge_rate_bps: float = 10e6,
    delay_s: float = 2e-3,
    node_factory: Callable[[Network, str], Router] | None = None,
) -> dict[str, Router]:
    """12-node two-level reference ISP backbone (Fig. 4's deployment target).

    Core links run at ``core_rate_bps``, edge-to-core links at
    ``edge_rate_bps``.  Returns name → router.
    """
    make = node_factory or (lambda n, name: n.add_router(name))
    names = [f"P{i}" for i in range(1, 5)] + [f"E{i}" for i in range(1, 9)]
    nodes = {name: make(net, name) for name in names}
    for a, b in BACKBONE_EDGES:
        core = a.startswith("P") and b.startswith("P")
        rate = core_rate_bps if core else edge_rate_bps
        net.connect(nodes[a], nodes[b], rate, delay_s)
    return nodes
