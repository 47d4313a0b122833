"""Conventional IP router: longest-prefix-match forwarding.

This is the baseline data plane of claim C2/C4 — every packet, at every
hop, gets a full header inspection and an LPM lookup against the FIB.  The
LSR in :mod:`repro.mpls.lsr` subclasses this so that an MPLS backbone can
still route unlabeled packets (the mixed deployment of the paper's Fig. 4).

Forwarding itself lives in :class:`repro.dataplane.ForwardingPipeline`;
this class composes the pipeline with just the lookup and dispatch stages
(no label-op, no VRF demux).  ``flow_hash`` is re-exported from
``repro.dataplane`` for backwards compatibility.
"""

from __future__ import annotations

from repro.dataplane.pipeline import ForwardingPipeline, flow_hash
from repro.net.node import Node
from repro.net.packet import Packet
from repro.routing.fib import Fib, RouteEntry

__all__ = ["Router", "flow_hash"]


class Router(Node):
    """IP router with a trie FIB."""

    def __init__(self, sim, name, **kw) -> None:
        super().__init__(sim, name, **kw)
        self.fib = Fib()
        # Extra prefixes this router injects into the IGP (host subnets it
        # fronts, redistributed statics...).
        self.advertised_prefixes: set = set()
        # One staged forwarding engine, shared (by composition) with the
        # Lsr and PeRouter subclasses — see repro.dataplane.pipeline.
        self.pipeline = ForwardingPipeline(self, self.fib)

    # ------------------------------------------------------------------
    def handle(self, pkt: Packet, ifname: str) -> None:
        self.pipeline.ingress(pkt, ifname)

    def dispatch(self, pkt: Packet, entry: RouteEntry) -> None:
        """Send ``pkt`` out the interface selected by ``entry`` (ECMP-aware).

        Kept as a public helper for gateways that resolve routes
        themselves (e.g. the IPsec gateway); delegates to the pipeline's
        egress-dispatch stage.
        """
        self.pipeline.dispatch(pkt, entry)
