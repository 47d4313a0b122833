"""VPN Routing and Forwarding tables (VRFs).

A PE router keeps one :class:`Vrf` per directly-attached VPN (RFC 2547
§3): an isolated forwarding table whose routes come from (a) the locally
attached sites and (b) MP-BGP imports matching the VRF's import route
targets.  Isolation is structural — a VRF lookup can only ever return
routes that were installed into *this* VRF, so overlapping customer
addresses never meet in one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.address import IPv4Address, Prefix
from repro.routing.fib import Fib, RouteEntry
from repro.vpn.rd_rt import RouteDistinguisher, RouteTarget

__all__ = ["VrfRoute", "Vrf"]

# Local-route changes a VRF remembers by prefix (see Vrf.local_changes_since).
LOCAL_LOG = 256


@dataclass(frozen=True, slots=True)
class VrfRoute:
    """One VRF forwarding decision.

    ``kind`` is ``"local"`` (reachable via an attachment circuit on this
    PE) or ``"remote"`` (reachable via an MPLS tunnel to another PE, using
    ``vpn_label`` as the inner label).
    """

    kind: str
    out_ifname: str | None = None            # local: PE->CE interface
    next_hop: IPv4Address | None = None      # local: CE address (informational)
    remote_pe: IPv4Address | None = None     # remote: egress PE loopback
    vpn_label: int | None = None             # remote: inner label
    origin_site: int | None = None
    metric: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "local" and self.out_ifname is None:
            raise ValueError("local VRF route needs out_ifname")
        if self.kind == "remote" and (self.remote_pe is None or self.vpn_label is None):
            raise ValueError("remote VRF route needs remote_pe and vpn_label")
        if self.kind not in ("local", "remote"):
            raise ValueError(f"unknown VRF route kind {self.kind!r}")


class Vrf:
    """Per-VPN forwarding table on one PE.

    Parameters
    ----------
    name:
        VRF name, unique on the PE (conventionally the VPN name).
    rd:
        Route distinguisher for routes exported from this VRF.
    import_rts / export_rts:
        Route-target policy; see :mod:`repro.vpn.rd_rt`.
    vpn_label:
        The per-VRF aggregate label this PE advertises for all of the
        VRF's routes; packets arriving with it are looked up in this VRF.
    """

    def __init__(
        self,
        name: str,
        rd: RouteDistinguisher,
        import_rts: frozenset[RouteTarget],
        export_rts: frozenset[RouteTarget],
        vpn_label: int,
    ) -> None:
        self.name = name
        self.rd = rd
        self.import_rts = frozenset(import_rts)
        self.export_rts = frozenset(export_rts)
        self.vpn_label = vpn_label
        self._fib = Fib()
        self._routes: dict[Prefix, VrfRoute] = {}
        # The local subset of ``_routes``, kept in step with it so export
        # and circuit bookkeeping never filter the whole table.
        self._locals: dict[Prefix, VrfRoute] = {}
        # Counts changes to the local subset.  MP-BGP stamps each
        # (PE, VRF) sync with it and skips a VRF whose locals have not
        # moved since; per instance (and pickled with it), so a VRF
        # rebuilt from a snapshot keeps counting where it left off.
        self.local_version = 0
        # The prefixes of the latest local changes, oldest first.
        self._local_log: list[Prefix] = []
        # Interfaces (attachment circuits) bound to this VRF on the PE.
        self.circuits: list[str] = []

    # ------------------------------------------------------------------
    def add_local(
        self,
        prefix: Prefix | str,
        out_ifname: str,
        next_hop: IPv4Address | None = None,
        origin_site: int | None = None,
    ) -> VrfRoute:
        """Install a route learned from an attached site."""
        pfx = Prefix.parse(prefix) if isinstance(prefix, str) else prefix
        route = VrfRoute(
            "local", out_ifname=out_ifname, next_hop=next_hop, origin_site=origin_site
        )
        self._install(pfx, route)
        return route

    def add_remote(
        self,
        prefix: Prefix | str,
        remote_pe: IPv4Address,
        vpn_label: int,
        origin_site: int | None = None,
        metric: float = 0.0,
    ) -> VrfRoute:
        """Install a route imported from MP-BGP."""
        pfx = Prefix.parse(prefix) if isinstance(prefix, str) else prefix
        route = VrfRoute(
            "remote",
            remote_pe=remote_pe,
            vpn_label=vpn_label,
            origin_site=origin_site,
            metric=metric,
        )
        self._install(pfx, route)
        return route

    def add_remote_many(
        self,
        items: list[tuple[Prefix, IPv4Address, int, int | None]],
    ) -> int:
        """Install a batch of MP-BGP imports with one FIB generation bump.

        ``items`` is ``[(prefix, remote_pe, vpn_label, origin_site), ...]``.
        The churn engine installs whole deltas through here so the PE's
        per-VRF flow caches are invalidated once per batch, not once per
        route (PR 3's ``install_many`` pattern).  Returns the batch size.
        """
        if not items:
            return 0
        batch: list[tuple[Prefix, RouteEntry]] = []
        routes, local = self._routes, self._locals
        for prefix, remote_pe, vpn_label, origin_site in items:
            if local and prefix in local:
                del local[prefix]
                self._local_changed(prefix)
            routes[prefix] = VrfRoute(
                "remote",
                remote_pe=remote_pe,
                vpn_label=vpn_label,
                origin_site=origin_site,
            )
            batch.append((prefix, RouteEntry("", source="remote")))
        return self._fib.install_many(batch)

    def remove_many(self, prefixes: list[Prefix]) -> int:
        """Withdraw a batch of routes with one FIB generation bump.

        Absent prefixes are skipped; returns the number actually removed.
        A batch that removes nothing leaves the generation untouched.
        """
        routes = self._routes
        doomed = [p for p in prefixes if p in routes]
        for prefix in doomed:
            if routes.pop(prefix).kind == "local":
                del self._locals[prefix]
                self._local_changed(prefix)
        return self._fib.withdraw_many(doomed)

    def _install(self, prefix: Prefix, route: VrfRoute) -> None:
        self._routes[prefix] = route
        if route.kind == "local":
            self._locals[prefix] = route
            self._local_changed(prefix)
        elif self._locals.pop(prefix, None) is not None:
            self._local_changed(prefix)
        # The trie stores a RouteEntry shell; the VrfRoute carries the real
        # decision and is recovered via the prefix.
        self._fib.install(prefix, RouteEntry(route.out_ifname or "", source=route.kind))

    def _local_changed(self, prefix: Prefix) -> None:
        self.local_version += 1
        log = self._local_log
        log.append(prefix)
        if len(log) > 2 * LOCAL_LOG:
            del log[:-LOCAL_LOG]

    def local_changes_since(self, version: int) -> list[Prefix] | None:
        """Prefixes whose local route changed after ``version`` of this
        VRF (a prefix may repeat), or None when the log no longer reaches
        back that far."""
        behind = self.local_version - version
        log = self._local_log
        if not 0 <= behind <= len(log):
            return None
        return log[len(log) - behind:]

    def withdraw(self, prefix: Prefix | str) -> bool:
        pfx = Prefix.parse(prefix) if isinstance(prefix, str) else prefix
        if pfx not in self._routes:
            return False
        if self._routes.pop(pfx).kind == "local":
            del self._locals[pfx]
            self._local_changed(pfx)
        self._fib.withdraw(pfx)
        return True

    def kind_of(self, prefix: Prefix) -> str | None:
        """``"local"``/``"remote"`` if ``prefix`` is installed, else None."""
        route = self._routes.get(prefix)
        return None if route is None else route.kind

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Mutation counter for the PE's per-VRF flow caches.

        Every route change goes through ``_install``/``withdraw`` and thus
        through the inner FIB, whose generation counts both.
        """
        return self._fib.generation

    # ------------------------------------------------------------------
    def lookup(self, addr: IPv4Address) -> Optional[VrfRoute]:
        """Longest-prefix match inside this VRF only."""
        match = self._fib.lookup_prefix(addr)
        if match is None:
            return None
        prefix, _shell = match
        return self._routes.get(prefix)

    def routes(self) -> dict[Prefix, VrfRoute]:
        return dict(self._routes)

    def local_routes(self) -> dict[Prefix, VrfRoute]:
        return dict(self._locals)

    def locals_on(self, ifname: str) -> list[Prefix]:
        """Prefixes of the local routes learned over circuit ``ifname``."""
        return [p for p, r in self._locals.items() if r.out_ifname == ifname]

    def __len__(self) -> int:
        return len(self._routes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Vrf {self.name} rd={self.rd} routes={len(self)}>"
