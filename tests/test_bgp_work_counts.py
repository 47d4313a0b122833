"""Deterministic work counts of the stamped MP-BGP resync.

Wall time on a shared runner is noise; how many VRFs a pass re-syncs and
how many ``VpnRoute`` objects it builds are exact.  These counts hold the
claim that a churn event costs what it changed, not the table: a VPN
wave's ``converge()`` touches only the wave's new VRFs, and a one-site
``export_delta`` builds only the site's routes.
"""

import pytest

import repro.vpn.bgp as bgp
from repro.experiments.e1_scalability import mpls_base

WAVE_SITES = 8


@pytest.fixture
def base():
    ctx = mpls_base(200, seed=13)
    assert len(ctx["prov"].pes()) >= WAVE_SITES
    return ctx


def _count_calls(monkeypatch, name: str) -> list[tuple[str, str]]:
    """Record the (pe, vrf) of every call of ``MpBgp.<name>``."""
    seen: list[tuple[str, str]] = []
    real = getattr(bgp.MpBgp, name)

    def counted(self, pe, vrf, *args, **kwargs):
        seen.append((pe.name, vrf.name))
        return real(self, pe, vrf, *args, **kwargs)

    monkeypatch.setattr(bgp.MpBgp, name, counted)
    return seen


def test_wave_converge_syncs_only_the_new_vrfs(base, monkeypatch):
    prov = base["prov"]
    exports = _count_calls(monkeypatch, "_sync_exports")
    imports = _count_calls(monkeypatch, "_desired_imports")
    wave = prov.create_vpn("wave", supernet="172.16.0.0/12")
    pes = prov.pes()
    for pe in pes[:WAVE_SITES]:
        prov.add_site(wave, pe, num_hosts=0)
    result = prov.converge_bgp()
    new_vrfs = sorted((pe.name, "wave") for pe in pes[:WAVE_SITES])
    assert sorted(exports) == new_vrfs
    assert sorted(imports) == new_vrfs
    # Each wave site exports its prefix and its access /30.
    assert result.routes_exported == 2 * WAVE_SITES


def test_one_site_delta_builds_only_the_changed_routes(base, monkeypatch):
    prov = base["prov"]
    corp = prov.vpns["corp"]
    site = corp.sites[7]
    pe = site.pe
    built: list[bgp.VpnRoute] = []
    real = bgp.VpnRoute

    def counted(**fields):
        route = real(**fields)
        built.append(route)
        return route

    monkeypatch.setattr(bgp, "VpnRoute", counted)
    prov.remove_site(site)            # withdrawals build nothing
    assert built == []
    fresh = prov.add_site(corp, pe, prefix=site.prefix, num_hosts=0)
    result = prov.bgp_engine().export_delta(pe, pe.vrfs["corp"])
    assert result.routes_exported == len(built) == 2
    assert fresh.prefix in {route.prefix for route in built}
    # Nothing else moved, so a converge builds nothing more.
    prov.converge_bgp()
    assert len(built) == 2
