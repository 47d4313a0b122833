"""Control-plane fast-path benchmarks.

Self-calibrating: each benchmark times the *reference* implementation
(``repro.routing.reference`` — the pre-fast-path code, kept verbatim) and
the current one on twin copies of the same topology, in the same process,
so the asserted speedups hold on any machine rather than against a number
measured once on one box.  Parity of the produced FIBs is held separately
by ``tests/test_spf_parity.py``; here we only check the clock.

Headline numbers land in ``BENCH_control_plane.json`` at the repo root
(CI uploads it as a workflow artifact):

* full IGP convergence of the 12-node reference backbone (target ≥3×),
* reconvergence after a single core-link flap (target ≥5×, the
  incremental-SPF payoff),
* the paper-scale E1 rows (N=500 and N=1000 sites) with wall-clock for
  the overlay's O(N²) provisioning vs the MPLS VPN's O(N).

Timings use ``time.perf_counter`` directly (best of several rounds), not
pytest-benchmark stats, so the file also runs unchanged under
``--benchmark-disable``.
"""

from time import perf_counter

from harness import best_of_pair, record, require_floor
from repro.experiments.e1_scalability import run_e1
from repro.routing.reference import (
    clear_routes_reference,
    converge_reference,
    reconverge_reference,
)
from repro.routing.router import Router
from repro.routing.spf import clear_routes, converge, reconverge
from repro.topology import Network, build_backbone

# The speedup floors the optimization must clear on the 12-node backbone.
MIN_CONVERGE_SPEEDUP = 3.0
MIN_RECONVERGE_SPEEDUP = 5.0
# Single-site churn at N=500: delta distribution vs monolithic converge.
MIN_CHURN_SPEEDUP = 5.0


def _backbone() -> Network:
    net = Network(seed=19)
    build_backbone(net)
    return net


def _routers(net: Network) -> list[Router]:
    return [n for n in net.nodes.values() if isinstance(n, Router)]


def test_full_converge_speedup():
    """Cold full convergence: fresh graph + every SPF + every install."""
    new, ref = _backbone(), _backbone()
    new_routers, ref_routers = _routers(new), _routers(ref)

    def run_new():
        for r in new_routers:
            clear_routes(r)
        # Invalidate the cached domain view so the run is genuinely cold
        # (graph rebuild + all 12 SPF runs), not served from the memo.
        new.topology_generation += 1
        converge(new)

    def run_ref():
        for r in ref_routers:
            clear_routes_reference(r)
        converge_reference(ref)

    t_new, t_ref = best_of_pair(run_new, run_ref, rounds=7)
    speedup = t_ref / t_new
    record("control_plane", "converge_backbone", {
        "new_s": t_new,
        "reference_s": t_ref,
        "speedup": speedup,
        "min_required": MIN_CONVERGE_SPEEDUP,
    })
    require_floor(speedup, MIN_CONVERGE_SPEEDUP, (
        f"full converge speedup {speedup:.2f}x < {MIN_CONVERGE_SPEEDUP}x "
        f"(new {t_new * 1e3:.3f} ms vs reference {t_ref * 1e3:.3f} ms)"
    ))


def test_single_link_reconverge_speedup():
    """One core trunk flaps; incremental SPF touches only affected trees."""
    new, ref = _backbone(), _backbone()
    converge(new)
    converge_reference(ref)
    dl_new = new.link_between("P1", "P2")
    dl_ref = ref.link_between("P1", "P2")

    def flap_new():
        dl_new.set_up(False)
        reconverge(new)
        dl_new.set_up(True)
        reconverge(new)

    def flap_ref():
        dl_ref.set_up(False)
        reconverge_reference(ref)
        dl_ref.set_up(True)
        reconverge_reference(ref)

    t_new, t_ref = best_of_pair(flap_new, flap_ref, rounds=7)
    speedup = t_ref / t_new
    record("control_plane", "reconverge_single_link", {
        "new_s": t_new,
        "reference_s": t_ref,
        "speedup": speedup,
        "min_required": MIN_RECONVERGE_SPEEDUP,
    })
    require_floor(speedup, MIN_RECONVERGE_SPEEDUP, (
        f"single-link reconverge speedup {speedup:.2f}x < "
        f"{MIN_RECONVERGE_SPEEDUP}x "
        f"(new {t_new * 1e3:.3f} ms vs reference {t_ref * 1e3:.3f} ms)"
    ))


def test_single_site_churn_speedup():
    """One site flaps at N=500: the delta path touches that site's NLRI
    while the frozen engine can only repair state with a full converge."""
    from repro.experiments.e1_scalability import mpls_base
    from repro.vpn.reference import MpBgpReference

    n_sites = 500
    new_ctx = mpls_base(n_sites)
    ref_ctx = mpls_base(n_sites)
    engine = new_ctx["prov"].bgp_engine()
    pe = new_ctx["nodes"]["E1"]
    vrf = pe.vrfs["corp"]
    site_id = next(
        r.origin_site
        for r in vrf.local_routes().values()
        if r.origin_site is not None
    )
    ref_engine = MpBgpReference(ref_ctx["net"], ref_ctx["prov"].pes())

    # State-neutral rounds: the withdraw retracts the site's NLRI from
    # every importing VRF, the export_delta re-advertises it from the
    # still-intact locals.  The reference's only repair tool for the same
    # event is its monolithic full converge.
    def churn_new():
        engine.withdraw(pe, vrf="corp", site=site_id)
        engine.export_delta(pe, vrf)

    def churn_ref():
        ref_engine.converge()

    t_new, t_ref = best_of_pair(churn_new, churn_ref, rounds=5)
    speedup = t_ref / t_new
    record("control_plane", "bgp_single_site_churn", {
        "sites": n_sites,
        "new_s": t_new,
        "reference_s": t_ref,
        "speedup": speedup,
        "min_required": MIN_CHURN_SPEEDUP,
    })
    require_floor(speedup, MIN_CHURN_SPEEDUP, (
        f"single-site churn speedup {speedup:.2f}x < {MIN_CHURN_SPEEDUP}x "
        f"(new {t_new * 1e3:.3f} ms vs reference {t_ref * 1e3:.3f} ms)"
    ))


def test_churn_storm_suite():
    """The E15 storm sequence at paper scale — per-storm wall time and
    exact UPDATE counts recorded for trend tracking.  No speedup floor:
    absolute storm latency is box-dependent, so the JSON carries
    ``floor_enforced: false`` and bench_trend treats it as data-only."""
    from repro.experiments.e1_scalability import mpls_base
    from repro.experiments.e15_churn import churn_storms

    n_sites = 500
    ctx = mpls_base(n_sites)
    t0 = perf_counter()
    rows = churn_storms(ctx, site_flaps=10, wave_sites=8, link_flaps=2)
    total_s = perf_counter() - t0

    by_storm = {r["storm"]: r for r in rows}
    assert set(by_storm) == {"site-flap", "pe-drain", "vpn-wave", "link-flap"}
    # The delta path's whole point: a 10-flap storm withdraws ~10 NLRI
    # instead of re-distributing the full ~2N-route table per event.
    assert by_storm["site-flap"]["withdrawn"] >= 10
    assert by_storm["site-flap"]["updates"] > 0
    # Link flaps ride the IGP fast path; next hops are loopbacks, so BGP
    # stays silent — that silence is the paper's stability argument.
    assert by_storm["link-flap"]["updates"] == 0
    assert by_storm["link-flap"]["spf_installs"] > 0
    record("control_plane", "bgp_churn_storms", {
        "sites": n_sites,
        "total_s": total_s,
        "floor_enforced": False,
        "rows": rows,
    })


def test_e1_paper_scale():
    """E1 at N=500 and N=1000 sites — the paper's scalability argument at
    the scale the paper talks about, not a toy slice of it."""
    t0 = perf_counter()
    rows, raw = run_e1(site_counts=(500, 1000))
    total_s = perf_counter() - t0

    by_n = {row["sites"]: row for row in rows}
    assert by_n[500]["N(N-1)/2"] == 500 * 499 // 2 == 124_750
    assert by_n[1000]["N(N-1)/2"] == 1000 * 999 // 2 == 499_500
    for n, row in by_n.items():
        assert row["overlay_VCs"] == row["N(N-1)/2"]
        # Core routers still hold zero per-VPN state at paper scale.
        assert row["mpls_core_vpn_state"] == 0
    record("control_plane", "e1_paper_scale", {
        "total_s": total_s,
        "rows": [
            {
                "sites": row["sites"],
                "overlay_VCs": row["overlay_VCs"],
                "overlay_state": row["overlay_state"],
                "overlay_sig_msgs": row["overlay_sig_msgs"],
                "mpls_vrf_routes": row["mpls_vrf_routes"],
                "bgp_updates": row["bgp_updates"],
                "ldp_msgs": row["ldp_msgs"],
                "overlay_wall_s": row["overlay_wall_s"],
                "mpls_wall_s": row["mpls_wall_s"],
            }
            for row in rows
        ],
    })
