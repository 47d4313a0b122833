"""Hybrid ≡ pure-packet parity: the fluid plane must not change results.

Same spirit as the vector ≡ scalar property suites: the hybrid traffic
plane is a performance optimization, so seeded experiments must agree
with pure-packet runs within documented tolerances (ARCHITECTURE §11).

Where the filler expands before every congested hop (e2, e5), the
expander's virtual creation clock reproduces the CBR schedule exactly
and the agreement is bit-for-bit today on class-scheduled configs — the
tolerances below are the *contract*, kept loose enough to survive benign
scheduling changes:

* loss ratio:       ±0.02 absolute under class scheduling; ±0.08 under a
  single shared FIFO, where the filler's sub-millisecond phase (in pure
  mode it queues behind voice/data on the access link; in hybrid mode
  its prefix delay is analytic) decides the drop lottery among the
  small flows' ~10² packets.
* p99 delay:        ±10% relative (when finite)
* RFC 3550 jitter:  ±0.5 ms absolute
* e12a (closed-loop AIMD against *analytic* background load): goodput
  ±15% relative, AQM ordering (RED keeps p50 below DropTail) preserved.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.e2_qos import run_config
from repro.experiments.e5_sla import run_stage
from repro.experiments.e12_elastic import run_e12a_aqm
from repro.experiments.hybrid import run_scale

LOSS_TOL = 0.02
FIFO_LOSS_TOL = 0.08
P99_REL_TOL = 0.10
JITTER_TOL_S = 0.5e-3


def assert_stats_close(pure, hyb, flow: str, loss_tol: float = LOSS_TOL) -> None:
    assert hyb.sent == pytest.approx(pure.sent, rel=0.01), flow
    assert abs(hyb.loss_ratio - pure.loss_ratio) <= loss_tol, flow
    if math.isfinite(pure.p99_delay_s):
        assert hyb.p99_delay_s == pytest.approx(
            pure.p99_delay_s, rel=P99_REL_TOL
        ), flow
    if math.isfinite(pure.jitter_rfc3550_s):
        assert abs(hyb.jitter_rfc3550_s - pure.jitter_rfc3550_s) <= JITTER_TOL_S, flow


@pytest.mark.parametrize("config", ["ip-fifo", "mpls-diffserv"])
def test_e2_parity(config):
    loss_tol = FIFO_LOSS_TOL if config == "ip-fifo" else LOSS_TOL
    pure = run_config(config, seed=21, measure_s=4.0)
    hyb = run_config(config, seed=21, measure_s=4.0, hybrid=True)
    for flow in ("voice", "data", "bulk"):
        assert_stats_close(pure[flow], hyb[flow], flow, loss_tol=loss_tol)
    # The bulk filler actually rode the fluid plane and expanded at the
    # first congested hop (not the source) — otherwise this test proves
    # nothing about the hybrid path.
    aggs = hyb["fluid"]["aggregates"]
    assert len(aggs) == 1
    assert aggs[0]["expansion_hop"] == 1
    assert aggs[0]["expanded_packets"] > 0


def test_e5_parity_full_stage():
    pure = run_stage("full", seed=41, measure_s=2.0)
    hyb = run_stage("full", seed=41, measure_s=2.0, hybrid=True)
    for flow in ("voice", "data", "bulk", "background"):
        assert_stats_close(pure[flow], hyb[flow], flow)
    # SLA verdicts — the headline table — must agree exactly.
    assert hyb["voice_sla"].conformant == pure["voice_sla"].conformant
    assert hyb["data_sla"].conformant == pure["data_sla"].conformant
    # Background expanded at the CE (its 4 Mb/s exceeds the 3 Mb/s
    # access uplink's headroom), so the shared core saw real packets.
    agg = hyb["fluid"]["aggregates"][0]
    assert agg["expansion_hop"] is not None
    assert agg["expanded_packets"] > 0


def test_e12a_parity_fluid_background():
    """Closed-loop flows against analytic vs packet background load."""
    pure_rows, _ = run_e12a_aqm(seed=121, duration_s=6.0, background_bps=1e6)
    hyb_rows, hyb_raw = run_e12a_aqm(
        seed=121, duration_s=6.0, background_bps=1e6, hybrid=True
    )
    pure = {r["aqm"]: r for r in pure_rows}
    hyb = {r["aqm"]: r for r in hyb_rows}
    for kind in ("droptail", "red"):
        assert hyb[kind]["goodput_kbps"] == pytest.approx(
            pure[kind]["goodput_kbps"], rel=0.15
        ), kind
    # The qualitative AQM result survives the abstraction: RED keeps the
    # standing queue (probe p50) below DropTail's in both modes.
    assert pure["red"]["p50_delay_ms"] < pure["droptail"]["p50_delay_ms"]
    assert hyb["red"]["p50_delay_ms"] < hyb["droptail"]["p50_delay_ms"]
    # And the background really was fluid, not expanded: 1 Mb/s sits
    # under the bottleneck's headroom.
    for kind in ("droptail", "red"):
        bg = hyb_raw[kind]["background"]
        assert bg.expanded_sent == 0
        assert bg.fluid_delivered_packets > 0


def test_scale_parity_small():
    """Pure vs hybrid at a CI-sized flow count: same offered load, same
    delivery, same probe delay (the only packet flow in hybrid mode)."""
    pure = run_scale(mode="pure", n_flows=2_000, measure_s=0.4)
    hyb = run_scale(mode="hybrid", n_flows=2_000, measure_s=0.4)
    assert hyb["offered_pkts"] == pytest.approx(pure["offered_pkts"], rel=0.01)
    assert hyb["delivered_pkts"] == pytest.approx(pure["delivered_pkts"], rel=0.01)
    assert hyb["probe"].p99_delay_s == pytest.approx(
        pure["probe"].p99_delay_s, rel=0.05
    )
    # No losses in either mode: the line is fat enough for the load.
    assert pure["delivered_pkts"] == pure["offered_pkts"]
    assert hyb["delivered_pkts"] == hyb["offered_pkts"]
