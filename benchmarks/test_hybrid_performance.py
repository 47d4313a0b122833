"""Hybrid fluid/packet plane benchmarks.

Headline numbers land in ``BENCH_hybrid.json`` at the repo root (CI
uploads it as a workflow artifact and ``tools/bench_trend.py`` gates the
trend):

* ``e2_100k_flows`` — the acceptance case: the EH scale scenario at
  100 000 flows, pure-packet vs hybrid wall clock end-to-end (build +
  run), asserting the ≥10× speedup floor.  Statistical parity between
  the two modes at this scale is held by
  ``tests/test_hybrid_parity.py::test_scale_parity_small``; here we only
  check the clock and the delivery totals.
* ``million_flow_smoke`` — 1 000 000 flows across 20 aggregates, hybrid
  only.  Pure-packet mode cannot finish this point in CI time (≈50× the
  100k pure run, tens of minutes), which is the feature: the smoke
  records that the hybrid plane completes it in seconds, with the
  offered-load integral intact.

Timings use ``time.perf_counter`` directly, so the file runs unchanged
under ``--benchmark-disable``.  ``BENCH_PERF_NONBLOCKING=1`` downgrades
floor misses to xfail (same contract as the other benchmark files).
"""

from time import perf_counter

import pytest

from harness import record, require_floor
from repro.experiments.hybrid import FLOW_RATE_BPS, run_scale

#: ISSUE 8 acceptance: hybrid must beat pure-packet end-to-end by ≥10×
#: at the 100k-flow point.  Measured headroom is far larger (the hybrid
#: run is sub-second while pure is minutes-scale), so the floor is
#: deliberately conservative against slow CI boxes.
MIN_HYBRID_SPEEDUP = 10.0
N_FLOWS_ACCEPTANCE = 100_000
N_FLOWS_SMOKE = 1_000_000

def test_hybrid_speedup_100k_flows():
    """The acceptance case: 100k flows, pure vs hybrid, ≥10× end-to-end."""
    hyb = run_scale(mode="hybrid", n_flows=N_FLOWS_ACCEPTANCE, measure_s=0.4)
    pure = run_scale(mode="pure", n_flows=N_FLOWS_ACCEPTANCE, measure_s=0.4)
    speedup = pure["wall_s"] / hyb["wall_s"]
    record("hybrid", "e2_100k_flows", {
        "n_flows": N_FLOWS_ACCEPTANCE,
        "offered_bps": N_FLOWS_ACCEPTANCE * FLOW_RATE_BPS,
        "pure_wall_s": pure["wall_s"],
        "hybrid_wall_s": hyb["wall_s"],
        "speedup": speedup,
        "min_required": MIN_HYBRID_SPEEDUP,
        "pure_delivered_pkts": pure["delivered_pkts"],
        "hybrid_delivered_pkts": hyb["delivered_pkts"],
    })
    # Both modes must actually deliver the offered load — a speedup that
    # drops traffic on the floor is not a speedup.
    assert pure["delivered_pkts"] == pure["offered_pkts"]
    assert hyb["delivered_pkts"] == hyb["offered_pkts"]
    assert hyb["delivered_pkts"] == pytest.approx(
        pure["delivered_pkts"], rel=0.01
    )
    require_floor(speedup, MIN_HYBRID_SPEEDUP, (
        f"hybrid speedup {speedup:.1f}x < {MIN_HYBRID_SPEEDUP}x at "
        f"{N_FLOWS_ACCEPTANCE} flows (pure {pure['wall_s']:.2f} s vs "
        f"hybrid {hyb['wall_s']:.2f} s)"
    ))


def test_million_flow_smoke_hybrid_only():
    """1M flows / 8 Gb/s offered: completes in seconds on the fluid plane.

    Pure-packet mode is structurally unable to run this point in CI
    (≥2M packet emissions through a 4-hop pipeline plus 1M source
    objects); the recorded wall clock documents what the hybrid plane
    buys.  The line rate is below the aggregate load's headroom
    requirement only on the fattened topology run_scale builds for it —
    here we keep flows fluid end to end and verify the integral.
    """
    t0 = perf_counter()
    res = run_scale(
        mode="hybrid", n_flows=N_FLOWS_SMOKE, n_aggregates=20, measure_s=0.2
    )
    wall = perf_counter() - t0
    record("hybrid", "million_flow_smoke", {
        "n_flows": N_FLOWS_SMOKE,
        "n_aggregates": 20,
        "offered_bps": N_FLOWS_SMOKE * FLOW_RATE_BPS,
        "wall_s": wall,
        "delivered_pkts": res["delivered_pkts"],
        "pure_packet_feasible": False,
    })
    assert res["delivered_pkts"] > 0
    assert res["delivered_pkts"] == res["offered_pkts"]
    # Seconds, not minutes: the point of the exercise.
    assert wall < 120.0
