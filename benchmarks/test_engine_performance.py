"""Event-engine fast-path benchmarks.

Self-calibrating like ``test_control_plane_performance.py``: each
benchmark times the *reference* stack (``repro.sim.reference`` — the
pre-fast-path engine plus the pre-PR interface driver, packet
allocation, and unconditional queue counters, all frozen verbatim) and
the current fast path in the same process, so the asserted speedups hold
on any machine.  Event-ordering parity between the two is held
separately by ``tests/test_engine_parity.py``; here we only check the
clock.

Headline numbers land in ``BENCH_engine.json`` at the repo root (CI
uploads it as a workflow artifact):

* end-to-end wall clock of a full experiment scenario (E12a elastic
  traffic with RED AQM, and the E2 MPLS DiffServ config) — target ≥2×,
* the telemetry off-path: per-packet counters on vs off, asserting the
  switch actually removes work,
* sweep scaling: the same grid at 1 vs 4 workers.  The ≥3× scaling
  floor only *can* hold with ≥4 usable cores, so it is enforced
  core-aware: on smaller boxes (or under BENCH_PERF_NONBLOCKING=1) the
  measured factor is still recorded but a miss downgrades to xfail.

Timings use ``time.perf_counter`` (best of interleaved rounds), so the
file runs unchanged under ``--benchmark-disable``.
"""

from time import perf_counter

from harness import best_of_pair, record, require_floor, usable_cpus
from repro.obs import runtime
from repro.sim.reference import reference_stack
from repro.sweep import run_sweep, smoke_grid
from repro.sweep.grids import e1_grid

# ISSUE 4 acceptance: ≥2× end-to-end on at least one full experiment
# scenario (single process), ≥3× sweep scaling at 4 workers.  The e12a
# measurement runs 2.12-2.36× standalone against the frozen reference
# stack, all of it on the scalar per-packet path (E12a never forms a
# same-timestamp burst); under full-suite contention on a loaded
# single-core box it dips to ~2.09×, so the enforced floor stays at
# 2.1× — the margin is headroom for shared runners, not doubt about the
# speedup.
MIN_E2E_SPEEDUP = 2.0
MIN_E12A_SPEEDUP = 2.1
MIN_SWEEP_SCALING = 3.0
SWEEP_WORKERS = 4

def _e2e_case(section: str, run_once, floor: float = MIN_E2E_SPEEDUP) -> None:
    """Whole experiment, fast path (counters off, as a sweep runs it)
    vs the frozen reference stack."""

    def run_new():
        runtime.set_packet_counters(False)
        try:
            run_once()
        finally:
            runtime.set_packet_counters(True)

    def run_ref():
        with reference_stack():
            run_once()

    t_new, t_ref = best_of_pair(run_new, run_ref, rounds=4)
    speedup = t_ref / t_new
    record("engine", section, {
        "new_s": t_new,
        "reference_s": t_ref,
        "speedup": speedup,
        "min_required": floor,
    })
    require_floor(speedup, floor, (
        f"{section} end-to-end speedup {speedup:.2f}x < {floor}x "
        f"(new {t_new:.3f} s vs reference {t_ref:.3f} s)"
    ))


def test_e2e_elastic_aqm_speedup():
    """E12a — elastic TCP-like traffic through RED AQM.  The heaviest
    packet-churn scenario in the suite: the acceptance case.  SLO and
    span tracing stay at their default (off), so the same floor bounds
    the disabled-mode cost of the observability hooks."""
    from repro.experiments.e12_elastic import run_e12a_aqm

    _e2e_case("e2e_e12a_aqm", lambda: run_e12a_aqm(),
              floor=MIN_E12A_SPEEDUP)


def test_e2e_mpls_diffserv_speedup():
    """E2 (mpls-diffserv) — the headline QoS configuration."""
    from repro.experiments.e2_qos import run_config

    _e2e_case(
        "e2e_e2_mpls_diffserv",
        lambda: run_config("mpls-diffserv", measure_s=4.0),
    )


def test_counters_switch_is_off_path():
    """Satellite (b): per-packet ClassStats/drop hooks cost nothing when
    switched off.  Micro-floor: counters-off must not be slower."""
    from repro.experiments.e2_qos import run_config

    def run_off():
        runtime.set_packet_counters(False)
        try:
            run_config("mpls-diffserv", measure_s=4.0)
        finally:
            runtime.set_packet_counters(True)

    def run_on():
        run_config("mpls-diffserv", measure_s=4.0)

    t_off, t_on = best_of_pair(run_off, run_on, rounds=4)
    ratio = t_on / t_off
    record("engine", "counters_off_path", {
        "counters_on_s": t_on,
        "counters_off_s": t_off,
        "on_over_off": ratio,
        "min_required": 0.97,
    })
    # Equality would already prove the guard free; in practice skipping
    # the bookkeeping wins a few percent.  3% tolerance for clock noise.
    require_floor(ratio, 0.97, (
        f"counters-off path slower than counters-on: {ratio:.3f}x "
        f"(off {t_off:.3f} s vs on {t_on:.3f} s)"
    ))


def test_sweep_scaling_four_workers():
    """Sweep throughput at 4 workers vs 1 over the E1 grid.

    The ≥3× floor needs ≥4 usable cores; with fewer, parallel workers
    time-slice one CPU and no scheduler can deliver 3×.  The factor is
    measured and recorded regardless, but the floor is enforced
    core-aware (soft on small boxes)."""
    cores = usable_cpus()
    # The paper's §2.1 scaling grid: overlay vs MPLS provisioning at
    # four site counts — 8 independent, seconds-scale tasks.
    grid = e1_grid(sites=(10, 50, 100, 200), reps=1)

    t0 = perf_counter()
    solo = run_sweep(grid, workers=1)
    t_solo = perf_counter() - t0
    t0 = perf_counter()
    multi = run_sweep(grid, workers=SWEEP_WORKERS)
    t_multi = perf_counter() - t0

    assert solo["rows"] == multi["rows"]  # scaling must not cost determinism
    scaling = t_solo / t_multi
    record("engine", "sweep_scaling", {
        "tasks": len(grid),
        "workers": SWEEP_WORKERS,
        "cores_available": cores,
        "one_worker_s": t_solo,
        "four_worker_s": t_multi,
        "scaling": scaling,
        "min_required": MIN_SWEEP_SCALING,
        "floor_enforced": cores >= SWEEP_WORKERS,
    })
    require_floor(scaling, MIN_SWEEP_SCALING, (
        f"sweep scaling {scaling:.2f}x < {MIN_SWEEP_SCALING}x at "
        f"{SWEEP_WORKERS} workers ({cores} core(s) available)"
    ), soft=cores < SWEEP_WORKERS)


def test_smoke_grid_stays_fast():
    """The CI smoke sweep must stay seconds-scale."""
    t0 = perf_counter()
    report = run_sweep(smoke_grid(), workers=2)
    wall = perf_counter() - t0
    assert not report["failed"]
    record("engine", "smoke_grid", {"tasks": report["tasks"], "wall_s": wall})
    assert wall < 60.0
