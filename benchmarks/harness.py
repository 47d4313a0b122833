"""Shared plumbing for the perf-floor suites (``test_*_performance.py``).

Each suite times the current code against a frozen reference (or a
fixed recorded figure), records the numbers with :func:`record`, and
asserts its floors through :func:`require_floor`.

* ``BENCH_PERF_NONBLOCKING=1`` (set in CI) downgrades a missed floor to
  xfail: on shared runners a GC pause or a noisy neighbour inside either
  timing window can sink a ratio no matter how the rounds are arranged.
  The numbers are still measured and recorded; local runs stay strict.
* :func:`record` merges one section into ``BENCH_<name>.json`` at the
  repo root, stamped with the commit, interpreter and usable CPU count.
  ``tools/bench_trend.py`` diffs those files against the committed
  copies in ``benchmarks/baselines/``.

Timings use ``time.perf_counter`` directly, not pytest-benchmark stats,
so the suites run unchanged under ``--benchmark-disable``.
"""

import json
import os
import platform
from pathlib import Path
from time import perf_counter

import pytest

from repro.obs.telemetry import _git_rev

ROOT = Path(__file__).resolve().parent.parent

SOFT_FLOORS = os.environ.get("BENCH_PERF_NONBLOCKING") == "1"


def usable_cpus() -> int:
    """CPUs this process may run on (affinity-aware where the OS says)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def require_floor(value: float, floor: float, msg: str, soft: bool = False) -> None:
    """Fail unless ``value >= floor``; xfail instead when soft."""
    if value >= floor:
        return
    if SOFT_FLOORS or soft:
        pytest.xfail(msg)
    pytest.fail(msg)


def record(name: str, section: str, payload: dict) -> None:
    """Merge one benchmark's results into ``BENCH_<name>.json``."""
    path = ROOT / f"BENCH_{name}.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data[section] = {
        **payload,
        "provenance": {
            "commit": _git_rev(),
            "python": platform.python_version(),
            "cpus": usable_cpus(),
        },
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def best_of_pair(fn_new, fn_ref, rounds: int) -> tuple[float, float]:
    """Best-of-``rounds`` wall clock for both sides.

    Rounds are interleaved and the within-round order alternates, so slow
    drift (thermal throttling, background load) lands on both
    implementations instead of biasing whichever side happened to run in
    the noisy window.
    """
    best_new = best_ref = float("inf")
    for i in range(rounds):
        order = (fn_new, fn_ref) if i % 2 == 0 else (fn_ref, fn_new)
        for fn in order:
            t0 = perf_counter()
            fn()
            dt = perf_counter() - t0
            if fn is fn_new:
                best_new = min(best_new, dt)
            else:
                best_ref = min(best_ref, dt)
    return best_new, best_ref
