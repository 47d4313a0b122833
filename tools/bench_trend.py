#!/usr/bin/env python3
"""Benchmark trend gate: diff fresh BENCH_*.json against committed baselines.

The perf suites under ``benchmarks/`` write machine-readable result files
(``BENCH_forwarding.json``, ``BENCH_engine.json``, ...) to the repo
root.  Each section carries the measured ratio *and* the floor the suite
asserted against, so a committed copy in ``benchmarks/baselines/``
doubles as the trend baseline: for every baseline this tool reloads the
fresh file of the same name from the current directory, prints the
per-section delta, and fails when a freshly measured ratio dropped below
its recorded floor — the same contract the suites enforce locally,
replayed against the committed history so a silent floor edit or a
stale baseline shows up in review.  A baseline whose fresh file is
absent is reported ``MISSING`` and fails like a floor regression.

Usage (from the repo root, after the suites ran)::

    python tools/bench_trend.py [--baseline-dir benchmarks/baselines]
                                [--out bench-trend.txt] [--nonblocking]

Rules, per section of each fresh file:

* the measured value is the first key present among ``speedup``,
  ``on_over_off``, ``scaling`` (all "higher is better");
* the floor is ``floor`` or ``min_required``; a section carrying
  ``"floor_enforced": false`` (e.g. single-core sweep scaling) is
  reported but never fails the gate;
* fresh value < floor ⇒ FLOOR regression (blocking);
* fresh value < baseline value ⇒ the delta is reported as a drift
  warning only — run-to-run noise on shared runners is expected, the
  floor is the contract;
* sections without a ratio key (raw timings like ``smoke_grid``) are
  listed for the record;
* the exact counts of the sections in ``EXACT_ROWS`` (``bgp_churn_storms``:
  per storm ``events``, ``updates``, ``imported``, ``removed``,
  ``withdrawn``) must equal the baseline's.  They are deterministic, so a
  difference is a change of results, not noise.

``--nonblocking`` or ``BENCH_PERF_NONBLOCKING=1`` in the environment
downgrades every floor failure to a report line with exit status 0,
matching the perf suites' behaviour on shared CI runners (any other
value of the variable is strict there too).  An exact-count
mismatch still fails: counts carry no noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

_RATIO_KEYS = ("speedup", "on_over_off", "scaling")

# section -> (row id key, exact count keys)
EXACT_ROWS = {
    "bgp_churn_storms": ("storm", ("events", "updates", "imported", "removed", "withdrawn")),
}


def _ratio(section: dict) -> tuple[str, float] | None:
    for key in _RATIO_KEYS:
        value = section.get(key)
        if isinstance(value, (int, float)):
            return key, float(value)
    return None


def _floor(section: dict) -> float | None:
    for key in ("floor", "min_required"):
        value = section.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def exact_mismatches(name: str, section: dict, base_section: dict) -> list[str]:
    """Rows of ``section`` whose exact counts differ from the baseline's."""
    id_key, keys = EXACT_ROWS[name]
    fresh_rows = {r.get(id_key): r for r in section.get("rows", [])}
    out: list[str] = []
    for base_row in base_section.get("rows", []):
        row_id = base_row.get(id_key)
        row = fresh_rows.get(row_id)
        if row is None:
            out.append(f"{name}[{row_id}]: row missing")
            continue
        for key in keys:
            if row.get(key) != base_row.get(key):
                out.append(f"{name}[{row_id}].{key}: {row.get(key)!r} != "
                           f"baseline {base_row.get(key)!r}")
    return out


def diff_file(
    fresh_path: Path, baseline_path: Path, lines: list[str]
) -> tuple[list[str], list[str]]:
    """Compare one fresh result file against its baseline.

    Appends human-readable rows to ``lines``; returns the floor
    regressions and the exact-count mismatches (both empty when the
    gate passes).
    """
    regressions: list[str] = []
    mismatches: list[str] = []
    fresh = json.loads(fresh_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    lines.append(f"== {fresh_path.name} ==")
    for name in sorted(fresh):
        section = fresh[name]
        if not isinstance(section, dict):
            continue
        base_section = baseline.get(name, {})
        if name in EXACT_ROWS and isinstance(base_section, dict) and base_section:
            wrong = [f"{fresh_path.name}:{m}"
                     for m in exact_mismatches(name, section, base_section)]
            mismatches.extend(wrong)
            lines.append(f"  {name}: exact counts "
                         f"{'MISMATCH' if wrong else 'equal to baseline'}")
        found = _ratio(section)
        if found is None:
            lines.append(f"  {name}: (no ratio metric — recorded only)")
            continue
        key, value = found
        floor = _floor(section)
        enforced = section.get("floor_enforced", True) is not False
        base_value = None
        if isinstance(base_section, dict):
            base = _ratio(base_section)
            if base is not None and base[0] == key:
                base_value = base[1]

        status = "ok"
        if floor is not None and value < floor and enforced:
            status = "FLOOR-REGRESSION"
            regressions.append(
                f"{fresh_path.name}:{name}: {key}={value:.3f} "
                f"below floor {floor:.3f}"
            )
        elif floor is not None and value < floor:
            status = "below-floor (not enforced)"
        elif base_value is not None and value < base_value:
            status = f"drift ({100 * (value / base_value - 1):+.1f}% vs baseline)"

        base_txt = f"{base_value:.3f}" if base_value is not None else "—"
        floor_txt = f"{floor:.3f}" if floor is not None else "—"
        lines.append(
            f"  {name}: {key}={value:.3f}  baseline={base_txt}  "
            f"floor={floor_txt}  [{status}]"
        )
    return regressions, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path("benchmarks/baselines"),
                        help="directory holding the committed baselines")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the report to this file")
    parser.add_argument("--nonblocking", action="store_true",
                        help="report regressions but exit 0 "
                             "(implied by BENCH_PERF_NONBLOCKING=1)")
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        parser.error(f"no BENCH_*.json baselines in {args.baseline_dir}")
    nonblocking = args.nonblocking or os.environ.get("BENCH_PERF_NONBLOCKING") == "1"

    lines: list[str] = []
    regressions: list[str] = []
    mismatches: list[str] = []
    missing: list[str] = []
    for baseline_path in baselines:
        fresh_path = Path(baseline_path.name)
        if not fresh_path.is_file():
            missing.append(str(fresh_path))
            lines.append(f"{fresh_path}: MISSING (benchmark suite not run?)")
            continue
        floors, exact = diff_file(fresh_path, baseline_path, lines)
        regressions.extend(floors)
        mismatches.extend(exact)

    if regressions:
        lines.append("")
        lines.append(f"{len(regressions)} floor regression(s):")
        lines.extend(f"  - {r}" for r in regressions)
    else:
        lines.append("")
        lines.append("no floor regressions")
    if mismatches:
        lines.append(f"{len(mismatches)} exact-count mismatch(es) (blocking):")
        lines.extend(f"  - {m}" for m in mismatches)

    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out is not None:
        args.out.write_text(report)

    if mismatches:
        return 1
    failed = bool(regressions or missing)
    if failed and nonblocking:
        sys.stdout.write("BENCH_PERF_NONBLOCKING: regressions reported, "
                         "exit 0\n")
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
