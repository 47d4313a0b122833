"""Repository benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload vpn-sla-packet --seed 0 --seconds 30 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first times untraced units, then installs the span tracer
(``tracer.py``) and times traced units, and reports the per-layer metrics
plus ``trace.overhead_ratio``.  Workload definitions, and why each was
chosen, are in ``workloads.py``.

Every time the benchmark reports (``setup_s``, ``wall_s``, ``ops_per_s``,
the churn latencies, the per-layer self times) is in *normalized seconds*:
the measured time scaled by a host-speed reference kernel timed right
before and after the sample (``hostref.py``), because the shared host's
speed drifts by up to 2x between runs.  Raw seconds and the factors are on
the ``REPORT`` line (``raw_seconds``).  ``peak_rss_mb`` is the process's
peak resident set less the kernel's fixed buffer (``peak_rss`` on the
``REPORT`` line has both).

Every unit's output is checked: the digest of its canonical rows and exact
counters must repeat within the run (and, traced, equal the untraced one),
must equal the recorded digest for the default seed, and the end-of-run
invariants must hold for every seed.  The last stdout line is the result
object; the line before it (``REPORT …``) carries provenance, quartiles
and the per-workload metrics.  A failed check exits 1; a checkout without
the simulator sources exits 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
UNTRACED_SHARE = 0.35   # share of --seconds a traced run spends untraced


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _provenance(args: argparse.Namespace) -> dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Checks:
    """Counts attempted/failed operations and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool = True, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def ops(self, attempted: int, errors: list[str]) -> None:
        """``attempted`` operations, of which those in ``errors`` raised."""
        self.attempted += attempted
        self.failed += len(errors)
        self.problems += errors

    def check(self, problems: list[str], what: str) -> None:
        self.op(not problems, f"{what}: {problems[:5]}")


def _run_units(workload: Any, seconds: float, checks: Checks,
               tracer: Any = None) -> tuple[list[Any], list[float]]:
    """Time units until ``seconds`` have passed, but at least
    ``workload.min_units``.

    Before each unit the workload's set-up runs ``setup_reps`` times, each
    timed, so set-up samples span the same stretch of the run as the units.
    The host-speed kernel (``hostref``) runs before the set-ups, between
    them and the unit, and after the unit; each set-up time is normalized
    by the kernel runs around the set-ups, and the unit's factor
    (``extra["norm"]``) comes from the kernel runs around it unless the
    unit has normalized itself (churn blocks do, segment by segment).
    Returns the units and the normalized and raw set-up times.
    Packet units are checked as they finish; the churn check rebuilds VRF
    state from scratch, so it runs once, on the last unit's base.  Every
    unit is then sealed (counters kept, networks released).  A set-up or
    unit that raises is a failed operation and ends the loop; the run
    still reports what it measured.  Traced, unit ``i`` gets run id ``2i + 1`` and the
    set-ups before it run id ``2i``.
    """
    units: list[Any] = []
    setup_times: list[float] = []
    setup_raw: list[float] = []
    t_end = perf_counter() + seconds
    ref = hostref.kernel_seconds()
    while len(units) < workload.min_units or perf_counter() < t_end:
        if tracer is not None:
            tracer.reset()   # keep only the last unit's spans in memory
            tracer.run = 2 * len(units)
        try:
            raw = []
            for _ in range(workload.setup_reps):
                workload.release()
                gc.collect()
                t0 = perf_counter()
                workload.setup()
                raw.append(perf_counter() - t0)
            if tracer is not None:
                tracer.run = 2 * len(units) + 1
            gc.collect()
            ref_setup, ref = ref, hostref.kernel_seconds()
            setup_raw += raw
            setup_times += [t * hostref.factor(ref_setup, ref) for t in raw]
            unit = workload.unit()
            ref_unit, ref = ref, hostref.kernel_seconds()
            unit.extra.setdefault("norm", hostref.factor(ref_unit, ref))
            checks.ops(unit.ops, unit.errors)
            if tracer is not None:   # before the checks, which call traced code
                i = len(units)
                unit.extra["trace"] = {"ops": tracer.summarize([2 * i + 1]),
                                       "all": tracer.summarize([2 * i, 2 * i + 1])}
            if workload.packet:
                checks.check(workload.problems(unit), f"unit {len(units)} invariants")
        except Exception as exc:
            checks.op(False, f"unit {len(units)} raised {exc!r}")
            traceback.print_exc()
            break
        workload.seal(unit)
        units.append(unit)
    return units, setup_times, setup_raw


def _end_of_run(checks: Checks, workload: Any, unit: Any) -> None:
    try:
        checks.check(workload.problems(unit), "end-of-run invariants")
    except Exception as exc:
        checks.op(False, f"end-of-run invariants raised {exc!r}")
        traceback.print_exc()


def _check_digests(checks: Checks, recorded: str, seed: int, digests: list[str]) -> None:
    checks.op(len(set(digests)) == 1, f"digests differ within the run: {sorted(set(digests))}")
    if seed == 0:
        checks.op(digests[0] == recorded,
                  f"digest {digests[0]} != recorded {recorded} for the default seed")


def _per_layer(c: dict[str, Any], summary: dict[str, Any], updates_per_op: float,
               emitted: int, elastic: tuple[int, int], cache_ratio: float,
               overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced unit: ``c`` are its exact
    counters, ``summary`` the tracer's view of its spans."""
    layer_s, key_s = summary["self_s"], summary["key_self_s"]
    calls, rets = summary["calls"], summary["returns"]
    cp = c["control_plane"]
    hops = c["hops"]

    def t(*keys: str) -> float:
        return sum(key_s.get(k, 0.0) for k in keys)

    return {
        "engine.events": (c["events"], "count"),
        "engine.events_per_hop": (c["events"] / hops if hops else 0.0, "ratio"),
        "engine.self_s": (layer_s.get("engine", 0.0), "s"),
        "link.send_calls": (calls.get("link.send", 0), "count"),
        "link.tx_packets": (hops, "count"),
        "link.self_s": (layer_s.get("link", 0.0), "s"),
        "link.drops": (c["queue_drops"] + c["conditioner_drops"], "count"),
        "node.receive_calls": (calls.get("node.receive", 0), "count"),
        "node.self_s": (layer_s.get("node", 0.0), "s"),
        "node.drops": (c["node_drops"], "count"),
        "qdisc.enqueue_calls": (calls.get("qdisc.enqueue", 0), "count"),
        "qdisc.dequeue_calls": (calls.get("qdisc.dequeue", 0), "count"),
        "qdisc.self_s": (layer_s.get("qdisc", 0.0), "s"),
        "qdisc.drops": (c["queue_drops"], "count"),
        "qdisc.conditioner_drops": (c["conditioner_drops"], "count"),
        "pipeline.ingress_calls": (calls.get("pipeline.ingress", 0), "count"),
        "pipeline.ingress_batch_calls": (calls.get("pipeline.ingress_batch", 0), "count"),
        "pipeline.self_s": (layer_s.get("pipeline", 0.0), "s"),
        "pipeline.cache_hit_ratio": (cache_ratio, "ratio"),
        "traffic.emitted": (emitted, "count"),
        "traffic.self_s": (layer_s.get("traffic", 0.0), "s"),
        "sink.deliveries": (c["delivered"], "count"),
        "sink.self_s": (layer_s.get("sink", 0.0), "s"),
        "elastic.retransmits": (elastic[0], "count"),
        "elastic.timeouts": (elastic[1], "count"),
        "spf.converge_s": (t("spf.converge"), "s"),
        "spf.reconverge_calls": (calls.get("spf.reconverge", 0), "count"),
        "spf.reconverge_s": (t("spf.reconverge"), "s"),
        "spf.installs": (rets.get("spf.converge", 0) + rets.get("spf.reconverge", 0), "count"),
        "ldp.run_s": (layer_s.get("ldp", 0.0), "s"),
        "ldp.mapping_msgs": (cp.get("ldp.mapping_msgs", 0), "count"),
        "bgp.converge_s": (t("bgp.converge"), "s"),
        "bgp.export_delta_s": (t("bgp.export_delta"), "s"),
        "bgp.withdraw_s": (t("bgp.withdraw"), "s"),
        "bgp.peer_s": (t("bgp.peer_down", "bgp.peer_up"), "s"),
        "bgp.updates": (cp.get("bgp.updates", 0), "count"),
        "bgp.updates_per_op": (updates_per_op, "ratio"),
        "bgp.routes_imported": (cp.get("bgp.routes_imported", 0), "count"),
        "bgp.routes_removed": (cp.get("bgp.routes_removed", 0), "count"),
        "vrf.install_s": (layer_s.get("vrf", 0.0), "s"),
        "vrf.routes_installed": (rets.get("vrf.add_remote_many", 0)
                                 + calls.get("vrf.add_remote", 0), "count"),
        "provision.add_site_s": (t("provision.add_site"), "s"),
        "provision.remove_site_s": (t("provision.remove_site"), "s"),
        "provision.vpn_s": (t("provision.create_vpn", "provision.remove_vpn"), "s"),
        "provision.drain_s": (t("provision.drain_pe", "provision.restore_pe"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


BGP_OPS = ("bgp.converge", "bgp.export_delta", "bgp.withdraw", "bgp.peer_down", "bgp.peer_up")


def _bgp_calls(summary: dict[str, Any]) -> int:
    return sum(summary["calls"].get(k, 0) for k in BGP_OPS)


def _measure(args: argparse.Namespace, w: Any, workload: Any, checks: Checks,
             report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """End-to-end metrics, tracing off."""
    units, setup_times, setup_raw = _run_units(workload, args.seconds, checks)
    if not units:
        return {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["peak_rss"] = {"process_mb": peak_rss_mb, "reference_buffer_mb": hostref.BUFFER_MB}
    peak_rss_mb -= hostref.BUFFER_MB
    if not workload.packet:
        _end_of_run(checks, workload, units[-1])
    _check_digests(checks, w.RECORDED_DIGESTS[args.workload], args.seed,
                   [u.digest for u in units])
    walls = [u.seconds * u.extra["norm"] for u in units]
    rates = [u.work / wall for u, wall in zip(units, walls)]
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if workload.packet:
        named = {"pkt_hops_per_s": dict(metrics["ops_per_s"])}
    else:
        lat = sorted(x for u in units for x in u.extra["latencies"])
        p99 = statistics.quantiles(lat, n=100, method="inclusive")[98]
        named = {
            "churn_ops_per_s": dict(metrics["ops_per_s"]),
            "churn_op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms",
                                "samples": len(lat)},
            "churn_op_p99_ms": {"value": 1e3 * p99, "unit": "ms", "samples": len(lat),
                                "samples_beyond": sum(1 for x in lat if x > p99)},
        }
    report["series"] = {"setup_s": _quartiles(setup_times), "wall_s": _quartiles(walls),
                        "ops_per_s": _quartiles(rates)}
    report["raw_seconds"] = {"setup_s": _quartiles(setup_raw),
                             "wall_s": _quartiles([u.seconds for u in units]),
                             "norm": _quartiles([u.extra["norm"] for u in units])}
    report["repetitions"] = {"setups": len(setup_times), "units": len(units)}
    report["named_metrics"] = named
    counters = units[0].extra["counters"]
    report["exact"] = {k: counters[k] for k in
                       ("events", "hops", "drops_by_reason", "control_plane")}
    return metrics


def _measure_traced(args: argparse.Namespace, w: Any, workload: Any, checks: Checks,
                    report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Per-layer metrics: untraced units, then the same units traced."""
    from tracer import Tracer

    untraced_budget = args.seconds * UNTRACED_SHARE
    plain, _, _ = _run_units(workload, untraced_budget, checks)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _ = _run_units(workload, args.seconds - untraced_budget, checks, tracer)
    finally:
        tracer.uninstall()
    if not plain or not traced:
        return {}
    _check_digests(checks, w.RECORDED_DIGESTS[args.workload], args.seed,
                   [u.digest for u in plain + traced])
    overhead = (statistics.median(u.seconds * u.extra["norm"] for u in traced)
                / statistics.median(u.seconds * u.extra["norm"] for u in plain))
    per_unit = []
    for unit in traced:
        ops = unit.extra["trace"]["ops"]
        c = unit.extra["counters"]
        if workload.packet:
            updates = c["control_plane"].get("bgp.updates", 0)
            spans = ops
        else:
            # Base build and block together; UPDATEs per op from the block.
            updates = sum(r[2].get("bgp.updates", 0) for r in unit.extra["records"])
            spans = unit.extra["trace"]["all"]
        layers = _per_layer(
            c, spans, updates / max(_bgp_calls(ops), 1), unit.extra["emitted"],
            unit.extra["elastic"], unit.extra["cache_ratio"], overhead)
        per_unit.append({name: (value * unit.extra["norm"] if u == "s" else value, u)
                         for name, (value, u) in layers.items()})
    if not workload.packet:
        _end_of_run(checks, workload, traced[-1])
    metrics = {}
    for name, (value, unit_name) in per_unit[0].items():
        if unit_name == "s":   # times vary between units; counts must not
            value = statistics.median(p[name][0] for p in per_unit)
        else:
            checks.op(all(p[name][0] == value for p in per_unit), f"{name} varies between units")
        metrics[name] = {"value": value, "unit": unit_name}
    report["repetitions"] = {"untraced_units": len(plain), "traced_units": len(traced)}
    report["spans_per_unit"] = [u.extra["trace"]["all"]["spans"] for u in traced]
    tracer.write(OUT / f"spans-{args.workload}.npz")
    return metrics


def run(args: argparse.Namespace, w: Any) -> int:
    workload = w.WORKLOADS[args.workload](args.seed)
    checks = Checks()
    report: dict[str, Any] = {"workload": args.workload, "provenance": _provenance(args)}
    measure = _measure_traced if args.trace else _measure
    metrics = measure(args, w, workload, checks, report)

    report["attempted"] = checks.attempted
    report["failed"] = checks.failed
    report["failed_ratio"] = checks.failed / checks.attempted
    report["problems"] = checks.problems
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**report, "result": result}, indent=1, sort_keys=True))
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        return run(args, workloads)
    except Exception:  # a fault of the runner itself, reported loudly
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
