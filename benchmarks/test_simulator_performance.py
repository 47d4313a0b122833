"""Simulator performance: events/second and packets/second.

Not a paper experiment — a regression guard for the library itself.  The
hpc-parallel guidance is measure-first: these benches make the kernel's
hot loop visible so a future "improvement" that slows packet forwarding
by 2x gets caught in CI.

Besides the pytest-benchmark table, the two tests write their headline
numbers (pkts/sec, events/sec, per-hop µs, speedup vs the pre-pipeline
baseline) to ``BENCH_forwarding.json`` at the repo root, which CI uploads
as a workflow artifact so forwarding throughput is tracked across runs.
"""

from harness import record
from repro.routing.spf import converge
from repro.sim.engine import Simulator
from repro.topology import Network, attach_host, build_line
from repro.traffic.generators import CbrSource
from repro.traffic.sink import FlowSink

# Mean wall-clock of test_packet_forwarding_throughput on the commit before
# the unified ForwardingPipeline (per-hop closures, no flow/label caches),
# measured on the CI reference machine.  Kept so the emitted speedup keeps
# meaning as the pipeline evolves.
PRE_PIPELINE_FORWARDING_MEAN_S = 1.825


def _mean_s(benchmark) -> float | None:
    """Mean wall-clock, or None under ``--benchmark-disable`` (the sharded
    CI pass runs benchmarks as plain tests with no timing machinery)."""
    try:
        return benchmark.stats.stats.mean
    except (AttributeError, TypeError):
        return None


def test_kernel_event_throughput(benchmark):
    """Pure scheduler churn: schedule + fire 50k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    events = benchmark(run)
    assert events == 50_000
    mean_s = _mean_s(benchmark)
    if mean_s is not None:
        record("forwarding", "kernel", {
            "events": events,
            "mean_s": mean_s,
            "events_per_sec": events / mean_s,
        })


def test_packet_forwarding_throughput(benchmark):
    """End-to-end: ~20k packets across a 5-hop routed path."""

    def run():
        net = Network(seed=3)
        routers = build_line(net, 5, rate_bps=1e9)
        tx = attach_host(net, routers[0], "10.200.0.1", name="tx", rate_bps=1e9)
        rx = attach_host(net, routers[4], "10.200.0.2", name="rx", rate_bps=1e9)
        converge(net)
        sink = FlowSink(net.sim).attach(rx)
        src = CbrSource(net.sim, tx.send, "perf", "10.200.0.1", "10.200.0.2",
                        payload_bytes=1000, rate_bps=163.2e6)  # ~20k pps for 1s
        src.start(0.0, stop_at=1.0)
        net.run(until=1.2)
        return sink.received("perf")

    received = benchmark(run)
    assert received > 15_000
    mean_s = _mean_s(benchmark)
    hops = 7  # tx + 5 routers + rx handle the packet once each
    if mean_s is not None:
        record("forwarding", "forwarding", {
            "packets": received,
            "hops_per_packet": hops,
            "mean_s": mean_s,
            "pkts_per_sec": received / mean_s,
            "per_hop_us": mean_s / (received * hops) * 1e6,
            "pre_pipeline_mean_s": PRE_PIPELINE_FORWARDING_MEAN_S,
            "speedup_vs_pre_pipeline": PRE_PIPELINE_FORWARDING_MEAN_S / mean_s,
        })
