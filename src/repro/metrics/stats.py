"""Per-flow statistics: delay distribution, jitter, loss, throughput.

Delay percentiles come straight from the raw sample arrays (NumPy);
jitter is reported two ways — RFC 3550's smoothed interarrival jitter
estimator (what a VoIP endpoint computes) and the delay standard
deviation (what queueing analysis predicts).  Loss is sent-vs-received
against the generator's count, so drops anywhere along the path are
charged to the flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.generators import TrafficSource
from repro.traffic.sink import FlowRecord, FlowSink

__all__ = [
    "FlowStats",
    "delay_percentile",
    "rfc3550_jitter",
    "summarize_flow",
    "summarize_hybrid_flow",
]


def delay_percentile(samples: np.ndarray | list[float], q: float) -> float:
    """``np.percentile`` with the package's NaN contract.

    Empty sample sets and out-of-range ``q`` return NaN instead of
    raising — an unanswerable question about a measurement is data (the
    SLA evaluator treats NaN as non-conformant on bounded metrics), not
    an exception.  A single sample is its own percentile at any valid
    ``q``, which NumPy already handles.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0 or not 0.0 <= q <= 100.0:
        return float("nan")
    return float(np.percentile(arr, q))


def rfc3550_jitter(send_times: np.ndarray, arrival_times: np.ndarray) -> float:
    """RFC 3550 §6.4.1 interarrival jitter (final smoothed value, seconds).

    J ← J + (|D(i-1, i)| − J)/16 where D is the difference of transit
    times of consecutive packets.
    """
    if len(send_times) < 2:
        return 0.0
    transit = arrival_times - send_times
    d = np.abs(np.diff(transit))
    j = 0.0
    for di in d:
        j += (di - j) / 16.0
    return float(j)


@dataclass(frozen=True, slots=True)
class FlowStats:
    """Summary of one flow over one run."""

    flow: str
    sent: int
    received: int
    mean_delay_s: float
    p50_delay_s: float
    p95_delay_s: float
    p99_delay_s: float
    max_delay_s: float
    jitter_rfc3550_s: float
    delay_std_s: float
    loss_ratio: float
    throughput_bps: float
    duration_s: float

    @property
    def delivered_ratio(self) -> float:
        return 1.0 - self.loss_ratio

    def row(self) -> dict[str, float | str | int]:
        """Flat dict for table rendering."""
        return {
            "flow": self.flow,
            "sent": self.sent,
            "recv": self.received,
            "loss%": round(100 * self.loss_ratio, 3),
            "mean_ms": round(1e3 * self.mean_delay_s, 3),
            "p95_ms": round(1e3 * self.p95_delay_s, 3),
            "p99_ms": round(1e3 * self.p99_delay_s, 3),
            "jitter_ms": round(1e3 * self.jitter_rfc3550_s, 3),
            "thru_kbps": round(self.throughput_bps / 1e3, 1),
        }


def summarize_flow(
    source: TrafficSource,
    sink: FlowSink,
    duration_s: float | None = None,
) -> FlowStats:
    """Combine a generator's send counters with a sink's arrival log.

    ``duration_s`` bounds the throughput denominator; defaults to the span
    from first to last arrival (or 0 → throughput 0).
    """
    rec: FlowRecord = sink.record(source.flow)
    delays = rec.delays_array()
    arrivals = rec.arrivals_array()
    received = rec.count
    sent = source.sent
    loss = 1.0 - received / sent if sent else 0.0

    if duration_s is None:
        duration_s = float(arrivals[-1] - arrivals[0]) if received >= 2 else 0.0
    thru = rec.bytes_received * 8.0 / duration_s if duration_s > 0 else 0.0

    if received:
        send_times = arrivals - delays
        stats = FlowStats(
            flow=str(source.flow),
            sent=sent,
            received=received,
            mean_delay_s=float(delays.mean()),
            p50_delay_s=float(np.percentile(delays, 50)),
            p95_delay_s=float(np.percentile(delays, 95)),
            p99_delay_s=float(np.percentile(delays, 99)),
            max_delay_s=float(delays.max()),
            jitter_rfc3550_s=rfc3550_jitter(send_times, arrivals),
            delay_std_s=float(delays.std()),
            loss_ratio=max(0.0, loss),
            throughput_bps=thru,
            duration_s=duration_s,
        )
    else:
        stats = FlowStats(
            flow=str(source.flow),
            sent=sent,
            received=0,
            mean_delay_s=float("nan"),
            p50_delay_s=float("nan"),
            p95_delay_s=float("nan"),
            p99_delay_s=float("nan"),
            max_delay_s=float("nan"),
            jitter_rfc3550_s=float("nan"),
            delay_std_s=float("nan"),
            loss_ratio=1.0 if sent else 0.0,
            throughput_bps=0.0,
            duration_s=duration_s or 0.0,
        )
    return stats


def summarize_hybrid_flow(
    agg,
    sink: FlowSink,
    duration_s: float | None = None,
) -> FlowStats:
    """Merge a :class:`~repro.traffic.fluid.FluidAggregate`'s two regimes.

    Packets the aggregate spent *expanded* arrive at ``sink`` like any
    other flow's and contribute real delay samples.  Epochs it spent
    *fluid* delivered analytically at the path's deterministic delay —
    those are folded in as ``fluid_delivered_packets`` samples pinned at
    ``agg.analytic_delay_s``, which shifts the mean/percentiles exactly
    as that constant-delay population would.  Jitter is computed from the
    packet samples only (the fluid regime has zero jitter by
    construction; with no packet samples it reports 0.0) — one of the
    documented bit-inexactness points of hybrid mode (ARCHITECTURE §11).
    """
    rec: FlowRecord = sink.record(agg.flow)
    pkt_delays = rec.delays_array()
    arrivals = rec.arrivals_array()
    fluid_pkts = agg.fluid_delivered_packets
    received = rec.count + fluid_pkts
    sent = agg.sent
    loss = 1.0 - received / sent if sent else 0.0

    if duration_s is None:
        duration_s = float(arrivals[-1] - arrivals[0]) if rec.count >= 2 else 0.0
    total_bytes = rec.bytes_received + agg.fluid_delivered_bytes
    thru = total_bytes * 8.0 / duration_s if duration_s > 0 else 0.0

    if received == 0:
        return FlowStats(
            flow=str(agg.flow),
            sent=sent,
            received=0,
            mean_delay_s=float("nan"),
            p50_delay_s=float("nan"),
            p95_delay_s=float("nan"),
            p99_delay_s=float("nan"),
            max_delay_s=float("nan"),
            jitter_rfc3550_s=float("nan"),
            delay_std_s=float("nan"),
            loss_ratio=1.0 if sent else 0.0,
            throughput_bps=0.0,
            duration_s=duration_s or 0.0,
        )

    if fluid_pkts:
        delays = np.concatenate(
            [pkt_delays, np.full(fluid_pkts, agg.analytic_delay_s)]
        )
    else:
        delays = pkt_delays
    if rec.count >= 2:
        jitter = rfc3550_jitter(arrivals - pkt_delays, arrivals)
    else:
        jitter = 0.0
    return FlowStats(
        flow=str(agg.flow),
        sent=sent,
        received=received,
        mean_delay_s=float(delays.mean()),
        p50_delay_s=float(np.percentile(delays, 50)),
        p95_delay_s=float(np.percentile(delays, 95)),
        p99_delay_s=float(np.percentile(delays, 99)),
        max_delay_s=float(delays.max()),
        jitter_rfc3550_s=jitter,
        delay_std_s=float(delays.std()),
        loss_ratio=max(0.0, loss),
        throughput_bps=thru,
        duration_s=duration_s,
    )
