"""Process-wide telemetry switch.

The experiment harnesses construct their own :class:`~repro.topology.Network`
objects deep inside ``run_eN()`` functions, so the CLI cannot hand a
telemetry session to them directly.  Instead the CLI flips this module's
switch before running and every ``Network.__init__`` asks
:func:`attach_if_enabled`; sessions accumulate here and the CLI collects
their manifests afterwards.

Disabled (the default) this costs one module-level boolean check per
*network construction* — nothing at all per event or per packet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import Network

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "attach_if_enabled",
    "sessions",
    "reset",
    "set_packet_counters",
    "packet_counters_enabled",
    "set_slo",
    "slo_enabled",
    "set_spans",
    "spans_enabled",
    "flags",
]

_enabled = False
_options: dict[str, Any] = {}
_sessions: list[Telemetry] = []
_slo = False
_spans = False


def enable(**options: Any) -> None:
    """Turn telemetry on; ``options`` are passed to every new session
    (``sample_every``, ``flight_capacity``, ``profile``)."""
    global _enabled, _options
    _enabled = True
    _options = dict(options)
    # Telemetry scrapes the per-class packet counters, so enabling a
    # session always re-enables them even if a sweep turned them off.
    set_packet_counters(True)


def disable() -> None:
    """Stop attaching to new networks (existing sessions keep collecting)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def attach_if_enabled(net: "Network") -> Telemetry | None:
    """Called by ``Network.__init__``; returns the session or ``None``."""
    if not _enabled:
        return None
    opts = dict(_options)
    # The SLO/span switches ride along unless the caller pinned them in
    # enable(**options) explicitly.
    opts.setdefault("slo", _slo)
    opts.setdefault("spans", _spans)
    session = Telemetry(net, **opts)
    _sessions.append(session)
    return session


def sessions() -> list[Telemetry]:
    """Sessions created since the last :func:`reset`, in creation order."""
    return list(_sessions)


def reset() -> None:
    """Disable and forget all sessions (detaching them first)."""
    global _options, _slo, _spans
    disable()
    for s in _sessions:
        s.detach()
    _sessions.clear()
    _options = {}
    _slo = False
    _spans = False
    set_packet_counters(True)


def set_packet_counters(on: bool) -> None:
    """Flip the per-packet ``ClassStats``/drop-hook switch in the qdiscs.

    On (the default) every enqueue/dequeue maintains per-class counters and
    notifies the interface's drop callback — the behaviour tests and
    telemetry sessions rely on.  Off is the sweep/benchmark fast path: an
    unobserved run skips the bookkeeping entirely.  Flow metrics come from
    sinks, so experiment results are identical either way; only the
    counters (and queue-drop trace records) go dark.
    """
    from repro.qos import queues

    queues.COUNTERS = bool(on)


def packet_counters_enabled() -> bool:
    from repro.qos import queues

    return queues.COUNTERS


def set_slo(on: bool) -> None:
    """Arm the streaming SLO engine for subsequently attached sessions.

    When on, every new :class:`Telemetry` session builds an
    :class:`~repro.obs.slo.SloEngine` and attaches it to the network's
    ``trace.slo`` hook (one per-delivery callback).  Off — the default —
    the hot path pays a single ``None`` check per delivery.
    """
    global _slo
    _slo = bool(on)


def slo_enabled() -> bool:
    return _slo


def set_spans(on: bool) -> None:
    """Arm the convergence tracer for subsequently attached sessions.

    When on, every new :class:`Telemetry` session attaches a
    :class:`~repro.obs.spans.ConvergenceTracer` to the network's link
    state-change listeners and control-plane hook points.  Costs nothing
    per packet; only link flaps and reconvergence events are observed.
    """
    global _spans
    _spans = bool(on)


def spans_enabled() -> bool:
    return _spans


def flags() -> dict[str, bool]:
    """The process-wide observability switch state, for manifests.

    A manifest must fully determine the run configuration; these three
    switches are the ones that change what a run collects without
    appearing anywhere else in the config.
    """
    return {
        "packet_counters": packet_counters_enabled(),
        "slo": _slo,
        "spans": _spans,
    }
