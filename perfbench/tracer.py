"""Span tracer for the traced benchmark run.

The tracer wraps the entry points of each ``repro`` layer from outside the
program: class methods are replaced on their class, and module functions
are replaced in every loaded ``repro`` module that imported them by name
(experiments do ``from repro.routing.spf import converge``).  Wrappers must
be installed before any network is built, because the engine keeps bound
methods in its scheduled events.

Every wrapped call records one span: name, start, end, parent span and run
id (the benchmark unit it belongs to).  Spans are kept in flat in-memory
arrays and written to one ``.npz`` file at the end; the runner resets them
between benchmark units, so the file holds the last unit's spans.
A layer's self time is the duration of its spans minus the part covered by
their child spans (choosing-metrics §4), so nested layers never double
count.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

# Layer -> entry points.  A target is ``("module:Class", "method")`` or
# ``("module", "function")``.  Private names are the event handlers the
# engine calls directly.  A target missing from the program stops the
# traced run: unwrapped, its time would land silently in its caller's
# layer, so a rename has to be followed here.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "engine": [("repro.sim.engine:Simulator", "run")],
    "link": [
        ("repro.net.link:Interface", "send"),
        ("repro.net.link:Interface", "send_batch"),
        ("repro.net.link:Interface", "_transmit_done"),
    ],
    "node": [
        ("repro.net.node:Node", "receive"),
        ("repro.net.node:Node", "receive_batch"),
        ("repro.net.node:Node", "deliver_local"),
    ],
    # Every QueueDiscipline subclass is added at install time.
    "qdisc": [
        ("repro.qos.red:RedQueueManager", "should_drop"),
        ("repro.qos.red:WredQueueManager", "should_drop"),
        ("repro.qos.meter:TokenBucket", "conforms"),
    ],
    "pipeline": [
        ("repro.dataplane.pipeline:ForwardingPipeline", "ingress"),
        ("repro.dataplane.pipeline:ForwardingPipeline", "ingress_batch"),
    ],
    "traffic": [
        ("repro.traffic.generators:TrafficSource", "_emit"),
        ("repro.traffic.elastic:ElasticSource", "_pump"),
        ("repro.traffic.elastic:ElasticSource", "_on_ack"),
        ("repro.traffic.elastic:ElasticSource", "_receiver"),
        ("repro.traffic.elastic:ElasticSource", "_on_timeout"),
    ],
    "sink": [("repro.traffic.sink:FlowSink", "on_delivery")],
    "spf": [("repro.routing.spf", "converge"), ("repro.routing.spf", "reconverge")],
    "ldp": [("repro.mpls.ldp", "run_ldp")],
    "bgp": [
        ("repro.vpn.bgp:MpBgp", "converge"),
        ("repro.vpn.bgp:MpBgp", "export_delta"),
        ("repro.vpn.bgp:MpBgp", "withdraw"),
        ("repro.vpn.bgp:MpBgp", "peer_down"),
        ("repro.vpn.bgp:MpBgp", "peer_up"),
    ],
    "vrf": [
        ("repro.vpn.vrf:Vrf", "add_local"),
        ("repro.vpn.vrf:Vrf", "add_remote"),
        ("repro.vpn.vrf:Vrf", "add_remote_many"),
        ("repro.vpn.vrf:Vrf", "remove_many"),
        ("repro.vpn.vrf:Vrf", "withdraw"),
    ],
    "provision": [
        ("repro.vpn.provision:VpnProvisioner", "add_site"),
        ("repro.vpn.provision:VpnProvisioner", "remove_site"),
        ("repro.vpn.provision:VpnProvisioner", "create_vpn"),
        ("repro.vpn.provision:VpnProvisioner", "remove_vpn"),
        ("repro.vpn.provision:VpnProvisioner", "drain_pe"),
        ("repro.vpn.provision:VpnProvisioner", "restore_pe"),
    ],
}

# Operations whose integer return value (routes installed) is summed per run
# id, over the outermost call within the layer.
_SUMMED = {"spf.converge", "spf.reconverge", "vrf.add_remote_many"}


def _resolve(target: str) -> Any:
    module_name, _, attr = target.partition(":")
    obj = sys.modules.get(module_name)
    if obj is None:
        __import__(module_name)
        obj = sys.modules[module_name]
    return getattr(obj, attr) if attr else obj


def _queue_disciplines() -> list[type]:
    import repro.qos.cbq  # noqa: F401  (register the classful subclasses)
    import repro.qos.shaper  # noqa: F401
    from repro.qos.queues import QueueDiscipline

    seen: list[type] = []
    todo = [QueueDiscipline]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Records spans around every layer entry point while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []       # span name table, index = name id
        self.layer_of: list[str] = []    # name id -> layer
        self.key_of: list[str] = []      # name id -> counted operation
        self.name_id = array("q")
        self.parent = array("q")
        self.run_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.returns: dict[tuple[int, str], int] = {}
        self.run = 0
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _intern(self, layer: str, key: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.key_of.append(key)
        return len(self.names) - 1

    def _wrap(self, fn: Callable, nid: int) -> Callable:
        stack = self._stack
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        start, end = self.start, self.end
        returns = self.returns
        layer_of = self.layer_of
        layer = layer_of[nid]
        key = self.key_of[nid]
        summed = key in _SUMMED
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            up = stack[-1] if stack else -1
            name_id.append(nid)
            parent.append(up)
            run_id.append(tracer.run)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if summed and (up < 0 or layer_of[name_id[up]] != layer):
                slot = (tracer.run, key)
                returns[slot] = returns.get(slot, 0) + int(result or 0)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def install(self) -> None:
        """Wrap every layer entry point.  Call once, before any network is
        built; :meth:`uninstall` restores the originals."""
        targets: list[tuple[str, Any, str, str]] = []
        for layer, items in LAYERS.items():
            for target, attr in items:
                try:
                    owner = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    raise LookupError(f"tracer target {target} not found") from exc
                targets.append((layer, owner, attr, f"{target}.{attr}"))
        for cls in _queue_disciplines():
            for op in ("enqueue", "dequeue", "enqueue_batch"):
                if op in cls.__dict__:
                    targets.append(("qdisc", cls, op, f"{cls.__module__}:{cls.__qualname__}.{op}"))
        loaded = [m for n, m in sys.modules.items() if n.startswith("repro") and m]
        for layer, owner, attr, name in targets:
            is_class = isinstance(owner, type)
            original = owner.__dict__.get(attr) if is_class else getattr(owner, attr, None)
            if not callable(original):
                raise LookupError(f"tracer target {name} is not a function of its owner")
            key = f"{layer}.{attr.lstrip('_')}"
            nid = self._intern(layer, key, name)
            wrapped = self._wrap(original, nid)
            if is_class:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # Module function: rebind it wherever it was imported by name.
            for module in loaded:
                for mod_attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, mod_attr, original))
                        setattr(module, mod_attr, wrapped)

    def reset(self) -> None:
        """Drop every recorded span (the name table stays)."""
        for buf in (self.name_id, self.parent, self.run_id, self.start, self.end):
            del buf[:]
        self.returns.clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def _arrays(self) -> dict[str, np.ndarray]:
        # Copies, so no numpy view pins the growing arrays' buffers.
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "run_id": np.array(self.run_id, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summarize(self, runs: list[int]) -> dict[str, Any]:
        """Self time per layer and per operation, outermost call counts and
        summed return values, over the spans of the given run ids.

        A call counts once per outermost span of its operation, so a
        subclass method calling ``super()`` is one call, not two.
        """
        a = self._arrays()
        keys = sorted(set(self.key_of))
        layers = sorted(set(self.layer_of))
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        mine = np.isin(a["run_id"], runs)
        key_idx = np.array([keys.index(k) for k in self.key_of], dtype=np.int64)
        layer_idx = np.array([layers.index(x) for x in self.layer_of], dtype=np.int64)
        span_key = key_idx[a["name_id"]]
        span_layer = layer_idx[a["name_id"]]
        key_s = np.bincount(span_key[mine], weights=own[mine], minlength=len(keys))
        layer_s = np.bincount(span_layer[mine], weights=own[mine], minlength=len(layers))
        parent_key = np.where(has_parent, span_key[np.where(has_parent, parent, 0)], -1)
        calls = np.bincount(span_key[mine & (parent_key != span_key)], minlength=len(keys))
        return {
            "self_s": {x: float(layer_s[i]) for i, x in enumerate(layers)},
            "key_self_s": {k: float(key_s[i]) for i, k in enumerate(keys)},
            "calls": {k: int(calls[i]) for i, k in enumerate(keys)},
            "returns": {k: sum(v for (r, kk), v in self.returns.items() if kk == k and r in runs)
                        for k in keys},
            "spans": int(mine.sum()),
        }

    def write(self, path: Path) -> None:
        """Write every recorded span, plus the name table, to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        a = self._arrays()
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            layers=np.array(json.dumps(self.layer_of)),
            **a,
        )
