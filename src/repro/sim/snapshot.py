"""Converged-state snapshots: checkpoint/restore of a whole simulation.

A snapshot captures everything a run depends on in one consistent image:
the :class:`~repro.sim.engine.Simulator` clock and pending event buckets,
the named RNG streams, the :class:`~repro.topology.Network` object graph —
nodes, links, FIB/LFIB/FTN tables, VRFs, provisioning state, queue
disciplines — plus arbitrary caller ``extras`` (provisioner handles, site
records, control-plane result objects).  Restore rebuilds the identical
graph in a fresh (or forked) process; the parity contract is *bit-
identical traces*: a seeded run resumed from a snapshot must produce
exactly the packet trace the uninterrupted run would have
(``tests/test_snapshot.py`` holds it to that).

Format
------
A snapshot is ``MAGIC`` + a length-prefixed JSON header + a pickle
payload::

    b"RSNP1\\n"  |  u32 header length  |  header JSON  |  pickle bytes

The header names the schema (``repro.snapshot/2``), the ``repro`` version
that wrote it, the Python major.minor, and the pickle protocol.  Restore
fails fast with :class:`SnapshotError` on any mismatch of magic, schema,
or repro version — silently loading a snapshot across a schema change is
exactly the class of bug the header exists to prevent.

Why a custom pickler
--------------------
The object graph is *almost* plain data after the generator→cursor
refactors (``Network``/``Vpn``/``VpnProvisioner``/``OverlayVpnBuilder``
all allocate from integer cursors now), but two kinds of callables still
live in event buckets and conditioners:

* ``bind(...)`` closures — the kernel's zero-arg callback wrapper.  They
  are reduced to ``(bind, (callback, *args), kwargs)`` so the rebuilt
  closure shares ``_BOUND_CODE`` again and the kernel profiler keeps
  recognising it.
* ad-hoc lambdas / local functions (e.g. the E5 EF-match predicate).
  These are serialized by :mod:`marshal`-ing their code object together
  with closure cell values, defaults, and qualname.  Marshal output is
  interpreter-version-specific, which is fine: the header pins the Python
  version, and snapshots are a same-machine warm-start/checkpoint
  mechanism, not an archival format.

Generators are rejected with a pointed error — a half-consumed generator
cannot be serialized, and every one we had has been refactored away;
a new one sneaking into the graph should fail loudly at snapshot time.

Cache-generation contract
-------------------------
Generation-stamped state (``Fib``/``Lfib``/``FtnTable``/``Vrf`` counters,
``topology_generation``, the :class:`~repro.dataplane.caches.GenCache`
captured generations) is pickled *together with* the tables it guards, so
a restored graph is exactly as coherent as the live one: every cache's
captured generation still equals (or validly trails) its source table's.
:func:`verify_cache_coherence` proves this property after restore — the
Hypothesis round-trip suite runs it on random topologies.

Telemetry sessions are intentionally *not* snapshotted: a session holds
process-global hooks (profiler, flight ring) whose lifecycle belongs to
the process, not the network.  Snapshotting a network with an attached
session raises; restore re-attaches a fresh session if the process-wide
telemetry switch is on — the same rule as ``Network.__init__``.
"""

from __future__ import annotations

import io
import json
import marshal
import pickle
import struct
import sys
import types
from typing import Any, Callable

import repro
from repro.sim.engine import Event, Simulator, bind, _BOUND_CODE

__all__ = [
    "SnapshotError",
    "SCHEMA",
    "snapshot_network",
    "restore_network",
    "save",
    "load",
    "read_header",
    "pending_schedule",
    "verify_cache_coherence",
]

MAGIC = b"RSNP1\n"
# /2: ``Vrf`` gained its locals index and ``local_version``, ``MpBgp`` its
# per-key sync stamps; a /1 image lacks them and is refused.
SCHEMA = "repro.snapshot/2"
_PROTOCOL = 4  # stable, supports qualname globals; identical across workers
_LEN = struct.Struct("<I")


class SnapshotError(RuntimeError):
    """Raised when state cannot be serialized, or a blob cannot be loaded."""


# ---------------------------------------------------------------------------
# Function serialization helpers
# ---------------------------------------------------------------------------

def _cell_values(fn: types.FunctionType) -> tuple:
    return tuple(c.cell_contents for c in (fn.__closure__ or ()))


def _rebuild_bound(callback: Callable, args: tuple, kwargs: dict) -> Callable:
    """Recreate a ``bind`` closure (restores ``_BOUND_CODE`` identity)."""
    return bind(callback, *args, **kwargs)


def _rebuild_function(
    code_bytes: bytes,
    qualname: str,
    module: str,
    defaults: tuple | None,
    cells: tuple,
) -> types.FunctionType:
    """Reconstruct a marshal-serialized local function/lambda."""
    code = marshal.loads(code_bytes)
    closure = tuple(types.CellType(v) for v in cells) or None
    mod = sys.modules.get(module)
    globalns = mod.__dict__ if mod is not None else {"__builtins__": __builtins__}
    fn = types.FunctionType(code, globalns, code.co_name, defaults, closure)
    fn.__qualname__ = qualname
    return fn


# ``bind`` freevar order is fixed by its source; assert rather than assume.
_BOUND_FREEVARS = _BOUND_CODE.co_freevars
assert _BOUND_FREEVARS == ("args", "callback", "kwargs"), _BOUND_FREEVARS


class _SnapshotPickler(pickle.Pickler):
    """Pickler that knows how to serialize the simulator's callables."""

    def reducer_override(self, obj: Any):  # noqa: C901 - dispatch table
        if isinstance(obj, types.GeneratorType):
            raise SnapshotError(
                f"cannot snapshot a live generator ({obj!r}); refactor the "
                "holder to an integer cursor or explicit state"
            )
        if isinstance(obj, types.FunctionType):
            if obj.__code__ is _BOUND_CODE:
                # A bind() closure: re-bind at load so the rebuilt closure
                # shares _BOUND_CODE and stays profiler-recognisable.
                free = dict(zip(_BOUND_FREEVARS, _cell_values(obj)))
                return (
                    _rebuild_bound,
                    (free["callback"], free["args"], free["kwargs"]),
                )
            qualname = obj.__qualname__
            if "<locals>" in qualname or "<lambda>" in qualname or obj.__closure__:
                try:
                    code_bytes = marshal.dumps(obj.__code__)
                except ValueError as exc:  # pragma: no cover - exotic code
                    raise SnapshotError(
                        f"cannot marshal code of {qualname}: {exc}"
                    ) from exc
                return (
                    _rebuild_function,
                    (
                        code_bytes,
                        qualname,
                        obj.__module__ or "builtins",
                        obj.__defaults__,
                        _cell_values(obj),
                    ),
                )
        return NotImplemented  # default pickle behaviour


# ---------------------------------------------------------------------------
# Snapshot / restore
# ---------------------------------------------------------------------------

def _header() -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "repro_version": repro.__version__,
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "pickle_protocol": _PROTOCOL,
    }


def snapshot_network(net: Any, extras: dict[str, Any] | None = None) -> bytes:
    """Serialize ``net`` (and caller ``extras``) into a snapshot blob.

    ``extras`` is an arbitrary picklable dict riding in the same pickle as
    the network, so shared references (a provisioner holding the same node
    objects, say) are preserved — restore hands back the *same* object
    graph, not parallel copies.

    The network must not have a telemetry session attached (sessions hold
    process-scoped hooks); detach or ``repro.obs.runtime.reset()`` first.
    """
    if getattr(net, "telemetry", None) is not None:
        raise SnapshotError(
            "cannot snapshot a network with an attached telemetry session; "
            "telemetry is process-scoped — detach it (obs.runtime.reset()) "
            "and re-enable after restore"
        )
    sim = net.sim
    if getattr(sim, "_running", False):
        raise SnapshotError("cannot snapshot while the simulator is running")
    if getattr(sim, "_profile_hook", None) is not None:
        raise SnapshotError(
            "cannot snapshot with a kernel profiler attached; detach first"
        )
    header = json.dumps(_header(), sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(_LEN.pack(len(header)))
    buf.write(header)
    pickler = _SnapshotPickler(buf, protocol=_PROTOCOL)
    try:
        pickler.dump({"net": net, "extras": extras or {}})
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"snapshot failed: {exc!r}") from exc
    return buf.getvalue()


def _parse_header(blob: bytes) -> tuple[dict[str, Any], int]:
    if blob[: len(MAGIC)] != MAGIC:
        raise SnapshotError(
            "not a repro snapshot (bad magic); expected a blob written by "
            "repro.sim.snapshot.snapshot_network/save"
        )
    off = len(MAGIC)
    if len(blob) < off + _LEN.size:
        raise SnapshotError("truncated snapshot (no header length)")
    (hlen,) = _LEN.unpack_from(blob, off)
    off += _LEN.size
    if len(blob) < off + hlen:
        raise SnapshotError("truncated snapshot (header shorter than declared)")
    try:
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
    except ValueError as exc:
        raise SnapshotError(f"corrupt snapshot header: {exc}") from exc
    return header, off + hlen


def _check_header(header: dict[str, Any]) -> None:
    if header.get("schema") != SCHEMA:
        raise SnapshotError(
            f"snapshot schema {header.get('schema')!r} does not match this "
            f"reader ({SCHEMA!r}); re-create the snapshot with this version"
        )
    if header.get("repro_version") != repro.__version__:
        raise SnapshotError(
            f"snapshot written by repro {header.get('repro_version')!r} but "
            f"this is repro {repro.__version__!r}; snapshots do not cross "
            "versions — re-create it"
        )
    here = f"{sys.version_info[0]}.{sys.version_info[1]}"
    if header.get("python") != here:
        raise SnapshotError(
            f"snapshot written under Python {header.get('python')} but this "
            f"is Python {here}; marshal-serialized code objects do not cross "
            "interpreter versions"
        )


def restore_network(blob: bytes) -> tuple[Any, dict[str, Any]]:
    """Rebuild the ``(net, extras)`` graph from a snapshot blob.

    Validates the header (schema, repro version, Python version) before
    touching the payload, then re-applies the process-scoped switch the
    pickle deliberately excludes: a fresh telemetry session is attached if
    the process-wide switch is on, as ``Network.__init__`` does.
    """
    header, off = _parse_header(blob)
    _check_header(header)
    try:
        payload = pickle.loads(blob[off:])
    except Exception as exc:
        raise SnapshotError(f"snapshot payload failed to load: {exc!r}") from exc
    net, extras = payload["net"], payload["extras"]

    from repro.obs.runtime import attach_if_enabled

    net.telemetry = attach_if_enabled(net)
    return net, extras


def save(path: str, net: Any, extras: dict[str, Any] | None = None) -> int:
    """Snapshot ``net`` to ``path``; returns the byte size written."""
    blob = snapshot_network(net, extras)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load(path: str) -> tuple[Any, dict[str, Any]]:
    """Restore ``(net, extras)`` from a snapshot file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return restore_network(blob)


def read_header(path: str) -> dict[str, Any]:
    """Parse just the header of a snapshot file (no payload load)."""
    with open(path, "rb") as fh:
        blob = fh.read(len(MAGIC) + _LEN.size + 4096)
    header, _off = _parse_header(blob)
    return header


# ---------------------------------------------------------------------------
# Inspection helpers (used by the parity and property tests)
# ---------------------------------------------------------------------------

def pending_schedule(sim: Simulator) -> list[tuple[float, str, tuple]]:
    """Deterministic listing of the live pending events, in firing order.

    Walks the time heap and buckets *without executing anything*: for each
    live event, ``(time, callback description, args repr tuple)``.  Two
    simulators with identical schedules produce identical listings, which
    is how the round-trip property suite compares pending-event order.
    """
    out: list[tuple[float, str, tuple]] = []
    for t in sorted(sim._times):
        bucket = sim._buckets.get(t)
        if bucket is None:
            continue
        events = bucket if type(bucket) is not Event else (bucket,)
        for ev in events:
            if ev.cancelled:
                continue
            cb = ev.callback
            if isinstance(cb, types.MethodType):
                desc = f"{type(cb.__self__).__name__}.{cb.__func__.__name__}"
                owner = getattr(cb.__self__, "name", None)
                if owner is not None:
                    desc += f"@{owner}"
            else:
                desc = getattr(cb, "__qualname__", repr(cb))
            out.append((t, desc, tuple(repr(a) for a in ev.args)))
    return out


def verify_cache_coherence(net: Any) -> list[str]:
    """Report every GenCache whose captured generations trail its sources.

    Returns a list of human-readable deltas.  A *trailing* capture is
    legal live state (a cache built before the control plane bumped the
    table, not yet refreshed by a ``get``) — the generation guard flushes
    and self-heals on the next probe.  The snapshot contract is therefore
    equality of reports: the restored network's report must be identical
    to the pre-snapshot one, i.e. restore neither invents staleness nor
    silently discards warm cache state.  The round-trip suites assert
    exactly that.
    """
    problems: list[str] = []

    def _check(name: str, cache: Any) -> None:
        if cache is None:
            return
        if cache._gen_p != cache._primary.generation:
            problems.append(
                f"{name}: captured primary gen {cache._gen_p} != "
                f"source gen {cache._primary.generation}"
            )
        if cache._secondary is not None and cache._gen_s != cache._secondary.generation:
            problems.append(
                f"{name}: captured secondary gen {cache._gen_s} != "
                f"source gen {cache._secondary.generation}"
            )

    for node in net.nodes.values():
        pipe = getattr(node, "pipeline", None)
        if pipe is None:
            continue
        _check(f"{node.name}.flow_cache", getattr(pipe, "flow_cache", None))
        _check(f"{node.name}.label_cache", getattr(pipe, "label_cache", None))
        _check(f"{node.name}.tunnel_cache", getattr(pipe, "tunnel_cache", None))
        for vrf_name, cache in getattr(pipe, "vrf_caches", {}).items():
            _check(f"{node.name}.vrf[{vrf_name}]", cache)
    return problems
