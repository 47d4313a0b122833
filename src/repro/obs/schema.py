"""Hand-rolled validators for the observability document schemas.

No ``jsonschema`` dependency: each validator walks a decoded JSON
document and returns a list of human-readable problems (empty when the
document is valid).

:func:`validate_manifest` checks ``repro.telemetry/v2``; two document
kinds share that schema id:

* ``kind == "run"`` — one network's manifest, produced by
  :meth:`repro.obs.telemetry.Telemetry.manifest`;
* ``kind == "bundle"`` — what ``repro run ... --telemetry out.json``
  writes: CLI options plus a list of run manifests.

:func:`validate_spans` checks ``repro.spans/v1`` — the JSONL span
documents the convergence tracer (:mod:`repro.obs.spans`) emits, one
object per line.
"""

from __future__ import annotations

from typing import Any

from repro.obs.telemetry import SCHEMA_ID

__all__ = ["validate_manifest", "validate_spans", "SCHEMA_ID", "SPAN_SCHEMA_ID"]

SPAN_SCHEMA_ID = "repro.spans/v1"

_FLOW_KEYS = {"pe", "vrf", "direction", "class", "packets", "bytes"}
_FLIGHT_KEYS = {"capacity", "buffered", "recorded_total", "aged_out"}
_OBS_RUNTIME_KEYS = {"packet_counters", "slo", "spans"}


def _err(errors: list[str], where: str, msg: str) -> None:
    errors.append(f"{where}: {msg}")


def _require(
    errors: list[str], doc: dict, where: str, key: str, types: tuple | type
) -> Any:
    if key not in doc:
        _err(errors, where, f"missing key {key!r}")
        return None
    v = doc[key]
    if not isinstance(v, types):
        tname = getattr(types, "__name__", "/".join(t.__name__ for t in types))
        _err(errors, where, f"{key!r} must be {tname}, got {type(v).__name__}")
        return None
    return v


def validate_manifest(doc: Any) -> list[str]:
    """Return a list of problems with ``doc`` (empty == valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA_ID:
        _err(errors, "$", f"schema must be {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind == "bundle":
        _validate_bundle(doc, errors)
    elif kind == "run":
        _validate_run(doc, "$", errors)
    else:
        _err(errors, "$", f"kind must be 'run' or 'bundle', got {kind!r}")
    return errors


def _validate_bundle(doc: dict, errors: list[str]) -> None:
    exps = _require(errors, doc, "$", "experiments", list)
    if exps is not None and not all(isinstance(e, str) for e in exps):
        _err(errors, "$.experiments", "entries must be strings")
    _require(errors, doc, "$", "options", dict)
    runs = _require(errors, doc, "$", "runs", list)
    if runs is not None:
        for i, run in enumerate(runs):
            where = f"$.runs[{i}]"
            if not isinstance(run, dict):
                _err(errors, where, "must be an object")
                continue
            if run.get("kind") != "run":
                _err(errors, where, f"kind must be 'run', got {run.get('kind')!r}")
            if run.get("schema") != SCHEMA_ID:
                _err(errors, where, "schema id mismatch")
            _validate_run(run, where, errors)


def _validate_run(doc: dict, where: str, errors: list[str]) -> None:
    seed = doc.get("seed")
    if seed is not None and not isinstance(seed, int):
        _err(errors, where, "seed must be int or null")
    rev = doc.get("git_rev")
    if rev is not None and not isinstance(rev, str):
        _err(errors, where, "git_rev must be string or null")
    cfg = doc.get("config")
    if cfg is not None and not isinstance(cfg, dict):
        _err(errors, where, "config must be object or null")

    sim = _require(errors, doc, where, "sim", dict)
    if sim is not None:
        for key in ("now_s", "events_processed", "events_pending", "nodes", "links"):
            _require(errors, sim, f"{where}.sim", key, (int, float))

    metrics = _require(errors, doc, where, "metrics", dict)
    if metrics is not None:
        for name, fam in metrics.items():
            _validate_family(name, fam, f"{where}.metrics", errors)

    profile = doc.get("profile")
    if profile is not None:
        _validate_profile(profile, f"{where}.profile", errors)

    flows = _require(errors, doc, where, "flows", list)
    if flows is not None:
        for i, row in enumerate(flows):
            if not isinstance(row, dict) or set(row) != _FLOW_KEYS:
                _err(errors, f"{where}.flows[{i}]",
                     f"must be an object with keys {sorted(_FLOW_KEYS)}")

    flight = _require(errors, doc, where, "flight", dict)
    if flight is not None and set(flight) != _FLIGHT_KEYS:
        _err(errors, f"{where}.flight",
             f"must have keys {sorted(_FLIGHT_KEYS)}")

    obs_rt = _require(errors, doc, where, "obs_runtime", dict)
    if obs_rt is not None:
        if set(obs_rt) != _OBS_RUNTIME_KEYS:
            _err(errors, f"{where}.obs_runtime",
                 f"must have keys {sorted(_OBS_RUNTIME_KEYS)}")
        for key, v in obs_rt.items():
            if not isinstance(v, bool):
                _err(errors, f"{where}.obs_runtime",
                     f"{key!r} must be bool, got {type(v).__name__}")

    # Optional streaming-SLO / convergence-span summaries (null when the
    # session ran without the corresponding engine attached).
    slo = doc.get("slo")
    if slo is not None and not isinstance(slo, dict):
        _err(errors, where, "slo must be object or null")
    spans = doc.get("spans")
    if spans is not None and not isinstance(spans, dict):
        _err(errors, where, "spans must be object or null")


def _validate_family(name: Any, fam: Any, where: str, errors: list[str]) -> None:
    where = f"{where}[{name!r}]"
    if not isinstance(fam, dict):
        _err(errors, where, "must be an object")
        return
    kind = fam.get("type")
    if kind not in ("counter", "gauge", "histogram"):
        _err(errors, where, f"type must be counter/gauge/histogram, got {kind!r}")
    label_names = _require(errors, fam, where, "label_names", list)
    series = _require(errors, fam, where, "series", list)
    if series is None:
        return
    for i, s in enumerate(series):
        swhere = f"{where}.series[{i}]"
        if not isinstance(s, dict):
            _err(errors, swhere, "must be an object")
            continue
        labels = _require(errors, s, swhere, "labels", dict)
        if (
            labels is not None
            and label_names is not None
            and set(labels) != set(label_names)
        ):
            _err(errors, swhere, "labels do not match family label_names")
        if kind == "histogram":
            _require(errors, s, swhere, "buckets", list)
            _require(errors, s, swhere, "sum", (int, float))
            _require(errors, s, swhere, "count", int)
        elif kind in ("counter", "gauge"):
            _require(errors, s, swhere, "value", (int, float))


def validate_spans(docs: Any) -> list[str]:
    """Validate a sequence of ``repro.spans/v1`` span documents.

    ``docs`` is what a JSONL span file decodes to line by line (or
    :meth:`repro.obs.spans.ConvergenceTracer.span_docs` returns).
    """
    errors: list[str] = []
    if not isinstance(docs, list):
        return [f"span documents must be a list, got {type(docs).__name__}"]
    for i, doc in enumerate(docs):
        where = f"$[{i}]"
        if not isinstance(doc, dict):
            _err(errors, where, "must be an object")
            continue
        if doc.get("schema") != SPAN_SCHEMA_ID:
            _err(errors, where,
                 f"schema must be {SPAN_SCHEMA_ID!r}, got {doc.get('schema')!r}")
        for key in ("trace_id", "span_id", "kind", "name"):
            _require(errors, doc, where, key, str)
        parent = doc.get("parent_id")
        if parent is not None and not isinstance(parent, str):
            _err(errors, where, "parent_id must be string or null")
        t0 = _require(errors, doc, where, "t_start_s", (int, float))
        t1 = _require(errors, doc, where, "t_end_s", (int, float))
        if t0 is not None and t1 is not None and t1 < t0:
            _err(errors, where, f"t_end_s {t1} < t_start_s {t0}")
        _require(errors, doc, where, "attrs", dict)
    return errors


def _validate_profile(profile: Any, where: str, errors: list[str]) -> None:
    if not isinstance(profile, dict):
        _err(errors, where, "must be an object or null")
        return
    for key in ("events", "sampled", "sample_every"):
        _require(errors, profile, where, key, int)
    _require(errors, profile, where, "wall_s", (int, float))
    kinds = _require(errors, profile, where, "kinds", list)
    if kinds is not None:
        for i, k in enumerate(kinds):
            kwhere = f"{where}.kinds[{i}]"
            if not isinstance(k, dict):
                _err(errors, kwhere, "must be an object")
                continue
            _require(errors, k, kwhere, "kind", str)
            _require(errors, k, kwhere, "events", int)
            _require(errors, k, kwhere, "est_total_s", (int, float))
