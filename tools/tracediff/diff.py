"""Diff engine for observability artifacts (content vs. timing).

The central design split: a diff separates *content* -- counters, event
payloads, exact ``"p/q"`` probabilities, derivation trees -- from
*timing* -- ``ts`` stamps, span ``seconds``, sequence numbers.  Content
is deterministic under the repo's seeded pipelines, so any content
divergence between two runs of the same configuration is a regression;
timing drifts with the machine and is reported as ratios but never
treated as divergence.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ProvenanceError, TraceError
from repro.obs.audit import AUDIT_SCHEMA, AuditBundle, read_audit_bundle
from repro.obs.provenance import (
    EXPLAIN_SCHEMA,
    Derivation,
    DerivationNode,
    derivation_from_json,
)
from repro.obs.trace import TRACE_SCHEMA, read_trace

from tools.tracereport.report import summarize

__all__ = [
    "diff_artifacts",
    "diff_audit",
    "diff_derivations",
    "diff_traces",
    "load_artifact",
    "render_diff",
]

#: Record keys that vary run to run without the content differing: the
#: wall-clock quarantine (``ts``, ``seconds``) plus bookkeeping ids
#: (``seq``, ``span``, ``parent``, ``pid``) that shift when unrelated
#: records are interleaved or the process changes.
VOLATILE_KEYS = frozenset({"seq", "ts", "span", "parent", "seconds", "pid"})

#: Worker pids are assigned by the OS, so per-worker counter names
#: (``worker.12345.kernel.cache_hits``) differ between otherwise
#: identical runs.  The pool harvests envelopes in deterministic task
#: order and each shipped delta is the task's own deterministic work, so
#: masking the pid restores content comparability.
_WORKER_PID = re.compile(r"^worker\.\d+\.")


def _mask_worker(name: str) -> str:
    return _WORKER_PID.sub("worker.[pid].", name)


# ----------------------------------------------------------------------
# Loading / format detection
# ----------------------------------------------------------------------


def load_artifact(path: str) -> Tuple[str, Any]:
    """Load ``path`` and auto-detect its format.

    Returns ``(kind, payload)`` where ``kind`` is ``"trace"`` (payload: a
    record list from :func:`repro.obs.trace.read_trace`), ``"explain"``
    (payload: a :class:`~repro.obs.provenance.Derivation` decoded from a
    ``repro-explain/1`` document), or ``"audit"`` (payload: an
    :class:`~repro.obs.audit.AuditBundle`).  Raises
    :class:`~repro.errors.TraceError`,
    :class:`~repro.errors.ProvenanceError` or
    :class:`~repro.errors.AuditError` when the file matches no known
    schema or fails its reader's checks.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict):
        schema = document.get("schema")
        if schema == EXPLAIN_SCHEMA:
            return "explain", derivation_from_json(document)
        if schema == AUDIT_SCHEMA and document.get("type") == "header":
            # A header-only bundle: an audited sweep that was killed
            # before its first leaf.  Still a valid (empty) bundle.
            return "audit", read_audit_bundle(path)
        if schema == TRACE_SCHEMA and document.get("type") == "header":
            # A header-only trace is a single JSON object and a valid
            # one-line JSONL file at the same time; treat it as a trace.
            return "trace", read_trace(text.splitlines())
        raise TraceError(
            f"{path!r}: unrecognised artifact schema {schema!r} "
            f"(expected {TRACE_SCHEMA!r}, {EXPLAIN_SCHEMA!r}, or {AUDIT_SCHEMA!r})"
        )
    # Multi-line JSONL: the header's schema field says which stream it is.
    first_line = next((line for line in text.splitlines() if line.strip()), "")
    try:
        header = json.loads(first_line)
    except json.JSONDecodeError:
        header = None
    if isinstance(header, dict) and header.get("schema") == AUDIT_SCHEMA:
        return "audit", read_audit_bundle(path)
    return "trace", read_trace(text.splitlines())


# ----------------------------------------------------------------------
# Normalisation
# ----------------------------------------------------------------------


def normalize_record(record: Mapping[str, Any]) -> Dict[str, Any]:
    """A trace record with its volatile (timing/bookkeeping) keys removed.

    What remains is the deterministic content two identically-seeded
    runs must agree on byte for byte.  Cross-process telemetry records
    get the same treatment at finer grain: worker pids are masked out of
    counter/gauge names and ``worker_obs_delta`` fields (the OS assigns
    them), and shipped span timings reduce to their counts.
    """
    normalized = {
        key: value for key, value in record.items() if key not in VOLATILE_KEYS
    }
    if normalized.get("type") in ("counter", "gauge") and "name" in normalized:
        normalized["name"] = _mask_worker(str(normalized["name"]))
    elif normalized.get("type") == "event" and normalized.get("kind") == "worker_obs_delta":
        fields = normalized.get("fields")
        if isinstance(fields, Mapping):
            fields = {k: v for k, v in fields.items() if k != "worker"}
            spans = fields.get("spans")
            if isinstance(spans, Mapping):
                fields["spans"] = {
                    name: (
                        entry.get("count") if isinstance(entry, Mapping) else entry
                    )
                    for name, entry in spans.items()
                }
            normalized["fields"] = fields
    return normalized


def _masked_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    """Folded counter totals with worker pids masked (and so merged)."""
    totals: Dict[str, int] = {}
    for name, value in counters.items():
        masked = _mask_worker(name)
        totals[masked] = totals.get(masked, 0) + value
    return totals


def _record_summary(record: Optional[Mapping[str, Any]]) -> Optional[Dict[str, Any]]:
    """A compact, human-scannable stand-in for one normalised record."""
    if record is None:
        return None
    summary: Dict[str, Any] = {"type": record.get("type")}
    for key in ("name", "kind", "value", "schema"):
        if key in record:
            summary[key] = record[key]
    fields = record.get("fields")
    if isinstance(fields, Mapping):
        summary["fields"] = {
            key: (
                "<derivation>"
                if key == "derivation"
                else fields[key]
            )
            for key in sorted(fields)
        }
    return summary


# ----------------------------------------------------------------------
# Derivation diff
# ----------------------------------------------------------------------


#: Derivation-node fields compared when two derivations part, in
#: reporting order (most meaningful first; ``children`` is structural).
_NODE_FIELDS = ("rule", "formula", "point", "holds", "definition", "detail")


def _node_divergence(
    a: DerivationNode, b: DerivationNode, path: str
) -> Optional[Dict[str, Any]]:
    """The first diverging node of two derivation trees, depth-first.

    A node's own content is compared before its children, so the
    reported path is the shallowest, leftmost point of disagreement.
    """
    for field_name in _NODE_FIELDS:
        value_a = getattr(a, field_name)
        value_b = getattr(b, field_name)
        if value_a != value_b:
            return {
                "path": path,
                "field": field_name,
                "rule": a.rule,
                "a": value_a,
                "b": value_b,
            }
    if len(a.children) != len(b.children):
        return {
            "path": path,
            "field": "children",
            "rule": a.rule,
            "a": len(a.children),
            "b": len(b.children),
        }
    for position, (child_a, child_b) in enumerate(zip(a.children, b.children)):
        found = _node_divergence(child_a, child_b, f"{path}.children[{position}]")
        if found is not None:
            return found
    return None


def diff_derivations(a: Derivation, b: Derivation) -> Dict[str, Any]:
    """Compare two ``repro-explain/1`` derivations.

    Equal fingerprints mean byte-identical canonical JSON -- zero
    divergence by construction.  Otherwise the trees are walked in
    parallel to the first diverging node (the shallowest, leftmost
    disagreement), which localises *where* the two evaluations parted.
    """
    summary: Dict[str, Any] = {
        "kind": "explain",
        "fingerprint_a": a.fingerprint(),
        "fingerprint_b": b.fingerprint(),
        "formula_a": a.formula,
        "formula_b": b.formula,
        "diverged": False,
        "first_divergence": None,
    }
    if summary["fingerprint_a"] == summary["fingerprint_b"]:
        return summary
    summary["diverged"] = True
    for field_name in ("assignment", "formula", "point"):
        value_a = getattr(a, field_name)
        value_b = getattr(b, field_name)
        if value_a != value_b:
            summary["first_divergence"] = {
                "path": field_name,
                "field": field_name,
                "a": value_a,
                "b": value_b,
            }
            return summary
    summary["first_divergence"] = _node_divergence(a.root, b.root, "root")
    return summary


def _embedded_derivation(record: Mapping[str, Any]) -> Optional[Derivation]:
    fields = record.get("fields")
    if not isinstance(fields, Mapping):
        return None
    payload = fields.get("derivation")
    if not isinstance(payload, Mapping):
        return None
    try:
        return derivation_from_json(payload)
    except ProvenanceError:
        return None


# ----------------------------------------------------------------------
# Audit-bundle node-table descent
# ----------------------------------------------------------------------


def dag_divergence(
    nodes_a: Mapping[str, Mapping[str, Any]],
    nodes_b: Mapping[str, Mapping[str, Any]],
    ref_a: str,
    ref_b: str,
) -> Optional[Dict[str, Any]]:
    """Fingerprint-guided descent to the first diverging node of two
    audit-bundle node tables; ``None`` when the roots agree.

    The node-table counterpart of :func:`_node_divergence`: because a
    node record's fingerprint commits to its whole subtree, equal
    child refs prove the subtrees identical without visiting them, and
    the walk descends only into the leftmost child whose refs differ --
    one root-to-divergence path instead of a full tree comparison.
    """
    path = "root"
    while True:
        if ref_a == ref_b:
            return None
        payload_a = nodes_a.get(ref_a)
        payload_b = nodes_b.get(ref_b)
        if payload_a is None or payload_b is None:
            return {
                "path": path,
                "field": "nodes",
                "a": ref_a if payload_a is None else "resolved",
                "b": ref_b if payload_b is None else "resolved",
                "note": "dangling fingerprint reference",
            }
        for field_name in _NODE_FIELDS:
            value_a = payload_a.get(field_name)
            value_b = payload_b.get(field_name)
            if value_a != value_b:
                return {
                    "path": path,
                    "field": field_name,
                    "rule": payload_a.get("rule"),
                    "a": value_a,
                    "b": value_b,
                    "ref_a": ref_a,
                    "ref_b": ref_b,
                }
        children_a = payload_a.get("children", [])
        children_b = payload_b.get("children", [])
        if len(children_a) != len(children_b):
            return {
                "path": path,
                "field": "children",
                "rule": payload_a.get("rule"),
                "a": len(children_a),
                "b": len(children_b),
                "ref_a": ref_a,
                "ref_b": ref_b,
            }
        descend = next(
            (
                (position, child_a, child_b)
                for position, (child_a, child_b) in enumerate(
                    zip(children_a, children_b)
                )
                if child_a != child_b
            ),
            None,
        )
        if descend is None:
            # Same payload under two fingerprints: the refs lie about
            # the content, which verifyaudit's hash tier would flag.
            return {
                "path": path,
                "field": "fingerprint",
                "a": ref_a,
                "b": ref_b,
                "note": "equal payloads filed under different fingerprints",
            }
        position, ref_a, ref_b = descend
        path = f"{path}.children[{position}]"


# ----------------------------------------------------------------------
# Audit-bundle diff
# ----------------------------------------------------------------------

#: Leaf fields compared when two chains part, in reporting order:
#: content first (what diverged), hashes last (they always differ at
#: the parting position, so they are the fallback, not the headline).
_LEAF_FIELDS = ("index", "task", "row", "root_ref", "prev", "leaf_hash", "chain")


def leaf_divergence(
    bundle_a: AuditBundle, bundle_b: AuditBundle, position: int
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Classify why two bundles' leaves at ``position`` disagree.

    Returns ``(divergence, node_divergence)``: the first differing leaf
    field, plus -- when the leaves bind different derivation roots -- the
    first diverging derivation node by fingerprint-guided descent into
    the two node tables.
    """
    leaf_a = bundle_a.leaves[position]
    leaf_b = bundle_b.leaves[position]
    divergence: Dict[str, Any] = {"position": position, "field": "chain"}
    for field_name in _LEAF_FIELDS:
        value_a = leaf_a.get(field_name)
        value_b = leaf_b.get(field_name)
        if value_a != value_b:
            divergence = {
                "position": position,
                "field": field_name,
                "index_a": leaf_a.get("index"),
                "index_b": leaf_b.get("index"),
                "a": value_a,
                "b": value_b,
            }
            break
    node_divergence: Optional[Dict[str, Any]] = None
    ref_a = leaf_a.get("root_ref")
    ref_b = leaf_b.get("root_ref")
    if ref_a != ref_b and ref_a is not None and ref_b is not None:
        node_divergence = dag_divergence(
            bundle_a.nodes, bundle_b.nodes, ref_a, ref_b
        )
    return divergence, node_divergence


def diff_audit(bundle_a: AuditBundle, bundle_b: AuditBundle) -> Dict[str, Any]:
    """Compare two ``repro-audit/1`` bundles, field for field.

    Every record is content here -- the leaf payloads *and* the recorded
    hashes (two honest bundles of identical sweeps have identical
    hashes, and a hash that differs over identical payloads exposes a
    tampered chain).  The recorded roots are therefore never trusted as
    a shortcut: a tamperer who edits a row without re-deriving the chain
    leaves the roots equal, and exactly that bundle must still diverge
    here.  Integrity *within* one bundle (do the hashes match the
    payloads?) is ``verifyaudit``'s job, not the diff's.
    """
    summary: Dict[str, Any] = {
        "kind": "audit",
        "leaves_a": len(bundle_a.leaves),
        "leaves_b": len(bundle_b.leaves),
        "nodes_a": len(bundle_a.nodes),
        "nodes_b": len(bundle_b.nodes),
        "explain_schema_a": bundle_a.header.get("explain_schema"),
        "explain_schema_b": bundle_b.header.get("explain_schema"),
        "root_a": bundle_a.root,
        "root_b": bundle_b.root,
        "diverged": False,
        "first_divergence": None,
        "derivation_divergence": None,
    }
    if bundle_a.header != bundle_b.header:
        summary["diverged"] = True
        summary["first_divergence"] = {
            "position": None,
            "field": "header",
            "a": bundle_a.header,
            "b": bundle_b.header,
        }
        return summary
    limit = min(len(bundle_a.leaves), len(bundle_b.leaves))
    for position in range(limit):
        if bundle_a.leaves[position] != bundle_b.leaves[position]:
            divergence, node_divergence = leaf_divergence(
                bundle_a, bundle_b, position
            )
            summary["diverged"] = True
            summary["first_divergence"] = divergence
            summary["derivation_divergence"] = node_divergence
            return summary
    if len(bundle_a.leaves) != len(bundle_b.leaves):
        summary["diverged"] = True
        summary["first_divergence"] = {
            "position": limit,
            "field": "leaves",
            "a": len(bundle_a.leaves),
            "b": len(bundle_b.leaves),
            "note": "one bundle is a strict prefix of the other",
        }
        return summary
    if bundle_a.nodes != bundle_b.nodes:
        # Identical leaves over differing node tables: an orphaned or
        # tampered node record that no leaf's root reaches any more.
        differing = sorted(
            ref
            for ref in set(bundle_a.nodes) | set(bundle_b.nodes)
            if bundle_a.nodes.get(ref) != bundle_b.nodes.get(ref)
        )
        summary["diverged"] = True
        summary["first_divergence"] = {
            "position": None,
            "field": "nodes",
            "refs": differing[:8],
            "a": len(bundle_a.nodes),
            "b": len(bundle_b.nodes),
        }
    return summary


# ----------------------------------------------------------------------
# Trace diff
# ----------------------------------------------------------------------


def diff_traces(
    records_a: Sequence[Mapping[str, Any]],
    records_b: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Compare two ``repro-trace/1`` record streams.

    Reports folded counter deltas, per-span timing ratios (informational
    only), the exact cache hit-rate shift, and the first position where
    the normalised streams disagree.  The counters, span totals and hit
    rate are :func:`tools.tracereport.report.summarize`'s fold.  When
    the first diverging records both embed a derivation
    (``row_provenance`` / ``derivation`` events), the diff recurses into
    the trees and also reports the first diverging derivation node.
    """
    summary_a = summarize(records_a)
    summary_b = summarize(records_b)
    counters_a = _masked_counters(summary_a["counters"])
    counters_b = _masked_counters(summary_b["counters"])
    counter_deltas = {
        name: {
            "a": counters_a.get(name, 0),
            "b": counters_b.get(name, 0),
            "delta": counters_b.get(name, 0) - counters_a.get(name, 0),
        }
        for name in sorted(set(counters_a) | set(counters_b))
        if counters_a.get(name, 0) != counters_b.get(name, 0)
    }

    spans_a = summary_a["spans"]
    spans_b = summary_b["spans"]
    absent = {"count": 0, "total_seconds": 0.0}
    timing_ratios = {}
    for name in sorted(set(spans_a) | set(spans_b)):
        entry_a = spans_a.get(name, absent)
        entry_b = spans_b.get(name, absent)
        ratio = (
            round(entry_b["total_seconds"] / entry_a["total_seconds"], 4)
            if entry_a["total_seconds"] > 0.0
            else None
        )
        timing_ratios[name] = {
            "count_a": entry_a["count"],
            "count_b": entry_b["count"],
            "seconds_a": round(entry_a["total_seconds"], 6),
            "seconds_b": round(entry_b["total_seconds"], 6),
            "ratio": ratio,
        }

    rate_a = summary_a.get("cache", {}).get("hit_rate")
    rate_b = summary_b.get("cache", {}).get("hit_rate")
    hit_rate = {
        "a": rate_a,
        "b": rate_b,
        "shift": (rate_b - rate_a) if rate_a is not None and rate_b is not None else None,
    }

    normalized_a = [normalize_record(record) for record in records_a]
    normalized_b = [normalize_record(record) for record in records_b]
    first_divergence: Optional[Dict[str, Any]] = None
    derivation_divergence: Optional[Dict[str, Any]] = None
    limit = min(len(normalized_a), len(normalized_b))
    for position in range(limit):
        if normalized_a[position] != normalized_b[position]:
            record_a = normalized_a[position]
            record_b = normalized_b[position]
            first_divergence = {
                "index": position,
                "a": _record_summary(record_a),
                "b": _record_summary(record_b),
            }
            inner_a = _embedded_derivation(record_a)
            inner_b = _embedded_derivation(record_b)
            if inner_a is not None and inner_b is not None:
                derivation_divergence = diff_derivations(inner_a, inner_b)
            break
    else:
        if len(normalized_a) != len(normalized_b):
            first_divergence = {
                "index": limit,
                "a": _record_summary(normalized_a[limit])
                if len(normalized_a) > limit
                else None,
                "b": _record_summary(normalized_b[limit])
                if len(normalized_b) > limit
                else None,
            }

    return {
        "kind": "trace",
        "records_a": len(records_a),
        "records_b": len(records_b),
        "counter_deltas": counter_deltas,
        "timing_ratios": timing_ratios,
        "hit_rate": hit_rate,
        "diverged": first_divergence is not None,
        "first_divergence": first_divergence,
        "derivation_divergence": derivation_divergence,
    }


# ----------------------------------------------------------------------
# Entry point + rendering
# ----------------------------------------------------------------------


def _pointer(summary: Mapping[str, Any]) -> Optional[str]:
    """The first divergence as one pasteable string, ``None`` when equal.

    ``record[i]`` for traces; the field name of a top-level derivation
    field, else ``path.field``, for derivations; for audit bundles
    ``header``, ``nodes[ref]`` (only the node tables differ), ``leaf[i]``
    (one bundle is a prefix of the other) or ``leaf[i].field``, followed
    by `` -> path.field`` when the two leaves bind different derivation
    roots.
    """
    divergence = summary["first_divergence"]
    if divergence is None:
        return None
    kind = summary["kind"]
    if kind == "trace":
        return f"record[{divergence['index']}]"
    if kind == "explain":
        if divergence["path"] == divergence["field"]:
            return divergence["field"]
        return f"{divergence['path']}.{divergence['field']}"
    field = divergence["field"]
    if field == "header":
        return "header"
    if field == "nodes":
        return f"nodes[{divergence['refs'][0]}]"
    if field == "leaves":
        return f"leaf[{divergence['position']}]"
    pointer = f"leaf[{divergence['position']}].{field}"
    node = summary["derivation_divergence"]
    if node is not None:
        pointer += f" -> {node['path']}.{node['field']}"
    return pointer


def diff_artifacts(path_a: str, path_b: str) -> Dict[str, Any]:
    """Load, kind-check, and diff two artifact files.

    The two files must be the same kind of artifact; mixing (say) a
    trace with an audit bundle raises :class:`~repro.errors.TraceError`.
    The summary carries ``pointer`` (see :func:`_pointer`): where the
    two artifacts first part, ``None`` when their content is identical.
    """
    kind_a, payload_a = load_artifact(path_a)
    kind_b, payload_b = load_artifact(path_b)
    if kind_a != kind_b:
        raise TraceError(
            f"cannot diff a {kind_a} artifact against a {kind_b} artifact "
            f"({path_a!r} vs {path_b!r})"
        )
    if kind_a == "trace":
        summary = diff_traces(payload_a, payload_b)
    elif kind_a == "explain":
        summary = diff_derivations(payload_a, payload_b)
    else:
        summary = diff_audit(payload_a, payload_b)
    summary["pointer"] = _pointer(summary)
    summary["a"] = path_a
    summary["b"] = path_b
    return summary


def _render_divergence(divergence: Optional[Mapping[str, Any]], lines: List[str]) -> None:
    if divergence is None:
        lines.append("first divergence: none")
        return
    lines.append(f"first divergence: {json.dumps(divergence, default=str, sort_keys=True)}")


def render_diff(summary: Mapping[str, Any]) -> str:
    """Plain-text rendering of a diff summary."""
    lines: List[str] = []
    kind = summary.get("kind")
    verdict = "DIVERGED" if summary.get("diverged") else "identical content"
    lines.append(f"tracediff [{kind}]: {verdict}")
    lines.append(f"  A: {summary.get('a', '?')}")
    lines.append(f"  B: {summary.get('b', '?')}")
    if summary.get("pointer") is not None:
        lines.append(f"pointer: {summary['pointer']}")
    if kind == "trace":
        lines.append(
            f"records: {summary['records_a']} vs {summary['records_b']}"
        )
        deltas = summary.get("counter_deltas", {})
        if deltas:
            lines.append("counter deltas:")
            for name, entry in deltas.items():
                lines.append(
                    f"  {name}: {entry['a']} -> {entry['b']} ({entry['delta']:+d})"
                )
        else:
            lines.append("counter deltas: none")
        rate = summary.get("hit_rate", {})
        if rate.get("a") is not None or rate.get("b") is not None:
            lines.append(
                f"cache hit rate: {rate.get('a')} -> {rate.get('b')}"
                + (f" (shift {rate['shift']})" if rate.get("shift") is not None else "")
            )
        ratios = summary.get("timing_ratios", {})
        if ratios:
            lines.append("timing ratios (informational, B/A):")
            for name, entry in ratios.items():
                ratio = entry["ratio"]
                shown = f"{ratio:.4f}" if ratio is not None else "n/a"
                lines.append(
                    f"  {name}: {entry['seconds_a']:.6f}s -> "
                    f"{entry['seconds_b']:.6f}s (x{shown})"
                )
        _render_divergence(summary.get("first_divergence"), lines)
        derivation = summary.get("derivation_divergence")
        if derivation is not None:
            node = derivation.get("first_divergence")
            if node is not None:
                lines.append(
                    "first diverging derivation node: "
                    f"{node.get('path')} [{node.get('field')}]"
                )
    elif kind == "explain":
        lines.append(f"fingerprint A: {summary.get('fingerprint_a')}")
        lines.append(f"fingerprint B: {summary.get('fingerprint_b')}")
        node = summary.get("first_divergence")
        if node is not None:
            lines.append(
                f"first diverging derivation node: {node.get('path')} "
                f"[{node.get('field')}]: {node.get('a')!r} vs {node.get('b')!r}"
            )
        else:
            lines.append("first divergence: none")
    elif kind == "audit":
        lines.append(
            f"leaves: {summary['leaves_a']} vs {summary['leaves_b']}; "
            f"nodes: {summary['nodes_a']} vs {summary['nodes_b']}"
        )
        lines.append(f"root A: {summary['root_a']}")
        lines.append(f"root B: {summary['root_b']}")
        _render_divergence(summary.get("first_divergence"), lines)
        node = summary.get("derivation_divergence")
        if node is not None:
            lines.append(
                "first diverging derivation node: "
                f"{node.get('path')} [{node.get('field')}]"
            )
    return "\n".join(lines)
