"""``tracediff --bisect``: jump to the first divergence, don't scan to it.

The plain diff walks two artifacts linearly and summarises everything it
passes.  Bisection is the complementary query for *large* artifacts: it
answers only "where, exactly, did these two runs part?" -- and answers
it logarithmically, returning a **minimal reproduction pointer** (the
record index or node path, the field that differs, both sides' values)
small enough to paste into a regression report.

Two hash structures make the binary search sound:

* **Traces** (``repro-trace/1``): each normalised record is hashed, the
  hashes are folded into a rolling chain, and equal chain values at a
  position prove the whole prefixes equal -- so the first diverging
  record is found by binary search over chain positions, O(log n)
  probes.
* **Audit bundles** (``repro-audit/1``): the hashes are already in the
  artifact.  The ``chain`` column is binary-searched the same way, and a
  diverging leaf's derivation is descended fingerprint-first through the
  node tables -- equal child refs prove subtrees equal without visiting
  them (:func:`tools.tracediff.diff.dag_divergence`).

A ``repro-explain/1`` derivation is a single tree, so its bisection is
the plain diff's depth-first walk to the shallowest, leftmost diverging
node, reported as a pointer.  ``--bisect`` accepts the same artifact
kinds as the plain diff.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TraceError
from repro.obs.audit import AuditBundle
from repro.obs.provenance import Derivation

from .diff import (
    _record_summary,
    diff_derivations,
    leaf_divergence,
    load_artifact,
    normalize_record,
)

__all__ = [
    "bisect_artifacts",
    "first_chain_divergence",
    "record_chain",
    "render_bisect",
]


def record_chain(records: Sequence[Mapping[str, Any]]) -> List[str]:
    """A rolling hash chain over normalised records.

    ``chain[i]`` commits to records ``0..i`` inclusive, so two streams
    whose chains agree at a position agree on the entire prefix -- the
    invariant binary search needs.  Records are canonicalised the same
    way as every other fingerprint in the repo (``sort_keys`` JSON).
    """
    chain: List[str] = []
    rolling = hashlib.sha256(b"tracediff-bisect/1").hexdigest()
    for record in records:
        digest = hashlib.sha256(
            json.dumps(record, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()
        rolling = hashlib.sha256((rolling + digest).encode("utf-8")).hexdigest()
        chain.append(rolling)
    return chain


def first_chain_divergence(
    chain_a: Sequence[str], chain_b: Sequence[str]
) -> Tuple[Optional[int], int]:
    """Binary search for the first position where two hash chains part.

    Returns ``(position, probes)``: ``position`` is ``None`` when the
    shared prefix is identical and the chains are the same length, the
    shorter length when one chain is a strict prefix of the other, and
    otherwise the first index whose values differ.  ``probes`` counts
    the comparisons the search spent -- O(log n), the point of the
    exercise.
    """
    limit = min(len(chain_a), len(chain_b))
    if limit == 0 or chain_a[limit - 1] == chain_b[limit - 1]:
        # Shared prefix identical: divergence is purely a length matter.
        probes = 1 if limit else 0
        return (None if len(chain_a) == len(chain_b) else limit), probes
    low, high = 0, limit - 1  # invariant: chains differ at ``high``
    probes = 1
    while low < high:
        mid = (low + high) // 2
        probes += 1
        if chain_a[mid] == chain_b[mid]:
            low = mid + 1
        else:
            high = mid
    return low, probes


def _bisect_records(
    records_a: Sequence[Mapping[str, Any]],
    records_b: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    normalized_a = [normalize_record(record) for record in records_a]
    normalized_b = [normalize_record(record) for record in records_b]
    position, probes = first_chain_divergence(
        record_chain(normalized_a), record_chain(normalized_b)
    )
    summary: Dict[str, Any] = {
        "kind": "trace",
        "mode": "bisect",
        "records_a": len(records_a),
        "records_b": len(records_b),
        "probes": probes,
        "diverged": position is not None,
        "pointer": None,
        "first_divergence": None,
    }
    if position is None:
        return summary
    summary["pointer"] = f"record[{position}]"
    summary["first_divergence"] = {
        "index": position,
        "a": _record_summary(normalized_a[position])
        if position < len(normalized_a)
        else None,
        "b": _record_summary(normalized_b[position])
        if position < len(normalized_b)
        else None,
    }
    return summary


def _bisect_derivations(a: Derivation, b: Derivation) -> Dict[str, Any]:
    summary = diff_derivations(a, b)
    summary["mode"] = "bisect"
    divergence = summary["first_divergence"]
    if divergence is None:
        summary["pointer"] = None
    elif divergence["path"] == divergence["field"]:
        # A top-level field (assignment, formula, point) parted.
        summary["pointer"] = divergence["field"]
    else:
        summary["pointer"] = f"{divergence['path']}.{divergence['field']}"
    return summary


def _bisect_audit(bundle_a: AuditBundle, bundle_b: AuditBundle) -> Dict[str, Any]:
    # The recorded chain column would serve as the prefix commitment --
    # but only for honest bundles (a tamperer edits a row and leaves the
    # chain stale), so the chains are recomputed from the full leaf
    # records, recorded hashes included, before binary-searching.
    summary: Dict[str, Any] = {
        "kind": "audit",
        "mode": "bisect",
        "leaves_a": len(bundle_a.leaves),
        "leaves_b": len(bundle_b.leaves),
        "root_a": bundle_a.root,
        "root_b": bundle_b.root,
        "probes": 0,
        "diverged": False,
        "pointer": None,
        "first_divergence": None,
        "derivation_divergence": None,
    }
    if bundle_a.header != bundle_b.header:
        summary["diverged"] = True
        summary["pointer"] = "header"
        summary["first_divergence"] = {
            "position": None,
            "field": "header",
            "a": bundle_a.header,
            "b": bundle_b.header,
        }
        return summary
    position, probes = first_chain_divergence(
        record_chain(bundle_a.leaves), record_chain(bundle_b.leaves)
    )
    summary["probes"] = probes
    if position is None:
        if bundle_a.nodes != bundle_b.nodes:
            differing = sorted(
                ref
                for ref in set(bundle_a.nodes) | set(bundle_b.nodes)
                if bundle_a.nodes.get(ref) != bundle_b.nodes.get(ref)
            )
            summary["diverged"] = True
            summary["pointer"] = f"nodes[{differing[0]}]"
            summary["first_divergence"] = {
                "position": None,
                "field": "nodes",
                "refs": differing[:8],
                "a": len(bundle_a.nodes),
                "b": len(bundle_b.nodes),
            }
        return summary
    summary["diverged"] = True
    if position >= min(len(bundle_a.leaves), len(bundle_b.leaves)):
        summary["pointer"] = f"leaf[{position}]"
        summary["first_divergence"] = {
            "position": position,
            "field": "leaves",
            "a": len(bundle_a.leaves),
            "b": len(bundle_b.leaves),
            "note": "one bundle is a strict prefix of the other",
        }
        return summary
    divergence, node_divergence = leaf_divergence(bundle_a, bundle_b, position)
    summary["first_divergence"] = divergence
    summary["derivation_divergence"] = node_divergence
    pointer = f"leaf[{position}].{divergence['field']}"
    if node_divergence is not None:
        pointer += f" -> {node_divergence['path']}.{node_divergence['field']}"
    summary["pointer"] = pointer
    return summary


def bisect_artifacts(path_a: str, path_b: str) -> Dict[str, Any]:
    """Load two artifacts and binary-search their first divergence.

    Accepts the same auto-detected artifact kinds as
    :func:`tools.tracediff.diff.diff_artifacts`.  The summary always
    carries ``pointer``: the minimal reproduction pointer, ``None`` when
    the artifacts' content is identical.
    """
    kind_a, payload_a = load_artifact(path_a)
    kind_b, payload_b = load_artifact(path_b)
    if kind_a != kind_b:
        raise TraceError(
            f"cannot bisect a {kind_a} artifact against a {kind_b} artifact "
            f"({path_a!r} vs {path_b!r})"
        )
    if kind_a == "trace":
        summary = _bisect_records(payload_a, payload_b)
    elif kind_a == "explain":
        summary = _bisect_derivations(payload_a, payload_b)
    else:
        summary = _bisect_audit(payload_a, payload_b)
    summary["a"] = path_a
    summary["b"] = path_b
    return summary


def render_bisect(summary: Mapping[str, Any]) -> str:
    """Plain-text rendering of a bisection result."""
    kind = summary.get("kind")
    verdict = "DIVERGED" if summary.get("diverged") else "identical content"
    lines = [
        f"tracediff --bisect [{kind}]: {verdict}",
        f"  A: {summary.get('a', '?')}",
        f"  B: {summary.get('b', '?')}",
    ]
    if "probes" in summary:
        lines.append(f"probes: {summary['probes']}")
    pointer = summary.get("pointer")
    if pointer is not None:
        lines.append(f"pointer: {pointer}")
    divergence = summary.get("first_divergence")
    if divergence is not None:
        lines.append(
            "first divergence: "
            f"{json.dumps(divergence, default=str, sort_keys=True)}"
        )
    else:
        lines.append("first divergence: none")
    node = summary.get("derivation_divergence")
    if node is not None:
        lines.append(
            "first diverging derivation node: "
            f"{node.get('path')} [{node.get('field')}]"
        )
    return "\n".join(lines)
