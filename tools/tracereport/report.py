"""Pure trace-to-summary folding (no I/O; the CLI wraps this)."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.errors import AuditError
from repro.reporting import render_table

#: Counters whose totals get their own "gfp fixpoints" table rather
#: than (only) a row in the generic counter listing.
_GFP_EVENT_KIND = "gfp"

#: Measure-kernel totals a pool worker shipped
#: (``worker.<pid>.kernel.cache_hits``); the group is the
#: ``kernel_totals()`` key a ``cache_stats`` event would carry.
_SHIPPED_KERNEL = re.compile(r"^worker\.[^.]+\.kernel\.(.+)$")


def _shipped_kernel_totals(counters: Dict[str, int]) -> Dict[str, int]:
    """Sum the kernel counters every pool worker shipped, per key.

    Pool workers emit no ``cache_stats`` event the parent sees; their
    kernel deltas arrive as per-attempt counters, which sum exactly.
    """
    totals: Dict[str, int] = {}
    for name, value in counters.items():
        match = _SHIPPED_KERNEL.match(name)
        if match is not None:
            key = match.group(1)
            totals[key] = totals.get(key, 0) + value
    return totals


def summarize(records: Sequence[Dict]) -> Dict:
    """Fold trace records into one JSON-ready summary dict.

    ``records`` is the output of :func:`repro.obs.read_trace`: the
    header plus counter/gauge/event/span records in stream order.  The
    ``cache`` section reads the last ``cache_stats`` event (serial
    sweeps); a trace without one (a pool sweep) sums the kernel
    counters its workers shipped instead.
    """
    counters: Dict[str, int] = {}
    spans: Dict[str, Dict[str, float]] = {}
    gfp_events: List[Dict] = []
    attempts_by_task: Dict[int, int] = {}
    outcome_counts: Dict[str, int] = {}
    last_cache_stats: Optional[Dict] = None
    events = 0

    for record in records:
        kind = record.get("type")
        if kind == "counter":
            name = record["name"]
            counters[name] = counters.get(name, 0) + int(record.get("value", 1))
        elif kind == "span-end":
            name = record["name"]
            seconds = float(record.get("seconds", 0.0))
            stats = spans.get(name)
            if stats is None:
                spans[name] = {
                    "count": 1,
                    "total_seconds": seconds,
                    "max_seconds": seconds,
                }
            else:
                stats["count"] += 1
                stats["total_seconds"] += seconds
                stats["max_seconds"] = max(stats["max_seconds"], seconds)
        elif kind == "event":
            events += 1
            fields = record.get("fields", {})
            event_kind = record.get("kind")
            if event_kind == "cache_stats":
                last_cache_stats = dict(fields)
            elif event_kind == _GFP_EVENT_KIND:
                gfp_events.append(dict(fields))
            elif event_kind == "task_attempt":
                index = fields.get("index")
                if index is not None:
                    attempts_by_task[index] = attempts_by_task.get(index, 0) + 1
                outcome = fields.get("outcome", "?")
                outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1

    histogram: Dict[int, int] = {}
    for count in attempts_by_task.values():
        histogram[count] = histogram.get(count, 0) + 1

    summary: Dict = {
        "records": len(records),
        "events": events,
        "counters": dict(sorted(counters.items())),
        "spans": {
            name: dict(stats)
            for name, stats in sorted(
                spans.items(), key=lambda item: -item[1]["total_seconds"]
            )
        },
        "gfp": {
            "fixpoints": len(gfp_events),
            "total_iterations": sum(e.get("iterations", 0) for e in gfp_events),
            "max_iterations": max(
                (e.get("iterations", 0) for e in gfp_events), default=0
            ),
        },
        "retries": {
            "tasks": len(attempts_by_task),
            "attempts_per_task": {
                str(attempts): tasks for attempts, tasks in sorted(histogram.items())
            },
            "outcomes": dict(sorted(outcome_counts.items())),
        },
    }
    if last_cache_stats is None:
        last_cache_stats = _shipped_kernel_totals(counters) or None
    if last_cache_stats is not None:
        hits = int(last_cache_stats.get("cache_hits", 0))
        misses = int(last_cache_stats.get("cache_misses", 0))
        summary["cache"] = dict(last_cache_stats)
        summary["cache"]["hit_rate"] = (
            Fraction(hits, hits + misses) if hits + misses else None
        )
    return summary


def summarize_audit(bundle) -> Dict:
    """Fold a ``repro-audit/1`` :class:`~repro.obs.audit.AuditBundle`
    into the report's audit section.

    Alongside the chain totals, the section quantifies what hash-consing
    bought: ``tree_nodes`` is what ``repro-explain/1`` would have stored
    (every subtree occurrence written in full, summed over all leaves),
    ``nodes`` is what the bundle actually streamed as node records, and
    ``dedup_ratio`` is their exact quotient.  Raises
    :class:`~repro.errors.AuditError` when a node record names a child
    that was not streamed before it (a dangling or cyclic reference).
    """
    protocols: Dict[str, int] = {}
    for leaf in bundle.leaves:
        name = str(leaf.get("task", {}).get("protocol"))
        protocols[name] = protocols.get(name, 0) + 1
    # Writers stream every child before its parent, so one pass in stream
    # order sizes each subtree from its children's sizes: O(table), even
    # though the unfolded trees can be exponentially larger than the DAG.
    tree_sizes: Dict[str, int] = {}
    for ref, payload in bundle.nodes.items():
        size = 1
        for child in payload.get("children", []):
            if child not in tree_sizes:
                raise AuditError(
                    f"audit node {ref} names child {child}, which is not "
                    "streamed before it"
                )
            size += tree_sizes[child]
        tree_sizes[ref] = size
    tree_nodes = sum(tree_sizes.get(leaf.get("root_ref"), 0) for leaf in bundle.leaves)
    return {
        "explain_schema": bundle.header.get("explain_schema"),
        "leaves": len(bundle.leaves),
        "distinct_indexes": len(bundle.leaf_indexes()),
        "nodes": len(bundle.nodes),
        "tree_nodes": tree_nodes,
        "dedup_ratio": (
            Fraction(tree_nodes, len(bundle.nodes)) if bundle.nodes else None
        ),
        "root": bundle.root,
        "protocols": dict(sorted(protocols.items())),
    }


def render_audit(audit: Dict) -> str:
    """Render a :func:`summarize_audit` result as plain-text tables."""
    sections: List[str] = [
        render_table(
            "Audit bundle",
            ["leaves", "distinct indexes", "nodes", "tree nodes", "dedup ratio"],
            [
                [
                    audit["leaves"],
                    audit["distinct_indexes"],
                    audit["nodes"],
                    audit["tree_nodes"],
                    audit["dedup_ratio"] if audit["dedup_ratio"] is not None else "n/a",
                ]
            ],
        )
    ]
    if audit["protocols"]:
        sections.append(
            render_table(
                "Audit leaves by protocol",
                ["protocol", "leaves"],
                list(audit["protocols"].items()),
            )
        )
    sections.append(f"chain root: {audit['root']}")
    return "\n\n".join(sections)


def render_report(summary: Dict) -> str:
    """Render a :func:`summarize` result as plain-text tables."""
    sections: List[str] = []

    span_rows = [
        [
            name,
            stats["count"],
            f"{stats['total_seconds']:.6f}",
            f"{stats['total_seconds'] / stats['count']:.6f}",
            f"{stats['max_seconds']:.6f}",
        ]
        for name, stats in summary["spans"].items()
    ]
    if span_rows:
        sections.append(
            render_table(
                "Top spans (by total seconds)",
                ["span", "count", "total s", "mean s", "max s"],
                span_rows,
            )
        )

    counter_rows = [[name, value] for name, value in summary["counters"].items()]
    if counter_rows:
        sections.append(render_table("Counters", ["counter", "total"], counter_rows))

    cache = summary.get("cache")
    if cache is not None:
        rate = cache.get("hit_rate")
        sections.append(
            render_table(
                "Measure-kernel cache",
                ["hits", "misses", "evictions", "naive queries", "hit rate"],
                [
                    [
                        cache.get("cache_hits", 0),
                        cache.get("cache_misses", 0),
                        cache.get("cache_evictions", 0),
                        cache.get("naive_queries", 0),
                        rate if rate is not None else "n/a",
                    ]
                ],
            )
        )

    gfp = summary["gfp"]
    if gfp["fixpoints"]:
        sections.append(
            render_table(
                "gfp fixpoints",
                ["fixpoints", "total iterations", "max iterations"],
                [[gfp["fixpoints"], gfp["total_iterations"], gfp["max_iterations"]]],
            )
        )

    retries = summary["retries"]
    if retries["tasks"]:
        sections.append(
            render_table(
                "Retry histogram (attempts per task)",
                ["attempts", "tasks"],
                [
                    [attempts, tasks]
                    for attempts, tasks in retries["attempts_per_task"].items()
                ],
            )
        )
        sections.append(
            render_table(
                "Attempt outcomes",
                ["outcome", "attempts"],
                list(retries["outcomes"].items()),
            )
        )

    if not sections:
        return "(trace contains no spans, counters, or recognised events)"
    return "\n\n".join(sections)
