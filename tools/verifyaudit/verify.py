"""The three verification tiers behind ``tools/verifyaudit``.

A ``repro-audit/1`` bundle (see :mod:`repro.obs.audit`) claims that a
Section 8 guarantee sweep produced certain rows with certain Section 5
derivations.  Verification replays the claim in three independently
useful tiers, cheapest first:

1. **Hash tier** (:func:`repro.obs.audit.verify_bundle`): every node
   payload hashes to the fingerprint it is filed under, every leaf hash
   matches its recorded content, every chain link extends the previous
   one from the genesis.  Pure arithmetic -- no model checking, no
   checkpoint needed.  A single flipped bit anywhere surfaces here.
2. **Checkpoint tier**: the bundle and the checkpoint it shadows must
   tell the same story -- every checkpoint row has a leaf whose exact
   ``"p/q"`` row payload matches byte for byte, and every leaf points
   back at a matching checkpoint row (task identity compared without
   the ``backend`` field, which is provenance, not identity).
3. **Replay tier**: for every (or ``sample`` evenly spaced) leaf, the
   attack system is rebuilt from the task fingerprint, the derivation
   DAG is decoded from the node table, and
   :func:`repro.logic.explain.audit_derivation` re-checks the recorded
   Section 5 evidence (cell sums, witness measures) against a freshly
   built model -- plus the cross-link that the row's ``post_threshold``
   equals the derivation's inner probability at the witness point.

The report is pure JSON (exact strings, no clocks); the CLI maps it to
exit codes 0 (clean), 1 (divergent), 2 (schema/unreadable).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.attack.sweep import DEFAULT_BUILDERS
from repro.core.standard import standard_assignments
from repro.errors import AuditError, CheckpointError, ProvenanceError, ReproError
from repro.logic.explain import audit_derivation
from repro.logic.semantics import Model
from repro.obs.audit import (
    AuditBundle,
    node_from_table,
    read_audit_bundle,
    verify_bundle,
)
from repro.obs.jsonl import JsonlFormat
from repro.obs.provenance import Derivation
from repro.reporting import fraction_from_json

__all__ = [
    "REPORT_SCHEMA",
    "default_checkpoint_path",
    "load_checkpoint_records",
    "render_report",
    "select_leaves",
    "verify_audit",
]

#: Schema marker of the JSON report ``verifyaudit --json`` emits.
REPORT_SCHEMA = "repro-verifyaudit/1"

#: Task-fingerprint fields that identify a sweep cell.  ``backend`` is
#: deliberately absent: rows are backend-independent exact Fractions,
#: so a sweep checkpointed under one measure engine and audited under
#: another still cross-checks (the same reading
#: ``repro.robustness.checkpoint`` applies when resuming).
IDENTITY_FIELDS = ("protocol", "messengers", "loss", "epsilon")

_CHECKPOINT_LOG = JsonlFormat("checkpoint", CheckpointError)


def default_checkpoint_path(bundle_path: str) -> Optional[str]:
    """The checkpoint a bundle shadows, by the ``<checkpoint>.audit``
    naming convention -- ``None`` when the name does not follow it or
    the file does not exist (a serial, checkpoint-less audit)."""
    if not bundle_path.endswith(".audit"):
        return None
    candidate = bundle_path[: -len(".audit")]
    return candidate if os.path.exists(candidate) else None


def _identity(task: Dict) -> Tuple:
    return tuple(task.get(field) for field in IDENTITY_FIELDS)


def load_checkpoint_records(path: str) -> Tuple[List[Dict], List[str]]:
    """Checkpoint records plus any structural defects, tolerating only a
    torn final line (:class:`repro.obs.jsonl.JsonlFormat`, the rule the
    sweep's own loader applies)."""
    try:
        decoded = _CHECKPOINT_LOG.read(path)
    except CheckpointError as error:
        return [], [str(error)]
    records: List[Dict] = []
    defects: List[str] = []
    for line, record in decoded:
        if (
            not isinstance(record.get("task"), dict)
            or not isinstance(record.get("row"), dict)
            or "index" not in record
        ):
            defects.append(f"checkpoint line {line} is malformed")
            continue
        records.append(record)
    return records, defects


def _cross_check_checkpoint(
    bundle: AuditBundle, records: List[Dict]
) -> List[str]:
    """Tier 2: the bundle and checkpoint must cover the same rows."""
    defects: List[str] = []
    leaves_by_index: Dict[int, Dict] = {}
    for leaf in bundle.leaves:
        leaves_by_index.setdefault(int(leaf["index"]), leaf)
    records_by_index: Dict[int, Dict] = {}
    for record in records:
        index = int(record["index"])
        earlier = records_by_index.get(index)
        if earlier is not None and earlier["row"] != record["row"]:
            defects.append(
                f"checkpoint has two disagreeing records for index {index}"
            )
        records_by_index[index] = record
    for index, record in sorted(records_by_index.items()):
        leaf = leaves_by_index.get(index)
        if leaf is None:
            defects.append(
                f"checkpoint row {index} has no audit leaf -- the chain "
                "does not cover the sweep"
            )
            continue
        if leaf["row"] != record["row"]:
            defects.append(
                f"index {index}: audit leaf row differs from checkpoint row"
            )
        if _identity(leaf["task"]) != _identity(record["task"]):
            defects.append(
                f"index {index}: audit leaf task identity "
                f"{_identity(leaf['task'])} differs from checkpoint "
                f"{_identity(record['task'])}"
            )
    for index in sorted(leaves_by_index):
        if index not in records_by_index:
            defects.append(
                f"audit leaf {index} has no checkpoint row -- the bundle "
                "claims a row the checkpoint never recorded"
            )
    return defects


def select_leaves(leaves: List[Dict], sample: Optional[int]) -> List[Dict]:
    """The leaves the replay tier will re-derive.

    ``sample=N`` picks N evenly spaced leaves in chain order --
    deterministic (no randomness is available or wanted in a verifier:
    two auditors running the same command must check the same leaves).
    ``None`` or ``N >= len`` selects everything; ``N < 1`` raises
    :class:`ValueError` (skipping the replay is ``replay=False``).
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, not {sample}")
    if sample is None or sample >= len(leaves):
        return list(leaves)
    step = len(leaves) / sample
    chosen = sorted({int(position * step) for position in range(sample)})
    return [leaves[position] for position in chosen]


def _replay_leaves(bundle: AuditBundle, selected: List[Dict]) -> List[str]:
    """Tier 3: rebuild each task's system and re-audit its derivation."""
    defects: List[str] = []
    models: Dict[Tuple, Model] = {}
    for leaf in selected:
        index = int(leaf["index"])
        root_ref = leaf["root_ref"]
        if root_ref is None:
            defects.append(f"leaf {index}: no derivation to replay")
            continue
        task = leaf["task"]
        protocol = task.get("protocol")
        builder = DEFAULT_BUILDERS.get(protocol)
        if builder is None:
            defects.append(
                f"leaf {index}: unknown protocol {protocol!r}; replay "
                "knows only the default builders "
                f"{sorted(DEFAULT_BUILDERS)} (use --skip-replay for "
                "bundles from custom sweeps)"
            )
            continue
        key = _identity(task)
        try:
            model = models.get(key)
            if model is None:
                attack = builder(
                    int(task["messengers"]), fraction_from_json(task["loss"])
                )
                post = standard_assignments(attack.psys)["post"]
                model = Model(post, {"coord": attack.coordinated})
                models[key] = model
            root = node_from_table(bundle.nodes, root_ref)
            derivation = Derivation(
                assignment="post",
                formula=root.formula,
                point=root.point,
                root=root,
            )
            for defect in audit_derivation(model, derivation):
                defects.append(f"leaf {index}: {defect}")
            if root.rule == "pr-at-least" and "inner" in root.detail:
                inner = fraction_from_json(root.detail["inner"])
                threshold = fraction_from_json(leaf["row"]["post_threshold"])
                if inner != threshold:
                    defects.append(
                        f"leaf {index}: row post_threshold {threshold} != "
                        f"derivation inner probability {inner} at the "
                        "witness point"
                    )
        except (ProvenanceError, ReproError, KeyError, TypeError, ValueError) as error:
            defects.append(f"leaf {index}: replay failed: {error}")
    return defects


def verify_audit(
    bundle_path: str,
    checkpoint_path: Optional[str] = None,
    sample: Optional[int] = None,
    replay: bool = True,
) -> Dict:
    """Run every applicable tier; return the ``repro-verifyaudit/1`` report.

    Raises :class:`~repro.errors.AuditError` (schema tier -- exit 2 in
    the CLI) when the bundle itself does not parse; all *content*
    disagreements, including checkpoint mismatches and failed replays,
    are defects in the report (exit 1).
    """
    bundle = read_audit_bundle(bundle_path)
    selected = select_leaves(bundle.leaves, sample) if replay else []
    hash_defects = verify_bundle(bundle)
    if checkpoint_path is None:
        checkpoint_path = default_checkpoint_path(bundle_path)
    checkpoint_defects: List[str] = []
    if checkpoint_path is not None:
        records, structural = load_checkpoint_records(checkpoint_path)
        checkpoint_defects.extend(structural)
        checkpoint_defects.extend(_cross_check_checkpoint(bundle, records))
    replay_defects = _replay_leaves(bundle, selected) if replay else []
    defects = hash_defects + checkpoint_defects + replay_defects
    return {
        "schema": REPORT_SCHEMA,
        "bundle": os.fspath(bundle_path),
        "checkpoint": checkpoint_path,
        "genesis": bundle.genesis,
        "root": bundle.root,
        "leaves": len(bundle.leaves),
        "distinct_indexes": len(bundle.leaf_indexes()),
        "nodes": len(bundle.nodes),
        "replayed": len(selected),
        "hash_defects": hash_defects,
        "checkpoint_defects": checkpoint_defects,
        "replay_defects": replay_defects,
        "verdict": "clean" if not defects else "divergent",
    }


def render_report(report: Dict) -> str:
    """The human-readable form of a verification report."""
    lines = [
        f"bundle:     {report['bundle']}",
        f"checkpoint: {report['checkpoint'] or '(none)'}",
        f"root:       {report['root']}",
        f"leaves:     {report['leaves']} "
        f"({report['distinct_indexes']} distinct indexes, "
        f"{report['nodes']} derivation nodes)",
        f"replayed:   {report['replayed']} derivation(s)",
    ]
    for tier in ("hash_defects", "checkpoint_defects", "replay_defects"):
        for defect in report[tier]:
            lines.append(f"  DEFECT [{tier.split('_')[0]}] {defect}")
    lines.append(f"verdict:    {report['verdict'].upper()}")
    return "\n".join(lines)
