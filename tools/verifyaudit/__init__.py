"""verifyaudit: certify a sweep from its audit bundle, not by re-running it.

A ``repro-audit/1`` bundle (:mod:`repro.obs.audit`) chains every row of
a Section 8 guarantee sweep -- task fingerprint, exact row payload, and
the Merkle fingerprint of the row's ``post_threshold`` derivation --
into a single running root hash.  This tool is the verifier's side of
that bargain: given the bundle and the checkpoint it was written
alongside (a missing checkpoint is itself a defect), it

1. recomputes the hash chain and every derivation-node fingerprint
   (a flipped bit anywhere in any row payload or derivation node breaks
   the arithmetic);
2. cross-checks each leaf against its checkpoint row, byte for byte on
   the exact ``"p/q"`` payloads (task identity compared without the
   ``backend`` field -- provenance, not identity);
3. replays :func:`repro.logic.explain.audit_derivation` over every (or
   ``--sample N`` evenly spaced) derivation DAG against a freshly
   rebuilt attack system, re-checking the Section 5 evidence -- cell
   sums, witness measures -- and that the row's ``post_threshold``
   equals the derivation's inner probability at the witness point.

verifyaudit is the one sanctioned *replayer* among the tools: unlike
the pure artifact auditors (tracediff, tracereport), its whole job is
to rebuild systems and re-derive evidence, so it may import the
computational layers (see the RL002 replayer allowance).  Usage::

    PYTHONPATH=src python -m tools.verifyaudit sweep.jsonl.audit
    PYTHONPATH=src python -m tools.verifyaudit --json --sample 8 B.audit
    make audit-verify BUNDLE=sweep.jsonl.audit

Exit status: 0 clean, 1 divergent (any hash, checkpoint, or replay
defect), 2 when the bundle is unreadable or fails schema validation.
"""

from .verify import (
    REPORT_SCHEMA,
    default_checkpoint_path,
    load_checkpoint_records,
    render_report,
    select_leaves,
    verify_audit,
)

__all__ = [
    "REPORT_SCHEMA",
    "default_checkpoint_path",
    "load_checkpoint_records",
    "render_report",
    "select_leaves",
    "verify_audit",
]
