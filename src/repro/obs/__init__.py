"""Deterministic observability: recorders, metrics, and JSONL tracing.

The reproduction's results are exact and deterministic; this subpackage
makes the *computation* of those results inspectable without ever being
able to perturb them.  Instrumented code (the bitmask measure kernels,
the model-checking fixpoints, the fault-tolerant sweep engine) reports
counters, events and timing spans to the process-global
:func:`get_recorder`, which defaults to the no-op :class:`NullRecorder`.

* :class:`MetricsRecorder` aggregates in memory (cache hit rates, gfp
  iteration counts, retry totals) for benchmark reports.
* :class:`TraceRecorder` streams schema ``repro-trace/1`` JSONL for the
  ``tools/tracereport`` CLI.
* :mod:`repro.obs.provenance` is the data model of semantic provenance:
  the ``repro-explain/1`` derivation trees ``Model.explain`` builds
  (gfp iteration snapshots of the common-knowledge fixpoints included),
  written as explain documents for ``tools/tracediff``.  Derivations are
  built, never recorded: no recorder carries them.
* :mod:`repro.obs.audit` chains sweep rows and their derivation roots
  into ``repro-audit/1`` Merkle-chained audit bundles for
  ``tools/verifyaudit``; its node records, each distinct derivation
  subtree streamed once under its Merkle fingerprint, are the one
  hash-consed derivation encoding.
* :mod:`repro.obs.snapshot` ships each worker attempt's observations
  across the process boundary as one in-memory delta -- the
  cross-process telemetry the sweep engine's workers use, so the
  parent's counters cover the whole sweep.
* :mod:`repro.obs.jsonl` is the one torn-tail rule and fsynced appender
  behind every streamed JSONL artifact (traces, checkpoints, audit
  bundles): a kill mid-write costs at most the final line.
* :mod:`repro.obs.clock` quarantines every wall-clock read in the
  library (statically enforced by reprolint RL008).

See ``docs/observability.md`` for the recorder protocol, the trace
schema, and a worked example.
"""

from . import clock
from .audit import (
    AUDIT_SCHEMA,
    AuditBundle,
    AuditBundleWriter,
    bundle_root,
    read_audit_bundle,
    verify_bundle,
)
from .metrics import MetricsRecorder, SpanStats
from .provenance import (
    EXPLAIN_SCHEMA,
    Derivation,
    DerivationNode,
    derivation_from_json,
    read_derivation,
    render_derivation,
    write_derivation,
)
from .recorder import (
    MultiRecorder,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from .snapshot import ObsDeltaCapture, merge_worker_delta
from .trace import TRACE_SCHEMA, TraceRecorder, read_trace

__all__ = [
    "AUDIT_SCHEMA",
    "AuditBundle",
    "AuditBundleWriter",
    "Derivation",
    "DerivationNode",
    "EXPLAIN_SCHEMA",
    "MetricsRecorder",
    "MultiRecorder",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsDeltaCapture",
    "Recorder",
    "SpanStats",
    "TRACE_SCHEMA",
    "TraceRecorder",
    "bundle_root",
    "clock",
    "derivation_from_json",
    "get_recorder",
    "merge_worker_delta",
    "read_audit_bundle",
    "read_derivation",
    "read_trace",
    "render_derivation",
    "set_recorder",
    "use_recorder",
    "verify_bundle",
    "write_derivation",
]
