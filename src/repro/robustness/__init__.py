"""Fault tolerance for production-scale runs of the reproduction.

The guarantee sweeps of Proposition 11 (Section 8) are the repo's first
production-shaped workload; this package keeps them delivering *exact*
answers under partial failure:

* :mod:`repro.robustness.engine` -- a fault-tolerant task engine with
  per-task timeouts, bounded retries under deterministic seeded backoff,
  and worker-crash recovery that requeues only incomplete tasks.
* :mod:`repro.robustness.checkpoint` -- streaming JSONL checkpoints of
  completed sweep rows (exact ``"p/q"`` Fractions) and resume that skips
  finished tasks while preserving the deterministic row order.
* :mod:`repro.robustness.faults` -- a deterministic fault-injection
  harness (scheduled worker kills, task raises, delays) so the chaos
  tests can *prove* recovered runs equal serial ones.
* :mod:`repro.robustness.validate` -- runtime validators for the paper's
  structural invariants (Sections 3-5), aggregating every violation into
  one :class:`~repro.robustness.validate.ValidationReport`.
"""

from .checkpoint import (
    SweepCheckpoint,
    default_audit_path,
    robust_guarantee_sweep,
    row_from_record,
    row_to_record,
    strict_sweep_row_of,
    task_fingerprint,
)
from .engine import (
    POOL_INFRASTRUCTURE_ERRORS,
    RetryPolicy,
    TaskAttempt,
    TaskContext,
    run_tasks,
)
from .faults import Fault, FaultInjectingTask, FaultPlan, InjectedFault
from .validate import (
    InvariantViolation,
    ValidationReport,
    validate_assignment,
    validate_space,
    validate_system,
    validate_tree,
)

__all__ = [
    "POOL_INFRASTRUCTURE_ERRORS",
    "Fault",
    "FaultInjectingTask",
    "FaultPlan",
    "InjectedFault",
    "InvariantViolation",
    "RetryPolicy",
    "SweepCheckpoint",
    "TaskAttempt",
    "TaskContext",
    "ValidationReport",
    "default_audit_path",
    "robust_guarantee_sweep",
    "row_from_record",
    "row_to_record",
    "run_tasks",
    "strict_sweep_row_of",
    "task_fingerprint",
    "validate_assignment",
    "validate_space",
    "validate_system",
    "validate_tree",
]
