"""Exception hierarchy shared by every subsystem of the reproduction.

Keeping the exceptions in one flat module lets callers catch broad classes
(``ReproError``) or precise ones (``NotMeasurableError``) without importing
the subsystem that raised them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ProbabilityError(ReproError):
    """Base class for errors raised by the measure-theory substrate."""


class NotMeasurableError(ProbabilityError):
    """An event (or random variable) is not measurable in the given space.

    The paper handles non-measurable events with inner and outer measures
    (Section 5 and Section 7); this error signals that a caller asked for an
    exact probability where only bounds exist.
    """


class NotAPartitionError(ProbabilityError):
    """A proposed atom collection does not partition the sample space."""


class BackendError(ProbabilityError):
    """A mask-level operation was requested from a space built on the
    naive (frozenset) measure backend, which carries no outcome index."""


class InvalidMeasureError(ProbabilityError):
    """Atom probabilities are negative or do not sum to one."""


class ZeroMeasureConditioningError(ProbabilityError):
    """Conditioning on an event of measure zero is undefined."""


class ModelError(ReproError):
    """Base class for errors in the runs/points/knowledge model."""


class SynchronyError(ModelError):
    """An operation that requires a synchronous system was applied to an
    asynchronous one (or vice versa)."""


class TreeError(ReproError):
    """Base class for errors in the computation-tree substrate."""


class TechnicalAssumptionError(TreeError):
    """The paper's technical assumption is violated: the environment state
    must encode the adversary and the full history, so a global state may
    appear in at most one computation tree and at most once per tree."""


class AssignmentError(ReproError):
    """Base class for errors about sample-space / probability assignments."""


class Req1Error(AssignmentError):
    """REQ1 violated: a sample space contains points from more than one
    computation tree (Section 5)."""


class Req2Error(AssignmentError):
    """REQ2 violated: the runs through a sample space are not a measurable
    set of positive measure (Section 5)."""


class LogicError(ReproError):
    """Base class for errors in the logic L(Phi)."""


class ParseError(LogicError):
    """A formula string could not be parsed."""


class BettingError(ReproError):
    """Base class for errors in the betting-game engine."""


class SimulationError(ReproError):
    """Base class for errors in the distributed-system simulator."""


class ValidationError(ReproError):
    """A structural invariant of the paper failed a runtime validation pass.

    Raised by :meth:`repro.robustness.validate.ValidationReport.raise_if_failed`
    with the *aggregated* list of violations (never just the first): atom
    probabilities summing to one and algebra closure (Section 3), the
    technical assumption on computation trees (Section 4), and REQ1/REQ2
    on sample-space assignments (Section 5).
    """

    def __init__(self, message: str, violations: tuple = ()) -> None:
        super().__init__(message)
        #: The aggregated ``InvariantViolation`` records behind the message.
        self.violations = tuple(violations)


class ExecutionError(ReproError):
    """Base class for terminal failures of the fault-tolerant sweep engine.

    The Proposition 11 guarantee sweeps (Section 8) are exact computations:
    a task either returns its exact Fractions or the engine must say
    precisely which task failed and how.  Instances carry the failing
    task's identity (``task_index``, ``task``) and the full attempt log
    (a tuple of ``repro.robustness.engine.TaskAttempt`` records).
    """

    def __init__(
        self,
        message: str,
        task_index=None,
        task=None,
        attempts: tuple = (),
    ) -> None:
        super().__init__(message)
        #: Position of the failing task in the deterministic task list.
        self.task_index = task_index
        #: The task value itself (e.g. a ``SweepTask`` tuple).
        self.task = task
        #: Chronological ``TaskAttempt`` records, one per try.
        self.attempts = tuple(attempts)


class RetryExhaustedError(ExecutionError):
    """A task kept failing after the retry policy's bounded attempts.

    The engine behind the Proposition 11 sweeps (Section 8) retries failed
    tasks with deterministic exponential backoff; when the final attempt
    still raises (or its worker is lost), this terminal error reports the
    task identity and every recorded attempt instead of silently re-running
    the whole sweep.
    """


class TaskTimeoutError(ExecutionError):
    """A task exceeded its per-task timeout on its final permitted attempt.

    Sweep tasks (Section 8, Proposition 11) build finite systems and must
    terminate; a timeout means the task is stuck, not slow, so the engine
    abandons its worker and -- once retries are exhausted -- surfaces the
    task identity and attempt log rather than hanging the sweep.
    """


class CheckpointError(ReproError):
    """A sweep checkpoint file disagrees with the task list resuming it.

    Checkpoint rows record each task's fingerprint (protocol, messengers,
    loss, epsilon -- the sweep coordinates of Section 8); resuming against
    different parameters would silently splice rows from two different
    sweeps, so the mismatch is an error.
    """


class TraceError(ReproError):
    """A trace file does not conform to the ``repro-trace/1`` schema.

    Raised when a reader (``tools/tracereport``,
    :func:`repro.obs.trace.read_trace` in strict mode) is handed a file
    whose header is missing or names a different schema, so a report is
    never silently folded from a file that was not produced by a
    :class:`repro.obs.trace.TraceRecorder`.
    """


class AuditError(ReproError):
    """An audit bundle does not conform to ``repro-audit/1`` or fails its
    hash chain.

    Raised by the readers and verifiers of :mod:`repro.obs.audit` when a
    bundle's header is missing or names a foreign schema, when a record
    is structurally malformed, or -- through the verification report --
    when a recomputed leaf hash, chain link, or derivation-node
    fingerprint disagrees with what the bundle recorded, so a sweep is
    never certified from a file that was tampered with or that
    :class:`repro.obs.audit.AuditBundleWriter` did not produce.
    """


class ProvenanceError(ReproError):
    """A derivation payload does not conform to the ``repro-explain/1`` schema.

    Raised when a reader (``tools/tracediff``,
    :func:`repro.obs.provenance.derivation_from_json`) is handed a payload
    whose schema marker is missing or wrong, or whose node structure is not
    a well-formed derivation tree, so a report is never silently built from
    a file that was not produced by ``Model.explain``.
    """


class WorkerTaskError(ReproError):
    """A task raised inside a worker process and the original exception
    could not cross the process boundary (it was unpicklable).

    Carries the worker-side ``repr`` summary of the original error so the
    failure stays attributable even when the exception object itself
    cannot be shipped back; the sweep engine chains it as the
    ``__cause__`` of its terminal error.
    """
