"""The paper's primary contribution, executable.

``model`` and ``facts`` realise Section 2; ``assignments`` realises the
Section 5 reduction from probability assignments to sample-space
assignments; ``standard`` gives the Section 6 lattice (``post``, ``fut``,
``opp(j)``, ``prior``); ``cuts`` gives the Section 7 type-3 adversaries;
``measurability`` covers Proposition 3 and its asynchronous failure.
"""

from .assignments import (
    ExplicitAssignment,
    FunctionAssignment,
    ProbabilityAssignment,
    SampleGroup,
    SampleSpaceAssignment,
    check_req1,
    check_req2,
    check_req2_state_generated,
    induced_point_space,
    project_runs,
)
from .agreement import (
    AgreementReport,
    DialogueResult,
    DialogueRound,
    agreement_dialogue,
    aumann_agreement,
    common_knowledge_of_posteriors,
    knowledge_partition,
    meet_partition,
)
from .cuts import (
    count_point_cuts,
    cut_probability_interval,
    enumerate_banded_cuts,
    enumerate_horizontal_cuts,
    enumerate_partial_cuts,
    enumerate_point_cuts,
    enumerate_state_cuts,
    interval_over_banded_cuts,
    interval_over_cuts,
    points_by_run,
    pts_interval,
    verify_proposition10,
)
from .facts import (
    Fact,
    is_fact_about_global_state,
    is_fact_about_run,
    state_generated_point_set,
)
from .measurability import (
    measurability_report,
    non_measurable_sites,
    proposition3_instance,
    sufficient_richness_propositions,
)
from .model import GlobalState, LocalState, Point, Run, System
from .standard import (
    FutureAssignment,
    OpponentAssignment,
    PostAssignment,
    PriorAssignment,
    conditioning_identity_everywhere,
    conditioning_identity_holds,
    opponent_assignment,
    refinement_partition,
    standard_assignments,
)

__all__ = [
    "GlobalState",
    "LocalState",
    "Point",
    "Run",
    "System",
    "Fact",
    "is_fact_about_run",
    "is_fact_about_global_state",
    "state_generated_point_set",
    "SampleSpaceAssignment",
    "ExplicitAssignment",
    "FunctionAssignment",
    "ProbabilityAssignment",
    "SampleGroup",
    "check_req1",
    "check_req2",
    "check_req2_state_generated",
    "induced_point_space",
    "project_runs",
    "PostAssignment",
    "FutureAssignment",
    "OpponentAssignment",
    "PriorAssignment",
    "standard_assignments",
    "opponent_assignment",
    "refinement_partition",
    "conditioning_identity_holds",
    "conditioning_identity_everywhere",
    "measurability_report",
    "non_measurable_sites",
    "proposition3_instance",
    "sufficient_richness_propositions",
    "points_by_run",
    "count_point_cuts",
    "enumerate_point_cuts",
    "enumerate_partial_cuts",
    "enumerate_state_cuts",
    "enumerate_horizontal_cuts",
    "enumerate_banded_cuts",
    "interval_over_banded_cuts",
    "AgreementReport",
    "aumann_agreement",
    "agreement_dialogue",
    "DialogueResult",
    "DialogueRound",
    "common_knowledge_of_posteriors",
    "knowledge_partition",
    "meet_partition",
    "cut_probability_interval",
    "interval_over_cuts",
    "pts_interval",
    "verify_proposition10",
]
