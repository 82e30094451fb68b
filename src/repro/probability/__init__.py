"""Exact finite measure theory: the probabilistic substrate of the paper.

Everything the paper does with probability -- spaces on runs (Section 3),
induced spaces on points (Section 5), inner/outer measures for
non-measurable facts (Sections 5 and 7), conditioning along the assignment
lattice (Proposition 5), and the inner/outer expectations of Appendix B.2 --
is built from the primitives in this package.
"""

from .bitset import (
    BACKENDS,
    IntervalCache,
    OutcomeIndex,
    get_default_backend,
    kernel_totals,
    merge_kernel_totals,
    reset_kernel_totals,
    use_backend,
)
from .algebra import (
    atoms_from_generators,
    atoms_of_explicit_algebra,
    check_partition,
    common_refinement,
    explicit_closure,
    is_partition,
    restrict_partition,
)
from .distributions import (
    at_least_one_survives,
    bernoulli,
    biased_coin,
    binomial_survivors,
    fair_coin,
    joint,
    point_mass,
    sequences,
    space_of,
    uniform_choice,
    weighted,
)
from .expectation import (
    attainability_witnesses,
    conditional_expectation,
    indicator,
    law_of_total_expectation_check,
    scaled_indicator,
)
from .fractionutil import (
    HALF,
    ONE,
    ZERO,
    as_fraction,
    check_probability,
    format_fraction,
)
from .space import CellMeasure, FiniteProbabilitySpace

__all__ = [
    "CellMeasure",
    "FiniteProbabilitySpace",
    "OutcomeIndex",
    "IntervalCache",
    "BACKENDS",
    "get_default_backend",
    "kernel_totals",
    "merge_kernel_totals",
    "reset_kernel_totals",
    "use_backend",
    "as_fraction",
    "check_probability",
    "format_fraction",
    "ZERO",
    "ONE",
    "HALF",
    "atoms_from_generators",
    "atoms_of_explicit_algebra",
    "check_partition",
    "common_refinement",
    "explicit_closure",
    "is_partition",
    "restrict_partition",
    "point_mass",
    "bernoulli",
    "fair_coin",
    "biased_coin",
    "uniform_choice",
    "weighted",
    "joint",
    "sequences",
    "binomial_survivors",
    "at_least_one_survives",
    "space_of",
    "indicator",
    "scaled_indicator",
    "conditional_expectation",
    "law_of_total_expectation_check",
    "attainability_witnesses",
]
