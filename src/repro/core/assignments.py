"""Sample-space assignments and induced probability assignments (Section 5).

A *probability assignment* ``P`` maps an agent ``p_i`` and a point ``c`` to
a probability space ``P_ic = (S_ic, X_ic, mu_ic)`` used to evaluate
``Pr_i(phi) >= alpha`` at ``c``.  The paper reduces choosing ``P`` to
choosing a *sample-space assignment* ``S`` -- which points appear in
``S_ic`` -- subject to:

* **REQ1**: all points of ``S_ic`` lie in the one computation tree ``T(c)``;
* **REQ2**: the runs through ``S_ic`` form a measurable set of positive
  measure in ``T(c)``'s run space.

Given these, the induced space conditions the run distribution on
``R(S_ic)`` and projects: measurable point sets are projections of
measurable run sets (``X_ic = { Proj(R', S_ic) : R' in X_A }``), and
``mu_ic(S) = mu_A(R(S) | R(S_ic))``.  Propositions 1 and 2 (this module's
:func:`check_req2_state_generated` and the constructor of
:func:`induced_point_space`) guarantee the construction is well-defined.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from ..errors import NotMeasurableError, Req1Error, Req2Error
from ..probability.fractionutil import ZERO
from ..probability.space import FiniteProbabilitySpace
from .facts import Fact, state_generated_point_set
from .model import Point, Run

if TYPE_CHECKING:
    # Annotation-only: core sits below trees in the import DAG (RL002).
    from ..trees.probabilistic_system import ProbabilisticSystem
    from ..trees.tree import ComputationTree

PointSet = FrozenSet[Point]


# ----------------------------------------------------------------------
# REQ1 / REQ2
# ----------------------------------------------------------------------


def check_req1(psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]) -> ComputationTree:
    """Verify REQ1: every point of the sample lies in ``T(c)``.

    Returns the tree on success; raises :class:`Req1Error` otherwise.
    """
    tree = psys.tree_of(point)
    for member in sample:
        if not tree.contains_point(member):
            raise Req1Error(
                f"sample point {member!r} lies outside T(c) "
                f"(adversary {tree.adversary!r})"
            )
    return tree


def check_req2(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> Fraction:
    """Verify REQ2: ``R(S_ic)`` is measurable with positive measure.

    Returns ``mu_A(R(S_ic))`` on success; raises :class:`Req2Error`.
    """
    sample_set = frozenset(sample)
    tree = check_req1(psys, point, sample_set)
    runs = tree.runs_through(sample_set)
    space = psys.run_space(tree.adversary)
    if not space.is_measurable(runs):
        raise Req2Error("the runs through the sample space are not measurable")
    measure = space.measure(runs)
    if measure <= ZERO:
        raise Req2Error("the runs through the sample space have measure zero")
    return measure


def requirement_defects(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> List[str]:
    """Every REQ1/REQ2 defect of one sample space, as messages (Section 5).

    The non-raising counterpart of :func:`check_req2`, used by
    :func:`repro.robustness.validate.validate_assignment` to aggregate
    violations across all (agent, point) pairs instead of stopping at the
    first :class:`Req1Error`/:class:`Req2Error`.  An empty list means the
    sample satisfies both requirements at this point.
    """
    sample_set = frozenset(sample)
    defects: List[str] = []
    try:
        tree = psys.tree_of(point)
    except Exception as error:
        return [f"REQ1: the point belongs to no computation tree ({error})"]
    outside = [member for member in sample_set if not tree.contains_point(member)]
    if outside:
        defects.append(
            f"REQ1: {len(outside)} sample point(s) lie outside T(c) "
            f"(adversary {tree.adversary!r})"
        )
    inside = frozenset(member for member in sample_set if tree.contains_point(member))
    if not inside:
        defects.append("REQ2: no sample point lies in T(c), so R(S) is empty")
        return defects
    runs = tree.runs_through(inside)
    space = psys.run_space(tree.adversary)
    if not space.is_measurable(runs):
        defects.append("REQ2: the runs through the sample space are not measurable")
    elif space.measure(runs) <= ZERO:
        defects.append("REQ2: the runs through the sample space have measure zero")
    return defects


def check_req2_state_generated(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> bool:
    """Proposition 1: a state-generated sample satisfying REQ1 satisfies REQ2.

    Returns True iff the hypothesis holds (state generated and REQ1), in
    which case the conclusion is checked by actually running
    :func:`check_req2` -- so a ``True`` return certifies both the
    proposition's hypothesis and its conclusion for this instance.
    """
    sample_set = frozenset(sample)
    if not sample_set:
        return False
    if not state_generated_point_set(psys.system, sample_set):
        return False
    try:
        check_req1(psys, point, sample_set)
    except Req1Error:
        return False
    check_req2(psys, point, sample_set)  # raises if Proposition 1 were false
    return True


# ----------------------------------------------------------------------
# The induced probability space (Proposition 2)
# ----------------------------------------------------------------------


def project_runs(runs: Iterable[Run], sample: Iterable[Point]) -> PointSet:
    """``Proj(R', S) = { (r, k) in S : r in R' }`` (Section 5)."""
    run_set = frozenset(runs)
    return frozenset(point for point in sample if point.run in run_set)


def induced_point_space(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> FiniteProbabilitySpace:
    """The probability space ``P_ic`` induced on a sample space.

    Atoms of ``X_ic`` are projections of the run-space atoms onto the
    sample.  :meth:`ProbabilisticSystem.run_space` is the powerset
    algebra, so the atom for run ``r`` is the set of sample points lying
    on ``r`` -- one atom per run the sample touches, in run-atom order,
    which in asynchronous systems may contain several points (this is
    exactly the source of Section 7's non-measurability).  The measure
    conditions ``mu_A`` on ``R(S_ic)``.
    """
    sample_set = frozenset(sample)
    check_req2(psys, point, sample_set)  # REQ1 checked inside
    tree = psys.tree_of(point)
    run_weights = psys.run_space(tree.adversary).atom_weights
    # group the sample by run once: only the runs the sample touches are
    # projected, so the cost is linear in the sample, not in the tree
    points_on_run: Dict[Run, List[Point]] = {}
    for member in sample_set:
        points_on_run.setdefault(member.run, []).append(member)
    positions = sorted(tree.run_position(run) for run in points_on_run)
    runs = tree.runs
    # conditioning on R(S_ic) in integer weight form: the conditional
    # measure of a projected atom is its run weight over the total weight
    # of runs through the sample, with no per-atom Fraction division.
    # Distinct runs project to disjoint nonempty point sets covering the
    # sample, so the atoms partition it by construction, and check_req2
    # guarantees the total weight is positive.
    weights = tuple(run_weights[position] for position in positions)
    return FiniteProbabilitySpace._from_atom_weights(
        tuple(frozenset(points_on_run[runs[position]]) for position in positions),
        weights,
        sum(weights),
        interval_cache_maxsize=psys.interval_cache_maxsize,
    )


# ----------------------------------------------------------------------
# Sample-space assignments
# ----------------------------------------------------------------------


class SampleSpaceAssignment:
    """A function ``S`` from (agent, point) to a sample space of points.

    Subclasses implement :meth:`sample_space`.  The assignment is bound to a
    probabilistic system so that its properties (consistency, uniformity,
    the lattice order) are decidable by enumeration.
    """

    def __init__(self, psys: ProbabilisticSystem, name: Optional[str] = None) -> None:
        self.psys = psys
        self.name = name or type(self).__name__

    def sample_space(self, agent: int, point: Point) -> PointSet:
        """``S(i, c) = S_ic``; must satisfy REQ1 and REQ2."""
        raise NotImplementedError

    # -- paper's structural properties ---------------------------------

    def is_consistent(self) -> bool:
        """``S_ic subseteq K_i(c)`` everywhere (Section 5).

        Consistency characterises the axiom ``K_i(phi) => Pr_i(phi) = 1``.
        """
        system = self.psys.system
        for agent in system.agents:
            for point in system.points:
                if not self.sample_space(agent, point) <= system.knowledge_set(agent, point):
                    return False
        return True

    def is_state_generated(self) -> bool:
        """Every ``S_ic`` contains all points sharing a member's global state."""
        system = self.psys.system
        return all(
            state_generated_point_set(system, self.sample_space(agent, point))
            for agent in system.agents
            for point in system.points
        )

    def is_inclusive(self) -> bool:
        """``c in S_ic`` everywhere (property (b) of Section 6)."""
        system = self.psys.system
        return all(
            point in self.sample_space(agent, point)
            for agent in system.agents
            for point in system.points
        )

    def is_uniform(self) -> bool:
        """``d in S_ic`` implies ``S_id = S_ic`` (property (c) of Section 6)."""
        system = self.psys.system
        for agent in system.agents:
            for point in system.points:
                sample = self.sample_space(agent, point)
                for other in sample:
                    if self.sample_space(agent, other) != sample:
                        return False
        return True

    def is_standard(self) -> bool:
        """State generated + inclusive + uniform (Section 6)."""
        return self.is_state_generated() and self.is_inclusive() and self.is_uniform()

    def satisfies_requirements(self) -> bool:
        """REQ1 and REQ2 hold at every (agent, point)."""
        system = self.psys.system
        for agent in system.agents:
            for point in system.points:
                try:
                    check_req2(self.psys, point, self.sample_space(agent, point))
                except (Req1Error, Req2Error):
                    return False
        return True

    # -- the lattice order (Section 6) ---------------------------------

    def leq(self, other: "SampleSpaceAssignment") -> bool:
        """``S <= S'`` iff ``S_ic subseteq S'_ic`` for every agent and point."""
        system = self.psys.system
        return all(
            self.sample_space(agent, point) <= other.sample_space(agent, point)
            for agent in system.agents
            for point in system.points
        )

    def lt(self, other: "SampleSpaceAssignment") -> bool:
        """Strict order: ``S <= S'`` and they differ somewhere."""
        if not self.leq(other):
            return False
        system = self.psys.system
        return any(
            self.sample_space(agent, point) != other.sample_space(agent, point)
            for agent in system.agents
            for point in system.points
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class ExplicitAssignment(SampleSpaceAssignment):
    """An assignment given by an explicit table ``(agent, point) -> sample``.

    Missing entries default to the singleton ``{c}`` so that partial tables
    (as in the Section 5 coin/die examples) stay total.
    """

    def __init__(
        self,
        psys: ProbabilisticSystem,
        table: Mapping[Tuple[int, Point], Iterable[Point]],
        name: Optional[str] = None,
        default_to_singleton: bool = True,
    ) -> None:
        super().__init__(psys, name)
        self._table: Dict[Tuple[int, Point], PointSet] = {
            key: frozenset(value) for key, value in table.items()
        }
        self._default_to_singleton = default_to_singleton

    def sample_space(self, agent: int, point: Point) -> PointSet:
        key = (agent, point)
        if key in self._table:
            return self._table[key]
        if self._default_to_singleton:
            return frozenset([point])
        raise KeyError(f"no sample space for agent {agent} at {point!r}")


class FunctionAssignment(SampleSpaceAssignment):
    """An assignment computed by an arbitrary function of (agent, point)."""

    def __init__(
        self,
        psys: ProbabilisticSystem,
        function: Callable[[int, Point], Iterable[Point]],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(psys, name)
        self._function = function

    def sample_space(self, agent: int, point: Point) -> PointSet:
        return frozenset(self._function(agent, point))


# ----------------------------------------------------------------------
# Probability assignments
# ----------------------------------------------------------------------


class SampleGroup(NamedTuple):
    """The points at which one agent has one sample space ``S_ic``.

    ``mu_ic`` depends on the sample alone (Section 5), so
    ``Pr_i(phi) >= alpha`` has one truth value per group.
    """

    #: The group's points, as a mask over ``System.point_index``.
    mask: int
    #: The group's first point in point-index order.
    point: Point
    #: ``S_ic``, shared by every point of the group.
    sample: PointSet
    #: ``P_ic``, shared by every point of the group.
    space: FiniteProbabilitySpace


class ProbabilityAssignment:
    """The probability assignment induced by a sample-space assignment.

    ``P_ic`` is built by :func:`induced_point_space` and cached.  Because a
    uniform assignment reuses the same sample at every member point, spaces
    are cached by ``(agent, sample)`` rather than ``(agent, point)``.

    Single-point queries (:meth:`space`, :meth:`probability` and friends)
    ask the sample-space assignment about that point only.  Whole-system
    queries (:meth:`inner_probabilities`, :meth:`outer_probabilities`)
    go through :meth:`sample_groups` and query each distinct ``S_ic`` once.
    """

    def __init__(self, ssa: SampleSpaceAssignment, name: Optional[str] = None) -> None:
        self.ssa = ssa
        self.psys = ssa.psys
        self.name = name or ssa.name
        # (agent, sample) -> (space, the tree holding the sample)
        self._space_cache: Dict[
            Tuple[int, PointSet], Tuple[FiniteProbabilitySpace, ComputationTree]
        ] = {}
        self._event_cache: Dict[Tuple[Fact, PointSet], PointSet] = {}
        self._groups: Dict[int, Tuple[SampleGroup, ...]] = {}

    # -- spaces ----------------------------------------------------------

    def sample_space(self, agent: int, point: Point) -> PointSet:
        """``S_ic``."""
        return self.ssa.sample_space(agent, point)

    def space(self, agent: int, point: Point) -> FiniteProbabilitySpace:
        """``P_ic = (S_ic, X_ic, mu_ic)``."""
        return self._space_at(agent, point, self.ssa.sample_space(agent, point))[0]

    def _space_at(
        self, agent: int, point: Point, sample: PointSet
    ) -> Tuple[FiniteProbabilitySpace, ComputationTree]:
        """The cached ``(P_ic, T(c))`` for ``sample = S_ic``, REQ1-checked at ``c``.

        A cached space was built at some point ``d`` with ``S_id`` the
        same nonempty sample, inside ``T(d)``.  Trees are disjoint, so the
        sample lies in ``T(c)`` exactly when ``c`` lies in ``T(d)``: one
        membership test per hit keeps REQ1 checked at every point.
        """
        key = (agent, sample)
        cached = self._space_cache.get(key)
        if cached is None:
            space = induced_point_space(self.psys, point, sample)
            cached = (space, self.psys.tree_of(point))
            self._space_cache[key] = cached
        elif not cached[1].contains_point(point):
            check_req1(self.psys, point, sample)  # raises: the sample leaves T(c)
        return cached

    def sample_groups(self, agent: int) -> Tuple[SampleGroup, ...]:
        """The points of the system grouped by the agent's sample space.

        One :class:`SampleGroup` per distinct ``S_ic``, in order of first
        appearance in ``System.point_index``.  Built on first use from one
        ``sample_space`` call per point and kept on the assignment.
        REQ1 and REQ2 are checked at every point in point-index order, so
        a defective assignment raises the same error as a per-point loop.
        """
        groups = self._groups.get(agent)
        if groups is None:
            sample_space = self.ssa.sample_space
            # sample -> [mask, first point, (space, tree)]
            found: Dict[PointSet, List] = {}
            bit = 1
            for point in self.psys.point_index.members:
                sample = sample_space(agent, point)
                entry = found.get(sample)
                if entry is None:
                    found[sample] = [bit, point, self._space_at(agent, point, sample)]
                else:
                    entry[0] |= bit
                    # the membership test of a space-cache hit (_space_at)
                    tree = entry[2][1]
                    if not tree.contains_point(point):
                        check_req1(self.psys, point, sample)  # raises
                bit <<= 1
            groups = tuple(
                SampleGroup(mask, point, sample, cached[0])
                for sample, (mask, point, cached) in found.items()
            )
            self._groups[agent] = groups
        return groups

    def inner_probabilities(
        self, agent: int, target: PointSet
    ) -> Iterator[Tuple[SampleGroup, Fraction]]:
        """``(group, (mu_ic)_*(S_ic & target))`` for every sample group.

        The whole-system form of :meth:`inner_probability`, with the
        fact given by its extension ``target``: one inner-measure query
        per distinct ``S_ic`` instead of one per point.
        """
        for group in self.sample_groups(agent):
            yield group, group.space.inner_measure(group.sample & target)

    def outer_probabilities(
        self, agent: int, target: PointSet
    ) -> Iterator[Tuple[SampleGroup, Fraction]]:
        """``(group, (mu_ic)^*(S_ic & target))`` for every sample group."""
        for group in self.sample_groups(agent):
            yield group, group.space.outer_measure(group.sample & target)

    # -- probabilities at a point ----------------------------------------

    def satisfying_points(self, agent: int, point: Point, fact: Fact) -> PointSet:
        """``S_ic(phi)``: the sample points where the fact holds (Section 5).

        Cached per (fact, sample space): uniform assignments reuse one
        sample across many points, and facts are immutable in practice, so
        the cache turns repeated interval queries from quadratic to linear
        in the system size.  :class:`Fact` hashes and compares by identity,
        so keying by the fact object itself is exactly the old
        ``id(fact)``-keyed scheme without the id-recycling hazard (and
        without the keep-alive workaround it required).
        """
        sample = self.ssa.sample_space(agent, point)
        key = (fact, sample)
        cached = self._event_cache.get(key)
        if cached is None:
            cached = fact.restricted_to(sample)
            self._event_cache[key] = cached
        return cached

    def is_measurable_at(self, agent: int, point: Point, fact: Fact) -> bool:
        """True iff ``S_ic(phi)`` is measurable in ``P_ic``."""
        return self.space(agent, point).is_measurable(
            self.satisfying_points(agent, point, fact)
        )

    def is_measurable(self, fact: Fact) -> bool:
        """Measurable with respect to the assignment: at every agent/point."""
        system = self.psys.system
        return all(
            self.is_measurable_at(agent, point, fact)
            for agent in system.agents
            for point in system.points
        )

    def probability(self, agent: int, point: Point, fact: Fact) -> Fraction:
        """``mu_ic(S_ic(phi))``; raises if the fact is not measurable at c."""
        event = self.satisfying_points(agent, point, fact)
        space = self.space(agent, point)
        if not space.is_measurable(event):
            raise NotMeasurableError(
                f"{fact.name} is not measurable for agent {agent} here; "
                "use inner_probability / outer_probability"
            )
        return space.measure(event)

    def inner_probability(self, agent: int, point: Point, fact: Fact) -> Fraction:
        """``(mu_ic)_*(S_ic(phi))`` -- the semantics of ``Pr_i(phi) >= alpha``."""
        return self.space(agent, point).inner_measure(
            self.satisfying_points(agent, point, fact)
        )

    def outer_probability(self, agent: int, point: Point, fact: Fact) -> Fraction:
        """``(mu_ic)^*(S_ic(phi))``."""
        return self.space(agent, point).outer_measure(
            self.satisfying_points(agent, point, fact)
        )

    def probability_interval(
        self, agent: int, point: Point, fact: Fact
    ) -> Tuple[Fraction, Fraction]:
        """``(inner, outer)`` measure of the fact at the point."""
        return self.space(agent, point).measure_interval(
            self.satisfying_points(agent, point, fact)
        )

    # -- probabilistic knowledge ------------------------------------------

    def pr_at_least(self, agent: int, point: Point, fact: Fact, alpha) -> bool:
        """``(P, c) |= Pr_i(phi) >= alpha`` (inner-measure semantics)."""
        from ..probability.fractionutil import as_fraction

        return self.inner_probability(agent, point, fact) >= as_fraction(alpha)

    def knows_probability_at_least(self, agent: int, point: Point, fact: Fact, alpha) -> bool:
        """``(P, c) |= K_i^alpha phi``: ``Pr_i(phi) >= alpha`` at every point
        the agent considers possible at ``c``."""
        from ..probability.fractionutil import as_fraction

        threshold = as_fraction(alpha)
        system = self.psys.system
        return all(
            self.inner_probability(agent, candidate, fact) >= threshold
            for candidate in system.knowledge_set(agent, point)
        )

    def knows_probability_interval(
        self, agent: int, point: Point, fact: Fact, alpha, beta
    ) -> bool:
        """``(P, c) |= K_i^[alpha,beta] phi``.

        Per Section 6 this abbreviates
        ``K_i[(Pr_i(phi) >= alpha) & (Pr_i(~phi) >= 1 - beta)]``: inner
        measure of the fact at least ``alpha`` and outer measure at most
        ``beta``, at every point the agent considers possible.
        """
        from ..probability.fractionutil import as_fraction

        low = as_fraction(alpha)
        high = as_fraction(beta)
        system = self.psys.system
        for candidate in system.knowledge_set(agent, point):
            inner, outer = self.probability_interval(agent, candidate, fact)
            if inner < low or outer > high:
                return False
        return True

    def knowledge_interval(self, agent: int, point: Point, fact: Fact) -> Tuple[Fraction, Fraction]:
        """The sharpest ``[alpha, beta]`` with ``K_i^[alpha,beta] phi`` at ``c``."""
        from ..probability.fractionutil import ONE, ZERO

        low = ONE
        high = ZERO
        system = self.psys.system
        for candidate in system.knowledge_set(agent, point):
            inner, outer = self.probability_interval(agent, candidate, fact)
            low = min(low, inner)
            high = max(high, outer)
        return low, high

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbabilityAssignment({self.name})"
