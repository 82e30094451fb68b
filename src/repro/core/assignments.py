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
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import NotMeasurableError, Req1Error, Req2Error, TreeError
from ..probability.bitset import (
    OutcomeIndex,
    compress_mask,
    mask_of_positions,
    members_of_mask,
)
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


def knowledge_set_of(psys: ProbabilisticSystem, agent: int, point: Point) -> PointSet:
    """``K_i(c)``, the points ``K_i^alpha``, the betting games of Section 4
    and the cut intervals of Section 7 quantify over.

    A point outside the system raises :class:`~repro.errors.TreeError`,
    as ``T(c)`` does, instead of quantifying over nothing or over other
    points with ``c``'s local state.
    """
    if point not in psys.point_index:
        raise TreeError(f"point {point!r} lies in no tree of this system")
    return psys.system.knowledge_set(agent, point)


def check_req2(
    psys: ProbabilisticSystem, point: Point, sample: Iterable[Point]
) -> Fraction:
    """Verify REQ2: ``R(S_ic)`` is measurable with positive measure.

    Returns ``mu_A(R(S_ic))`` on success; raises :class:`Req2Error`.
    """
    sample_set = frozenset(sample)
    tree = check_req1(psys, point, sample_set)
    run_position = tree.run_position
    return _check_runs(
        psys.run_space(tree.adversary),
        mask_of_positions([run_position(run) for run in tree.runs_through(sample_set)]),
    )


def _check_runs(run_space: FiniteProbabilitySpace, runs: int) -> Fraction:
    """REQ2 on ``R(S)``, given as a mask over the run space of the tree
    REQ1 placed the sample in: bit ``k`` is the tree's ``k``-th run,
    whose singleton atom is the run space's ``k``-th."""
    try:
        measure = run_space.measure_mask(runs)  # raises on a split atom
    except NotMeasurableError:
        raise Req2Error("the runs through the sample space are not measurable") from None
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
    conditions ``mu_A`` on ``R(S_ic)``.  The space numbers the sample's
    points in ``System.point_index`` order.
    """
    sample_set = frozenset(sample)
    tree = check_req1(psys, point, sample_set)
    position = psys.point_index.position
    return _space_over(psys, tree, tuple(sorted(sample_set, key=position)))


def _space_over(
    psys: ProbabilisticSystem, tree: ComputationTree, points: Tuple[Point, ...]
) -> FiniteProbabilitySpace:
    """The one construction of an induced point space (Section 5).

    ``points`` is a REQ1-checked sample of ``tree`` in
    ``System.point_index`` order, and is the space's numbering: bit ``i``
    of an atom mask is ``points[i]``.  REQ2 is checked here, on the runs
    the sample touches.  Conditioning on ``R(S)`` in integer weight form,
    each atom weighs its run's integer weight over the total weight of
    runs through the sample, with no per-atom Fraction division.
    Distinct runs project to disjoint nonempty point sets covering the
    sample, so the atoms partition it by construction, and REQ2
    guarantees the total weight is positive.
    """
    run_space = psys.run_space(tree.adversary)
    run_position = tree.run_position
    # one pass over the sample: only the runs it touches are projected,
    # so the cost is linear in the sample, not in the tree
    atom_of_run: Dict[int, int] = {}
    bit = 1
    for member in points:
        position = run_position(member.run)
        atom_of_run[position] = atom_of_run.get(position, 0) | bit
        bit <<= 1
    order = sorted(atom_of_run)
    _check_runs(run_space, mask_of_positions(order))
    run_weights = run_space.atom_weights
    weights = tuple(run_weights[position] for position in order)
    return FiniteProbabilitySpace._from_numbered_atoms(
        points,
        tuple(atom_of_run[position] for position in order),
        weights,
        sum(weights),
        interval_cache_maxsize=psys.interval_cache_maxsize,
    )


# ----------------------------------------------------------------------
# Partitions of the point index (standard assignments, Section 6)
# ----------------------------------------------------------------------


class Partition:
    """One agent's sample spaces as one partition of ``System.point_index``.

    A standard assignment (Section 6) is inclusive and uniform, so its
    samples partition the points: ``c`` lies in ``S_ic`` and in no other
    sample.  Every part lies in one computation tree, so REQ1 holds by
    construction.  Parts are numbered in order of their lowest bit; part
    ``k`` holds its points as a mask (``masks[k]``), as a tuple in
    point-index order (``points[k]``, the numbering of its space), as
    those points' bit positions (``positions[k]``) and as the sample
    ``samples[k]`` of each of its points, in the tree ``trees[k]``.
    """

    __slots__ = ("masks", "points", "positions", "samples", "trees", "_index", "_part_of")

    def __init__(
        self,
        index: OutcomeIndex,
        part_of: Sequence[int],
        points: Sequence[Sequence[Point]],
        positions: Sequence[Sequence[int]],
        trees: Sequence[ComputationTree],
    ) -> None:
        self._index = index
        #: bit position in ``System.point_index`` -> part number
        self._part_of = part_of
        self.points: Tuple[Tuple[Point, ...], ...] = tuple(map(tuple, points))
        self.positions: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, positions))
        self.masks: Tuple[int, ...] = tuple(map(mask_of_positions, self.positions))
        self.samples: Tuple[PointSet, ...] = tuple(map(frozenset, self.points))
        self.trees: Tuple[ComputationTree, ...] = tuple(trees)

    def __len__(self) -> int:
        return len(self.masks)

    def part_at(self, point: Point) -> int:
        """The number of the part holding ``point`` (``S_ic`` of Section 6).

        One position lookup.  A point outside the system raises
        :class:`~repro.errors.TreeError`, as ``T(c)`` does.
        """
        try:
            return self._part_of[self._index.position(point)]
        except KeyError:
            raise TreeError(f"point {point!r} lies in no tree of this system") from None


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

    def partition(self, agent: int) -> Optional[Partition]:
        """The agent's samples as one :class:`Partition`, or None.

        The standard assignments of Section 6 override this, and
        :class:`ProbabilityAssignment` then answers every query from the
        partition.  Any other assignment returns None and is asked point
        by point through :meth:`sample_space`.
        """
        return None

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
    #: ``S_ic`` as a mask over ``System.point_index`` (``mask`` itself
    #: for a standard assignment, whose groups are their own samples).
    sample_mask: int
    #: ``S_ic``'s bit positions in ``System.point_index``, ascending: bit
    #: ``i`` of ``space``'s numbering stands for bit ``positions[i]``, so
    #: ``compress_mask(target, sample_mask, positions)`` is ``S_ic(phi)``
    #: in that numbering when ``target`` is the extension of ``phi``.
    positions: Tuple[int, ...]


class ProbabilityAssignment:
    """The probability assignment induced by a sample-space assignment.

    The sample-space assignment's type picks one of two paths:

    * A standard assignment (Section 6) hands over one
      :class:`Partition` per agent.  Every query reads it: a point's
      sample and space are one position lookup away, a part's space is
      built (and REQ2-checked) on its first query and shared by all of
      its points, and facts are evaluated once into masks
      (:meth:`fact_mask`).
    * Any other assignment is asked point by point.  Its spaces are
      built by :func:`induced_point_space` and cached by ``(agent,
      sample)``, since a uniform assignment reuses one sample at every
      member point; single-point queries never group.

    Whole-system queries (:meth:`inner_probabilities`,
    :meth:`outer_probabilities`) go through :meth:`sample_groups` and
    query each distinct ``S_ic`` once, on masks.
    """

    def __init__(self, ssa: SampleSpaceAssignment, name: Optional[str] = None) -> None:
        self.ssa = ssa
        self.psys = ssa.psys
        self.name = name or ssa.name
        # per-point path: (agent, sample) -> (space, the tree holding it)
        self._space_cache: Dict[
            Tuple[int, PointSet], Tuple[FiniteProbabilitySpace, ComputationTree]
        ] = {}
        # partition path: partition -> its parts' spaces, built on demand
        self._part_spaces: Dict[Partition, List[Optional[FiniteProbabilitySpace]]] = {}
        self._event_cache: Dict[Tuple[Fact, PointSet], PointSet] = {}
        self._fact_masks: Dict[Fact, int] = {}
        self._groups: Dict[int, Tuple[SampleGroup, ...]] = {}

    # -- spaces ----------------------------------------------------------

    def sample_space(self, agent: int, point: Point) -> PointSet:
        """``S_ic``."""
        return self.ssa.sample_space(agent, point)

    def space(self, agent: int, point: Point) -> FiniteProbabilitySpace:
        """``P_ic = (S_ic, X_ic, mu_ic)``."""
        partition = self.ssa.partition(agent)
        if partition is None:
            return self._space_at(agent, point, self.ssa.sample_space(agent, point))[0]
        return self._part_space(partition, partition.part_at(point))

    def _part_space(self, partition: Partition, part: int) -> FiniteProbabilitySpace:
        """``P_ic`` at every point of one part, built on first use.

        REQ1 holds by construction; the construction checks REQ2 once
        per part, through the run space as :func:`check_req2` does.
        """
        spaces = self._part_spaces.get(partition)
        if spaces is None:
            spaces = [None] * len(partition)
            self._part_spaces[partition] = spaces
        space = spaces[part]
        if space is None:
            space = _space_over(self.psys, partition.trees[part], partition.points[part])
            spaces[part] = space
        return space

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
        appearance in ``System.point_index``, built on first use and kept
        on the assignment.  A standard assignment's groups are the parts
        of its partition, read directly.  Any other assignment is asked
        once per point, and REQ1 and REQ2 are checked at every point in
        point-index order, so a defective assignment raises the same error
        as a per-point loop.
        """
        groups = self._groups.get(agent)
        if groups is None:
            partition = self.ssa.partition(agent)
            if partition is None:
                groups = self._groups_point_by_point(agent)
            else:
                groups = tuple(
                    SampleGroup(
                        mask=partition.masks[part],
                        point=partition.points[part][0],
                        sample=partition.samples[part],
                        space=self._part_space(partition, part),
                        sample_mask=partition.masks[part],
                        positions=partition.positions[part],
                    )
                    for part in range(len(partition))
                )
            self._groups[agent] = groups
        return groups

    def _groups_point_by_point(self, agent: int) -> Tuple[SampleGroup, ...]:
        """:meth:`sample_groups` from one ``sample_space`` call per point."""
        sample_space = self.ssa.sample_space
        index = self.psys.point_index
        # sample -> [mask, first point, (space, tree)]
        found: Dict[PointSet, List] = {}
        bit = 1
        for point in index.members:
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
        groups = []
        for sample, (mask, point, cached) in found.items():
            # REQ1 placed the sample in the system, so every member is indexed
            positions = tuple(sorted(map(index.position, sample)))
            groups.append(
                SampleGroup(mask, point, sample, cached[0], mask_of_positions(positions), positions)
            )
        return tuple(groups)

    def inner_probabilities(
        self, agent: int, target: int
    ) -> Iterator[Tuple[SampleGroup, Fraction]]:
        """``(group, (mu_ic)_*(S_ic & target))`` for every sample group.

        The whole-system form of :meth:`inner_probability` (Section 5),
        with the fact given by its extension ``target`` as a mask over
        ``System.point_index``: one inner-measure query per distinct
        ``S_ic`` instead of one per point, on the group's own numbering.
        """
        for group in self.sample_groups(agent):
            local = compress_mask(target, group.sample_mask, group.positions)
            yield group, group.space.inner_measure_mask(local)

    def outer_probabilities(
        self, agent: int, target: int
    ) -> Iterator[Tuple[SampleGroup, Fraction]]:
        """``(group, (mu_ic)^*(S_ic & target))`` for every sample group
        (Section 5), ``target`` a mask over ``System.point_index``."""
        for group in self.sample_groups(agent):
            local = compress_mask(target, group.sample_mask, group.positions)
            yield group, group.space.outer_measure_mask(local)

    # -- probabilities at a point ----------------------------------------

    def fact_mask(self, fact: Fact) -> int:
        """The extension of ``fact`` as a mask over ``System.point_index``.

        Section 2 identifies a fact with the set of points where it
        holds.  The fact is evaluated once per assignment, one
        ``holds_at`` call per point, and the mask is kept as long as the
        assignment: model checking, the sweep thresholds and a standard
        assignment's :meth:`satisfying_points` all read it.
        """
        mask = self._fact_masks.get(fact)
        if mask is None:
            mask = self.psys.point_index.mask_where(fact.holds_at)
            self._fact_masks[fact] = mask
        return mask

    def satisfying_points(self, agent: int, point: Point, fact: Fact) -> PointSet:
        """``S_ic(phi)``: the sample points where the fact holds (Section 5).

        Cached per (fact, sample space): uniform assignments reuse one
        sample across many points, and facts are immutable in practice, so
        the cache turns repeated interval queries from quadratic to linear
        in the system size.  :class:`Fact` hashes and compares by identity,
        so keying by the fact object itself is exactly the old
        ``id(fact)``-keyed scheme without the id-recycling hazard (and
        without the keep-alive workaround it required).  A standard
        assignment decodes ``fact_mask & part`` once per (fact, part); any
        other assignment restricts the fact to the sample point by point.
        """
        partition = self.ssa.partition(agent)
        if partition is None:
            sample = self.ssa.sample_space(agent, point)
        else:
            part = partition.part_at(point)
            sample = partition.samples[part]
        key = (fact, sample)
        cached = self._event_cache.get(key)
        if cached is None:
            if partition is None:
                cached = fact.restricted_to(sample)
            else:
                local = compress_mask(
                    self.fact_mask(fact), partition.masks[part], partition.positions[part]
                )
                cached = frozenset(members_of_mask(partition.points[part], local))
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
        return all(
            self.inner_probability(agent, candidate, fact) >= threshold
            for candidate in self.knowledge_set(agent, point)
        )

    def knowledge_set(self, agent: int, point: Point) -> PointSet:
        """``K_i(c)`` (see :func:`knowledge_set_of`); a point outside the
        system raises ``TreeError``, as :meth:`space` does."""
        return knowledge_set_of(self.psys, agent, point)

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
        for candidate in self.knowledge_set(agent, point):
            inner, outer = self.probability_interval(agent, candidate, fact)
            if inner < low or outer > high:
                return False
        return True

    def knowledge_interval(self, agent: int, point: Point, fact: Fact) -> Tuple[Fraction, Fraction]:
        """The sharpest ``[alpha, beta]`` with ``K_i^[alpha,beta] phi`` at ``c``."""
        from ..probability.fractionutil import ONE, ZERO

        low = ONE
        high = ZERO
        for candidate in self.knowledge_set(agent, point):
            inner, outer = self.probability_interval(agent, candidate, fact)
            low = min(low, inner)
            high = max(high, outer)
        return low, high

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbabilityAssignment({self.name})"
