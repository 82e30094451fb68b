"""Whole-system probability queries agree with the per-point oracle.

``mu_ic`` depends on the sample space ``S_ic`` alone (Section 5), so the
model checker and the Proposition 11 thresholds evaluate
``Pr_i(phi) >= alpha`` once per distinct ``(agent, S_ic)`` through
:meth:`ProbabilityAssignment.sample_groups`.  Every test here keeps the
simple per-point loop (one ``inner_probability`` call per point) as the
oracle and demands bit-identical masks, identical thresholds and
witnesses, and byte-identical induced spaces, on random one- and
two-tree systems, synchronous and asynchronous, under both measure
backends, with uniform and non-uniform assignments.  The REQ1/REQ2
regressions pin that grouping never hides a requirement violation.

The standard assignments answer every query, per point too, from one
partition of the point index, so their own per-point answers are no
independent oracle.  Each gets a twin instead: a
:class:`FunctionAssignment` that scans ``T(c)`` for the points sharing
``c``'s Section 6 key and shares no code with ``core/standard.py``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.attack.protocols import build_ca1, build_ca1_adaptive, build_ca2
from repro.attack.sweep import post_threshold, post_threshold_witness, prior_threshold
from repro.core import (
    ExplicitAssignment,
    FunctionAssignment,
    ProbabilityAssignment,
    check_req2,
    induced_point_space,
    opponent_assignment,
    standard_assignments,
)
from repro.core.facts import Fact
from repro.core.model import GlobalState, Point
from repro.core.standard import PostAssignment
from repro.examples_lib import repeated_coin_system
from repro.logic import Model
from repro.logic.common_knowledge import common_knowledge_points
from repro.logic.syntax import (
    CommonKnowsProb,
    EveryoneKnowsProb,
    PrAtLeast,
    PrAtMost,
    Prop,
    knows_prob_at_least,
)
from repro.probability import BACKENDS, kernel_totals, use_backend
from repro.testing import first_branch_fact, parity_fact, random_psys
from repro.trees.probabilistic_system import ProbabilisticSystem
from repro.trees.tree import ComputationTree


#: Synchronous profiles (every agent reads the clock) and asynchronous
#: ones (a blind agent merges times), for two agents.
PROFILES = (
    ("clock", "full"),
    ("parity", "clock"),
    ("full", "full"),
    ("blind", "clock"),
    ("blind", "parity"),
    ("blind", "blind"),
)

ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The per-point oracle
# ----------------------------------------------------------------------


def oracle_pr_mask(pa, agent, target, alpha):
    """``Pr_i(phi) >= alpha`` point by point."""
    fact = Fact.from_points(target)
    mask = 0
    for position, point in enumerate(pa.psys.point_index.members):
        if pa.inner_probability(agent, point, fact) >= alpha:
            mask |= 1 << position
    return mask


def oracle_pr_at_most_mask(pa, agent, target, beta):
    """``Pr_i(phi) <= beta`` (outer measure) point by point."""
    fact = Fact.from_points(target)
    mask = 0
    for position, point in enumerate(pa.psys.point_index.members):
        if pa.outer_probability(agent, point, fact) <= beta:
            mask |= 1 << position
    return mask


def oracle_knows_mask(system, agent, satisfying):
    """``K_i`` over a mask: the points whose whole ``K_i(c)`` satisfies."""
    index = system.point_index
    mask = 0
    for position, point in enumerate(index.members):
        if all(satisfying >> index.position(d) & 1 for d in system.knowledge_set(agent, point)):
            mask |= 1 << position
    return mask


def oracle_everyone_prob_mask(pa, group, alpha, target_mask):
    index = pa.psys.point_index
    target = index.members_of(target_mask)
    result = index.full_mask
    for agent in group:
        satisfying = oracle_pr_mask(pa, agent, target, alpha)
        result &= oracle_knows_mask(pa.psys.system, agent, satisfying)
    return result


def oracle_common_prob_mask(pa, group, alpha, sub_mask):
    current = pa.psys.point_index.full_mask
    while True:
        updated = oracle_everyone_prob_mask(pa, group, alpha, sub_mask & current)
        if updated == current:
            return current
        current = updated


def oracle_minimum(pa, attack):
    """The per-point argmin: agents in group order, points in index order."""
    best = None
    for agent in attack.group:
        for point in pa.psys.point_index.members:
            inner = pa.inner_probability(agent, point, attack.coordinated)
            if best is None or inner < best[0]:
                best = (inner, agent, point)
    return best


def all_atoms_projection(psys, point, sample):
    """The induced space's atoms and weights by projecting every run atom."""
    sample_set = frozenset(sample)
    check_req2(psys, point, sample_set)
    tree = psys.tree_of(point)
    run_space = psys.run_space(tree.adversary)
    points_on_run = {}
    for member in sample_set:
        points_on_run.setdefault(member.run, []).append(member)
    atoms = []
    weight_of = {}
    for run_atom, weight in zip(run_space.atoms, run_space.atom_weights):
        projected = frozenset(
            member
            for run in run_atom
            if run in points_on_run
            for member in points_on_run[run]
        )
        if not projected:
            continue
        if projected in weight_of:
            weight_of[projected] += weight
        else:
            atoms.append(projected)
            weight_of[projected] = weight
    return tuple(atoms), tuple(weight_of[atom] for atom in atoms), sum(weight_of.values())


# ----------------------------------------------------------------------
# Assignments under test
# ----------------------------------------------------------------------


def mixed_assignment(psys, seed):
    """Non-uniform: ``Tree_ic`` at some points, a random sub-sample of
    ``T(c)`` containing ``c`` at others -- so points of one information
    class get different samples, and some samples are shared."""
    rng = random.Random(seed)
    post = PostAssignment(psys)
    table = {}
    for agent in psys.system.agents:
        for point in psys.point_index.members:
            draw = rng.randrange(3)
            if draw == 0:
                table[agent, point] = post.sample_space(agent, point)
            elif draw == 1:
                tree = psys.tree_of(point)
                table[agent, point] = frozenset(
                    member for member in tree.points if rng.randrange(2)
                ) | {point}
            # draw == 2: the default singleton {c}
    return ProbabilityAssignment(ExplicitAssignment(psys, table, name="mixed"))


def time_cut_assignment(psys):
    """Non-uniform and non-inclusive: the points of ``T(c)`` at time
    ``min(k, 1)`` with the agent's local state at ``c``, or ``{c}`` when
    there are none."""

    def sample(agent, point):
        tree = psys.tree_of(point)
        local = point.local_state(agent)
        chosen = frozenset(
            member
            for member in tree.points
            if member.time == min(point.time, 1) and member.local_state(agent) == local
        )
        return chosen or frozenset([point])

    return ProbabilityAssignment(FunctionAssignment(psys, sample, name="time-cut"))


#: Section 6's keys, read point by point: two points of one tree share a
#: standard sample exactly when their keys agree.
TWIN_KEYS = {
    "post": lambda agent: lambda point: point.local_state(agent),
    "fut": lambda agent: lambda point: point.global_state,
    "prior": lambda agent: lambda point: point.time,
}


def twin(psys, name):
    """The independent twin of the standard assignment called ``name``."""
    if name.startswith("opp("):
        opponent = int(name[len("opp("):-1])

        def key_for(agent):
            return lambda point: (point.local_state(agent), point.local_state(opponent))
    else:
        key_for = TWIN_KEYS[name]

    def sample(agent, point):
        key = key_for(agent)
        mine = key(point)
        return frozenset(member for member in psys.tree_of(point).points if key(member) == mine)

    return ProbabilityAssignment(FunctionAssignment(psys, sample, name=f"twin {name}"))


def twins_of(psys):
    names = ["post", "fut", "prior"] + [f"opp({agent})" for agent in psys.system.agents]
    return {name: twin(psys, name) for name in names}


def assignments_of(psys, seed):
    named = dict(standard_assignments(psys))
    for opponent in psys.system.agents:
        named[f"opp({opponent})"] = opponent_assignment(psys, opponent)
    named["mixed"] = mixed_assignment(psys, seed)
    named["time-cut"] = time_cut_assignment(psys)
    return named


systems = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from((1, 2)),
    st.sampled_from(PROFILES),
    st.sampled_from((1, 2, 3)),
)


def build(seed, trees, profile, depth):
    return random_psys(
        seed, num_trees=trees, depth=depth, max_branching=3, observability=profile
    )


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(params=systems, alpha=st.sampled_from(ALPHAS))
def test_probability_masks_match_per_point_oracle(backend, params, alpha):
    with use_backend(backend):
        psys = build(*params)
        facts = {"parity": parity_fact(), "first": first_branch_fact()}
        twins = twins_of(psys)
        for name, pa in assignments_of(psys, params[0]).items():
            # a standard assignment is judged by its twin's per-point
            # answers; the others by their own
            oracle = twins.get(name, pa)
            model = Model(pa, facts)
            twin_model = Model(oracle, facts)
            for prop in ("parity", "first"):
                sub = Prop(prop)
                target = model.extension(sub)
                sub_mask = model.extension_mask(sub)
                for agent in psys.system.agents:
                    expected = oracle_pr_mask(oracle, agent, target, alpha)
                    assert oracle_pr_mask(pa, agent, target, alpha) == expected, name
                    assert model.extension_mask(PrAtLeast(agent, sub, alpha)) == expected, name
                    assert model.extension_mask(PrAtMost(agent, sub, alpha)) == (
                        oracle_pr_at_most_mask(oracle, agent, target, alpha)
                    ), name
                    assert model.extension_mask(knows_prob_at_least(agent, alpha, sub)) == (
                        oracle_knows_mask(psys.system, agent, expected)
                    ), name
                group = tuple(psys.system.agents)
                assert model.extension_mask(EveryoneKnowsProb(group, alpha, sub)) == (
                    oracle_everyone_prob_mask(oracle, group, alpha, sub_mask)
                ), name
                common = oracle_common_prob_mask(oracle, group, alpha, sub_mask)
                assert model.extension_mask(CommonKnowsProb(group, alpha, sub)) == common, name
                points = common_knowledge_points(model, group, target, alpha)
                assert points == psys.point_index.members_of(common), name
                formulas = [EveryoneKnowsProb(group, alpha, sub), CommonKnowsProb(group, alpha, sub)]
                for agent in psys.system.agents:
                    formulas += [
                        PrAtLeast(agent, sub, alpha),
                        PrAtMost(agent, sub, alpha),
                        knows_prob_at_least(agent, alpha, sub),
                    ]
                for formula in formulas:
                    assert twin_model.extension_mask(formula) == model.extension_mask(formula), name


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(params=systems)
def test_induced_space_matches_all_atoms_projection(backend, params):
    with use_backend(backend):
        psys = build(*params)
        rng = random.Random(params[0])
        samples = set()
        twins = twins_of(psys)
        for name, pa in assignments_of(psys, params[0]).items():
            for agent in psys.system.agents:
                groups = pa.sample_groups(agent)
                for group in groups:
                    samples.add((group.point, group.sample))
                    # the group's own space, partition-built or not
                    atoms, weights, denominator = all_atoms_projection(
                        psys, group.point, group.sample
                    )
                    assert group.space.atoms == atoms, name
                    assert group.space.atom_weights == weights, name
                    assert group.space.weight_denominator == denominator, name
                if name in twins:
                    theirs = twins[name].sample_groups(agent)
                    assert [group[:3] + group[4:] for group in groups] == [
                        group[:3] + group[4:] for group in theirs
                    ], name
                    for mine, other in zip(groups, theirs):
                        assert mine.space.atoms == other.space.atoms, name
                        assert mine.space.atom_weights == other.space.atom_weights, name
                        assert mine.space.weight_denominator == other.space.weight_denominator
        for tree in psys.trees:
            points = tree.points
            anchor = points[rng.randrange(len(points))]
            samples.add((anchor, frozenset(rng.sample(points, rng.randint(1, len(points))))))
        for point, sample in samples:
            space = induced_point_space(psys, point, sample)
            atoms, weights, denominator = all_atoms_projection(psys, point, sample)
            assert space.atoms == atoms
            assert space.atom_weights == weights
            assert space.weight_denominator == denominator


def test_induced_space_masks_fit_their_own_numbering():
    """An induced space's atom masks are as wide as the space, not as
    ``System.point_index``: the 10-toss coin's ``opp(1)`` spaces have
    1,024 singleton atoms each on an 11,264-point index, and full-width
    masks there cost peak memory for nothing."""
    psys = repeated_coin_system(10).psys
    pa = opponent_assignment(psys, 1)
    groups = pa.sample_groups(0)
    assert len(psys.point_index) == 11_264
    assert [len(group.space.atoms) for group in groups] == [1024] * 11
    for group in groups:
        for space in (group.space, induced_point_space(psys, group.point, group.sample)):
            assert all(mask.bit_length() <= len(space) for mask in space._atom_masks)
            assert len(space._atom_masks) == len(space.atoms)


def test_sample_groups_partition_the_points():
    psys = build(7, 2, ("blind", "parity"), 2)
    for pa in assignments_of(psys, 7).values():
        for agent in psys.system.agents:
            groups = pa.sample_groups(agent)
            assert pa.sample_groups(agent) is groups  # kept on the assignment
            covered = 0
            index = psys.point_index
            previous = -1
            for group in groups:
                assert covered & group.mask == 0
                covered |= group.mask
                members = sorted(index.members_of(group.mask), key=index.position)
                assert members[0] == group.point
                assert index.position(group.point) > previous
                previous = index.position(group.point)
                for point in members:
                    assert pa.sample_space(agent, point) == group.sample
                    assert pa.space(agent, point) is group.space
            assert covered == index.full_mask
            assert len({group.sample for group in groups}) == len(groups)


ATTACKS = [
    (builder, messengers, loss)
    for builder in (build_ca1, build_ca2, build_ca1_adaptive)
    for messengers in (1, 2, 3)
    for loss in (Fraction(1, 2), Fraction(1, 10))
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("builder,messengers,loss", ATTACKS)
def test_thresholds_match_per_point_argmin(backend, builder, messengers, loss):
    with use_backend(backend):
        attack = builder(messengers, loss)
        post = standard_assignments(attack.psys)["post"]
        expected = oracle_minimum(twin(attack.psys, "post"), attack)
        assert oracle_minimum(post, attack) == expected
        assert post_threshold_witness(attack) == expected
        assert post_threshold(attack) == expected[0]
        assert prior_threshold(attack) == oracle_minimum(twin(attack.psys, "prior"), attack)[0]


# ----------------------------------------------------------------------
# Single-point queries never group
# ----------------------------------------------------------------------


def test_single_point_queries_ask_only_about_their_points():
    psys = build(3, 1, ("clock", "full"), 2)
    post = PostAssignment(psys)
    calls = []

    def counted(agent, point):
        calls.append(point)
        return post.sample_space(agent, point)

    pa = ProbabilityAssignment(FunctionAssignment(psys, counted))
    fact = parity_fact()
    point = psys.point_index.members[-1]
    pa.space(0, point)
    pa.satisfying_points(0, point, fact)
    pa.probability_interval(0, point, fact)
    pa.inner_probability(0, point, fact)
    pa.outer_probability(0, point, fact)
    assert set(calls) == {point}
    calls.clear()
    pa.knows_probability_at_least(0, point, fact, Fraction(1, 2))
    pa.knows_probability_interval(0, point, fact, Fraction(0), Fraction(1))
    assert set(calls) <= psys.system.knowledge_set(0, point)
    assert not pa._groups


# ----------------------------------------------------------------------
# Points outside the system
# ----------------------------------------------------------------------


def outside_points():
    """Two points of another system: one whose local states ``inside``
    never shows, one whose agent-0 local state it does."""
    inside = random_psys(1, depth=2, observability=("clock", "clock"))
    unseen = random_psys(2, depth=2, observability=("full", "full")).system.points[-1]
    default = random_psys(1)
    seen = random_psys(2).system.points[-1]
    assert default.system.knowledge_set(0, seen)  # answers about other points
    return [(inside, unseen), (default, seen)]


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("kind", ["post", "twin post"])
def test_knowledge_queries_outside_the_system_raise(case, kind):
    """``K_i^alpha`` at a point outside the system raises, as ``space``
    does, instead of answering about no points or about other ones."""
    psys, point = outside_points()[case]
    pa = standard_assignments(psys)["post"] if kind == "post" else twin(psys, "post")
    fact = parity_fact()
    with pytest.raises(errors.TreeError):
        pa.space(0, point)
    with pytest.raises(errors.TreeError):
        pa.knows_probability_at_least(0, point, fact, 1)
    with pytest.raises(errors.TreeError):
        pa.knows_probability_interval(0, point, fact, 0, 1)
    with pytest.raises(errors.TreeError):
        pa.knowledge_interval(0, point, fact)


# ----------------------------------------------------------------------
# REQ1 / REQ2 through the cache and the groups
# ----------------------------------------------------------------------


def cross_tree_table():
    """Two points in different trees sharing one sample from the first tree."""
    psys = random_psys(1, num_trees=2, depth=1)
    first, second = psys.trees
    inside, outside = first.points[-1], second.points[-1]
    sample = frozenset(first.points)
    return psys, inside, outside, {(0, inside): sample, (0, outside): sample}


def test_req1_checked_on_every_space_cache_hit():
    psys, inside, outside, table = cross_tree_table()
    pa = ProbabilityAssignment(ExplicitAssignment(psys, table))
    pa.space(0, inside)
    with pytest.raises(errors.Req1Error):
        pa.space(0, outside)  # cache hit from a point of another tree
    fresh = ProbabilityAssignment(ExplicitAssignment(psys, table))
    with pytest.raises(errors.Req1Error):
        fresh.space(0, outside)
    fresh.space(0, inside)


@pytest.mark.parametrize("prewarm", [False, True])
@pytest.mark.parametrize("sample_tree", [0, 1])
def test_req1_raised_through_model_extension(prewarm, sample_tree):
    """Whichever of the two points comes first in the point index, and
    whether or not the valid one's space is already cached."""
    psys = random_psys(1, num_trees=2, depth=1)
    trees = psys.trees
    inside = trees[sample_tree].points[-1]
    outside = trees[1 - sample_tree].points[-1]
    sample = frozenset(trees[sample_tree].points)
    pa = ProbabilityAssignment(
        ExplicitAssignment(psys, {(0, inside): sample, (0, outside): sample})
    )
    if prewarm:
        pa.space(0, inside)
    model = Model(pa, {"p": parity_fact()})
    with pytest.raises(errors.Req1Error):
        model.extension(PrAtLeast(0, Prop("p"), Fraction(1, 2)))


def zero_weight_run_psys():
    """Two runs, the second of probability 0 (built unvalidated), and an
    agent 0 who sees the branch: its samples on that run fail REQ2."""
    def state(node):
        return GlobalState(environment=node, local_states=(node, "idle"))

    root, kept, dropped = state("root"), state("kept"), state("dropped")
    kept_end, dropped_end = state("kept-end"), state("dropped-end")
    tree = ComputationTree(
        adversary="zero-weight",
        root=root,
        children={root: [kept, dropped], kept: [kept_end], dropped: [dropped_end]},
        edge_probabilities={
            (root, kept): Fraction(1),
            (root, dropped): Fraction(0),
            (kept, kept_end): Fraction(1),
            (dropped, dropped_end): Fraction(1),
        },
        validate=False,
    )
    return ProbabilisticSystem([tree])


def kernel_queries():
    """Measure-kernel queries so far, on either backend."""
    totals = kernel_totals()
    return totals["cache_hits"] + totals["cache_misses"] + totals["naive_queries"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["post", "twin post"])
def test_req2_checked_once_per_part(backend, kind):
    """REQ2 costs one run-space query per part: grouping an agent's
    points makes as many kernel queries as there are groups.  A part
    whose runs have measure zero raises where the per-point loop does:
    at its own points, and from the first whole-system query."""
    def assignment(psys):
        return standard_assignments(psys)["post"] if kind == "post" else twin(psys, "post")

    with use_backend(backend):
        psys = build(3, 2, ("blind", "parity"), 3)
        pa = assignment(psys)
        for tree in psys.trees:
            psys.run_space(tree.adversary)
        for agent in psys.system.agents:
            before = kernel_queries()
            groups = pa.sample_groups(agent)
            assert kernel_queries() - before == len(groups) < len(psys.point_index)
        psys = zero_weight_run_psys()
        pa = assignment(psys)
        kept_run, dropped_run = psys.system.runs
        pa.space(0, Point(dropped_run, 0))  # shares the root's sample with kept_run
        pa.space(0, Point(kept_run, 1))
        with pytest.raises(errors.Req2Error):
            pa.space(0, Point(dropped_run, 1))
        model = Model(pa, {"p": Fact.always_true()})
        with pytest.raises(errors.Req2Error):
            model.extension(PrAtLeast(0, Prop("p"), Fraction(1, 2)))


@pytest.mark.parametrize("which", [0, 1, -1])
@pytest.mark.parametrize("prewarm", [False, True])
def test_req2_raised_through_model_extension(which, prewarm):
    """An empty sample at one point fails REQ2 wherever that point sits
    in the index and whatever was queried first."""
    psys = random_psys(5, num_trees=2, depth=2)
    members = psys.point_index.members
    empty_at = members[which if which >= 0 else len(members) - 1]
    pa = ProbabilityAssignment(ExplicitAssignment(psys, {(1, empty_at): frozenset()}))
    if prewarm:
        for point in members:
            if point != empty_at:
                pa.space(1, point)
    model = Model(pa, {"p": parity_fact()})
    with pytest.raises(errors.Req2Error):
        model.extension(PrAtLeast(1, Prop("p"), Fraction(1, 2)))
    with pytest.raises(errors.Req2Error):
        model.extension(PrAtMost(1, Prop("p"), Fraction(1, 2)))
