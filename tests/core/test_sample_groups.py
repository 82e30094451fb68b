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
from repro.core.standard import PostAssignment
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
from repro.probability import BACKENDS, use_backend
from repro.testing import first_branch_fact, parity_fact, random_psys


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
        for name, pa in assignments_of(psys, params[0]).items():
            model = Model(pa, facts)
            for prop in ("parity", "first"):
                sub = Prop(prop)
                target = model.extension(sub)
                sub_mask = model.extension_mask(sub)
                for agent in psys.system.agents:
                    expected = oracle_pr_mask(pa, agent, target, alpha)
                    assert model.extension_mask(PrAtLeast(agent, sub, alpha)) == expected, name
                    assert model.extension_mask(PrAtMost(agent, sub, alpha)) == (
                        oracle_pr_at_most_mask(pa, agent, target, alpha)
                    ), name
                    assert model.extension_mask(knows_prob_at_least(agent, alpha, sub)) == (
                        oracle_knows_mask(psys.system, agent, expected)
                    ), name
                group = tuple(psys.system.agents)
                assert model.extension_mask(EveryoneKnowsProb(group, alpha, sub)) == (
                    oracle_everyone_prob_mask(pa, group, alpha, sub_mask)
                ), name
                common = oracle_common_prob_mask(pa, group, alpha, sub_mask)
                assert model.extension_mask(CommonKnowsProb(group, alpha, sub)) == common, name
                points = common_knowledge_points(model, group, target, alpha)
                assert points == psys.point_index.members_of(common), name


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(params=systems)
def test_induced_space_matches_all_atoms_projection(backend, params):
    with use_backend(backend):
        psys = build(*params)
        rng = random.Random(params[0])
        samples = set()
        for pa in assignments_of(psys, params[0]).values():
            for agent in psys.system.agents:
                for group in pa.sample_groups(agent):
                    samples.add((group.point, group.sample))
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
        prior = standard_assignments(attack.psys)["prior"]
        expected = oracle_minimum(post, attack)
        assert post_threshold_witness(attack) == expected
        assert post_threshold(attack) == expected[0]
        assert prior_threshold(attack) == oracle_minimum(prior, attack)[0]


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
