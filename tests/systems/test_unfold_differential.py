"""Differential and golden tests for the protocol unfold.

``run_protocol`` and ``build_tree`` are checked against a test-local
oracle: the executor's step function, ``_joint_actions`` and the
builder's ``expand`` as they were before the unfold stopped repeating
work (Fraction totals, a channel call per node, sorts of empty message
sequences), copied verbatim.  Any difference between the trees the two
produce, or between the exception types they raise, is a change in
behaviour.  The one intended change is that ``build_tree`` now rejects a
negative branch, which the oracle silently drops.

:class:`ComputationTree` is checked against its own slow paths, and
golden digests pin the coin and attack systems byte for byte.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from fractions import Fraction
from typing import Dict, Hashable, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.sweep import sweep_tasks
from repro.core.model import GlobalState
from repro.errors import SimulationError, TreeError
from repro.examples_lib import repeated_coin_system
from repro.probability.fractionutil import ONE, ZERO, as_fraction
from repro.systems import (
    Channel,
    CollapsingLossyChannel,
    FunctionAgent,
    LossyChannel,
    Message,
    PerfectChannel,
    SyncProtocol,
    inbox_for,
    run_protocol,
    sort_messages,
)
from repro.testing import random_tree
from repro.trees import Env, build_tree

# ----------------------------------------------------------------------
# The oracle: the unfold as it was, verbatim
# ----------------------------------------------------------------------


def oracle_joint_actions(
    protocol: SyncProtocol,
    states: Tuple[Hashable, ...],
    pending: Tuple[Message, ...],
    round_number: int,
):
    """The product distribution over all agents' simultaneous actions."""
    joint: List[Tuple[Fraction, Tuple[Tuple[Hashable, Tuple[Message, ...]], ...]]] = [
        (ONE, ())
    ]
    for index, agent in enumerate(protocol.agents):
        inbox = inbox_for(index, pending)
        branches = agent.step(states[index], inbox, round_number)
        if len(branches) == 1:
            # deterministic agents (the idle observers of every coin
            # example) multiply every joint branch by 1; skip the
            # Fraction work entirely after checking the lone probability
            probability, action = branches[0]
            if probability != ONE:
                raise SimulationError(
                    f"agent {index} step probabilities sum to {probability} "
                    f"at round {round_number}"
                )
            joint = [
                (accumulated, actions + (action,))
                for accumulated, actions in joint
            ]
            continue
        total = sum((probability for probability, _ in branches), ZERO)
        if total != ONE:
            raise SimulationError(
                f"agent {index} step probabilities sum to {total} at round {round_number}"
            )
        joint = [
            # `accumulated is ONE` holds until the first probabilistic
            # agent; skipping the 1 * p products saves a gcd per branch
            (
                probability if accumulated is ONE else accumulated * probability,
                actions + (action,),
            )
            for accumulated, actions in joint
            for probability, action in branches
        ]
    return joint


def oracle_step_function(protocol: SyncProtocol):
    """The executor's step function, verbatim."""

    def unwrap(locals_: Tuple[Hashable, ...], round_number: int) -> Tuple[Hashable, ...]:
        return tuple(
            local[0] if protocol.clocked[index] else local
            for index, local in enumerate(locals_)
        )

    def step(time: int, locals_: Tuple[Hashable, ...], extra: Hashable):
        if time >= protocol.horizon:
            return ()
        pending: Tuple[Message, ...] = extra if extra is not None else ()
        states = unwrap(locals_, time)
        outcomes: Dict[tuple, Fraction] = {}
        joint = oracle_joint_actions(protocol, states, pending, time)
        for action_probability, actions in joint:
            new_states = tuple(state for state, _ in actions)
            sent = sort_messages(
                message for _, outbox in actions for message in outbox
            )
            for delivery_probability, delivered in protocol.channel.deliveries(sent, time):
                key = (new_states, delivered)
                contribution = (
                    action_probability
                    if delivery_probability is ONE
                    else action_probability * delivery_probability
                )
                existing = outcomes.get(key)
                outcomes[key] = (
                    contribution if existing is None else existing + contribution
                )
        branches = []
        for (new_states, delivered), probability in sorted(
            outcomes.items(), key=lambda item: repr(item[0])
        ):
            new_locals = tuple(
                protocol.wrap_local(index, state, time + 1)
                for index, state in enumerate(new_states)
            )
            label = (new_states, delivered)
            branches.append((probability, label, new_locals, delivered))
        return branches

    return step


def oracle_build(adversary, initial_locals, step, max_depth=64, initial_extra=None):
    """The builder's ``expand``, verbatim: ``(root, children, edge labels)``."""
    root_env = Env(adversary, (), initial_extra)
    root = GlobalState(root_env, tuple(initial_locals))
    children: dict = {}
    edge_probabilities: dict = {}

    def expand(state: GlobalState, time: int) -> None:
        if time > max_depth:
            raise TreeError(f"tree exceeded max_depth={max_depth}; non-halting step function?")
        env: Env = state.environment  # type: ignore[assignment]
        branches = list(step(time, state.local_states, env.extra))
        if not branches:
            return
        labels = [label for _, label, _, _ in branches]
        if len(set(labels)) != len(labels):
            raise TreeError(f"duplicate transition labels {labels!r} at time {time}")
        total = ZERO
        kids: List[GlobalState] = []
        for probability, label, new_locals, new_extra in branches:
            fraction = as_fraction(probability)
            if fraction <= ZERO:
                continue
            total += fraction
            child = GlobalState(env.advanced(label, new_extra), tuple(new_locals))
            kids.append(child)
            edge_probabilities[(state, child)] = fraction
        if total != ONE:
            raise TreeError(f"step probabilities at time {time} sum to {total}, not 1")
        children[state] = tuple(kids)
        for child in kids:
            expand(child, time + 1)

    expand(root, 0)
    return root, children, edge_probabilities


def oracle_unfold(protocol: SyncProtocol, inputs, adversary="default"):
    if len(inputs) != len(protocol.agents):
        raise SimulationError("inputs must match the agent count")
    raw_initials = tuple(
        agent.initial_state(input_value)
        for agent, input_value in zip(protocol.agents, inputs)
    )
    initial_locals = tuple(
        protocol.wrap_local(index, state, 0) for index, state in enumerate(raw_initials)
    )
    return oracle_build(
        adversary,
        initial_locals,
        oracle_step_function(protocol),
        max_depth=protocol.horizon + 1,
        initial_extra=(),
    )


def oracle_runs(root, children, edge_probabilities):
    """Root-to-leaf paths, depth-first, with the product of their labels."""
    runs = []
    stack = [((root,), ONE)]
    while stack:
        path, probability = stack.pop()
        kids = children.get(path[-1], ())
        if not kids:
            runs.append((path, probability))
            continue
        for child in reversed(kids):
            edge = edge_probabilities[(path[-1], child)]
            stack.append((path + (child,), probability * edge))
    return runs


def outcome(function):
    """The function's result, or the type of the exception it raised."""
    try:
        return function()
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return type(error)


def assert_same_tree(tree, oracle) -> None:
    root, children, edge_probabilities = oracle
    assert tree.root == root
    assert tree.structure() == children
    # repr pins the order, the types and every nested value of each edge
    assert repr(list(tree.edges)) == repr(list(edge_probabilities))
    assert [repr(tree.edge_probability(*edge)) for edge in tree.edges] == [
        repr(probability) for probability in edge_probabilities.values()
    ]
    expected = oracle_runs(root, children, edge_probabilities)
    assert [run.states for run in tree.runs] == [path for path, _ in expected]
    assert [repr(tree.run_probability(run)) for run in tree.runs] == [
        repr(probability) for _, probability in expected
    ]
    assert [(point.run.states, point.time) for point in tree.points] == [
        (path, time) for path, _ in expected for time in range(len(path))
    ]
    assert tree.nodes == frozenset(state for path, _ in expected for state in path)


def _rng(*key) -> random.Random:
    """A generator seeded by a stable digest of ``key``."""
    return random.Random(zlib.crc32(repr(key).encode()))


# ----------------------------------------------------------------------
# Random protocols
# ----------------------------------------------------------------------

AGENT_DEFECT_KINDS = ("sum", "single", "negative", "raise", "text", "not-a-message")
#: Half of the random protocols are well formed.
AGENT_DEFECTS = (None,) * len(AGENT_DEFECT_KINDS) + AGENT_DEFECT_KINDS


def scripted_agent(index: int, agents: int, seed: int, defect, floats: bool):
    """An agent whose step is a fixed pseudo-random function of its input.

    Branch distributions are exact (Fractions, a lone ``1`` as an int,
    halves as floats when ``floats``), may carry a zero branch, and send
    at most one message per branch.  ``defect`` breaks the step at about
    a third of the (state, inbox, round) triples.
    """

    def step(state, inbox, round_number):
        rng = _rng(seed, state, inbox, round_number)
        if defect is not None and rng.random() < 0.35:
            keep = ((state, "broken"), ())
            if defect == "sum":
                return [(Fraction(1, 2), keep), (Fraction(1, 3), ((state, "other"), ()))]
            if defect == "single":
                return [(Fraction(1, 2), keep)]
            if defect == "negative":
                return [(Fraction(3, 2), keep), (Fraction(-1, 2), ((state, "other"), ()))]
            if defect == "raise":
                raise ValueError(f"agent {index} fails at round {round_number}")
            if defect == "text":
                return [("1/2", keep), ("1/2", ((state, "other"), ()))]
            if defect == "not-a-message":
                return [(ONE, ((state, "sent"), ("not a message",)))]
        count = rng.choice((1, 2, 2, 2))
        branches = []
        for choice in range(count):
            # what a choice sends does not depend on the round, so the
            # same messages go out in different rounds of one unfolding
            sends = _rng(seed, "outbox", choice)
            outbox = tuple(
                Message(index, sends.randrange(agents), sends.choice("ab"))
                for _ in range(sends.choice((0, 1, 1)))
            )
            heard = tuple(message.content for message in inbox)
            branches.append((choice, ((choice, heard), outbox)))
        if count == 1:
            return [(rng.choice((ONE, 1)), branches[0][1])]
        if floats and rng.random() < 0.5:
            return [(0.5, action) for _, action in branches]
        weights = [rng.choice((0, 1, 2, 2, 3, 3)) for _ in branches]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        return [
            (Fraction(weight, total), action)
            for weight, (_, action) in zip(weights, branches)
        ]

    return FunctionAgent(lambda value: ("start", value), step)


class RoundLossyChannel(Channel):
    """Independent loss whose probability depends on the round."""

    def __init__(self, losses) -> None:
        self.channels = [LossyChannel(loss) for loss in losses]

    def deliveries(self, messages, round_number):
        return self.channels[round_number % len(self.channels)].deliveries(
            messages, round_number
        )


@st.composite
def protocols(draw):
    agents = draw(st.sampled_from((2, 3, 1)))
    # three agents branch up to 64 ways a round; keep those trees shallow
    horizon = draw(st.sampled_from((2, 1) if agents == 3 else (3, 2, 1)))
    seed = draw(st.integers(0, 2**16))
    defect = draw(st.sampled_from(AGENT_DEFECTS))
    broken = draw(st.integers(0, agents - 1))
    floats = draw(st.booleans())
    kind = draw(st.sampled_from(("perfect", "lossy", "collapsing", "by-round")))
    loss = draw(
        st.one_of(
            st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(3, 5))),
            st.fractions(min_value=0, max_value=1, max_denominator=7),
        )
    )
    channel = {
        "perfect": PerfectChannel,
        "lossy": lambda: LossyChannel(loss),
        "collapsing": lambda: CollapsingLossyChannel(loss),
        "by-round": lambda: RoundLossyChannel((loss, (loss + 1) / 2, loss / 2)),
    }[kind]()
    clocked = tuple(draw(st.booleans()) for _ in range(agents))
    protocol = SyncProtocol(
        agents=[
            scripted_agent(
                index, agents, seed + index, defect if index == broken else None, floats
            )
            for index in range(agents)
        ],
        channel=channel,
        horizon=horizon,
        clocked=clocked,
    )
    inputs = tuple(draw(st.integers(0, 1)) for _ in range(agents))
    return protocol, inputs


@settings(max_examples=100, deadline=None)
@given(protocols())
def test_run_protocol_matches_the_oracle(case):
    protocol, inputs = case
    expected = outcome(lambda: oracle_unfold(protocol, inputs, "adversary"))
    actual = outcome(lambda: run_protocol(protocol, inputs, "adversary"))
    if isinstance(expected, type):
        assert actual is expected
    else:
        assert not isinstance(actual, type), f"run_protocol raised {actual.__name__}"
        assert_same_tree(actual, expected)


def test_protocol_defects_reach_the_comparison():
    """The random protocols do exercise every failure the oracle raises."""
    seen = set()
    for seed in range(60):
        for defect in AGENT_DEFECT_KINDS:
            protocol = SyncProtocol(
                agents=[
                    scripted_agent(0, 2, seed, defect, False),
                    scripted_agent(1, 2, seed, None, False),
                ],
                channel=LossyChannel(Fraction(1, 3)),
                horizon=2,
            )
            result = outcome(lambda: oracle_unfold(protocol, (0, 1)))
            seen.add(result if isinstance(result, type) else "tree")
    assert {SimulationError, TreeError, ValueError, TypeError, AttributeError} <= seen


# ----------------------------------------------------------------------
# Random step functions, straight into build_tree
# ----------------------------------------------------------------------

STEP_DEFECTS = (
    None, None, "duplicate", "sum", "negative", "runaway", "zero", "type", "unhashable"
)
PROBABILITY_FORMS = ("fraction", "pair", "text", "float")


def scripted_step(seed: int, depth: int, defect, seen: set):
    """A step function with exact branches in every accepted form.

    Probabilities come as Fractions, ``(numerator, denominator)`` pairs,
    ``"n/d"`` strings, or floats (halves and quarters only, so they stay
    exact), and a lone branch as the int ``1``.  ``defect`` breaks about
    a third of the nodes; ``seen`` records which defects were emitted.
    """

    def step(time, locals_, extra):
        if time >= depth and defect != "runaway":
            return ()
        rng = _rng(seed, time, extra)
        count = rng.randint(1, 3)
        if count == 1:
            parts = [(1, 1)]
        elif rng.random() < 0.3:
            parts = [(1, count)] * count if count == 2 else [(1, 2), (1, 4), (1, 4)]
        else:
            weights = [rng.randint(1, 4) for _ in range(count)]
            parts = [(weight, sum(weights)) for weight in weights]
        form = rng.choice(PROBABILITY_FORMS)
        branches = []
        for choice, (numerator, denominator) in enumerate(parts):
            if count == 1:
                probability = 1
            elif form == "pair":
                probability = (numerator, denominator)
            elif form == "text":
                probability = f"{numerator}/{denominator}"
            elif form == "float" and denominator in (2, 4):
                probability = numerator / denominator
            else:
                probability = Fraction(numerator, denominator)
            new_locals = ((f"l{choice}", time),)
            branches.append([probability, f"b{choice}", new_locals, extra + (choice,)])
        if defect is not None and defect != "runaway" and rng.random() < 0.35:
            seen.add(defect)
            if defect == "duplicate" and count > 1:
                branches[1][1] = branches[0][1]
            elif defect == "sum":
                branches[0][0] = Fraction(7, 11)
            elif defect == "negative":
                branches[0][0] = as_fraction(branches[0][0]) + Fraction(1, 5)
                branches.append([Fraction(-1, 5), "negative", (("n", time),), extra + (9,)])
            elif defect == "zero":
                branches.append([0, "zero", (("z", time),), extra + (8,)])
            elif defect == "type":
                branches[0][0] = None
            elif defect == "unhashable":
                branches[0][1] = [branches[0][1]]
        return [tuple(branch) for branch in branches]

    return step


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**16),
    st.integers(1, 3),
    st.sampled_from(STEP_DEFECTS),
)
def test_build_tree_matches_the_oracle(seed, depth, defect):
    seen: set = set()
    step = scripted_step(seed, depth, defect, seen)
    expected = outcome(
        lambda: oracle_build("A", ("start",), step, max_depth=depth + 1, initial_extra=())
    )
    actual = outcome(
        lambda: build_tree("A", ("start",), step, max_depth=depth + 1, initial_extra=())
    )
    if "negative" in seen:
        # the oracle drops the branch and may accept the node; the
        # builder rejects it where it appears
        assert actual is TreeError
        assert expected is TreeError or not isinstance(expected, type)
    elif isinstance(expected, type):
        assert actual is expected
    else:
        assert not isinstance(actual, type), f"build_tree raised {actual.__name__}"
        assert_same_tree(actual, expected)


def test_step_defects_reach_the_comparison():
    outcomes = {}
    for defect in STEP_DEFECTS[2:]:
        for seed in range(40):
            step = scripted_step(seed, 3, defect, set())
            result = outcome(
                lambda: oracle_build("A", ("s",), step, max_depth=4, initial_extra=())
            )
            outcomes.setdefault(defect, set()).add(
                result if isinstance(result, type) else "tree"
            )
    assert TreeError in outcomes["duplicate"]
    assert TreeError in outcomes["sum"]
    assert TreeError in outcomes["runaway"]
    assert TypeError in outcomes["type"]
    assert TypeError in outcomes["unhashable"]
    # the oracle accepts a node whose negative branch it dropped
    assert "tree" in outcomes["negative"]
    assert outcomes["zero"] == {"tree"}


# ----------------------------------------------------------------------
# ComputationTree against its slow paths
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 4),
    st.integers(1, 3),
    st.data(),
)
def test_tree_matches_its_slow_paths(seed, depth, branching, data):
    tree = random_tree(seed, depth=depth, max_branching=branching)
    assert tree.runs == tuple(tree._enumerate_runs())
    for run in tree.runs:
        product = ONE
        for parent, child in zip(run.states, run.states[1:]):
            product *= tree.edge_probability(parent, child)
        assert tree.run_probability(run) == product
    nodes = sorted(tree.nodes, key=repr)
    # the node -> runs index is built by whichever call comes first
    first = data.draw(st.sampled_from(nodes))
    assert tree.runs_through_node(first) == tree.runs_through_node_naive(first)
    for node in nodes:
        assert tree.runs_through_node(node) == tree.runs_through_node_naive(node)
    foreign = GlobalState(Env("elsewhere"), ("x",))
    assert tree.runs_through_node(foreign) == frozenset()


def test_foreign_node_before_the_index_exists():
    tree = random_tree(3, depth=2)
    assert tree.runs_through_node(GlobalState(Env("elsewhere"), ("x",))) == frozenset()
    assert tree.runs_through_node(tree.root) == frozenset(tree.runs)


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------

#: ``seeded_losses(1, 4)`` of the benchmark's attack_sweep workload.
ATTACK_SWEEP_LOSSES = [Fraction(n, 97) for n in (40, 36, 48, 39)]


def system_digest(psys) -> str:
    """sha256 over runs, run and edge probabilities, points, class masks."""
    digest = hashlib.sha256()

    def put(*parts):
        for part in parts:
            digest.update(repr(part).encode())
            digest.update(b"\x00")

    for tree in psys.trees:
        put("tree", tree.adversary)
        for run in tree.runs:
            put(
                "run",
                tuple((state.environment, state.local_states) for state in run.states),
                tree.run_probability(run),
            )
        for parent, child in tree.edges:
            probability = tree.edge_probability(parent, child)
            put("edge", parent.environment, child.environment, probability)
        for point in tree.points:
            put("point", tree.run_position(point.run), point.time)
    system = psys.system
    for agent in system.agents:
        put("masks", agent, system.agent_class_masks(agent))
    return digest.hexdigest()


def test_repeated_coin_digest():
    assert system_digest(repeated_coin_system(10).psys) == (
        "7d9afecca7d731f264c7348aee448d2f31cff3e9fa564808f45cf5ece77b05f9"
    )


def test_attack_sweep_digest():
    combined = hashlib.sha256()
    tasks = sweep_tasks(range(1, 13), ATTACK_SWEEP_LOSSES)
    assert len(tasks) == 144
    for _name, builder, messengers, loss, _threshold in tasks:
        combined.update(system_digest(builder(messengers, loss).psys).encode())
    assert combined.hexdigest() == (
        "c510d150c97427f56932777e5ac105bdbf436c1bfe6a8dbe0ed834bbd27e5333"
    )
