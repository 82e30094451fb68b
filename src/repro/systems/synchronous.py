"""The synchronous round-based executor.

Rounds proceed in lockstep: every agent receives the messages delivered to
it, takes one (possibly probabilistic) step, and the channel decides which
of the sent messages arrive next round.  The executor unfolds this into a
labeled computation tree -- one tree per type-1 adversary, where the
adversary chooses the agents' inputs.

Clocks: in a synchronous system every agent can read the round number, so
by default each local state is stamped ``(protocol_state, round)``.
Clearing an agent's ``clocked`` flag removes the stamp and is exactly how
the asynchronous examples of Section 7 are produced (an agent whose
protocol state never changes then cannot tell any two times apart).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..probability.fractionutil import ONE, ZERO, sums_to_one
from ..trees.builder import build_tree
from ..trees.probabilistic_system import ProbabilisticSystem
from ..trees.tree import ComputationTree
from .agents import Agent
from .channels import Channel, DeliveryDistribution, PerfectChannel
from .messages import Message, inbox_for, sort_messages


@dataclass
class SyncProtocol:
    """A synchronous protocol: agents, a channel, a horizon, clock flags.

    ``horizon`` is the number of rounds executed; runs pass through times
    ``0 .. horizon``.  ``clocked[i]`` controls whether agent ``i``'s local
    state carries the round number (default: all clocked).
    """

    agents: Sequence[Agent]
    channel: Channel = field(default_factory=PerfectChannel)
    horizon: int = 1
    clocked: Optional[Sequence[bool]] = None

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise SimulationError("a protocol needs at least one round")
        if self.clocked is None:
            self.clocked = tuple(True for _ in self.agents)
        if len(self.clocked) != len(self.agents):
            raise SimulationError("clocked flags must match the agent count")

    def wrap_local(self, agent: int, state: Hashable, round_number: int) -> Hashable:
        """Stamp a protocol state with the round if the agent has a clock."""
        if self.clocked[agent]:
            return (state, round_number)
        return state


def _joint_actions(
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
        inbox = inbox_for(index, pending) if pending else ()
        branches = agent.step(states[index], inbox, round_number)
        if len(branches) == 1:
            # deterministic agents (the idle observers of every coin
            # example) multiply every joint branch by 1; skip the
            # Fraction work entirely after checking the lone probability
            probability, action = branches[0]
            if probability is not ONE and probability != ONE:
                raise SimulationError(
                    f"agent {index} step probabilities sum to {probability} "
                    f"at round {round_number}"
                )
            joint = [
                (accumulated, actions + (action,))
                for accumulated, actions in joint
            ]
            continue
        probabilities = [probability for probability, _ in branches]
        if not sums_to_one(probabilities):
            total = sum(probabilities, ZERO)
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


def run_protocol(
    protocol: SyncProtocol,
    inputs: Sequence[Hashable],
    adversary: Hashable = "default",
) -> ComputationTree:
    """Unfold one protocol execution into a computation tree ``T_A``.

    ``inputs`` are the agents' initial inputs -- the nondeterministic choice
    the type-1 adversary ``adversary`` resolves.
    """
    if len(inputs) != len(protocol.agents):
        raise SimulationError("inputs must match the agent count")
    raw_initials = tuple(
        agent.initial_state(input_value)
        for agent, input_value in zip(protocol.agents, inputs)
    )
    initial_locals = tuple(
        protocol.wrap_local(index, state, 0) for index, state in enumerate(raw_initials)
    )

    clocked = tuple(protocol.clocked)
    channel = protocol.channel
    # The channel's answer for each distinct (sent, round) of this
    # unfolding; deliveries are a function of exactly those two (see
    # Channel.deliveries), so one call per key serves every node.
    delivery_table: Dict[Tuple[Tuple[Message, ...], int], DeliveryDistribution] = {}

    def step(time: int, locals_: Tuple[Hashable, ...], extra: Hashable):
        if time >= protocol.horizon:
            return ()
        pending: Tuple[Message, ...] = extra if extra is not None else ()
        states = tuple(
            [local[0] if clock else local for clock, local in zip(clocked, locals_)]
        )
        outcomes: Dict[tuple, Fraction] = {}
        for action_probability, actions in _joint_actions(protocol, states, pending, time):
            new_states = tuple([state for state, _ in actions])
            outgoing = [message for _, outbox in actions for message in outbox]
            sent = sort_messages(outgoing) if outgoing else ()
            deliveries = delivery_table.get((sent, time))
            if deliveries is None:
                deliveries = delivery_table[(sent, time)] = channel.deliveries(sent, time)
            for delivery_probability, delivered in deliveries:
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
        ordered = outcomes.items()
        if len(outcomes) > 1:
            ordered = sorted(ordered, key=lambda item: repr(item[0]))
        branches = []
        for label, probability in ordered:
            new_states, delivered = label
            new_locals = tuple(
                [
                    (state, time + 1) if clock else state
                    for clock, state in zip(clocked, new_states)
                ]
            )
            branches.append((probability, label, new_locals, delivered))
        return branches

    return build_tree(
        adversary, initial_locals, step, max_depth=protocol.horizon + 1, initial_extra=()
    )


def protocol_system(
    protocol: SyncProtocol,
    inputs_by_adversary: Mapping[Hashable, Sequence[Hashable]],
) -> ProbabilisticSystem:
    """One computation tree per type-1 adversary (per input choice)."""
    trees = [
        run_protocol(protocol, inputs, adversary)
        for adversary, inputs in inputs_by_adversary.items()
    ]
    return ProbabilisticSystem(trees)
