"""Message channels: who gets captured by the enemy.

A channel turns the messages sent in a round into a distribution over the
tuples actually delivered next round.  The coordinated-attack messengers
who "may be captured by the enemy" are a :class:`LossyChannel`; for the ten
identical messengers of CA1 the :class:`CollapsingLossyChannel` groups
identical messages and branches on *how many* survive (binomially), which
preserves every agent's knowledge while keeping the tree small -- the
substitution documented in DESIGN.md.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

from ..errors import SimulationError
from ..probability.fractionutil import ONE, ZERO, FractionLike, as_fraction
from .messages import Message, sort_messages

DeliveryDistribution = List[Tuple[Fraction, Tuple[Message, ...]]]


class Channel(ABC):
    """Maps a round's sent messages to a distribution over deliveries."""

    @abstractmethod
    def deliveries(
        self, messages: Tuple[Message, ...], round_number: int
    ) -> DeliveryDistribution:
        """The distribution over delivered-message tuples.

        Contract: the answer is a function of ``messages`` and
        ``round_number`` alone, and callers only read it.
        :func:`~repro.systems.synchronous.run_protocol` relies on this: it
        asks once per distinct ``(messages, round_number)`` of an
        unfolding and reuses that answer at every node that sends the
        same messages in the same round.
        """


class PerfectChannel(Channel):
    """Every message is delivered."""

    def deliveries(
        self, messages: Tuple[Message, ...], round_number: int
    ) -> DeliveryDistribution:
        return [(ONE, sort_messages(messages))]


class LossyChannel(Channel):
    """Each message is independently lost with a fixed probability.

    Exact: branches over every subset of the sent messages, so the branch
    count is ``2**len(messages)``; ``max_messages`` guards against
    accidental blow-ups (use :class:`CollapsingLossyChannel` for bundles of
    identical messengers).
    """

    def __init__(self, loss_probability: FractionLike, max_messages: int = 12) -> None:
        self.loss_probability = as_fraction(loss_probability)
        if not ZERO <= self.loss_probability <= ONE:
            raise SimulationError(f"loss probability {self.loss_probability} outside [0,1]")
        self.max_messages = max_messages

    def deliveries(
        self, messages: Tuple[Message, ...], round_number: int
    ) -> DeliveryDistribution:
        messages = sort_messages(messages)
        if not messages or self.loss_probability == ZERO:
            return [(ONE, messages)]
        if self.loss_probability == ONE:
            return [(ONE, ())]
        if len(messages) > self.max_messages:
            raise SimulationError(
                f"{len(messages)} messages would produce 2**{len(messages)} branches; "
                "use CollapsingLossyChannel"
            )
        survive = ONE - self.loss_probability
        branches: DeliveryDistribution = []
        for kept in range(len(messages) + 1):
            for subset in combinations(range(len(messages)), kept):
                probability = survive**kept * self.loss_probability ** (
                    len(messages) - kept
                )
                delivered = tuple(messages[index] for index in subset)
                branches.append((probability, sort_messages(delivered)))
        return _merge_identical(branches)


class CollapsingLossyChannel(Channel):
    """Independent loss, branching on survivor *counts* per message kind.

    Identical messages (same sender, recipient, content) are
    interchangeable: only how many arrive can matter to any local state.
    Deliveries branch over the joint survivor counts with binomial
    probabilities -- ``n+1`` branches for ``n`` identical messengers instead
    of ``2**n``.
    """

    def __init__(self, loss_probability: FractionLike) -> None:
        self.loss_probability = as_fraction(loss_probability)
        if not ZERO <= self.loss_probability <= ONE:
            raise SimulationError(f"loss probability {self.loss_probability} outside [0,1]")

    def deliveries(
        self, messages: Tuple[Message, ...], round_number: int
    ) -> DeliveryDistribution:
        from ..probability.distributions import binomial_survivors, joint

        messages = sort_messages(messages)
        if not messages:
            return [(ONE, ())]
        kinds: Dict[Message, int] = {}
        for message in messages:
            kinds[message] = kinds.get(message, 0) + 1
        kind_list = sorted(kinds, key=lambda message: repr(message))
        count_distributions = [
            binomial_survivors(kinds[kind], self.loss_probability) for kind in kind_list
        ]
        branches: DeliveryDistribution = []
        for probability, counts in joint(*count_distributions):
            delivered: List[Message] = []
            for kind, count in zip(kind_list, counts):
                delivered.extend([kind] * count)
            branches.append((probability, sort_messages(delivered)))
        return _merge_identical(branches)


def _merge_identical(branches: DeliveryDistribution) -> DeliveryDistribution:
    """Merge branches that deliver exactly the same message tuple."""
    merged: Dict[Tuple[Message, ...], Fraction] = {}
    for probability, delivered in branches:
        existing = merged.get(delivered)
        merged[delivered] = probability if existing is None else existing + probability
    return [(probability, delivered) for delivered, probability in merged.items()]
