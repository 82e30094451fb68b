"""The die example closing Section 5.

``p_1`` tosses a fair die; ``p_2`` never learns the outcome.  At time 1
there are six points ``c_1 .. c_6``.  With the whole-space assignment
``S^1`` (which is ``S_post`` for ``p_2``), ``p_2`` knows the probability of
"the die landed even" is exactly 1/2.  With the assignment ``S^2`` that
splits the points into ``{c_1,c_2,c_3}`` and ``{c_4,c_5,c_6}``, all ``p_2``
can say is that the probability is 1/3 or 2/3 -- it does not know which.

The split corresponds to an opponent who knows whether the die landed low
or high; we realise it both ways: as an :class:`ExplicitAssignment` (the
paper's presentation) and as ``S^j`` for a third agent ``p_3`` who observes
exactly the low/high bit (the betting-game reading).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from ..core.assignments import ExplicitAssignment, SampleSpaceAssignment
from ..core.facts import Fact
from ..core.model import Point
from ..systems.agents import Agent, FunctionAgent, IdleAgent, certainly, chance, act
from ..systems.synchronous import SyncProtocol, protocol_system
from ..trees.probabilistic_system import ProbabilisticSystem

P1, P2, P3 = 0, 1, 2


def die_system() -> Tuple[ProbabilisticSystem, Fact]:
    """Three agents: p_1 tosses and sees the face; p_2 sees nothing; p_3
    sees the low/high half (told by p_1 over a perfect channel).  Returns
    the system and the fact "the die landed even"."""
    from ..systems.messages import Message

    class Tosser(Agent):
        def initial_state(self, input_value):
            return "ready"

        def step(self, state, inbox, round_number: int):
            if round_number == 0 and state == "ready":
                branches = []
                for face in range(1, 7):
                    half = "low" if face <= 3 else "high"
                    branches.append(
                        (
                            Fraction(1, 6),
                            act(("face", face), Message(P1, P3, half)),
                        )
                    )
                return chance(branches)
            return certainly(state)

    class HalfListener(Agent):
        def initial_state(self, input_value):
            return "waiting"

        def step(self, state, inbox, round_number: int):
            for message in inbox:
                return certainly(("heard", message.content))
            return certainly(state)

    protocol = SyncProtocol(
        agents=[Tosser(), IdleAgent(), HalfListener()], horizon=2
    )
    psys = protocol_system(protocol, {"only": [None, None, None]})
    even = Fact.about_local_state(
        P1,
        lambda local: local[0] != "ready" and local[0][1] % 2 == 0,
        name="die_even",
    )
    return psys, even


@dataclass
class DieAssignments:
    """The two sample-space assignments of the example, over time-2 points
    (when both the face and p_3's observation are in place)."""

    whole: SampleSpaceAssignment
    split: SampleSpaceAssignment
    time2_points: Tuple[Point, ...]


def die_assignments(psys: ProbabilisticSystem) -> DieAssignments:
    """Build ``S^1`` (one space of all six points) and ``S^2`` (the
    low/high split) explicitly, as the paper presents them."""
    time2 = tuple(
        sorted(
            (point for point in psys.system.points if point.time == 2),
            key=lambda point: repr(point.global_state),
        )
    )

    def face_of(point: Point) -> int:
        return point.local_state(P1)[0][1]

    low = frozenset(point for point in time2 if face_of(point) <= 3)
    high = frozenset(point for point in time2 if face_of(point) > 3)
    whole_table: Dict[tuple, frozenset] = {}
    split_table: Dict[tuple, frozenset] = {}
    for point in time2:
        whole_table[(P2, point)] = frozenset(time2)
        split_table[(P2, point)] = low if point in low else high
    whole = ExplicitAssignment(psys, whole_table, name="S1-whole")
    split = ExplicitAssignment(psys, split_table, name="S2-split")
    return DieAssignments(whole, split, time2)
