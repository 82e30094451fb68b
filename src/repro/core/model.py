"""The Section 2 model of computation: global states, runs, points, systems.

A *global state* is an ``(n+1)``-tuple ``(s_e, s_1, ..., s_n)`` of the
environment's state and each agent's local state.  A *run* is a map from
times (natural numbers) to global states; we model finite-horizon runs as
tuples of global states.  A *system* is a set of runs.  A *point* is a pair
``(r, k)``.

Knowledge is possible-worlds knowledge over points: agent ``i`` considers
``(r', k')`` possible at ``(r, k)`` iff its local state agrees,
``r_i(k) = r'_i(k')``; ``K_i(c)`` is the set of points agent ``i`` considers
possible at ``c``; and ``p_i`` knows a fact at ``c`` iff the fact holds at
every point of ``K_i(c)``.

The paper's technical assumption -- the environment component encodes the
adversary and the entire history -- is enforced by the tree builder
(:mod:`repro.trees.builder`); this module only requires hashability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ModelError
from ..probability.bitset import OutcomeIndex

LocalState = Hashable
EnvironmentState = Hashable


@dataclass(frozen=True)
class GlobalState:
    """An ``(n+1)``-tuple ``(s_e, s_1, ..., s_n)`` of environment and local states.

    ``local_states[i]`` is the local state of agent ``i`` (0-indexed; the
    paper's ``p_1`` is agent 0).
    """

    environment: EnvironmentState
    local_states: Tuple[LocalState, ...]

    @property
    def num_agents(self) -> int:
        """The number of agents whose local states this global state carries."""
        return len(self.local_states)

    def local_state(self, agent: int) -> LocalState:
        """The local state of ``agent`` in this global state."""
        return self.local_states[agent]

    def with_environment(self, environment: EnvironmentState) -> "GlobalState":
        """A copy with the environment component replaced."""
        return GlobalState(environment, self.local_states)

    def __hash__(self) -> int:
        # Environments encode full histories (deep nested tuples), so a
        # recomputed-per-lookup hash dominates large-system run times; cache
        # it on first use (safe: the dataclass is frozen).  Plain attribute
        # access beats a __dict__.get on the hot path.
        try:
            return self._hash
        except AttributeError:
            cached = hash((self.environment, self.local_states))
            object.__setattr__(self, "_hash", cached)
            return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalState(env={self.environment!r}, locals={self.local_states!r})"


@dataclass(frozen=True)
class Run:
    """A finite-horizon run: the sequence of global states it passes through.

    ``states[k]`` is ``r(k)``.  All runs of the reproduction are finite;
    temporal operators treat the final state as repeating forever
    (end-stuttering), which matches the paper's examples where every run
    reaches a halting state.
    """

    states: Tuple[GlobalState, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ModelError("a run must pass through at least one global state")
        agent_counts = {state.num_agents for state in self.states}
        if len(agent_counts) != 1:
            raise ModelError("all global states of a run must have the same agent count")

    @property
    def horizon(self) -> int:
        """The number of distinct times ``0..horizon-1`` the run is defined at."""
        return len(self.states)

    @property
    def num_agents(self) -> int:
        """Agent count shared by every global state of the run."""
        return self.states[0].num_agents

    def state(self, time: int) -> GlobalState:
        """``r(time)``, with end-stuttering past the horizon."""
        if time < 0:
            raise ModelError("runs are not defined at negative times")
        if time >= len(self.states):
            return self.states[-1]
        return self.states[time]

    def local_state(self, agent: int, time: int) -> LocalState:
        """``r_i(k)``: agent ``agent``'s local state at ``time``."""
        return self.state(time).local_state(agent)

    def environment_state(self, time: int) -> EnvironmentState:
        """``r_e(k)``: the environment's state at ``time``."""
        return self.state(time).environment

    def points(self) -> Iterator["Point"]:
        """The points ``(r, 0) .. (r, horizon-1)`` of this run."""
        for time in range(len(self.states)):
            yield Point(self, time)

    def extends(self, point: "Point") -> bool:
        """True iff this run passes through the same global states as
        ``point.run`` up to and including ``point.time`` (Section 2)."""
        if point.time >= self.horizon:
            return False
        return all(
            self.states[k] == point.run.states[k] for k in range(point.time + 1)
        )

    def __len__(self) -> int:
        return len(self.states)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            cached = hash(self.states)
            object.__setattr__(self, "_hash", cached)
            return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Run(horizon={self.horizon})"


class Point(NamedTuple):
    """A point ``(r, k)``: a run together with a time."""

    run: Run
    time: int

    @property
    def global_state(self) -> GlobalState:
        """The global state ``r(k)`` at this point."""
        return self.run.state(self.time)

    def local_state(self, agent: int) -> LocalState:
        """Agent ``agent``'s local state at this point."""
        return self.run.local_state(agent, self.time)

    @property
    def environment_state(self) -> EnvironmentState:
        """The environment's state at this point."""
        return self.run.environment_state(self.time)

    def successor(self) -> "Point":
        """The next point on the same run (stuttering at the horizon)."""
        if self.time + 1 < self.run.horizon:
            return Point(self.run, self.time + 1)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Point(time={self.time}, state={self.global_state!r})"


class System:
    """A system: a set of runs, with indexed knowledge queries.

    The constructor materialises every point and builds, per agent, an index
    from local state to the points carrying it, so that ``K_i(c)`` is a
    dictionary lookup rather than a pairwise scan.  (The naive scan is kept
    as :meth:`knowledge_set_naive` for the indexing ablation benchmark.)
    """

    def __init__(self, runs: Iterable[Run]) -> None:
        self._runs: Tuple[Run, ...] = tuple(dict.fromkeys(runs))
        if not self._runs:
            raise ModelError("a system must contain at least one run")
        agent_counts = {run.num_agents for run in self._runs}
        if len(agent_counts) != 1:
            raise ModelError("all runs of a system must have the same agent count")
        self._num_agents = agent_counts.pop()
        self._by_local: List[Dict[LocalState, List[Point]]] = [
            {} for _ in range(self._num_agents)
        ]
        by_local = self._by_local
        points: List[Point] = []
        # read each run's state tuple directly: the per-point
        # ``local_state`` dispatch chain dominates construction on
        # thousand-run systems
        for run in self._runs:
            for time, state in enumerate(run.states):
                point = Point(run, time)
                points.append(point)
                for agent, local in enumerate(state.local_states):
                    by_local[agent].setdefault(local, []).append(point)
        self._points: Tuple[Point, ...] = tuple(points)
        self._knowledge_cache: List[Dict[LocalState, FrozenSet[Point]]] = [
            {} for _ in range(self._num_agents)
        ]
        self._point_index: Optional[OutcomeIndex] = None
        self._class_masks: List[Optional[Tuple[int, ...]]] = [
            None for _ in range(self._num_agents)
        ]
        self._knowledge_masks: List[Dict[LocalState, int]] = [
            {} for _ in range(self._num_agents)
        ]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def runs(self) -> Tuple[Run, ...]:
        """The runs of the system, in insertion order."""
        return self._runs

    @property
    def num_agents(self) -> int:
        """Number of agents ``p_1 .. p_n`` (0-indexed as ``0 .. n-1``)."""
        return self._num_agents

    @property
    def agents(self) -> range:
        """Iterable of agent indices."""
        return range(self._num_agents)

    @property
    def points(self) -> Tuple[Point, ...]:
        """Every point ``(r, k)`` with ``0 <= k < r.horizon``."""
        return self._points

    def points_at_time(self, time: int) -> Tuple[Point, ...]:
        """All points of the system at a fixed time."""
        return tuple(point for point in self._points if point.time == time)

    def max_horizon(self) -> int:
        """The longest run horizon in the system."""
        return max(run.horizon for run in self._runs)

    def __contains__(self, point: Point) -> bool:
        return point.run in self._runs and 0 <= point.time < point.run.horizon

    # ------------------------------------------------------------------
    # Knowledge
    # ------------------------------------------------------------------

    def indistinguishable(self, agent: int, first: Point, second: Point) -> bool:
        """``(r,k) ~_i (r',k')``: the agent's local state agrees."""
        return first.local_state(agent) == second.local_state(agent)

    def knowledge_set(self, agent: int, point: Point) -> FrozenSet[Point]:
        """``K_i(c)``: the points agent ``i`` considers possible at ``c``."""
        local = point.local_state(agent)
        cache = self._knowledge_cache[agent]
        if local not in cache:
            cache[local] = frozenset(self._by_local[agent].get(local, ()))
        return cache[local]

    def knowledge_set_naive(self, agent: int, point: Point) -> FrozenSet[Point]:
        """``K_i(c)`` via a pairwise scan (ablation baseline; see DESIGN.md)."""
        return frozenset(
            candidate
            for candidate in self._points
            if self.indistinguishable(agent, point, candidate)
        )

    # ------------------------------------------------------------------
    # Bitmask view (shared with the logic layer)
    # ------------------------------------------------------------------

    @property
    def point_index(self) -> OutcomeIndex:
        """Canonical ``point -> bit position`` index (built on first use).

        Positions follow :attr:`points` order, so masks built by different
        consumers of the same system agree bit for bit.
        """
        index = self._point_index
        if index is None:
            index = OutcomeIndex(self._points)
            self._point_index = index
        return index

    def agent_class_masks(self, agent: int) -> Tuple[int, ...]:
        """The information partition of ``agent`` as bit masks.

        One mask per local-state class; each mask is simultaneously the
        class and the knowledge set ``K_i(c)`` of every point ``c`` in it.
        """
        masks = self._class_masks[agent]
        if masks is None:
            index = self.point_index
            masks = tuple(
                index.mask_of(points) for points in self._by_local[agent].values()
            )
            self._class_masks[agent] = masks
        return masks

    def knowledge_mask(self, agent: int, point: Point) -> int:
        """``K_i(c)`` as a bit mask over :attr:`point_index`."""
        local = point.local_state(agent)
        cache = self._knowledge_masks[agent]
        mask = cache.get(local)
        if mask is None:
            mask = self.point_index.mask_of(self._by_local[agent].get(local, ()))
            cache[local] = mask
        return mask

    def knows(self, agent: int, point: Point, fact: "FactLike") -> bool:
        """``(r,k) |= K_i phi``: the fact holds at every point of ``K_i(c)``."""
        holds = _fact_predicate(fact)
        return all(holds(candidate) for candidate in self.knowledge_set(agent, point))

    def local_state_classes(self, agent: int) -> Dict[LocalState, Tuple[Point, ...]]:
        """The information partition of ``agent``: local state -> its points."""
        return {
            local: tuple(points) for local, points in self._by_local[agent].items()
        }

    # ------------------------------------------------------------------
    # Synchrony
    # ------------------------------------------------------------------

    def is_synchronous(self) -> bool:
        """Section 6's definition (from HV89): if ``r_i(k) = r'_i(k')`` then
        ``k = k'`` -- effectively, every agent can read a global clock."""
        for agent in self.agents:
            for points in self._by_local[agent].values():
                times = {point.time for point in points}
                if len(times) > 1:
                    return False
        return True

    def require_synchronous(self) -> None:
        """Raise :class:`SynchronyError` unless the system is synchronous."""
        from ..errors import SynchronyError

        if not self.is_synchronous():
            raise SynchronyError("operation requires a synchronous system")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"System({len(self._runs)} runs, {len(self._points)} points, "
            f"{self._num_agents} agents)"
        )


# Imported late to avoid a cycle; facts live in their own module but the
# typing alias is convenient here.
def _fact_predicate(fact) -> "callable":
    if callable(getattr(fact, "holds_at", None)):
        return fact.holds_at
    if isinstance(fact, (set, frozenset)):
        return fact.__contains__
    if callable(fact):
        return fact
    raise ModelError(f"cannot interpret {fact!r} as a fact")


FactLike = object
