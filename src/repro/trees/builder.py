"""Generative construction of computation trees.

The paper's technical assumption (Section 3) requires the environment
component of every global state to encode the adversary and the entire past
history, so that a global state appears in at most one tree and at most once
there.  :class:`Env` realises the assumption: the builder threads an
``Env(adversary, history, extra)`` through every state it creates, where
``history`` is the tuple of transition labels taken so far.

A *step function* describes the probabilistic dynamics::

    step(time, local_states, extra) -> [(probability, label, new_locals, new_extra), ...]

Returning an empty sequence halts the run.  Labels must be distinct within
a step (they name the probabilistic choice -- e.g. ``"heads"``), because
they become part of the history and hence of state identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..errors import TreeError
from ..probability.fractionutil import ONE, ZERO, FractionLike, as_fraction, sums_to_one
from ..core.model import GlobalState
from .tree import ComputationTree


@dataclass(frozen=True)
class Env:
    """An environment state satisfying the paper's technical assumption.

    ``adversary`` identifies the computation tree; ``history`` is the tuple
    of transition labels taken so far (so no global state repeats);
    ``extra`` carries any additional modelling payload (e.g. the type-3
    adversary of Section 7, or undelivered messages).
    """

    adversary: Hashable
    history: Tuple[Hashable, ...] = ()
    extra: Hashable = None

    def advanced(self, label: Hashable, extra: Hashable) -> "Env":
        """The environment after taking a transition labeled ``label``."""
        return Env(self.adversary, self.history + (label,), extra)

    def __hash__(self) -> int:
        # Histories grow linearly with time and can nest deeply; caching the
        # hash keeps global-state lookups O(1) after first use.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.adversary, self.history, self.extra))
            object.__setattr__(self, "_hash", cached)
        return cached


StepBranch = Tuple[FractionLike, Hashable, Tuple[Hashable, ...], Hashable]
StepFunction = Callable[[int, Tuple[Hashable, ...], Hashable], Sequence[StepBranch]]


def build_tree(
    adversary: Hashable,
    initial_locals: Sequence[Hashable],
    step: StepFunction,
    max_depth: int = 64,
    initial_extra: Hashable = None,
) -> ComputationTree:
    """Build the computation tree ``T_A`` from a step function.

    Parameters
    ----------
    adversary:
        The type-1 adversary id (becomes part of every environment state).
    initial_locals:
        The agents' local states at time 0.
    step:
        The step function described in the module docstring.
    max_depth:
        Safety cap on the recursion; exceeded depth raises :class:`TreeError`
        rather than looping forever on a non-halting step function.
    initial_extra:
        The ``extra`` payload of the root environment.
    """
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
        probabilities: List[Fraction] = []
        kids: List[GlobalState] = []
        for probability, label, new_locals, new_extra in branches:
            fraction = as_fraction(probability)
            if fraction.numerator < 0:
                raise TreeError(
                    f"step probability {fraction} of label {label!r} at time "
                    f"{time} is negative"
                )
            if not fraction.numerator:
                continue
            probabilities.append(fraction)
            child = GlobalState(env.advanced(label, new_extra), tuple(new_locals))
            kids.append(child)
            edge_probabilities[(state, child)] = fraction
        if not sums_to_one(probabilities):
            total = sum(probabilities, ZERO)
            raise TreeError(f"step probabilities at time {time} sum to {total}, not 1")
        children[state] = tuple(kids)
        for child in kids:
            expand(child, time + 1)

    expand(root, 0)
    # expand() has already enforced every tree invariant: labels are
    # distinct, kept probabilities are positive and sum to 1 per node,
    # histories extend strictly (so no global state repeats), and each
    # node was reached from the root -- skip the duplicate validation pass.
    return ComputationTree(adversary, root, children, edge_probabilities, validate=False)


def halt() -> Sequence[StepBranch]:
    """The empty branch list: the run halts here."""
    return ()


def deterministic_step(
    label: Hashable, new_locals: Sequence[Hashable], new_extra: Hashable = None
) -> Sequence[StepBranch]:
    """A single certain transition."""
    return ((ONE, label, tuple(new_locals), new_extra),)


def chance_step(
    branches: Sequence[Tuple[FractionLike, Hashable, Sequence[Hashable]]],
    new_extra: Hashable = None,
) -> Sequence[StepBranch]:
    """A purely probabilistic transition with a shared ``extra`` payload."""
    return tuple(
        (probability, label, tuple(new_locals), new_extra)
        for probability, label, new_locals in branches
    )


def tree_from_trace_distribution(
    adversary: Hashable,
    initial_locals: Sequence[Hashable],
    traces: Sequence[Tuple[FractionLike, Sequence[Tuple[Hashable, Sequence[Hashable]]]]],
) -> ComputationTree:
    """Build a tree from a distribution over *traces*.

    Each trace is a sequence of ``(label, local_states)`` steps; its
    probability is split across the tree by common-prefix factoring.  This
    is convenient for hand-specified examples (the die, the aces) where
    writing a step function would be noise.
    """
    normalised = [
        (as_fraction(probability), tuple((label, tuple(locals_)) for label, locals_ in trace))
        for probability, trace in traces
    ]
    if sum((probability for probability, _ in normalised), ZERO) != ONE:
        raise TreeError("trace probabilities must sum to 1")

    def step(time: int, local_states: Tuple[Hashable, ...], extra: Hashable):
        prefix: Tuple[Hashable, ...] = extra if extra is not None else ()
        continuations: dict = {}
        total_mass = ZERO
        for probability, trace in normalised:
            if len(trace) < len(prefix) or tuple(label for label, _ in trace[: len(prefix)]) != prefix:
                continue
            total_mass += probability
            if len(trace) == len(prefix):
                continue
            label, locals_ = trace[len(prefix)]
            mass, _ = continuations.get(label, (ZERO, locals_))
            continuations[label] = (mass + probability, locals_)
        if not continuations:
            return ()
        if total_mass == ZERO:
            raise TreeError("no trace matches the current prefix")
        if any(
            len(trace) == len(prefix)
            for probability, trace in normalised
            if tuple(label for label, _ in trace[: len(prefix)]) == prefix
        ) and continuations:
            raise TreeError("traces must be prefix-free (one halts where another continues)")
        return tuple(
            (mass / total_mass, label, locals_, prefix + (label,))
            for label, (mass, locals_) in continuations.items()
        )

    return build_tree(adversary, initial_locals, step, initial_extra=())
