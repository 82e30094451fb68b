"""Labeled computation trees (Section 3, Figure 1).

Once a type-1 adversary ``A`` is fixed, the runs of the system with that
adversary form a computation tree ``T_A``: nodes are global states, paths
are runs, and each edge carries a positive transition probability such that
every node's outgoing probabilities sum to 1.  The probability of a run is
the product of its edge labels (all runs here are finite, as in [FZ88a]).

The tree deliberately separates its *structure* (the unlabeled graph) from
its *transition probability assignment* ``pi`` (the edge labels):
Theorem 8's proof quantifies over all relabelings of a fixed structure, and
:meth:`ComputationTree.relabel` is the operation that makes the proof
executable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import InvalidMeasureError, TechnicalAssumptionError, TreeError
from ..probability.fractionutil import (
    ONE,
    ZERO,
    FractionLike,
    as_fraction,
    format_fraction,
    sums_to_one,
)
from ..probability.space import FiniteProbabilitySpace
from ..core.model import GlobalState, Point, Run

Edge = Tuple[GlobalState, GlobalState]
Relabeling = Union[Mapping[Edge, FractionLike], Callable[[GlobalState, GlobalState], FractionLike]]


class ComputationTree:
    """A labeled computation tree ``T_A`` for one type-1 adversary ``A``.

    Parameters
    ----------
    adversary:
        The type-1 adversary this tree factors out (any hashable id).
    root:
        The initial global state.
    children:
        Mapping from each internal node to its ordered children.
    edge_probabilities:
        Mapping from ``(parent, child)`` to a positive transition
        probability; each node's outgoing labels must sum to 1.
    validate:
        Run the structural checks (reachability, positive labels summing
        to 1 per node, no repeated global state).  The generative builder
        (:func:`repro.trees.builder.build_tree`) passes ``False`` because
        its expansion guarantees each invariant by construction; direct
        and relabeled constructions keep the default ``True``.
    """

    def __init__(
        self,
        adversary: Hashable,
        root: GlobalState,
        children: Mapping[GlobalState, Sequence[GlobalState]],
        edge_probabilities: Mapping[Edge, FractionLike],
        validate: bool = True,
    ) -> None:
        self.adversary = adversary
        self.root = root
        self._children: Dict[GlobalState, Tuple[GlobalState, ...]] = {
            parent: tuple(kids) for parent, kids in children.items() if kids
        }
        self._edge_probability: Dict[Edge, Fraction] = {
            edge: as_fraction(probability)
            for edge, probability in edge_probabilities.items()
        }
        if validate:
            self._validate()
        # One depth-first pass yields the runs, their probabilities, their
        # points, and the nodes in the order they first appear on a run.
        # A path's probability is carried as an unreduced numerator and
        # denominator and reduced once per run, not once per edge.
        children_of = self._children
        edge_probability = self._edge_probability
        runs: List[Run] = []
        run_probability: Dict[Run, Fraction] = {}
        points: List[Point] = []
        nodes: Dict[GlobalState, None] = {}
        stack: List[Tuple[Tuple[GlobalState, ...], int, int]] = [((root,), 1, 1)]
        while stack:
            path, numerator, denominator = stack.pop()
            tail = path[-1]
            nodes[tail] = None
            kids = children_of.get(tail)
            if kids is None:
                run = Run(path)
                runs.append(run)
                run_probability[run] = Fraction(numerator, denominator)
                points.extend(Point(run, time) for time in range(len(path)))
                continue
            for child in reversed(kids):
                edge = edge_probability[(tail, child)]
                stack.append(
                    (
                        path + (child,),
                        numerator * edge.numerator,
                        denominator * edge.denominator,
                    )
                )
        if not sums_to_one(run_probability.values()):
            total = sum(run_probability.values(), ZERO)
            raise InvalidMeasureError(
                f"run probabilities sum to {total}, not 1 (tree mislabeled?)"
            )
        self._runs: Tuple[Run, ...] = tuple(runs)
        self._run_probability: Dict[Run, Fraction] = run_probability
        self._points: Tuple[Point, ...] = tuple(points)
        self._node_set: FrozenSet[GlobalState] = frozenset(nodes)
        # node -> runs through it, built by the first runs_through_node
        self._node_runs: Optional[Dict[GlobalState, FrozenSet[Run]]] = None
        self._run_positions: Optional[Dict[Run, int]] = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        seen: set = {self.root}
        frontier: List[GlobalState] = [self.root]
        reachable: set = {self.root}
        while frontier:
            node = frontier.pop()
            kids = self._children.get(node, ())
            if not kids:
                continue
            total = ZERO
            for child in kids:
                edge = (node, child)
                if edge not in self._edge_probability:
                    raise TreeError(f"edge {edge!r} has no transition probability")
                probability = self._edge_probability[edge]
                if probability <= ZERO:
                    raise InvalidMeasureError(
                        "transition probabilities must be positive "
                        f"(edge to {child!r} labeled {probability})"
                    )
                total += probability
                if child in seen:
                    raise TechnicalAssumptionError(
                        f"global state {child!r} appears twice in the tree; the "
                        "environment must encode the full history"
                    )
                seen.add(child)
                reachable.add(child)
                frontier.append(child)
            if total != ONE:
                raise InvalidMeasureError(
                    f"outgoing probabilities at {node!r} sum to {total}, not 1"
                )
        for parent in self._children:
            if parent not in reachable:
                raise TreeError(f"node {parent!r} is not reachable from the root")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def children(self, node: GlobalState) -> Tuple[GlobalState, ...]:
        """The ordered children of ``node`` (empty for leaves)."""
        return self._children.get(node, ())

    def is_leaf(self, node: GlobalState) -> bool:
        """True iff ``node`` has no children."""
        return not self._children.get(node)

    def edge_probability(self, parent: GlobalState, child: GlobalState) -> Fraction:
        """The transition probability labeling ``parent -> child``."""
        try:
            return self._edge_probability[(parent, child)]
        except KeyError:
            raise TreeError(f"no edge {parent!r} -> {child!r}") from None

    @property
    def nodes(self) -> FrozenSet[GlobalState]:
        """Every global state appearing in the tree."""
        return self._node_set

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """Every labeled edge of the tree."""
        return tuple(self._edge_probability)

    def depth(self) -> int:
        """The length (in edges) of the longest run."""
        return max(run.horizon for run in self._runs) - 1

    def node_occurrences(self, max_visits: int = 1_000_000) -> Dict[GlobalState, int]:
        """How many times each global state is reached from the root.

        Under the technical assumption (Section 3: the environment state
        encodes the full history) every count is 1; a count above 1 means
        some state is shared between branches, which
        :func:`repro.robustness.validate.validate_tree` reports as a
        violation.  Counts are capped by ``max_visits`` so a structure
        with a cycle (reachable only through ``validate=False``)
        terminates instead of recursing forever.
        """
        counts: Dict[GlobalState, int] = {}
        stack: List[GlobalState] = [self.root]
        visits = 0
        while stack and visits < max_visits:
            node = stack.pop()
            visits += 1
            counts[node] = counts.get(node, 0) + 1
            if counts[node] > len(self._edge_probability) + 1:
                # Revisited more often than the edge count allows for a
                # DAG: a cycle.  Leave the inflated count as evidence.
                continue
            stack.extend(reversed(self._children.get(node, ())))
        return counts

    def path_to(self, node: GlobalState) -> Tuple[GlobalState, ...]:
        """The unique root path ending at ``node``."""
        for run in self._runs:
            for time, state in enumerate(run.states):
                if state == node:
                    return run.states[: time + 1]
        raise TreeError(f"{node!r} is not a node of this tree")

    # ------------------------------------------------------------------
    # Runs and points
    # ------------------------------------------------------------------

    def _enumerate_runs(self) -> Iterator[Run]:
        stack: List[Tuple[GlobalState, ...]] = [(self.root,)]
        while stack:
            path = stack.pop()
            kids = self._children.get(path[-1], ())
            if not kids:
                yield Run(path)
                continue
            for child in reversed(kids):
                stack.append(path + (child,))

    @property
    def runs(self) -> Tuple[Run, ...]:
        """The runs of the tree (root-to-leaf paths), depth-first order."""
        return self._runs

    @property
    def points(self) -> Tuple[Point, ...]:
        """Every point of every run of the tree."""
        return self._points

    def run_probability(self, run: Run) -> Fraction:
        """``mu_A(run)``: the product of the run's edge labels."""
        try:
            return self._run_probability[run]
        except KeyError:
            raise TreeError("run does not belong to this tree") from None

    def run_position(self, run: Run) -> int:
        """The position of ``run`` in :attr:`runs`.

        This is also the position of the run's singleton atom in the
        default :meth:`run_space`, whose atoms follow :attr:`runs`.  The
        position table is built on first use.
        """
        positions = self._run_positions
        if positions is None:
            positions = {each: position for position, each in enumerate(self._runs)}
            self._run_positions = positions
        return positions[run]

    def runs_through(self, points: Iterable[Point]) -> FrozenSet[Run]:
        """``R(S)``: the runs passing through a set of points (Section 5)."""
        return frozenset(point.run for point in points)

    def runs_through_node(self, node: GlobalState) -> FrozenSet[Run]:
        """The runs passing through a given global state (indexed lookup).

        The node -> runs index is built on first use.
        """
        node_runs = self._node_runs
        if node_runs is None:
            through: Dict[GlobalState, List[Run]] = {}
            for run in self._runs:
                for state in run.states:
                    through.setdefault(state, []).append(run)
            node_runs = {state: frozenset(group) for state, group in through.items()}
            self._node_runs = node_runs
        return node_runs.get(node, frozenset())

    def runs_through_node_naive(self, node: GlobalState) -> FrozenSet[Run]:
        """:meth:`runs_through_node` via a runs x states scan (ablation
        baseline for the construction-time index)."""
        return frozenset(run for run in self._runs if node in run.states)

    def contains_point(self, point: Point) -> bool:
        """True iff the point lies on a run of this tree."""
        return point.run in self._run_probability and point.time < point.run.horizon

    # ------------------------------------------------------------------
    # The probability space on runs (Section 3)
    # ------------------------------------------------------------------

    def run_space(
        self, generators: Optional[Iterable[Iterable[Run]]] = None
    ) -> FiniteProbabilitySpace:
        """The probability space ``(R_A, X_A, mu_A)``.

        With finite runs every subset is measurable (the paper notes this for
        [FZ88a]); pass ``generators`` to restrict the sigma-algebra -- used
        by the footnote-5 demonstration of non-measurability.
        """
        if generators is None:
            return FiniteProbabilitySpace.from_point_masses(self._run_probability)
        from ..probability.algebra import atoms_from_generators

        atoms = atoms_from_generators(self._runs, generators)
        probabilities = {
            atom: sum((self._run_probability[run] for run in atom), ZERO)
            for atom in atoms
        }
        return FiniteProbabilitySpace(atoms, probabilities)

    # ------------------------------------------------------------------
    # Relabeling (Theorem 8 needs to quantify over labelings)
    # ------------------------------------------------------------------

    def relabel(self, labeling: Relabeling, adversary: Optional[Hashable] = None) -> "ComputationTree":
        """The same unlabeled structure with a new transition assignment."""
        if callable(labeling):
            new_labels = {
                (parent, child): labeling(parent, child)
                for (parent, child) in self._edge_probability
            }
        else:
            new_labels = dict(labeling)
        return ComputationTree(
            adversary if adversary is not None else self.adversary,
            self.root,
            self._children,
            new_labels,
        )

    def structure(self) -> Dict[GlobalState, Tuple[GlobalState, ...]]:
        """A copy of the unlabeled tree structure."""
        return dict(self._children)

    # ------------------------------------------------------------------
    # Rendering (Figure 1)
    # ------------------------------------------------------------------

    def ascii_render(
        self, describe: Optional[Callable[[GlobalState], str]] = None
    ) -> str:
        """An ASCII rendering of the labeled tree, reproducing Figure 1."""
        describe = describe or (lambda state: "o")
        lines: List[str] = []

        def visit(node: GlobalState, prefix: str, edge_label: str) -> None:
            lines.append(f"{prefix}{edge_label}{describe(node)}")
            kids = self._children.get(node, ())
            child_prefix = prefix + ("    " if edge_label else "")
            for index, child in enumerate(kids):
                probability = self._edge_probability[(node, child)]
                connector = "`-- " if index == len(kids) - 1 else "|-- "
                visit(child, child_prefix, f"{connector}[{format_fraction(probability)}] ")

        visit(self.root, "", "")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComputationTree(adversary={self.adversary!r}, "
            f"{len(self._runs)} runs, depth {self.depth()})"
        )
