"""Finite probability spaces with exact rational measures.

:class:`FiniteProbabilitySpace` is the workhorse of the whole reproduction:
the probability space on the runs of a computation tree (Section 3), the
induced space on the points of a sample-space assignment (Section 5), and
every conditional space the paper constructs are all instances.

A space is a triple ``(S, X, mu)`` exactly as in the paper: a finite sample
space ``S``, a sigma-algebra ``X`` represented by its atom partition, and a
measure ``mu`` given by one exact :class:`~fractions.Fraction` per atom.
Inner and outer measures (Section 5) and the two-valued inner/outer
expectations of Appendix B.2 are first-class operations.

The **bitmask** engine backs the set-algebra kernels (see
:mod:`repro.probability.bitset`): it indexes outcomes to bit positions at
construction, turning every atom/event test into integer bitwise
operations with an LRU-cached ``mask -> (inner, outer)`` table.  An
induced point space arrives already numbered (its points in
``System.point_index`` order, atoms as masks over that numbering), so it
keeps its masks and decodes atoms, outcomes and the index only on
demand.  The retained **naive** engine scans frozensets as the original
implementation did; it computes identical exact Fractions and stays,
with the public ``*_naive`` kernels, as the oracle for the differential
tests and the ablation benchmark (``benchmarks/bench_ablation_bitset.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Tuple

from ..errors import (
    BackendError,
    InvalidMeasureError,
    NotMeasurableError,
    ZeroMeasureConditioningError,
)
from .algebra import Atom, check_partition, restrict_partition
from .bitset import (
    IntervalCache,
    OutcomeIndex,
    count_naive_query,
    get_default_backend,
    members_of_mask,
)
from .fractionutil import ONE, ZERO, FractionLike, as_fraction

Outcome = Hashable
Event = FrozenSet[Outcome]
RandomVariable = Callable[[Outcome], Fraction]


def _gcd(a: int, b: int) -> int:
    """Euclid on nonnegative ints (RL001 bans ``math`` imports here)."""
    while b:
        a, b = b, a % b
    return a


@dataclass(frozen=True)
class CellMeasure:
    """One sigma-algebra atom's relation to an event, with its exact measure.

    The provenance layer (``Model.explain``) reports the Section 5
    inner/outer computation cell by cell: ``contained`` atoms contribute
    to the inner measure ``mu_*``, ``overlapping`` atoms to the outer
    measure ``mu^*``, and the measures are exact Fractions throughout.
    """

    outcomes: FrozenSet[Outcome]
    measure: Fraction
    contained: bool
    overlapping: bool


class FiniteProbabilitySpace:
    """A probability space ``(S, X, mu)`` over a finite sample space.

    Parameters
    ----------
    atoms:
        The atom partition of the sigma-algebra ``X``.  A subset of ``S`` is
        measurable iff it is a union of atoms.
    atom_probabilities:
        A mapping from each atom to its probability.  Probabilities must be
        nonnegative and sum to exactly one.

    Most callers use the classmethod constructors:
    :meth:`from_point_masses` (full powerset algebra),
    :meth:`uniform`, or :meth:`from_atoms`.
    """

    __slots__ = (
        "_atoms",
        "_probabilities_dict",
        "_outcomes",
        "_numbering",
        "_atom_of_dict",
        "_backend",
        "_index",
        "_atom_masks",
        "_atom_weights",
        "_weight_denominator",
        "_interval_cache",
    )

    #: Bound on the per-space LRU cache of ``event mask ->
    #: (inner, outer, contained)`` entries (bitmask backend).
    interval_cache_size = 4096

    def __init__(
        self,
        atoms: Iterable[Atom],
        atom_probabilities: Mapping[Atom, FractionLike],
    ) -> None:
        atom_tuple = tuple(frozenset(atom) for atom in atoms)
        outcomes = frozenset().union(*atom_tuple) if atom_tuple else frozenset()
        self._atoms: Tuple[Atom, ...] = check_partition(outcomes, atom_tuple)
        self._outcomes: Event = outcomes
        self._check_measure(atom_probabilities)
        self._finalise()

    def _check_measure(self, atom_probabilities: Mapping[Atom, FractionLike]) -> None:
        probabilities: Dict[Atom, Fraction] = {}
        for atom in self._atoms:
            if atom not in atom_probabilities:
                raise InvalidMeasureError(f"no probability supplied for atom {set(atom)!r}")
            probability = as_fraction(atom_probabilities[atom])
            if probability < ZERO:
                raise InvalidMeasureError(f"negative probability {probability} for an atom")
            probabilities[atom] = probability
        total = sum(probabilities.values(), ZERO)
        if total != ONE:
            raise InvalidMeasureError(f"atom probabilities sum to {total}, not 1")
        self._probabilities_dict = probabilities

    @property
    def _probabilities(self) -> Dict[Atom, Fraction]:
        """The ``atom -> Fraction`` measure table, materialised lazily.

        Spaces built via :meth:`_from_numbered_atoms` carry the measure as
        integer weights; the dict form is only built if something
        (``atom_probability``, an expectation, a naive kernel) asks.
        """
        probabilities = self._probabilities_dict
        if probabilities is None:
            denominator = self._weight_denominator
            probabilities = {
                atom: Fraction(weight, denominator)
                for atom, weight in zip(self.atoms, self._atom_weights)
            }
            self._probabilities_dict = probabilities
        return probabilities

    @_probabilities.setter
    def _probabilities(self, value: Dict[Atom, Fraction]) -> None:
        self._probabilities_dict = value

    def _set_measure(self, weights: Tuple[int, ...], denominator: int) -> bool:
        """Store the weight-form measure and pick the engine.

        Returns True on the bitmask backend, which gets its interval
        cache here; the naive backend gets none.
        """
        self._atom_weights: Tuple[int, ...] = weights
        self._weight_denominator: int = denominator
        self._backend = get_default_backend()
        self._atom_of_dict: Optional[Dict[Outcome, Atom]] = None
        if self._backend == "bitmask":
            self._interval_cache: Optional[IntervalCache] = IntervalCache(
                self.interval_cache_size
            )
            return True
        self._interval_cache = None
        return False

    def _finalise(self) -> None:
        """Build the per-outcome and (bitmask backend) per-mask indexes.

        Every atom probability is rescaled to one common denominator so an
        interval query sums machine ints and normalises back to a Fraction
        once, instead of paying a gcd per atom add.  The rescaling is
        exact: the common denominator is a multiple of every atom's
        denominator by construction.
        """
        probabilities = self._probabilities_dict
        common = 1
        for atom in self._atoms:
            atom_denominator = probabilities[atom].denominator
            common = common // _gcd(common, atom_denominator) * atom_denominator
        weights = tuple(
            probabilities[atom].numerator
            * (common // probabilities[atom].denominator)
            for atom in self._atoms
        )
        self._numbering: Optional[Tuple[Outcome, ...]] = None
        if self._set_measure(weights, common):
            index = OutcomeIndex(
                outcome for atom in self._atoms for outcome in atom
            )
            self._index: Optional[OutcomeIndex] = index
            if all(len(atom) == 1 for atom in self._atoms):
                # powerset algebra: the index enumerated outcomes in atom
                # order, so atom i owns exactly bit i
                self._atom_masks: Tuple[int, ...] = tuple(
                    1 << position for position in range(len(self._atoms))
                )
            else:
                self._atom_masks = tuple(
                    index.mask_of(atom) for atom in self._atoms
                )
        else:
            self._index = None
            self._atom_masks = ()

    @property
    def _atom_of(self) -> Dict[Outcome, Atom]:
        """The ``outcome -> containing atom`` table, materialised lazily."""
        atom_of = self._atom_of_dict
        if atom_of is None:
            atom_of = {}
            for atom in self.atoms:
                for outcome in atom:
                    atom_of[outcome] = atom
            self._atom_of_dict = atom_of
        return atom_of

    @classmethod
    def _from_checked_partition(
        cls,
        atom_tuple: Tuple[Atom, ...],
        atom_probabilities: Mapping[Atom, FractionLike],
        validate_measure: bool = True,
    ) -> "FiniteProbabilitySpace":
        """Internal fast constructor for atoms already known to partition.

        Used where the partition property holds by construction (unique
        dict keys in :meth:`from_point_masses`, the trace algebra of
        :meth:`condition`, the product partition of :meth:`product`), so
        re-validating and re-sorting would only burn time.

        ``validate_measure=False`` additionally skips the nonnegativity
        and sums-to-one checks; only callers whose masses are exact
        Fractions summing to one *by construction* (conditioning a
        validated measure, multiplying two validated measures) may pass
        it.
        """
        self = cls.__new__(cls)
        self._atoms = atom_tuple
        self._outcomes = (
            frozenset().union(*atom_tuple) if atom_tuple else frozenset()
        )
        if validate_measure:
            self._check_measure(atom_probabilities)
        else:
            self._probabilities = dict(atom_probabilities)
        self._finalise()
        return self

    @classmethod
    def _from_numbered_atoms(
        cls,
        numbering: Tuple[Outcome, ...],
        atom_masks: Tuple[int, ...],
        weights: Tuple[int, ...],
        denominator: int,
    ) -> "FiniteProbabilitySpace":
        """Internal constructor from atoms given as masks over a numbering.

        Bit ``i`` of every mask stands for ``numbering[i]``, so the masks
        are as wide as the space, whatever index its outcomes come from.
        Atom ``j`` is ``atom_masks[j]`` with measure exactly
        ``weights[j] / denominator``.  Callers guarantee the masks
        partition the numbering and the weights are nonnegative ints
        summing to ``denominator > 0`` -- e.g. the induced point spaces of
        Section 5, a run measure conditioned on the runs through a
        sample, where both hold by construction.

        :attr:`atoms`, :attr:`outcomes`, :attr:`outcome_index` and the
        Fraction table are decoded from the numbering on first use.  On
        the naive backend the atoms are decoded at once, for the
        frozenset kernels, and no masks are kept.
        """
        self = cls.__new__(cls)
        self._numbering = numbering
        self._outcomes = None
        self._probabilities_dict = None
        self._index = None
        if self._set_measure(weights, denominator):
            self._atoms = None
            self._atom_masks = atom_masks
        else:
            self._atoms = tuple(
                frozenset(members_of_mask(numbering, mask)) for mask in atom_masks
            )
            self._atom_masks = ()
        return self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_point_masses(
        cls, masses: Mapping[Outcome, FractionLike]
    ) -> "FiniteProbabilitySpace":
        """Space whose sigma-algebra is the full powerset (singleton atoms).

        Mapping keys are unique, so the singleton atoms partition the
        space by construction and the fast path applies.
        """
        atoms = []
        probabilities: Dict[Atom, FractionLike] = {}
        for outcome, mass in masses.items():
            atom = frozenset((outcome,))
            atoms.append(atom)
            probabilities[atom] = mass
        return cls._from_checked_partition(tuple(atoms), probabilities)

    @classmethod
    def uniform(cls, outcomes: Iterable[Outcome]) -> "FiniteProbabilitySpace":
        """Uniform distribution with the full powerset algebra."""
        outcome_tuple = tuple(outcomes)
        if not outcome_tuple:
            raise InvalidMeasureError("a probability space needs at least one outcome")
        mass = Fraction(1, len(outcome_tuple))
        return cls.from_point_masses({outcome: mass for outcome in outcome_tuple})

    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[Iterable[Outcome]],
        probabilities: Iterable[FractionLike],
    ) -> "FiniteProbabilitySpace":
        """Space from parallel sequences of atoms and their probabilities."""
        atom_tuple = tuple(frozenset(atom) for atom in atoms)
        probability_tuple = tuple(probabilities)
        if len(atom_tuple) != len(probability_tuple):
            raise InvalidMeasureError("atoms and probabilities differ in length")
        return cls(atom_tuple, dict(zip(atom_tuple, probability_tuple)))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def outcomes(self) -> Event:
        """The sample space ``S``."""
        outcomes = self._outcomes
        if outcomes is None:
            outcomes = frozenset(self._numbering)
            self._outcomes = outcomes
        return outcomes

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """The atom partition of the sigma-algebra ``X``."""
        atoms = self._atoms
        if atoms is None:
            numbering = self._numbering
            atoms = tuple(
                frozenset(members_of_mask(numbering, mask)) for mask in self._atom_masks
            )
            self._atoms = atoms
        return atoms

    @property
    def backend(self) -> str:
        """The measure engine this space was built with."""
        return self._backend

    @property
    def atom_weights(self) -> Tuple[int, ...]:
        """Integer atom weights over :attr:`weight_denominator`.

        ``atom_weights[i] / weight_denominator`` is exactly the measure of
        ``atoms[i]``; downstream constructions (conditioning the run
        measure onto a sample, Section 5) reuse the weights to build
        derived spaces without any per-atom division.
        """
        return self._atom_weights

    @property
    def weight_denominator(self) -> int:
        """The common denominator the atom weights are expressed over."""
        return self._weight_denominator

    @property
    def outcome_index(self) -> OutcomeIndex:
        """The ``outcome -> bit position`` index (bitmask backend only).

        A space built over a numbering indexes its outcomes in that order,
        so masks from the index and the space's own masks agree.
        """
        index = self._index
        if index is None:
            if self._interval_cache is None:
                raise BackendError("this space was built on the naive backend")
            index = OutcomeIndex(self._numbering)
            self._index = index
        return index

    def atom_probability(self, atom: Atom) -> Fraction:
        """The measure of a single atom."""
        try:
            return self._probabilities[frozenset(atom)]
        except KeyError:
            raise NotMeasurableError(f"{set(atom)!r} is not an atom of this space") from None

    def atom_containing(self, outcome: Outcome) -> Atom:
        """The unique atom containing ``outcome``."""
        try:
            return self._atom_of[outcome]
        except KeyError:
            raise NotMeasurableError(f"{outcome!r} is not an outcome of this space") from None

    def has_powerset_algebra(self) -> bool:
        """True iff every subset is measurable (all atoms are singletons)."""
        return all(len(atom) == 1 for atom in self.atoms)

    def __len__(self) -> int:
        if self._numbering is not None:
            return len(self._numbering)
        return len(self._outcomes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FiniteProbabilitySpace({len(self)} outcomes, "
            f"{len(self._atom_weights)} atoms)"
        )

    # ------------------------------------------------------------------
    # Measure: bitmask kernels
    # ------------------------------------------------------------------
    #
    # Every query funnels through one LRU-cached computation per event
    # mask: ``(inner, outer, contained)`` where ``contained`` is the union
    # of the atoms wholly inside the event.  The event is measurable iff
    # ``contained`` equals its mask, and then ``mu(event) == inner``.

    def _interval_entry(self, mask: int) -> Tuple[Fraction, Fraction, int]:
        cache = self._interval_cache
        entry = cache.get(mask)
        if entry is None:
            denominator = self._weight_denominator
            inner = 0
            outer = 0
            contained = 0
            for atom_mask, weight in zip(self._atom_masks, self._atom_weights):
                overlap = atom_mask & mask
                if overlap:
                    outer += weight
                    if overlap == atom_mask:
                        inner += weight
                        contained |= atom_mask
            entry = (
                Fraction(inner, denominator),
                Fraction(outer, denominator),
                contained,
            )
            cache.put(mask, entry)
        return entry

    def event_mask(self, event: Iterable[Outcome]) -> int:
        """The bitmask of ``event & S`` (bitmask backend only)."""
        return self.outcome_index.mask_of_known(event)

    def _decoded(self, mask: int) -> Event:
        """The event a mask encodes, for the naive kernels.

        A space built over a numbering decodes through it; any other
        numbers its outcomes atom by atom, the order the bitmask
        backend's index uses.
        """
        numbering = self._numbering
        if numbering is None:
            numbering = tuple(outcome for atom in self.atoms for outcome in atom)
            self._numbering = numbering
        return frozenset(members_of_mask(numbering, mask))

    # Masks follow :attr:`outcome_index` on the bitmask backend.  On the
    # naive backend the mask methods decode the mask in the same order
    # and run the frozenset kernel, so callers that hold masks stay
    # backend-agnostic.

    def is_measurable_mask(self, mask: int) -> bool:
        """Mask-level :meth:`is_measurable` (the mask is within ``S``)."""
        if self._interval_cache is None:
            return self.is_measurable_naive(self._decoded(mask))
        return self._interval_entry(mask)[2] == mask

    def measure_mask(self, mask: int) -> Fraction:
        """Mask-level :meth:`measure`; raises on a split atom."""
        if self._interval_cache is None:
            return self.measure_naive(self._decoded(mask))
        inner, _outer, contained = self._interval_entry(mask)
        if contained != mask:
            raise NotMeasurableError(
                "event splits an atom; use inner_measure / outer_measure"
            )
        return inner

    def inner_measure_mask(self, mask: int) -> Fraction:
        """Mask-level :meth:`inner_measure`."""
        if self._interval_cache is None:
            return self.inner_measure_naive(self._decoded(mask))
        return self._interval_entry(mask)[0]

    def outer_measure_mask(self, mask: int) -> Fraction:
        """Mask-level :meth:`outer_measure`."""
        if self._interval_cache is None:
            return self.outer_measure_naive(self._decoded(mask))
        return self._interval_entry(mask)[1]

    # ------------------------------------------------------------------
    # Measure: public API (dispatches to the space's backend)
    # ------------------------------------------------------------------

    def is_measurable(self, event: Iterable[Outcome]) -> bool:
        """True iff ``event`` is a union of atoms (and a subset of ``S``)."""
        if self._interval_cache is None:
            return self.is_measurable_naive(event)
        mask = self.outcome_index.strict_mask(event)
        if mask is None:
            return False
        return self.is_measurable_mask(mask)

    def measure(self, event: Iterable[Outcome]) -> Fraction:
        """``mu(event)``; raises :class:`NotMeasurableError` if undefined."""
        if self._interval_cache is None:
            return self.measure_naive(event)
        mask = self.outcome_index.strict_mask(event)
        if mask is None:
            raise NotMeasurableError("event contains outcomes outside the sample space")
        return self.measure_mask(mask)

    def inner_measure(self, event: Iterable[Outcome]) -> Fraction:
        """``mu_*(event) = sup { mu(T) : T subseteq event, T in X }``.

        For a finite space this is the total mass of atoms contained in the
        event.  Per Section 5, the inner measure is the best lower bound on
        the probability of a (possibly non-measurable) fact.
        """
        if self._interval_cache is None:
            return self.inner_measure_naive(event)
        return self._interval_entry(self.outcome_index.mask_of_known(event))[0]

    def outer_measure(self, event: Iterable[Outcome]) -> Fraction:
        """``mu^*(event) = inf { mu(T) : T supseteq event, T in X }``.

        Equals ``1 - mu_*(complement)`` -- the duality the paper states in
        Section 5 -- and, atom-wise, the mass of atoms meeting the event.
        """
        if self._interval_cache is None:
            return self.outer_measure_naive(event)
        return self._interval_entry(self.outcome_index.mask_of_known(event))[1]

    def measure_interval(self, event: Iterable[Outcome]) -> Tuple[Fraction, Fraction]:
        """``(mu_*(event), mu^*(event))`` in one pass."""
        if self._interval_cache is None:
            return self.measure_interval_naive(event)
        entry = self._interval_entry(self.outcome_index.mask_of_known(event))
        return entry[0], entry[1]

    # ------------------------------------------------------------------
    # Measure: provenance hooks (cold path, backend-independent)
    # ------------------------------------------------------------------

    def event_cells(self, event: Iterable[Outcome]) -> Tuple[CellMeasure, ...]:
        """The per-atom decomposition of an event's measure interval.

        Section 5 computes ``mu_*(event)`` as the total mass of atoms
        contained in the event and ``mu^*(event)`` as the mass of atoms
        meeting it; this returns that computation cell by cell -- one
        :class:`CellMeasure` per atom of ``X``, in atom order, with the
        atom's exact measure and its contained/overlapping relation to
        the event.  Summing the contained (resp. overlapping) cells
        reproduces :meth:`inner_measure` (resp. :meth:`outer_measure`)
        exactly, which is what lets a derivation be re-audited from its
        serialised cells alone.  Cold path: used by ``Model.explain``,
        never by the model checker itself.
        """
        event_set = frozenset(event) & self.outcomes
        probabilities = self._probabilities
        cells = []
        for atom in self.atoms:
            overlap = atom & event_set
            cells.append(
                CellMeasure(
                    outcomes=atom,
                    measure=probabilities[atom],
                    contained=bool(overlap) and overlap == atom,
                    overlapping=bool(overlap),
                )
            )
        return tuple(cells)

    def inner_witness(self, event: Iterable[Outcome]) -> Event:
        """The measurable set realising the inner measure of an event.

        The union of the atoms contained in the event: the largest
        measurable subset, whose measure *is* ``mu_*(event)`` (Section 5).
        This is the witness a ``Pr_i(phi) >= alpha`` derivation carries --
        an explicit event the agent could bet on.
        """
        event_set = frozenset(event) & self.outcomes
        witness: FrozenSet[Outcome] = frozenset()
        for atom in self.atoms:
            if atom and atom <= event_set:
                witness |= atom
        return witness

    # ------------------------------------------------------------------
    # Measure: naive kernels (retained frozenset scans)
    # ------------------------------------------------------------------
    #
    # These are the original implementations, kept public so the
    # differential test suite can assert ``bitmask == naive`` on every
    # kernel and the ablation benchmark can time the two engines.

    def is_measurable_naive(self, event: Iterable[Outcome]) -> bool:
        """:meth:`is_measurable` via frozenset scans (ablation baseline)."""
        count_naive_query()
        event_set = frozenset(event)
        if not event_set <= self.outcomes:
            return False
        covered: set = set()
        for outcome in event_set:
            atom = self._atom_of[outcome]
            if not atom <= event_set:
                return False
            covered |= atom
        return covered == event_set

    def measure_naive(self, event: Iterable[Outcome]) -> Fraction:
        """:meth:`measure` via frozenset scans (ablation baseline)."""
        count_naive_query()
        event_set = frozenset(event)
        if not event_set <= self.outcomes:
            raise NotMeasurableError("event contains outcomes outside the sample space")
        total = ZERO
        seen: set = set()
        for outcome in event_set:
            atom = self._atom_of[outcome]
            if atom in seen:
                continue
            if not atom <= event_set:
                raise NotMeasurableError(
                    "event splits an atom; use inner_measure / outer_measure"
                )
            seen.add(atom)
            total += self._probabilities[atom]
        return total

    def inner_measure_naive(self, event: Iterable[Outcome]) -> Fraction:
        """:meth:`inner_measure` via frozenset scans (ablation baseline)."""
        count_naive_query()
        event_set = frozenset(event) & self.outcomes
        total = ZERO
        for atom in self.atoms:
            if atom <= event_set:
                total += self._probabilities[atom]
        return total

    def outer_measure_naive(self, event: Iterable[Outcome]) -> Fraction:
        """:meth:`outer_measure` via frozenset scans (ablation baseline)."""
        count_naive_query()
        event_set = frozenset(event) & self.outcomes
        total = ZERO
        for atom in self.atoms:
            if atom & event_set:
                total += self._probabilities[atom]
        return total

    def measure_interval_naive(self, event: Iterable[Outcome]) -> Tuple[Fraction, Fraction]:
        """:meth:`measure_interval` via frozenset scans (ablation baseline)."""
        count_naive_query()
        event_set = frozenset(event) & self.outcomes
        inner = ZERO
        outer = ZERO
        for atom in self.atoms:
            overlap = atom & event_set
            if overlap:
                outer += self._probabilities[atom]
                if overlap == atom:
                    inner += self._probabilities[atom]
        return inner, outer

    # ------------------------------------------------------------------
    # Conditioning
    # ------------------------------------------------------------------

    def condition(self, event: Iterable[Outcome]) -> "FiniteProbabilitySpace":
        """The conditional space given a measurable, positive-measure event.

        The new sample space is ``event``; its algebra is the trace algebra;
        the measure is ``mu(. | event)``.  This is the core operation behind
        the induced probability assignments of Section 5 and the lattice
        conditioning identity of Proposition 5.
        """
        event_set = frozenset(event)
        denominator = self.measure(event_set)  # raises if non-measurable
        if denominator == ZERO:
            raise ZeroMeasureConditioningError("conditioning event has measure zero")
        new_atoms = restrict_partition(self.atoms, event_set)
        probabilities = {
            atom: self._probabilities[self._atom_of[next(iter(atom))]] / denominator
            for atom in new_atoms
        }
        return FiniteProbabilitySpace._from_checked_partition(
            new_atoms, probabilities, validate_measure=False
        )

    def conditional_probability(
        self, event: Iterable[Outcome], given: Iterable[Outcome]
    ) -> Fraction:
        """``mu(event | given)`` for measurable events."""
        given_set = frozenset(given)
        denominator = self.measure(given_set)
        if denominator == ZERO:
            raise ZeroMeasureConditioningError("conditioning event has measure zero")
        return self.measure(frozenset(event) & given_set) / denominator

    # ------------------------------------------------------------------
    # Expectation (including Appendix B.2's inner/outer expectation)
    # ------------------------------------------------------------------

    def _value_classes(self, variable: RandomVariable) -> Dict[Fraction, set]:
        classes: Dict[Fraction, set] = {}
        for outcome in self.outcomes:
            value = as_fraction(variable(outcome))
            classes.setdefault(value, set()).add(outcome)
        return classes

    def expectation(self, variable: RandomVariable) -> Fraction:
        """``E[X]`` for a measurable random variable.

        The variable must be constant on atoms; otherwise it is not
        measurable and callers should use :meth:`inner_expectation` /
        :meth:`outer_expectation`.
        """
        total = ZERO
        for atom in self.atoms:
            values = {as_fraction(variable(outcome)) for outcome in atom}
            if len(values) != 1:
                raise NotMeasurableError(
                    "random variable is not constant on an atom; "
                    "use inner_expectation / outer_expectation"
                )
            total += values.pop() * self._probabilities[atom]
        return total

    def is_measurable_variable(self, variable: RandomVariable) -> bool:
        """True iff the variable is constant on every atom."""
        for atom in self.atoms:
            values = {as_fraction(variable(outcome)) for outcome in atom}
            if len(values) != 1:
                return False
        return True

    def inner_expectation(self, variable: RandomVariable) -> Fraction:
        """Appendix B.2's inner expectation for a two-valued variable.

        For ``X`` taking values ``x > y``::

            E_*(X) = x * mu_*(X = x) + y * mu^*(X = y)

        This is the tightest lower bound on ``E[X]`` over all extensions of
        the measure that make ``X`` measurable.  Degenerate (constant)
        variables are handled directly.  More than two values raises, as the
        paper only defines the two-valued case.
        """
        classes = self._value_classes(variable)
        if len(classes) == 1:
            (value,) = classes
            return value
        if len(classes) != 2:
            raise NotMeasurableError(
                "inner expectation is defined only for two-valued variables "
                f"(got {len(classes)} distinct values)"
            )
        high, low = sorted(classes, reverse=True)
        return high * self.inner_measure(classes[high]) + low * self.outer_measure(classes[low])

    def outer_expectation(self, variable: RandomVariable) -> Fraction:
        """Appendix B.2's outer expectation for a two-valued variable.

        For ``X`` taking values ``x > y``::

            E^*(X) = x * mu^*(X = x) + y * mu_*(X = y)
        """
        classes = self._value_classes(variable)
        if len(classes) == 1:
            (value,) = classes
            return value
        if len(classes) != 2:
            raise NotMeasurableError(
                "outer expectation is defined only for two-valued variables "
                f"(got {len(classes)} distinct values)"
            )
        high, low = sorted(classes, reverse=True)
        return high * self.outer_measure(classes[high]) + low * self.inner_measure(classes[low])

    def lower_expectation(self, variable: RandomVariable) -> Fraction:
        """The tightest lower bound on ``E[X]`` over measurable extensions.

        For a finite space this is ``sum_atoms mu(atom) * min(X on atom)``.
        It agrees with :meth:`expectation` on measurable variables and with
        Appendix B.2's :meth:`inner_expectation` on two-valued ones, and
        extends both to arbitrary variables -- the form the betting game's
        safety check uses when winnings are non-measurable.
        """
        total = ZERO
        for atom in self.atoms:
            total += self._probabilities[atom] * min(
                as_fraction(variable(outcome)) for outcome in atom
            )
        return total

    def upper_expectation(self, variable: RandomVariable) -> Fraction:
        """The tightest upper bound on ``E[X]``; dual of
        :meth:`lower_expectation`."""
        total = ZERO
        for atom in self.atoms:
            total += self._probabilities[atom] * max(
                as_fraction(variable(outcome)) for outcome in atom
            )
        return total

    # ------------------------------------------------------------------
    # Derived spaces
    # ------------------------------------------------------------------

    def coarsen(self, partition: Iterable[Iterable[Outcome]]) -> "FiniteProbabilitySpace":
        """Replace the algebra with a coarser one; measure is inherited.

        Every block of ``partition`` must be measurable in this space.
        """
        blocks = tuple(frozenset(block) for block in partition)
        probabilities = {block: self.measure(block) for block in blocks}
        return FiniteProbabilitySpace(blocks, probabilities)

    def product(self, other: "FiniteProbabilitySpace") -> "FiniteProbabilitySpace":
        """Independent product space over pairs of outcomes."""
        atoms = []
        probabilities = {}
        for left in self.atoms:
            for right in other.atoms:
                atom = frozenset(
                    (left_outcome, right_outcome)
                    for left_outcome in left
                    for right_outcome in right
                )
                atoms.append(atom)
                probabilities[atom] = (
                    self._probabilities[left] * other._probabilities[right]
                )
        return FiniteProbabilitySpace._from_checked_partition(
            tuple(atoms), probabilities, validate_measure=False
        )

    def extends(self, other: "FiniteProbabilitySpace") -> bool:
        """True iff this space extends ``other`` in the Appendix B.2 sense:
        same sample space, finer algebra, agreeing measure on the coarse
        algebra."""
        if self.outcomes != other.outcomes:
            return False
        for atom in other.atoms:
            if not self.is_measurable(atom):
                return False
            if self.measure(atom) != other.atom_probability(atom):
                return False
        return True
