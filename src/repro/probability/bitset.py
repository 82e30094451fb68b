"""Indexed bitmask representation of events over finite sample spaces.

The measure-theoretic kernels of Section 5 -- ``mu``, ``mu_*``, ``mu^*``
and the interval query ``(mu_*, mu^*)`` -- reduce, on a finite space, to
set algebra between an event and the atoms of the sigma-algebra.  This
module provides the representation that makes that algebra cheap:

* :class:`OutcomeIndex` assigns every outcome a canonical bit position, so
  an event becomes a plain Python ``int`` and ``atom <= event`` /
  ``atom & event`` become the bitwise tests ``mask & event == mask`` /
  ``mask & event``.
* :class:`IntervalCache` is a bounded LRU map ``event mask -> (inner,
  outer, contained mask)`` so that repeated interval queries -- the
  dominant access pattern of ``knows_probability_interval`` and the attack
  sweeps -- cost a dictionary hit after first touch.
* :func:`use_backend` builds spaces on the retained ``"naive"``
  frozenset kernels inside a block -- the oracle the differential tests
  and the ablation benchmark compare the ``"bitmask"`` engine against.
  Switching emits a ``backend_switch`` event through :mod:`repro.obs`,
  so traces show which kernel actually ran.
* :func:`mask_of_positions`, :func:`compress_mask` and
  :func:`members_of_mask` move events between a shared index and a
  sub-universe's own compact numbering: a partition of
  ``System.point_index`` keeps one numbering per part, so its spaces'
  masks stay as wide as the part, not as the system.
* :func:`kernel_totals` / :func:`reset_kernel_totals` snapshot the
  process-wide cache hit/miss/eviction and kernel-dispatch counters that
  the observability layer (``repro.obs``, ``tools/tracereport`` and
  ``perfbench``'s ``probability.kernel_queries``) reports.

The bitmask layer accelerates *set algebra only*: every probability that
flows through it stays an exact :class:`fractions.Fraction`.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.recorder import get_recorder

__all__ = [
    "OutcomeIndex",
    "IntervalCache",
    "BACKENDS",
    "compress_mask",
    "count_naive_query",
    "get_default_backend",
    "kernel_totals",
    "mask_of_positions",
    "members_of_mask",
    "merge_kernel_totals",
    "reset_kernel_totals",
    "use_backend",
]


class _KernelTotals:
    """Process-wide aggregate of every measure-kernel statistic.

    Spaces are constructed by the thousands inside a sweep (every
    conditioning step builds one), so every :class:`IntervalCache`
    counts its probes here, the one place the observability layer
    reads.  Updates are single integer increments on the hot path --
    deliberately cheaper than calling into a recorder per cache probe.
    """

    __slots__ = (
        "hits",
        "misses",
        "evictions",
        "naive_queries",
        "backend_switches",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.naive_queries = 0
        self.backend_switches = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_evictions": self.evictions,
            "naive_queries": self.naive_queries,
            "backend_switches": self.backend_switches,
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.naive_queries = 0
        self.backend_switches = 0


_TOTALS = _KernelTotals()


def kernel_totals() -> Dict[str, int]:
    """Snapshot of the process-wide measure-kernel counters.

    ``cache_hits``/``cache_misses``/``cache_evictions`` aggregate every
    :class:`IntervalCache` in the process; ``naive_queries`` counts
    interval-kernel calls on the naive (frozenset) backend;
    ``backend_switches`` counts the engine changes :func:`use_backend`
    makes, entering and leaving.
    """
    return _TOTALS.snapshot()


def reset_kernel_totals() -> Dict[str, int]:
    """Zero the process-wide kernel counters; returns the old snapshot."""
    previous = _TOTALS.snapshot()
    _TOTALS.reset()
    return previous


#: ``kernel_totals()`` snapshot key -> :class:`_KernelTotals` attribute,
#: the mapping :func:`merge_kernel_totals` folds shipped deltas through.
_TOTALS_ATTRS = {
    "cache_hits": "hits",
    "cache_misses": "misses",
    "cache_evictions": "evictions",
    "naive_queries": "naive_queries",
    "backend_switches": "backend_switches",
}


def merge_kernel_totals(delta: Dict[str, int]) -> None:
    """Fold a shipped kernel-totals delta into this process's counters.

    The cross-process telemetry layer (:mod:`repro.obs.snapshot`) ships
    each worker attempt's ``kernel_totals()`` delta back to the parent,
    which merges it here so a post-sweep :func:`kernel_totals` reflects
    the whole sweep rather than only parent-side work.  Keys follow the
    :func:`kernel_totals` snapshot; unknown keys are ignored so older
    parents tolerate newer workers.
    """
    for key, attr in _TOTALS_ATTRS.items():
        value = int(delta.get(key, 0))
        if value:
            setattr(_TOTALS, attr, getattr(_TOTALS, attr) + value)


def count_naive_query() -> None:
    """Count one naive-backend kernel dispatch (called by the space)."""
    _TOTALS.naive_queries += 1


def mask_of_positions(positions: Sequence[int]) -> int:
    """The mask with exactly the given bit positions set.

    Built through one byte buffer, so the cost is linear in the highest
    position; OR-ing ``1 << position`` per member would copy the growing
    int once per member instead.
    """
    if not positions:
        return 0
    data = bytearray((max(positions) >> 3) + 1)
    for position in positions:
        data[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(data, "little")


def compress_mask(mask: int, within: int, positions: Sequence[int]) -> int:
    """The bits of ``mask`` inside ``within``, in ``within``'s own numbering.

    ``positions`` lists the set bits of ``within`` in ascending order, and
    bit ``i`` of the result is bit ``positions[i]`` of ``mask``.  This
    translates an event over a shared index into the compact numbering
    of a sub-universe whose members sit at ``positions`` of that index.
    A full or empty overlap costs one ``&``; otherwise one byte view of
    the overlap, then one lookup per position.
    """
    overlap = mask & within
    if overlap == within:
        return (1 << len(positions)) - 1
    if not overlap:
        return 0
    data = overlap.to_bytes((overlap.bit_length() + 7) >> 3, "little")
    limit = len(data) << 3
    result = 0
    bit = 1
    for position in positions:
        if position < limit and data[position >> 3] >> (position & 7) & 1:
            result |= bit
        bit <<= 1
    return result


def members_of_mask(members: Sequence[Hashable], mask: int) -> Iterator[Hashable]:
    """The entries of ``members`` whose positions are set in ``mask``, in order."""
    while mask:
        low = mask & -mask
        yield members[low.bit_length() - 1]
        mask ^= low


class OutcomeIndex:
    """A canonical ``outcome -> bit position`` assignment.

    Positions are assigned in first-seen order of the constructor
    iterable, so two indexes built from the same ordered data agree.
    Events over the indexed universe are represented as ints with bit
    ``position(outcome)`` set.
    """

    __slots__ = ("_positions", "_members", "_full_mask")

    def __init__(self, members: Iterable[Hashable]) -> None:
        positions: Dict[Hashable, int] = {}
        for member in members:
            if member not in positions:
                positions[member] = len(positions)
        self._positions = positions
        self._members: Tuple[Hashable, ...] = tuple(positions)
        self._full_mask = (1 << len(positions)) - 1

    # -- structure -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._members)

    def __contains__(self, member: Hashable) -> bool:
        return member in self._positions

    @property
    def members(self) -> Tuple[Hashable, ...]:
        """All indexed members, in bit-position order."""
        return self._members

    @property
    def full_mask(self) -> int:
        """The mask of the whole universe (all bits set)."""
        return self._full_mask

    def position(self, member: Hashable) -> int:
        """The bit position of ``member``; raises ``KeyError`` if unknown."""
        return self._positions[member]

    def singleton(self, member: Hashable) -> int:
        """The mask with only ``member``'s bit set."""
        return 1 << self._positions[member]

    # -- events <-> masks ------------------------------------------------

    def mask_where(self, predicate: Callable[[Hashable], object]) -> int:
        """The mask of the members satisfying ``predicate``: one call per
        member, one mask built at the end (:func:`mask_of_positions`)."""
        return mask_of_positions(
            [position for position, member in enumerate(self._members) if predicate(member)]
        )

    def mask_of(self, members: Iterable[Hashable]) -> int:
        """The mask of an event; raises ``KeyError`` on unknown members."""
        positions = self._positions
        mask = 0
        for member in members:
            mask |= 1 << positions[member]
        return mask

    def mask_of_known(self, members: Iterable[Hashable]) -> int:
        """The mask of ``event & universe``: unknown members are ignored.

        This is the conversion behind inner/outer measures, which the
        space defines on arbitrary subsets by first intersecting with
        the sample space.
        """
        positions = self._positions
        mask = 0
        for member in members:
            position = positions.get(member)
            if position is not None:
                mask |= 1 << position
        return mask

    def strict_mask(self, members: Iterable[Hashable]) -> Optional[int]:
        """The mask of an event, or ``None`` if any member is unknown."""
        positions = self._positions
        mask = 0
        for member in members:
            position = positions.get(member)
            if position is None:
                return None
            mask |= 1 << position
        return mask

    def iter_members_of(self, mask: int) -> Iterator[Hashable]:
        """The members whose bits are set in ``mask``, in position order."""
        return members_of_mask(self._members, mask)

    def members_of(self, mask: int) -> FrozenSet[Hashable]:
        """The event (as a frozenset) encoded by ``mask``."""
        return frozenset(self.iter_members_of(mask))


#: Cached value for one event mask: ``(inner, outer, contained_mask)``
#: where ``contained_mask`` is the union of the atoms wholly inside the
#: event -- the event is measurable iff ``contained_mask`` equals it.
IntervalEntry = Tuple["Fraction", "Fraction", int]


class IntervalCache:
    """A bounded LRU cache ``event mask -> IntervalEntry``.

    One instance lives on each :class:`FiniteProbabilitySpace`; the bound
    keeps long sweeps from accumulating one entry per distinct event
    forever.  Eviction is least-recently-used so the hot interval queries
    of a sweep stay resident.  Hits, misses and evictions are counted
    once, in the process-wide :func:`kernel_totals`.
    """

    __slots__ = ("_entries", "_maxsize")

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("IntervalCache needs room for at least one entry")
        self._entries: "OrderedDict[int, IntervalEntry]" = OrderedDict()
        self._maxsize = maxsize

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def get(self, mask: int) -> Optional[IntervalEntry]:
        """The cached entry for ``mask``, refreshing its recency; None on miss."""
        entry = self._entries.get(mask)
        if entry is None:
            _TOTALS.misses += 1
            return None
        self._entries.move_to_end(mask)
        _TOTALS.hits += 1
        return entry

    def put(self, mask: int, entry: IntervalEntry) -> None:
        """Insert or refresh an entry, evicting the least recently used."""
        entries = self._entries
        if mask in entries:
            entries.move_to_end(mask)
        entries[mask] = entry
        if len(entries) > self._maxsize:
            entries.popitem(last=False)
            _TOTALS.evictions += 1


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

#: The measure engines: ``"bitmask"`` (indexed ints, the default) and
#: ``"naive"`` (the original frozenset scans, kept only as the oracle the
#: differential tests and the ablation benchmark compare against).
BACKENDS: Tuple[str, ...] = ("bitmask", "naive")

_default_backend = "bitmask"


def get_default_backend() -> str:
    """The engine newly constructed spaces will use."""
    return _default_backend


def _switch_backend(name: str) -> str:
    """Make ``name`` the engine for newly built spaces; returns the old one."""
    global _default_backend
    previous = _default_backend
    _default_backend = name
    if name != previous:
        _TOTALS.backend_switches += 1
        get_recorder().event("backend_switch", backend=name, previous=previous)
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Context manager: build spaces with ``name`` inside the block.

    Existing spaces keep the backend they were built with: the choice is
    baked in at construction, which is what lets the differential tests
    and the ablation benchmark run the engines on identically
    constructed inputs.  Yields ``name``.
    """
    if name not in BACKENDS:
        raise ValueError(f"unknown measure backend {name!r}; expected one of {BACKENDS}")
    previous = _switch_backend(name)
    try:
        yield name
    finally:
        _switch_backend(previous)
