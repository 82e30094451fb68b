"""Differential suite: bitmask == naive kernels, exactly.

Hypothesis drives random algebras -- including non-powerset ones, since
the random partition regularly produces multi-outcome atoms -- random
rational masses, and random events that may split atoms or mention
outcomes outside the sample space.  Every kernel of the bitmask engine
must agree with the retained ``*_naive`` implementation, and a space
constructed under each backend (``bitmask`` and the ``naive`` oracle)
must agree value-for-value as exact Fractions.

Two universes run the same properties: the seed's 8 outcomes, and a
70-outcome universe whose masks run past 64 bits with many atoms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotMeasurableError
from repro.probability import BACKENDS, FiniteProbabilitySpace, use_backend

OUTCOMES = tuple(range(8))
#: Past 64 bits, and not a multiple of 64.
WIDE_OUTCOMES = tuple(range(70))
#: Outcomes never in the space: inner/outer measures must ignore them,
#: ``measure``/``is_measurable`` must reject them -- on every engine.
FOREIGN = (98, 99)


@st.composite
def partitions(draw, outcomes=OUTCOMES, max_label=3):
    """Random partition of the universe plus random rational atom masses."""
    labels = draw(
        st.lists(
            st.integers(0, max_label),
            min_size=len(outcomes),
            max_size=len(outcomes),
        )
    )
    blocks: dict = {}
    for outcome, label in zip(outcomes, labels):
        blocks.setdefault(label, set()).add(outcome)
    atoms = [frozenset(block) for block in blocks.values()]
    weights = draw(
        st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms))
    )
    total = sum(weights)
    probabilities = {
        atom: Fraction(weight, total) for atom, weight in zip(atoms, weights)
    }
    return atoms, probabilities


events = st.sets(st.sampled_from(OUTCOMES + FOREIGN)).map(frozenset)
wide_events = st.sets(st.sampled_from(WIDE_OUTCOMES + FOREIGN)).map(frozenset)


def build_spaces(atoms, probabilities):
    """The same algebra constructed under every backend."""
    spaces = {}
    for backend in BACKENDS:
        with use_backend(backend):
            spaces[backend] = FiniteProbabilitySpace(atoms, probabilities)
        assert spaces[backend].backend == backend
    return spaces


def assert_spaces_agree(spaces, event):
    reference = spaces["naive"]
    expected_interval = reference.measure_interval(event)
    expected_measurable = reference.is_measurable(event)
    for backend, space in spaces.items():
        assert space.is_measurable(event) == expected_measurable, backend
        interval = space.measure_interval(event)
        assert interval == expected_interval, backend
        inner, outer = interval
        assert type(inner) is Fraction and type(outer) is Fraction
        try:
            expected = reference.measure_naive(event)
        except NotMeasurableError:
            with pytest.raises(NotMeasurableError):
                space.measure(event)
        else:
            assert space.measure(event) == expected, backend


@given(partitions(), events)
def test_bitmask_kernels_match_naive_kernels(partition, event):
    atoms, probabilities = partition
    space = FiniteProbabilitySpace(atoms, probabilities)
    assert space.backend == "bitmask"
    assert space.is_measurable(event) == space.is_measurable_naive(event)
    assert space.inner_measure(event) == space.inner_measure_naive(event)
    assert space.outer_measure(event) == space.outer_measure_naive(event)
    assert space.measure_interval(event) == space.measure_interval_naive(event)
    # the second query is served by the interval cache; it must not drift
    assert space.measure_interval(event) == space.measure_interval_naive(event)
    try:
        expected = space.measure_naive(event)
    except NotMeasurableError:
        with pytest.raises(NotMeasurableError):
            space.measure(event)
    else:
        assert space.measure(event) == expected


@given(partitions(), events)
def test_backends_agree_on_identical_inputs(partition, event):
    atoms, probabilities = partition
    assert_spaces_agree(build_spaces(atoms, probabilities), event)


@settings(max_examples=40)
@given(partitions(outcomes=WIDE_OUTCOMES, max_label=12), wide_events)
def test_backends_agree_on_tail_word_universes(partition, event):
    """70 outcomes: masks past 64 bits, many atoms."""
    atoms, probabilities = partition
    assert_spaces_agree(build_spaces(atoms, probabilities), event)


@settings(max_examples=40)
@given(partitions(outcomes=WIDE_OUTCOMES, max_label=12), wide_events)
def test_inner_outer_split_on_tail_word_universes(partition, event):
    atoms, probabilities = partition
    spaces = build_spaces(atoms, probabilities)
    reference = spaces["naive"]
    for backend, space in spaces.items():
        assert space.inner_measure(event) == reference.inner_measure(event), backend
        assert space.outer_measure(event) == reference.outer_measure(event), backend


@given(partitions())
def test_conditioning_agrees_across_backends(partition):
    atoms, probabilities = partition
    conditioning_event = frozenset(atoms[0])
    conditioned = {}
    for backend in BACKENDS:
        with use_backend(backend):
            conditioned[backend] = FiniteProbabilitySpace(
                atoms, probabilities
            ).condition(conditioning_event)
    reference = conditioned["naive"]
    for atom in reference.atoms:
        expected = reference.measure(atom)
        for backend, space in conditioned.items():
            assert space.measure(atom) == expected, backend
