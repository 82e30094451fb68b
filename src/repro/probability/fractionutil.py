"""Helpers for exact rational arithmetic.

Every probability in the library is a :class:`fractions.Fraction`.  The
paper's examples are all rational (1/2, 2/3, 0.99, 1/2**10, ...), and using
exact arithmetic end-to-end means the theorem verifiers compare values with
``==`` rather than with float tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

FractionLike = Union[Fraction, int, str, float, tuple]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def as_fraction(value: FractionLike) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Accepted inputs:

    * ``Fraction`` -- returned unchanged.
    * ``int`` -- exact.
    * ``str`` -- parsed exactly (``"2/3"``, ``"0.99"``).
    * ``tuple`` ``(num, den)`` -- exact.
    * ``float`` -- converted via its *decimal* string representation, so
      ``as_fraction(0.99) == Fraction(99, 100)``.  (A raw
      ``Fraction(0.99)`` would expose the binary representation, which is
      never what a probability model means.)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not probabilities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, tuple):
        numerator, denominator = value
        return Fraction(numerator, denominator)
    if isinstance(value, float):
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as an exact probability")


def check_probability(value: FractionLike) -> Fraction:
    """Coerce to a Fraction and verify it lies in the closed unit interval."""
    fraction = as_fraction(value)
    if not ZERO <= fraction <= ONE:
        raise ValueError(f"probability {fraction} outside [0, 1]")
    return fraction


def sums_to_one(values: Sequence[FractionLike]) -> bool:
    """Exactly ``sum(values, ZERO) == ONE``, without a gcd per term.

    Adding two Fractions reduces the result, which costs a gcd.  Rationals
    (Fractions and ints) are instead accumulated into one unreduced
    ``numerator / denominator`` pair -- cross-multiplied only when a
    term's denominator differs from the running one -- and the pair is
    compared once.  Any other value (a float, say) falls back to the
    Fraction sum, so every input answers, or raises, as that sum does.
    """
    numerator, denominator = 0, 1
    try:
        for value in values:
            term_numerator, term_denominator = value.numerator, value.denominator
            if term_denominator == denominator:
                numerator += term_numerator
            else:
                numerator = numerator * term_denominator + term_numerator * denominator
                denominator *= term_denominator
    except AttributeError:
        return sum(values, ZERO) == ONE
    return numerator == denominator


def format_fraction(value: Fraction, max_decimal_digits: int = 6) -> str:
    """Render a fraction for tables: exact if short, decimal otherwise.

    ``1/2`` renders as ``"1/2"``; ``1023/1024`` renders as ``"1023/1024"``;
    fractions with huge denominators fall back to a rounded decimal.
    """
    if value.denominator == 1:
        return str(value.numerator)
    if len(str(value.denominator)) <= max_decimal_digits:
        return f"{value.numerator}/{value.denominator}"
    return f"{float(value):.{max_decimal_digits}f}"
