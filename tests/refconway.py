"""Conway's leading numbers and the `Fraction` correlation builders, for the tests only.

The library builds every game's system from integers, all from one overlap
table (`penney.solver`'s `_correlations`, one dict of every pattern's
prefixes). The routes here are the textbook definitions instead, one pair of
patterns at a time: `overlap_indicator` and exact `Fraction` probabilities
give the correlation polynomials, the correlation matrix and the completion
column, and Conway's leading numbers give win probabilities and waiting
times by cofactors (`conway_reference`). Nothing here imports
`penney.solver`, so each one is an independent check of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from penney.patterns import GameSpec, Pattern, SourceModel, validate_pattern_set
from penney.polyalg import Polynomial
from refalgebra import PolyMatrix, coefficient, determinant

# Convention for the zero-length pattern: an empty product of probabilities.
EMPTY_WORD_PROBABILITY = Fraction(1)


def symbols_probability(symbols: Sequence[str], model: SourceModel) -> Fraction:
    """Probability of seeing the given symbols in a row; empty input gives 1."""
    return math.prod((model.probs[model.index(s)] for s in symbols), start=EMPTY_WORD_PROBABILITY)


def pattern_probability(pattern: Pattern, model: SourceModel) -> Fraction:
    return symbols_probability(pattern.symbols, model)


def overlap_indicator(a: Pattern, b: Pattern, k: int) -> bool:
    """True iff the first k symbols of `a` equal the last k symbols of `b`."""
    limit = min(a.length, b.length)
    if not 1 <= k <= limit:
        raise ValueError(f"overlap length {k} out of range 1..{limit}")
    return a.symbols[:k] == b.symbols[-k:]


def correlation_polynomial(a: Pattern, b: Pattern, model: SourceModel) -> Polynomial:
    """Overlap polynomial of `a` against `b`.

    The coefficient of s**(len(a)-k) is the probability of the last len(a)-k
    symbols of `a`, present exactly when the first k symbols of `a` equal the
    last k symbols of `b`. Its constant term is 1 iff a == b, and for a
    validated pattern set every off-diagonal polynomial vanishes at 0.
    """
    coeffs = [Fraction(0)] * a.length
    for k in range(1, min(a.length, b.length) + 1):
        if overlap_indicator(a, b, k):
            coeffs[a.length - k] = symbols_probability(a.symbols[k:], model)
    return Polynomial(coeffs)


def correlation_matrix(spec: GameSpec) -> PolyMatrix:
    """m-by-m matrix of correlation polynomials; the identity at s = 0."""
    return PolyMatrix(
        [
            [correlation_polynomial(a, b, spec.model) for b in spec.patterns]
            for a in spec.patterns
        ]
    )


def completion_monomials(spec: GameSpec) -> list[Polynomial]:
    """P(pattern) * s**len(pattern) per player: the weight of one straight run."""
    return [
        Polynomial([0] * p.length + [pattern_probability(p, spec.model)])
        for p in spec.patterns
    ]


def conway_number(a: Pattern, b: Pattern, model: SourceModel) -> Fraction:
    """Leading number a*b: reciprocal prefix probabilities over overlaps.

    Sums 1/P(first k symbols of b) over every k where that prefix of b equals
    the suffix of a; equivalently the correlation polynomial of b against a
    evaluated at 1 and divided by P(b).
    """
    return sum(
        (
            1 / symbols_probability(b.symbols[:k], model)
            for k in range(1, min(a.length, b.length) + 1)
            if overlap_indicator(b, a, k)
        ),
        Fraction(0),
    )


def conway_matrix(spec: GameSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Grid with entry (i, j) = patterns[j] * patterns[i] (leading numbers)."""
    return tuple(
        tuple(conway_number(b, a, spec.model) for b in spec.patterns)
        for a in spec.patterns
    )


def two_player_odds(first: Pattern, second: Pattern, model: SourceModel) -> Fraction:
    """Odds P(first wins) : P(second wins) by the classic leading-number ratio."""
    validate_pattern_set([first, second], model)
    denominator = conway_number(first, first, model) - conway_number(first, second, model)
    if denominator == 0:
        raise ZeroDivisionError(f"degenerate pair: {first} vs {second}")
    return (
        conway_number(second, second, model) - conway_number(second, first, model)
    ) / denominator


def single_pattern_expected_time(pattern: Pattern, model: SourceModel) -> Fraction:
    """Expected tosses until `pattern` first occurs (Solov'ev's sum).

    Adds 1/P(first k symbols) over every self-overlap of length k; agrees with
    conway_number(pattern, pattern, model) and with the chain oracle.
    """
    return sum(
        1 / symbols_probability(pattern.symbols[:k], model)
        for k in range(1, pattern.length + 1)
        if overlap_indicator(pattern, pattern, k)
    )


def conway_reference(spec: GameSpec) -> tuple[tuple[Fraction, ...], Fraction]:
    """Win probabilities and E[T] by the leading-number route.

    Win probability j is the determinant of the Conway grid with column j
    replaced by ones, over the sum of those determinants; E[T] is the grid's
    own determinant over the same sum.
    """
    grid = conway_matrix(spec)

    def det(rows):
        return determinant(PolyMatrix([[Polynomial.constant(v) for v in row] for row in rows]))

    column_dets = [
        coefficient(det([row[:j] + (Fraction(1),) + row[j + 1 :] for row in grid]), 0)
        for j in range(spec.player_count)
    ]
    total = sum(column_dets)
    return tuple(d / total for d in column_dets), coefficient(det(grid), 0) / total
