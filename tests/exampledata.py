"""Hand-checked expectations for the THH / HTH / HHT showcase game.

Every grid here was derived by hand from the overlap definitions (and the
win-probability closed forms re-derived through the leading-number cofactor
formula), so the suites can compare the library against data it did not
produce. `solver_entries` reads the solver's own entries of the correlation
matrix, from its overlap table and from the matrices its value solve
eliminates, and `scaled_entries` puts a grid of polynomials in the same form.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction
from unittest import mock

from penney import solver
from penney.patterns import GameSpec
from penney.polyalg import Polynomial
from refalgebra import derivative

EXAMPLE_PATTERNS = ("THH", "HTH", "HHT")


def correlation_grid(p: Fraction) -> list[list[Polynomial]]:
    """Expected overlap-polynomial matrix for the showcase patterns."""
    q = 1 - p
    return [
        [Polynomial([1]), Polynomial([0, p]), Polynomial([0, 0, p * p])],
        [Polynomial([0, 0, p * q]), Polynomial([1, 0, p * q]), Polynomial([0, p])],
        [Polynomial([0, q, p * q]), Polynomial([0, 0, p * q]), Polynomial([1])],
    ]


def conway_grid(p: Fraction) -> list[list[Fraction]]:
    """Expected leading-number matrix: entry (i, j) is patterns[j] * patterns[i]."""
    q = 1 - p
    return [
        [1 / (p * p * q), 1 / (p * q), 1 / q],
        [1 / p, (p * q + 1) / (p * p * q), 1 / (p * q)],
        [(p + 1) / (p * p), 1 / p, 1 / (p * p * q)],
    ]


def closed_form_probs(p: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Win probabilities for the showcase game as closed forms in the bias."""
    q = 1 - p
    return (q * (1 + p * q) / (1 + q), q / (1 + q), p * (1 - q * q) / (1 + q))


def det3(grid) -> Fraction:
    """Explicit 3x3 cofactor determinant, independent of the library routines."""
    (a, b, c), (d, e, f), (g, h, i) = grid
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class _Stop(Exception):
    """Ends a spied solve once the matrix it builds has been read."""


def _cramer_input(spec: GameSpec, first: tuple | None = None) -> list[list[int]]:
    """The rows that `_solve_at_one` hands to `_cramer`: those of its first
    solve, or, where `first` stands in for that solve's (det, numerators),
    those of its second."""
    seen: list[list[list[int]]] = []

    def spy(rows):
        seen.append([list(row) for row in rows])
        if first is None or len(seen) == 2:
            raise _Stop
        return first

    with mock.patch.object(solver, "_cramer", spy), contextlib.suppress(_Stop):
        solver._solve_at_one(spec)
    return seen[-1]


def solver_entries(spec: GameSpec) -> list[list[tuple]]:
    """Per entry (a, b) of M: the solver's polynomial in s, and D**len(a) times
    its value and its slope at s = 1, as the hot path builds them.

    The polynomial puts each weight w of `_correlations`' overlap (b, k) at
    u**(len(a)-k), as `game_pgfs` and `game_distribution` read it. The values
    are the M(1) that `_solve_at_one` hands to its first `_cramer`. The slopes
    come from its second: had the first solve given det M(1) = 0 and N = e_j,
    its right-hand side d c'(1) - M'(1) N is minus column j of M'(1).
    """
    weights = spec.model.weights
    scale = spec.model.common_denominator
    words = [a.symbols for a in spec.patterns]
    m = len(words)
    coefficients = [[[0] * len(a) for _ in words] for a in words]
    for a, row, overlaps in zip(words, coefficients, solver._correlations(words, words, weights)):
        for j, k, w in overlaps:
            row[j][len(a) - k] = w
    values = _cramer_input(spec)
    slopes = [
        [-row[-1] for row in _cramer_input(spec, (0, [[int(i == j)] for i in range(m)]))]
        for j in range(m)
    ]
    return [
        [
            (solver._in_s(coefficients[i][j], scale), values[i][j], slopes[j][i])
            for j in range(m)
        ]
        for i in range(m)
    ]


def scaled_entries(spec: GameSpec, grid) -> list[list[tuple]]:
    """`solver_entries`' form for a grid of polynomials: each entry, and
    D**len(a) times its value and its slope at s = 1."""
    scale = spec.model.common_denominator
    return [
        [
            (entry, scale**a.length * entry.evaluate(1), scale**a.length * derivative(entry).evaluate(1))
            for entry in row
        ]
        for a, row in zip(spec.patterns, grid)
    ]
