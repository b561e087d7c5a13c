"""Hand-checked expectations for the THH / HTH / HHT showcase game.

Every grid here was derived by hand from the overlap definitions (and the
win-probability closed forms re-derived through the leading-number cofactor
formula), so the suites can compare the library against data it did not
produce. `solver_entries` reads the solver's own entries of the correlation
matrix, and `scaled_entries` puts a grid of polynomials in the same form.
"""

from __future__ import annotations

from fractions import Fraction

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


def solver_entries(spec: GameSpec) -> list[list[tuple]]:
    """Per entry (a, b) of M: the solver's polynomial in s, and D**len(a) times
    its value and its slope at s = 1, from the hot path's integer builders."""
    weights = solver._symbol_weights(spec.model)
    scale = spec.model.common_denominator
    powers = [scale**k for k in range(max(a.length for a in spec.patterns) + 1)]
    return [
        [
            (
                solver._in_s(solver._scaled_correlation(a, b, weights), scale),
                *solver._entry_at_one(a, b, weights, powers),
            )
            for b in spec.patterns
        ]
        for a in spec.patterns
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
