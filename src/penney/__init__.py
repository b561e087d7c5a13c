"""Exact analysis of pattern-race (Penney-type) games over biased i.i.d. sources.

Given m players who each pick a pattern over a finite alphabet with exact
rational symbol probabilities, this package computes every player's win
probability, the full probability generating function of the game, and
expected waiting/duration statistics, all in exact rational arithmetic. Each
answer has one route, a function of the game's spec: the values are
`solve_game`, the generating functions `game_pgfs` and the win-time series
`game_distribution`, the paper's recurrence. `simulate`, a seeded Monte Carlo
player, checks a game by play. The absorbing-chain oracle, against which the
benchmark checks every output, stays in `penney.oracle` and is not exported
here. The other second routes live with the tests: Conway's leading numbers
and the `Fraction` correlation builders in `tests/refconway.py`, next to the
polynomial matrix, its Bareiss and cofactor determinants and the Taylor
series of a rational function in `tests/refalgebra.py`.
"""

__version__ = "0.1.0"

from .oracle import InvariantError, simulate
from .patterns import (
    GameSpec,
    Pattern,
    SourceModel,
    ValidationError,
    parse_pattern,
    validate_pattern_set,
)
from .polyalg import ONE, S, Polynomial, RationalFunction
from .solver import (
    DegenerateGameError,
    GameSolution,
    best_response,
    game_distribution,
    game_pgfs,
    response_table,
    solve_game,
)

__all__ = [
    "DegenerateGameError",
    "GameSolution",
    "GameSpec",
    "InvariantError",
    "ONE",
    "Pattern",
    "Polynomial",
    "RationalFunction",
    "S",
    "SourceModel",
    "ValidationError",
    "best_response",
    "game_distribution",
    "game_pgfs",
    "parse_pattern",
    "response_table",
    "simulate",
    "solve_game",
    "validate_pattern_set",
]
