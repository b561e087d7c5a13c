"""Exact analysis of pattern-race (Penney-type) games over biased i.i.d. sources.

Given m players who each pick a pattern over a finite alphabet with exact
rational symbol probabilities, this package computes every player's win
probability, the full probability generating function of the game, and
expected waiting/duration statistics, all in exact rational arithmetic. An
independent absorbing-chain oracle and a seeded Monte Carlo simulator validate
the analytic route on every game. The other second routes live with the tests,
not here: Conway's leading numbers and the `Fraction` correlation builders in
`tests/refconway.py`, next to the polynomial matrix and its Bareiss and
cofactor determinants in `tests/refalgebra.py`.
"""

__version__ = "0.1.0"

from .oracle import (
    Automaton,
    InvariantError,
    SimulationReport,
    SingularSystemError,
    absorption_probabilities,
    build_automaton,
    conditional_absorption_times,
    expected_absorption_time,
    simulate,
    solve_linear_system,
    step_distribution,
)
from .patterns import (
    GameSpec,
    Pattern,
    SourceModel,
    ValidationError,
    parse_pattern,
    validate_pattern_set,
)
from .polyalg import (
    ONE,
    S,
    ZERO,
    Polynomial,
    RationalFunction,
    SingularAtOriginError,
)
from .solver import (
    DegenerateGameError,
    GameSolution,
    best_response,
    game_distribution,
    response_table,
    solve_game,
)

__all__ = [
    "Automaton",
    "DegenerateGameError",
    "GameSolution",
    "GameSpec",
    "InvariantError",
    "ONE",
    "Pattern",
    "Polynomial",
    "RationalFunction",
    "S",
    "SimulationReport",
    "SingularAtOriginError",
    "SingularSystemError",
    "SourceModel",
    "ValidationError",
    "ZERO",
    "absorption_probabilities",
    "best_response",
    "build_automaton",
    "conditional_absorption_times",
    "expected_absorption_time",
    "game_distribution",
    "parse_pattern",
    "response_table",
    "simulate",
    "solve_game",
    "solve_linear_system",
    "step_distribution",
    "validate_pattern_set",
]
