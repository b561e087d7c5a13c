"""Exact analysis of pattern-race (Penney-type) games over biased i.i.d. sources.

Given m players who each pick a pattern over a finite alphabet with exact
rational symbol probabilities, this package computes every player's win
probability, the full probability generating function of the game, and
expected waiting/duration statistics, all in exact rational arithmetic. An
independent absorbing-chain oracle and a seeded Monte Carlo simulator validate
the analytic route on every game.
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
    EMPTY_WORD_PROBABILITY,
    GameSpec,
    Pattern,
    SourceModel,
    ValidationError,
    overlap_indicator,
    parse_pattern,
    pattern_probability,
    symbols_probability,
    validate_pattern_set,
)
from .polyalg import (
    ONE,
    S,
    ZERO,
    PolyMatrix,
    Polynomial,
    RationalFunction,
    SingularAtOriginError,
)
from .solver import (
    DegenerateGameError,
    GameSolution,
    best_response,
    completion_monomials,
    conditional_expected_duration,
    conway_matrix,
    conway_number,
    correlation_matrix,
    correlation_polynomial,
    expected_duration,
    game_distribution,
    response_table,
    single_pattern_expected_time,
    solve_game,
    two_player_odds,
    winning_pgf,
    winning_probabilities,
)

__all__ = [
    "Automaton",
    "DegenerateGameError",
    "EMPTY_WORD_PROBABILITY",
    "GameSolution",
    "GameSpec",
    "InvariantError",
    "ONE",
    "Pattern",
    "PolyMatrix",
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
    "completion_monomials",
    "conditional_absorption_times",
    "conditional_expected_duration",
    "conway_matrix",
    "conway_number",
    "correlation_matrix",
    "correlation_polynomial",
    "expected_absorption_time",
    "expected_duration",
    "game_distribution",
    "overlap_indicator",
    "parse_pattern",
    "pattern_probability",
    "response_table",
    "simulate",
    "single_pattern_expected_time",
    "solve_game",
    "solve_linear_system",
    "step_distribution",
    "symbols_probability",
    "two_player_odds",
    "validate_pattern_set",
    "winning_pgf",
    "winning_probabilities",
]
