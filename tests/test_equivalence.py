"""Central cross-validation: the analytic solver and the chain oracle must
agree exactly on every randomized game. The acceptance suite reruns these
checks at full size; here a medium batch keeps the signal in every dev run,
and a Hypothesis envelope reaches alphabets of up to four symbols, eight
players and patterns of length twelve."""

from __future__ import annotations

import random
from fractions import Fraction as F

from hypothesis import given, settings

from penney.oracle import (
    absorption_probabilities,
    build_automaton,
    conditional_absorption_times,
    expected_absorption_time,
    simulate,
    step_distribution,
)
from penney.patterns import SourceModel, parse_pattern, validate_pattern_set
from penney.solver import game_distribution, solve_game
from refalgebra import as_fractions, rational_derivative, series
from refconway import overlap_indicator, pattern_probability, symbols_probability
from specgen import game_specs, random_spec


def test_probabilities_and_durations_match():
    rng = random.Random(101)
    for _ in range(40):
        spec = random_spec(rng)
        automaton = build_automaton(spec)
        solution = solve_game(spec)
        assert solution.win_probs == absorption_probabilities(automaton, spec.model)
        assert solution.expected_duration == expected_absorption_time(automaton, spec.model)
        assert solution.conditional_durations == conditional_absorption_times(automaton, spec.model)


def test_step_series_match():
    rng = random.Random(102)
    for _ in range(25):
        spec = random_spec(rng)
        automaton = build_automaton(spec)
        assert as_fractions(game_distribution(spec, 30)) == step_distribution(
            automaton, spec.model, 30
        )


def test_tail_series_match_oracle_survival():
    rng = random.Random(103)
    for _ in range(25):
        spec = random_spec(rng)
        automaton = build_automaton(spec)
        tail = series(solve_game(spec).tail_gf, 30)
        grid = step_distribution(automaton, spec.model, 30)
        survival = F(1)
        oracle_tail = []
        for k in range(31):
            survival -= sum(row[k] for row in grid)
            oracle_tail.append(survival)
        assert tail == oracle_tail


def test_three_symbol_alphabet_matches_oracle():
    model = SourceModel(("a", "b", "c"), (F(1, 2), F(1, 3), F(1, 6)))
    patterns = [parse_pattern(text, model) for text in ("ab", "ba", "cc")]
    spec = validate_pattern_set(patterns, model)
    automaton = build_automaton(spec)
    solution = solve_game(spec)
    probs = solution.win_probs
    assert probs == absorption_probabilities(automaton, model)
    assert sum(probs) == 1
    assert solution.expected_duration == expected_absorption_time(automaton, model)
    assert as_fractions(game_distribution(spec, 25)) == step_distribution(automaton, model, 25)
    report = simulate(spec, 20000, seed=2)
    for exact, empirical in zip(probs, report.empirical_probs):
        error = abs(empirical - exact)
        assert error * error <= 9 * exact * (1 - exact) / 20000


def test_presummed_recurrence_replay():
    # the per-player win series, overlap weights, and the tail series satisfy
    # the linear system the whole construction starts from
    rng = random.Random(104)
    for _ in range(20):
        spec = random_spec(rng)
        longest = max(p.length for p in spec.patterns)
        distribution = as_fractions(game_distribution(spec, 10 + longest))
        tail = series(solve_game(spec).tail_gf, 10)
        for a in spec.patterns:
            weight = pattern_probability(a, spec.model)
            for n in range(11):
                rhs = F(0)
                for j, b in enumerate(spec.patterns):
                    for k in range(1, min(a.length, b.length) + 1):
                        if overlap_indicator(a, b, k):
                            rhs += (
                                symbols_probability(a.symbols[k:], spec.model)
                                * distribution[j][n + k]
                            )
                assert tail[n] * weight == rhs


# Games whose total pattern length is at most this are also solved by the
# chain oracle, whose exact elimination grows with the automaton.
ORACLE_TOTAL_LENGTH = 24


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(game_specs())
def test_values_envelope(spec):
    # the two integer solves against the lazy pgfs and, when small, the oracle
    solution = solve_game(spec)
    values = (solution.win_probs, solution.expected_duration, solution.conditional_durations)
    assert values == (
        tuple(pgf.evaluate(1) for pgf in solution.pgfs),
        solution.tail_gf.evaluate(1),
        tuple(rational_derivative(pgf).evaluate(1) / pgf.evaluate(1) for pgf in solution.pgfs),
    )
    if sum(p.length for p in spec.patterns) <= ORACLE_TOTAL_LENGTH:
        automaton = build_automaton(spec)
        assert values == (
            absorption_probabilities(automaton, spec.model),
            expected_absorption_time(automaton, spec.model),
            conditional_absorption_times(automaton, spec.model),
        )


SERIES_HORIZON = 40


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(game_specs())
def test_series_envelope(spec):
    # the paper's recurrence against the lazy pgfs and, when small, the oracle
    solution = solve_game(spec)
    distribution = as_fractions(game_distribution(spec, SERIES_HORIZON))
    assert distribution == [series(pgf, SERIES_HORIZON) for pgf in solution.pgfs]
    if sum(p.length for p in spec.patterns) <= ORACLE_TOTAL_LENGTH:
        automaton = build_automaton(spec)
        assert distribution == step_distribution(automaton, spec.model, SERIES_HORIZON)
