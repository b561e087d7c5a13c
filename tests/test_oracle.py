"""Absorbing-chain oracle and the seeded Monte Carlo simulator."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from penney.oracle import (
    InvariantError,
    SimulationReport,
    absorption_probabilities,
    build_automaton,
    conditional_absorption_times,
    expected_absorption_time,
    simulate,
    solve_linear_system,
    step_distribution,
    SingularSystemError,
)
from penney.patterns import SourceModel, ValidationError, parse_pattern, validate_pattern_set
from penney.polyalg import Polynomial, RationalFunction
from penney.solver import solve_game
from refalgebra import rational_derivative
from specgen import random_spec


class TestBuildAutomaton:
    def test_single_symbol_pattern(self, fair):
        spec = validate_pattern_set([parse_pattern("H", fair)], fair)
        automaton = build_automaton(spec)
        assert automaton.state_count == 2
        assert automaton.prefixes == ((), ("H",))
        h, t = fair.index("H"), fair.index("T")
        assert automaton.transitions[0][h] == 1
        assert automaton.transitions[0][t] == 0
        assert automaton.absorbing == {1: 0}

    def test_showcase_state_count(self, example_spec):
        # prefixes: e, T, TH, THH, H, HT, HTH, HH, HHT
        automaton = build_automaton(example_spec)
        assert automaton.state_count == 9
        assert len(automaton.absorbing) == 3

    def test_completion_transition(self, example_spec):
        automaton = build_automaton(example_spec)
        th = automaton.prefixes.index(("T", "H"))
        dest = automaton.transitions[th][example_spec.model.index("H")]
        assert automaton.winner[dest] == 0  # THH completes for player 1

    def test_fallback_transition(self, example_spec):
        # from TH, a T falls back to the longest live suffix HT
        automaton = build_automaton(example_spec)
        th = automaton.prefixes.index(("T", "H"))
        dest = automaton.transitions[th][example_spec.model.index("T")]
        assert automaton.prefixes[dest] == ("H", "T")

    def test_absorbing_states_self_loop(self):
        rng = random.Random(41)
        for _ in range(30):
            automaton = build_automaton(random_spec(rng))
            for state in automaton.absorbing:
                assert all(t == state for t in automaton.transitions[state])


class TestLinearSystem:
    def test_simple_solve(self):
        coeffs = [[F(2), F(1)], [F(1), F(3)]]
        rhs = [[F(5)], [F(10)]]
        assert solve_linear_system(coeffs, rhs) == [[F(1)], [F(3)]]

    def test_singular_detected(self):
        coeffs = [[F(1), F(2)], [F(2), F(4)]]
        with pytest.raises(SingularSystemError):
            solve_linear_system(coeffs, [[F(1)], [F(1)]])

    def test_zero_pivot_needs_swap(self):
        coeffs = [[F(0), F(1)], [F(1), F(0)]]
        assert solve_linear_system(coeffs, [[F(2)], [F(3)]]) == [[F(3)], [F(2)]]


class TestAbsorption:
    def test_showcase_fair(self, example_spec):
        automaton = build_automaton(example_spec)
        assert absorption_probabilities(automaton, example_spec.model) == (
            F(5, 12),
            F(1, 3),
            F(1, 4),
        )

    def test_single_pattern_is_certain(self, fair):
        spec = validate_pattern_set([parse_pattern("HTH", fair)], fair)
        automaton = build_automaton(spec)
        assert absorption_probabilities(automaton, fair) == (F(1),)

    def test_hh_vs_th(self, fair):
        spec = validate_pattern_set(
            [parse_pattern("HH", fair), parse_pattern("TH", fair)], fair
        )
        automaton = build_automaton(spec)
        assert absorption_probabilities(automaton, fair) == (F(1, 4), F(3, 4))

    def test_sums_to_one(self):
        rng = random.Random(42)
        for _ in range(30):
            spec = random_spec(rng)
            automaton = build_automaton(spec)
            assert sum(absorption_probabilities(automaton, spec.model)) == 1


class TestExpectedTime:
    def test_geometric(self):
        p = F(1, 3)
        model = SourceModel(("H", "T"), (p, 1 - p))
        spec = validate_pattern_set([parse_pattern("H", model)], model)
        assert expected_absorption_time(build_automaton(spec), model) == 3

    def test_double_heads(self, fair):
        spec = validate_pattern_set([parse_pattern("HH", fair)], fair)
        assert expected_absorption_time(build_automaton(spec), fair) == 6


class TestStepDistribution:
    def test_zero_before_shortest(self, example_spec):
        grid = step_distribution(build_automaton(example_spec), example_spec.model, 2)
        assert all(all(c == 0 for c in row) for row in grid)

    def test_rows_telescope_survival(self):
        rng = random.Random(43)
        for _ in range(20):
            spec = random_spec(rng)
            automaton = build_automaton(spec)
            grid = step_distribution(automaton, spec.model, 20)
            survival = F(1)
            for k in range(1, 21):
                arrived = sum(row[k] for row in grid)
                assert 0 <= arrived <= survival
                survival -= arrived
            assert survival >= 0


class TestConditionalTimes:
    def test_single_pattern_equals_expected_time(self):
        rng = random.Random(44)
        for _ in range(20):
            spec = random_spec(rng, max_players=1)
            automaton = build_automaton(spec)
            assert conditional_absorption_times(automaton, spec.model) == (
                expected_absorption_time(automaton, spec.model),
            )

    def test_total_expectation(self, example_spec):
        automaton = build_automaton(example_spec)
        probs = absorption_probabilities(automaton, example_spec.model)
        conditionals = conditional_absorption_times(automaton, example_spec.model)
        total = sum(p * c for p, c in zip(probs, conditionals))
        assert total == expected_absorption_time(automaton, example_spec.model)


class TestSimulate:
    def test_deterministic_given_seed(self, example_spec):
        first = simulate(example_spec, 2000, seed=0)
        second = simulate(example_spec, 2000, seed=0)
        assert first == second

    def test_frozen_regression(self, example_spec):
        # regression pins for the documented generator; any drift in the
        # sampling scheme shows up here first
        report = simulate(example_spec, 2000, seed=0)
        assert report.wins == (846, 665, 489)
        assert report.total_tosses == 10374

    def test_streams_are_deterministic(self, example_spec):
        report = simulate(example_spec, 10001, seed=5, streams=3)
        assert report == simulate(example_spec, 10001, seed=5, streams=3)
        assert report.wins == (4135, 3361, 2505)
        assert report.total_tosses == 51679

    def test_wins_sum_to_trials(self):
        rng = random.Random(45)
        for _ in range(5):
            spec = random_spec(rng)
            report = simulate(spec, 500, seed=rng.randint(0, 10**6))
            assert sum(report.wins) == 500
            assert report.empirical_probs == tuple(F(w, 500) for w in report.wins)

    def test_report_rejects_inconsistent_counts(self):
        with pytest.raises(InvariantError):
            SimulationReport(3, (1, 1), 5, 0, 1, (F(1, 3), F(1, 3)))

    def test_requires_trials(self, example_spec):
        with pytest.raises(ValidationError):
            simulate(example_spec, 0)

    def test_empirical_probabilities_converge(self, example_spec):
        report = simulate(example_spec, 20000, seed=3)
        for exact, empirical in zip((F(5, 12), F(1, 3), F(1, 4)), report.empirical_probs):
            error = abs(empirical - exact)
            assert error * error <= 9 * exact * (1 - exact) / 20000

    def test_mean_tosses_within_three_standard_errors(self, example_spec):
        report = simulate(example_spec, 20000, seed=3)
        solution = solve_game(example_spec)
        denominator = solution.pgfs[0].denom
        assert all(pgf.denom == denominator for pgf in solution.pgfs)
        total_pgf = RationalFunction(
            sum((pgf.numer for pgf in solution.pgfs), Polynomial()), denominator
        )
        mean = rational_derivative(total_pgf).evaluate(1)
        second_factorial = rational_derivative(rational_derivative(total_pgf)).evaluate(1)
        variance = second_factorial + mean - mean * mean
        assert mean == F(31, 6) and variance == F(103, 12)
        tolerance = 3 * math.sqrt(variance / 20000)
        assert abs(float(report.mean_tosses - mean)) <= tolerance

    def test_biased_coin_uses_rejection_path(self):
        model = SourceModel(("H", "T"), (F(1, 3), F(2, 3)))
        spec = validate_pattern_set([parse_pattern("HH", model)], model)
        report = simulate(spec, 30000, seed=1)
        exact = expected_absorption_time(build_automaton(spec), model)
        assert exact == 12
        assert abs(float(report.mean_tosses - exact)) < 0.5
