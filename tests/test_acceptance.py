"""End-to-end acceptance gates.

One test per criterion, each asserting exact values at the stated tolerance
(zero tolerance unless a statistical bound is explicitly part of the check)
and printing one PASS/FAIL line. Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they pass.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

from childenv import child_env
from goldentable import GOLDEN_COMMANDS, GOLDEN_DIR
from penney.oracle import (
    absorption_probabilities,
    build_automaton,
    conditional_absorption_times,
    expected_absorption_time,
    simulate,
    step_distribution,
)
from penney.patterns import SourceModel, parse_pattern, validate_pattern_set
from penney.polyalg import ONE, S, Polynomial
from penney.solver import game_distribution, solve_game
from exampledata import (
    EXAMPLE_PATTERNS,
    closed_form_probs,
    conway_grid,
    correlation_grid,
    scaled_entries,
    solver_entries,
)
from refalgebra import PolyMatrix, determinant
from refconway import (
    completion_monomials,
    conway_matrix,
    conway_number,
    correlation_matrix,
    overlap_indicator,
    pattern_probability,
    single_pattern_expected_time,
    symbols_probability,
)
from specgen import random_single, random_spec

CLOSED_FORM_BIASES = (F(1, 3), F(1, 4), F(2, 5))
ALL_BIASES = (F(1, 2),) + CLOSED_FORM_BIASES


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:>2}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:>2}: PASS - {description}")


def showcase(p: F):
    model = SourceModel(("H", "T"), (p, 1 - p))
    return validate_pattern_set(
        [parse_pattern(text, model) for text in EXAMPLE_PATTERNS], model
    )


def test_criterion_01_fair_coin_exact_probabilities():
    with criterion(1, "fair-coin showcase solves to 5/12, 1/3, 1/4 exactly in < 1 s"):
        start = time.perf_counter()
        probs = solve_game(showcase(F(1, 2))).win_probs
        elapsed = time.perf_counter() - start
        assert probs == (F(5, 12), F(1, 3), F(1, 4))
        assert elapsed < 1.0


def test_criterion_02_closed_forms_at_test_biases():
    with criterion(2, "closed-form win probabilities hold at p = 1/3, 1/4, 2/5"):
        for p in CLOSED_FORM_BIASES:
            assert solve_game(showcase(p)).win_probs == closed_form_probs(p)


def test_criterion_03_correlation_matrix_entries():
    with criterion(3, "correlation matrix matches the displayed entries, per bias"):
        for p in ALL_BIASES:
            spec = showcase(p)
            # the solver's polynomials, and its integer values and slopes at s = 1
            assert solver_entries(spec) == scaled_entries(spec, correlation_grid(p))


def test_criterion_04_conway_matrix_entries():
    with criterion(4, "Conway leading-number matrix matches entry by entry, per bias"):
        for p in ALL_BIASES:
            spec = showcase(p)
            expected = conway_grid(p)
            assert conway_matrix(spec) == tuple(tuple(row) for row in expected)
            q = 1 - p
            # spot checks straight from the displayed closed forms
            assert conway_number(spec.patterns[0], spec.patterns[0], spec.model) == 1 / (
                p * p * q
            )
            assert conway_number(spec.patterns[0], spec.patterns[2], spec.model) == (
                p + 1
            ) / (p * p)


def test_criterion_05_determinant_identities_on_200_specs():
    with criterion(5, "determinant identities hold exactly on 200 random games in < 60 s"):
        start = time.perf_counter()
        rng = random.Random(2025)
        one_minus_s = ONE - S
        for _ in range(200):
            spec = random_spec(rng)
            m = spec.player_count
            matrix = correlation_matrix(spec)
            column = completion_monomials(spec)
            det_corr = determinant(matrix)
            column_dets = [
                determinant(matrix.replace_column(j, column)) for j in range(1, m + 1)
            ]
            full = PolyMatrix(
                [
                    [column[i] + one_minus_s * matrix.rows[i][j] for j in range(m)]
                    for i in range(m)
                ]
            )
            lower = math.prod([one_minus_s] * (m - 1), start=ONE)  # (1 - s)**(m - 1)
            assert determinant(full) == lower * (
                one_minus_s * det_corr + sum(column_dets, Polynomial())
            )
            for j in range(1, m + 1):
                assert determinant(full.replace_column(j, column)) == lower * column_dets[j - 1]
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_06_oracle_equivalence_on_100_specs():
    with criterion(6, "solver equals chain oracle on 100 random games, zero tolerance"):
        rng = random.Random(2026)
        for _ in range(100):
            spec = random_spec(rng)
            automaton = build_automaton(spec)
            solution = solve_game(spec)
            assert solution.win_probs == absorption_probabilities(automaton, spec.model)
            assert solution.expected_duration == expected_absorption_time(automaton, spec.model)
            assert solution.conditional_durations == conditional_absorption_times(
                automaton, spec.model
            )
            assert game_distribution(spec, 30) == step_distribution(
                automaton, spec.model, 30
            )


def test_criterion_07_recurrence_replay_on_50_specs():
    with criterion(7, "pre-summed recurrence system replays exactly on 50 games, n <= 10"):
        rng = random.Random(2027)
        for _ in range(50):
            spec = random_spec(rng)
            longest = max(p.length for p in spec.patterns)
            distribution = game_distribution(spec, 10 + longest)
            tail = solve_game(spec).tail_gf.series(10)
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


def test_criterion_08_single_pattern_times_on_100_patterns():
    with criterion(8, "waiting-time sum = self leading number = oracle on 100 patterns"):
        rng = random.Random(2028)
        for _ in range(100):
            spec = random_single(rng)
            pattern = spec.patterns[0]
            direct = single_pattern_expected_time(pattern, spec.model)
            assert direct == conway_number(pattern, pattern, spec.model)
            assert direct == expected_absorption_time(build_automaton(spec), spec.model)
            assert direct == solve_game(spec).expected_duration


def test_criterion_09_normalization_and_nonnegativity():
    with criterion(9, "win probabilities sum to 1 and all series mass is nonnegative"):
        rng = random.Random(2029)
        for _ in range(100):
            spec = random_spec(rng)
            probs = solve_game(spec).win_probs
            assert sum(probs) == 1
            assert all(0 <= p <= 1 for p in probs)
            for row in game_distribution(spec, 50):
                assert all(c >= 0 for c in row)


def test_criterion_10_monte_carlo_million_trials():
    with criterion(10, "10^6 seeded trials land within 3 sigma of exact in < 30 s"):
        spec = showcase(F(1, 2))
        assert simulate(spec, 10**4, seed=0) == simulate(spec, 10**4, seed=0)
        start = time.perf_counter()
        report = simulate(spec, 10**6, seed=0)
        elapsed = time.perf_counter() - start
        for exact, empirical in zip((F(5, 12), F(1, 3), F(1, 4)), report.empirical_probs):
            error = abs(empirical - exact)
            assert error * error <= 9 * exact * (1 - exact) / 10**6
        assert elapsed < 30.0


def test_criterion_11_cli_goldens_byte_identical():
    with criterion(11, "documented CLI invocations reproduce the golden JSON bytes"):
        for name, args in GOLDEN_COMMANDS.items():
            if not name.endswith(".json"):
                continue
            result = subprocess.run(
                [sys.executable, "-m", "penney", *args],
                capture_output=True,
                timeout=120,
                env=child_env(),
            )
            assert result.returncode == 0, result.stderr.decode()
            assert result.stdout == (GOLDEN_DIR / name).read_bytes()
            parsed = json.loads(result.stdout)
            assert parsed["schema_version"] == 1
