"""Absorbing-chain oracle and the seeded Monte Carlo simulator."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from penney.oracle import (
    _GAMMA,
    _LANES,
    _MASK64,
    _MIX1,
    _MIX2,
    _lane_width,
    _toss_blocks,
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
from penney.patterns import (
    Pattern,
    SourceModel,
    ValidationError,
    _contains,
    parse_pattern,
    validate_pattern_set,
)
from penney.polyalg import Polynomial, RationalFunction
from penney.solver import game_pgfs, solve_game
from refalgebra import rational_derivative
from refsim import _mix, draw_symbol, reference_simulate
from specgen import WIDE_ALPHABET, random_spec


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

    def test_wins_sum_to_trials(self):
        rng = random.Random(45)
        for _ in range(5):
            spec = random_spec(rng)
            report = simulate(spec, 500, seed=rng.randint(0, 10**6))
            assert sum(report.wins) == 500
            assert report.empirical_probs == tuple(F(w, 500) for w in report.wins)

    def test_report_rejects_inconsistent_counts(self):
        with pytest.raises(InvariantError):
            SimulationReport(3, (1, 1), 5, 0, (F(1, 3), F(1, 3)))

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
        pgfs, _ = game_pgfs(example_spec)
        denominator = pgfs[0].denom
        assert all(pgf.denom == denominator for pgf in pgfs)
        total_pgf = RationalFunction(sum((pgf.numer for pgf in pgfs), Polynomial()), denominator)
        mean = rational_derivative(total_pgf).evaluate(1)
        second_factorial = rational_derivative(rational_derivative(total_pgf)).evaluate(1)
        variance = second_factorial + mean - mean * mean
        assert mean == F(31, 6) and variance == F(103, 12)
        tolerance = 3 * math.sqrt(variance / 20000)
        assert abs(float(report.mean_tosses - mean)) <= tolerance

    def test_biased_coin_uses_rejection_path(self):
        # D = 3 rejects only the draw z = 2**64 - 1, so no draw here is
        # rejected; the mean checks that 1/3 is drawn without modulo bias.
        # `test_rejection_drops_about_half_the_draws` takes the rejection path.
        model = SourceModel(("H", "T"), (F(1, 3), F(2, 3)))
        spec = validate_pattern_set([parse_pattern("HH", model)], model)
        report = simulate(spec, 30000, seed=1)
        exact = expected_absorption_time(build_automaton(spec), model)
        assert exact == 12
        assert abs(float(report.mean_tosses - exact)) < 0.5

    def test_rejection_drops_about_half_the_draws(self):
        # D = 2**63 + 1 rejects every draw z >= 2**64 - (2**63 - 1), about half of them
        model = SourceModel.from_text(
            "a:4611686018427387904/9223372036854775809,b:4611686018427387905/9223372036854775809"
        )
        assert model.common_denominator == 2**63 + 1
        patterns = [parse_pattern(t, model) for t in ("aab", "bba", "abab")]
        spec = validate_pattern_set(patterns, model)
        report = simulate(spec, 2000, seed=3)
        assert report == reference_simulate(spec, 2000, seed=3)
        assert report.wins == (964, 864, 172)
        assert report.total_tosses == 9324

    def test_denominator_above_64_bits_is_refused(self):
        # no 64-bit draw could be accepted: every one would be rejected
        model = SourceModel(("H", "T"), (F(1, 2**64 + 1), F(2**64, 2**64 + 1)))
        spec = validate_pattern_set([parse_pattern("HT", model)], model)
        with pytest.raises(ValidationError, match="2\\^64"):
            simulate(spec, 1)

    @pytest.mark.parametrize(
        "text, common, lane",
        [
            ("a:1/2,b:1/2", 2, 17),
            ("a:1/3,b:2/3", 3, 17),
            (f"a:{2**62}/{2**63 + 1},b:{2**62 + 1}/{2**63 + 1}", 2**63 + 1, 20),
            (f"a:{2**63 - 1}/{2**64 - 1},b:{2**63}/{2**64 - 1}", 2**64 - 1, 20),
            (f"a:{2**63 - 1}/{2**64},b:{2**63 + 1}/{2**64}", 2**64, 21),
        ],
    )
    def test_every_lane_width(self, text, common, lane):
        # with k the least multiple of 8 at or above 64 + D.bit_length(), the
        # lane holds max(65 + k - D.bit_length(), k + 32) bits, in whole bytes
        model = SourceModel.from_text(text)
        assert model.common_denominator == common
        assert _lane_width(common) == lane
        spec = validate_pattern_set([parse_pattern(t, model) for t in ("aab", "bba", "abab")], model)
        assert simulate(spec, 1000, seed=9) == reference_simulate(spec, 1000, seed=9)

    @pytest.mark.parametrize(
        "text",
        [
            "a:1/2,b:1/2",
            "a:1/3,b:2/3",
            "a:1/2,b:1/3,c:1/6",
            "a:1/257,b:128/257,c:128/257",
            "a:1/259,b:129/259,c:129/259",
            "a:1/300,b:149/300,c:1/2",
            f"a:{2**62}/{2**63 + 1},b:{2**62 + 1}/{2**63 + 1}",
            f"a:{2**63 - 1}/{2**64 - 1},b:{2**63}/{2**64 - 1}",
            f"a:{2**63 - 1}/{2**64},b:{2**63 + 1}/{2**64}",
        ],
    )
    def test_planted_draws_at_every_threshold(self, text):
        # lane 0 of a block draws z: the first toss, or its absence when z is
        # rejected, is the scalar z mod D classification at each edge of the
        # symbol intervals and of the rejected range. D = 259 needs all of
        # k >= 64 + D.bit_length(): with k = 72, 2**72 mod 259 = 1 makes
        # z * ceil(2**72 / 259) overshoot a threshold near the top of the range.
        model = SourceModel.from_text(text)
        common = model.common_denominator
        bounds = [int(p * common) for p in accumulate(model.probs)]
        reject_from = (1 << 64) - (1 << 64) % common
        top = (reject_from - 1) // common * common
        planted = {0, reject_from - 1} | {top + b + d for b in bounds[:-1] for d in (-1, 0)}
        if reject_from < 1 << 64:
            planted.add(reject_from)
        for z in sorted(planted):
            state = (_unmix(z) - _GAMMA) & _MASK64
            assert _mix((state + _GAMMA) & _MASK64) == z
            draws = (_mix((state + i * _GAMMA) & _MASK64) for i in range(1, _LANES + 1))
            symbols = (draw_symbol(draw, reject_from, common, bounds) for draw in draws)
            first = next(symbol for symbol in symbols if symbol is not None)
            tosses = next(_toss_blocks(state, common, bounds[:-1]))
            assert tosses[0] == chr(first), (text, z)

    def test_games_around_the_first_block_end(self):
        # on a fair coin no draw is rejected, so the first block holds _LANES
        # tosses; `first` is the number of games those tosses complete
        model = SourceModel.from_text("H:1/2,T:1/2")
        spec = validate_pattern_set([parse_pattern(t, model) for t in ("THH", "HTHT")], model)
        seed = 21
        low, high = 1, _LANES
        while low < high:
            middle = (low + high + 1) // 2
            if reference_simulate(spec, middle, seed).total_tosses <= _LANES:
                low = middle
            else:
                high = middle - 1
        first = low
        assert reference_simulate(spec, first + 1, seed).total_tosses > _LANES
        for trials in range(first - 3, first + 4):
            assert simulate(spec, trials, seed) == reference_simulate(spec, trials, seed)


def _unmix(z: int) -> int:
    """The splitmix64 state whose output is z: each xor-shift and each odd
    multiplier of the output function undone, last first."""
    for shift, multiplier in ((31, _MIX2), (27, _MIX1)):
        z = _unshift(z, shift) * pow(multiplier, -1, 1 << 64) & _MASK64
    return _unshift(z, 30)


def _unshift(y: int, shift: int) -> int:
    """The x with x ^ (x >> shift) == y, for 64-bit x and y."""
    x = y
    for _ in range(64 // shift):
        x = y ^ x >> shift
    return x


# Alphabets sampled by the equivalence test, each with its longest pattern:
# biases that reject almost no draws and one that rejects about half,
# multi-character labels, a rare symbol, and more than 256 symbols, where each
# run of symbols that no pattern uses shares one code.
SIMULATION_ALPHABETS = (
    (SourceModel.from_text("H:1/2,T:1/2"), 8),
    (SourceModel(("H", "T"), (F(1, 3), F(2, 3))), 8),
    (SourceModel.from_text("a:1/2,b:1/3,c:1/6"), 5),
    (SourceModel.from_text("x:1/4,yy:3/4"), 6),
    (SourceModel(("H", "T"), (F(1, 1000), F(999, 1000))), 3),
    (WIDE_ALPHABET, 2),
    (SourceModel(("a", "b"), (F(2**62, 2**63 + 1), F(2**62 + 1, 2**63 + 1))), 8),
)
# Expected tosses one drawn case may play, over all its games.
SIMULATION_BUDGET = 20_000


@st.composite
def simulation_cases(draw):
    """A substring-free game over one of SIMULATION_ALPHABETS, with a seed and
    as many trials as SIMULATION_BUDGET allows, at most 60."""
    model, longest = draw(st.sampled_from(SIMULATION_ALPHABETS))
    kept: list[tuple[str, ...]] = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, longest))
        symbols = tuple(
            draw(st.lists(st.sampled_from(model.symbols), min_size=length, max_size=length))
        )
        if not any(_contains(symbols, p) or _contains(p, symbols) for p in kept):
            kept.append(symbols)
    spec = validate_pattern_set([Pattern(p) for p in kept], model)
    mean = solve_game(spec).expected_duration
    assume(mean <= SIMULATION_BUDGET)
    trials = draw(st.integers(1, max(1, min(60, int(SIMULATION_BUDGET / mean)))))
    return spec, trials, draw(st.integers(0, 2**64 - 1))


_LONG_GAME = validate_pattern_set([Pattern("H" * 13)], SourceModel.from_text("H:1/2,T:1/2"))
# Three codes, one Latin-1 character per toss: s000, s001, and s002 to s299
# sharing one.
_WIDE_GAME = validate_pattern_set([Pattern(["s001"])], WIDE_ALPHABET)
# Every symbol borders a used one, so the tosses take all 300 codes, one
# UTF-32 character each, and the code of a symbol is its index.
_WIDE_UTF32_GAME = validate_pattern_set(
    [Pattern([symbol]) for symbol in WIDE_ALPHABET.symbols[1::2]], WIDE_ALPHABET
)
# The two sides of the switch between the decodings: s001, s003, ..., s253
# and s254 keep 255 bounds, so 256 codes, the last one Latin-1 holds; s000,
# s001, s003, ..., s255 keep 256 bounds, so 257 codes, the first UTF-32 case.
# There s256 to s299 share code 256, which read as one byte would be s000's 0.
_WIDE_LATIN1_TOP_GAME = validate_pattern_set(
    [Pattern([symbol]) for symbol in WIDE_ALPHABET.symbols[1:254:2] + ("s254",)],
    WIDE_ALPHABET,
)
_WIDE_UTF32_FIRST_GAME = validate_pattern_set(
    [Pattern([symbol]) for symbol in ("s000",) + WIDE_ALPHABET.symbols[1:256:2]],
    WIDE_ALPHABET,
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(simulation_cases())
# 16382 tosses per game on average, so games cross the edges of the draw blocks
@example((_LONG_GAME, 5, 11))
@example((_WIDE_GAME, 40, 5))
@example((_WIDE_UTF32_GAME, 40, 5))
@example((_WIDE_LATIN1_TOP_GAME, 40, 5))
@example((_WIDE_UTF32_FIRST_GAME, 40, 5))
def test_simulate_matches_the_scalar_loop(case):
    spec, trials, seed = case
    assert simulate(spec, trials, seed) == reference_simulate(spec, trials, seed)
