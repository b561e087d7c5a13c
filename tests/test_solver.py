"""Analytic solver: correlation polynomials, pgfs, Conway numbers, durations."""

from __future__ import annotations

import decimal
import itertools
import math
import operator
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penney import cli, solver
from penney.oracle import (
    absorption_probabilities,
    build_automaton,
    conditional_absorption_times,
    expected_absorption_time,
    step_distribution,
)
from penney.patterns import (
    Pattern,
    SourceModel,
    ValidationError,
    parse_pattern,
    validate_pattern_set,
)
from penney.polyalg import ONE, S, Polynomial, RationalFunction
from penney.solver import (
    DegenerateGameError,
    GameSolution,
    _cramer,
    _divide_int,
    _lowest_terms,
    _prefix_automaton,
    _ranking,
    _reduction_block,
    _solve_at_one,
    _unpack,
    best_response,
    game_distribution,
    game_pgfs,
    response_table,
    solve_game,
)
from exampledata import (
    EXAMPLE_PATTERNS,
    closed_form_probs,
    conway_grid,
    correlation_grid,
    det3,
    scaled_entries,
    solver_entries,
)
from refalgebra import (
    PolyMatrix,
    as_fractions,
    coefficient,
    determinant,
    rational_derivative,
    series,
)
from refconway import (
    completion_monomials,
    conway_matrix,
    conway_number,
    conway_reference,
    correlation_matrix,
    correlation_polynomial,
    overlap_indicator,
    pattern_probability,
    single_pattern_expected_time,
    symbols_probability,
    two_player_odds,
)
from specgen import (
    BIAS_MENU,
    HUGE_A,
    HUGE_D,
    RARE_A,
    WIDE_ALPHABET,
    _contains,
    random_pair,
    random_single,
    random_spec,
    sized_spec,
)

TEST_BIASES = (F(1, 2), F(1, 3), F(1, 4), F(2, 5))

# (alphabet, players, longest pattern) of the games past the binary m <= 4,
# L <= 5 envelope of `random_spec`.
WIDE_GAMES = (
    ("a:1/2,b:1/3,c:1/6", 2, 3),
    ("a:1/2,b:1/3,c:1/6", 3, 5),
    ("a:1/2,b:1/3,c:1/6", 5, 6),
    ("a:1/2,b:1/3,c:1/6", 8, 8),
    ("H:1/3,T:2/3", 6, 8),
    ("H:1/3,T:2/3", 8, 8),
    ("H:2/5,T:3/5", 4, 7),
    ("x:1/4,yy:3/4", 3, 6),
)

# games whose series reduction has a short block: D = 10**6 gives
# B = D**3, and D = 2**64 + 1 gives B = D
SHORT_BLOCK_GAMES = (
    (RARE_A, 3, 4),
    (RARE_A, 2, 6),
    (HUGE_A, 3, 4),
    (HUGE_A, 2, 3),
)

# D, and primes of D, for the reduction's property test
REDUCTION_SCALES = {
    2: (2,),
    3: (3,),
    4: (2,),
    6: (2, 3),
    9: (3,),
    12: (2, 3),
    10**6: (2, 5),
    2**61 - 1: (2**61 - 1,),
    2**63 + 1: (3, 19, 43),
    2**64: (2,),
    3**41: (3,),
}


@pytest.fixture(scope="module")
def wide_specs():
    rng = random.Random(31)
    return [
        sized_spec(rng, SourceModel.from_text(text), players, length)
        for text, players, length in WIDE_GAMES
    ]


def reference_response_table(opponents, length, model):
    """The exhaustive ranking by full solves: each admissible candidate's game
    is solved by `solve_game` and the newcomer's value is read."""
    fixed = list(opponents)
    if fixed:
        validate_pattern_set(fixed, model)
    ranked = []
    for symbols in itertools.product(model.symbols, repeat=length):
        candidate = Pattern(symbols)
        try:
            spec = validate_pattern_set([*fixed, candidate], model)
        except ValidationError:
            continue
        ranked.append((candidate, solve_game(spec).win_probs[-1]))
    ranked.sort(key=lambda entry: entry[1], reverse=True)
    return ranked


# Alphabets for the best-response differential test, with the longest reply
# drawn for each (so that |alphabet|^length stays small).
RESPONSE_ALPHABETS = (
    ("H:1/2,T:1/2", 6),
    ("H:1/3,T:2/3", 6),
    ("a:1/2,b:1/3,c:1/6", 4),
    ("x:1/4,yy:3/4", 6),
)


def mirror(model):
    """Symbol map reversing the alphabet's order: H <-> T on a coin."""
    return dict(zip(model.symbols, reversed(model.symbols)))


def relabel_model(model, mapping):
    """The model in which symbol mapping[x] has the probability x had."""
    inverse = {new: old for old, new in mapping.items()}
    return SourceModel(model.symbols, [model.probs[model.index(inverse[x])] for x in model.symbols])


def relabel(pattern, mapping):
    return Pattern(mapping[x] for x in pattern.symbols)


def showcase(p: F):
    model = SourceModel(("H", "T"), (p, 1 - p))
    patterns = [parse_pattern(text, model) for text in EXAMPLE_PATTERNS]
    return validate_pattern_set(patterns, model)


# the overlap table's alphabets: coins, multi-character labels, and 300 symbols
OVERLAP_MODELS = (
    SourceModel.from_text("H:1/2,T:1/2"),
    SourceModel.from_text("H:1/3,T:2/3"),
    SourceModel.from_text("x:1/4,yy:3/4"),
    WIDE_ALPHABET,
)


@st.composite
def overlap_cases(draw):
    """A model, heads of unequal lengths, and tails that mix other words, the
    empty word and prefixes of the heads, as best-response's automaton states
    are; neither list need be substring-free."""
    model = draw(st.sampled_from(OVERLAP_MODELS))
    # three symbols at most, so that words over the wide alphabet overlap too
    word = st.lists(st.sampled_from(model.symbols[:3]), min_size=1, max_size=8).map(tuple)
    heads = draw(st.lists(word, min_size=1, max_size=5))
    prefixes = [a[:k] for a in heads for k in range(len(a) + 1)]
    tails = draw(st.lists(word | st.sampled_from(prefixes), min_size=1, max_size=8))
    return model, heads, tails


class TestCorrelationPolynomial:
    @given(overlap_cases())
    @settings(max_examples=200, deadline=None)
    def test_overlap_table_matches_the_definition(self, case):
        model, heads, tails = case
        scale = model.common_denominator
        table = solver._correlations(heads, tails, model.weights)
        assert len(table) == len(heads)
        for a, overlaps in zip(heads, table):
            # the empty tail has no k to test
            expected = [
                (j, k)
                for j, b in enumerate(tails)
                for k in range(1, min(len(a), len(b)) + 1)
                if overlap_indicator(Pattern(a), Pattern(b), k)
            ]
            assert [(j, k) for j, k, _ in overlaps] == expected
            for _, k, w in overlaps:
                assert w == symbols_probability(a[k:], model) * scale ** (len(a) - k)

    @pytest.mark.parametrize("p", TEST_BIASES)
    def test_showcase_entries(self, p):
        spec = showcase(p)
        assert solver_entries(spec) == scaled_entries(spec, correlation_grid(p))

    def test_solver_entries_match_the_reference_builder(self, wide_specs):
        rng = random.Random(4)
        for spec in [*wide_specs, *(random_spec(rng) for _ in range(30))]:
            assert solver_entries(spec) == scaled_entries(spec, correlation_matrix(spec).rows)

    def test_diagonal_constant_term_is_one(self):
        rng = random.Random(5)
        for _ in range(30):
            spec = random_spec(rng)
            for a in spec.patterns:
                assert coefficient(correlation_polynomial(a, a, spec.model), 0) == 1

    @pytest.mark.parametrize("p", TEST_BIASES)
    def test_matrix_is_identity_at_zero(self, p):
        spec = showcase(p)
        matrix = correlation_matrix(spec)
        assert matrix.evaluate(0) == PolyMatrix.identity(3).evaluate(0)

    def test_matrix_identity_at_zero_random(self):
        rng = random.Random(6)
        for _ in range(30):
            spec = random_spec(rng)
            m = spec.player_count
            assert correlation_matrix(spec).evaluate(0) == PolyMatrix.identity(m).evaluate(0)

    @pytest.mark.parametrize("p", TEST_BIASES)
    def test_completion_monomials(self, p):
        spec = showcase(p)
        weight = p * p * (1 - p)  # each showcase pattern has two H and one T
        assert completion_monomials(spec) == [Polynomial([0, 0, 0, weight])] * 3

    @pytest.mark.parametrize("p", TEST_BIASES)
    def test_determinant_at_one_matches_conway_determinant(self, p):
        spec = showcase(p)
        det_at_one = determinant(correlation_matrix(spec)).evaluate(1)
        product = F(1)
        for pattern in spec.patterns:
            product *= pattern_probability(pattern, spec.model)
        assert det_at_one == product * det3(conway_grid(p))


class TestWinningPgf:
    def test_single_pattern_reduces_to_closed_form(self):
        rng = random.Random(8)
        for _ in range(30):
            spec = random_single(rng)
            pattern = spec.patterns[0]
            (pgf,), _ = game_pgfs(spec)
            weight = Polynomial(
                [0] * pattern.length + [pattern_probability(pattern, spec.model)]
            )
            overlap = correlation_polynomial(pattern, pattern, spec.model)
            assert pgf.numer == weight
            assert pgf.denom == weight + (ONE - S) * overlap

    def test_closed_form_with_certain_symbol(self):
        # the m=1 closed form with P(pattern) = 1 degenerates to g(s) = s
        pgf = RationalFunction(S, S + (ONE - S) * ONE)
        assert pgf.numer == S and pgf.denom == ONE
        assert series(pgf, 3) == [0, 1, 0, 0]

    def test_series_matches_oracle(self, example_spec):
        distribution = as_fractions(game_distribution(example_spec, 30))
        grid = step_distribution(
            build_automaton(example_spec), example_spec.model, 30
        )
        assert distribution == grid


class TestConwayNumbers:
    @pytest.mark.parametrize("p", TEST_BIASES)
    def test_showcase_grid(self, p):
        spec = showcase(p)
        assert conway_matrix(spec) == tuple(tuple(row) for row in conway_grid(p))

    @pytest.mark.parametrize("p", TEST_BIASES)
    def test_specific_entries(self, p):
        spec = showcase(p)
        thh, hth, _ = spec.patterns
        q = 1 - p
        assert conway_number(hth, thh, spec.model) == 1 / (p * q)
        assert conway_number(thh, thh, spec.model) == 1 / (p * p * q)

    def test_self_number_of_hh(self, fair):
        hh = parse_pattern("HH", fair)
        assert conway_number(hh, hh, fair) == 6  # 1/P(H) + 1/P(HH)

    def test_sum_form_equals_polynomial_form(self):
        rng = random.Random(12)
        for _ in range(60):
            p = rng.choice(BIAS_MENU)
            model = SourceModel(("H", "T"), (p, 1 - p))
            a = Pattern(tuple(rng.choice("HT") for _ in range(rng.randint(1, 5))))
            b = Pattern(tuple(rng.choice("HT") for _ in range(rng.randint(1, 5))))
            total = sum(
                (
                    1 / symbols_probability(b.symbols[:k], model)
                    for k in range(1, min(a.length, b.length) + 1)
                    if overlap_indicator(b, a, k)
                ),
                F(0),
            )
            via_poly = correlation_polynomial(b, a, model).evaluate(1) / pattern_probability(
                b, model
            )
            assert conway_number(a, b, model) == total == via_poly

    def test_sum_form_equals_polynomial_form_beyond_coins(self, wide_specs):
        for spec in wide_specs:
            for a in spec.patterns:
                for b in spec.patterns:
                    via_poly = correlation_polynomial(b, a, spec.model).evaluate(
                        1
                    ) / pattern_probability(b, spec.model)
                    assert conway_number(a, b, spec.model) == via_poly


# (model, players, longest pattern) of the games with the widest coefficients per
# entry, where the pgf solve packs each entry into the most bits: a near-fair
# coin with D = 2**64, a 1/10**6 bias, and 300 symbols
EXTREME_GAMES = (
    (SourceModel.from_text(f"a:{2**63 - 1}/{2**64},b:{2**63 + 1}/{2**64}"), 3, 4),
    (SourceModel.from_text(RARE_A), 3, 5),
    (WIDE_ALPHABET, 3, 3),
)


class TestIntegerCore:
    """The pgf solve and the integer solves of M(1) against the Cramer route and the oracle."""

    def test_matches_cramer_determinants(self, wide_specs):
        rng = random.Random(33)
        extreme = [sized_spec(rng, model, *size) for model, *size in EXTREME_GAMES]
        for spec in [*wide_specs, *extreme]:
            matrix = correlation_matrix(spec)
            column = completion_monomials(spec)
            numerators = [
                determinant(matrix.replace_column(j, column))
                for j in range(1, spec.player_count + 1)
            ]
            det_corr = determinant(matrix)
            denominator = sum(numerators, Polynomial()) + (ONE - S) * det_corr
            pgfs, tail = game_pgfs(spec)
            assert [pgf.numer for pgf in pgfs] == numerators
            assert all(pgf.denom == denominator for pgf in pgfs)
            assert tail.numer == det_corr
            assert tail.denom == denominator

    def test_slot_width_is_the_row_hadamard_bound(self, monkeypatch):
        # bits = ((m + 1 + D) * (isqrt(prod_i sum_j L1(e_ij)**2) + 1)).bit_length() + 2
        # over the entries e_ij of [M | c] in u = s/D, whose coefficients are
        # nonnegative, so each L1 norm is the entry's value at u = 1, s = D
        widths = []
        real = solver._unpack

        def recorded(value, bits):
            widths.append(bits)
            return real(value, bits)

        monkeypatch.setattr(solver, "_unpack", recorded)
        games = (("H:1/2,T:1/2", 16, 16, 46), ("H:1/3,T:2/3", 12, 12, 92))
        for text, players, length, pinned in games:
            model = SourceModel.from_text(text)
            spec = sized_spec(random.Random(16), model, players, length)
            scale = model.common_denominator
            rows = zip(correlation_matrix(spec).rows, completion_monomials(spec))
            product = math.prod(
                sum(e.evaluate(scale) ** 2 for e in (*row, completion)) for row, completion in rows
            )
            assert product.denominator == 1
            bound = (players + 1 + scale) * (math.isqrt(product.numerator) + 1)
            widths.clear()
            game_pgfs(spec)
            assert set(widths) == {bound.bit_length() + 2} == {pinned}

    def test_matches_oracle(self, wide_specs):
        for spec in wide_specs:
            automaton = build_automaton(spec)
            solution = solve_game(spec)
            probs = absorption_probabilities(automaton, spec.model)
            duration = expected_absorption_time(automaton, spec.model)
            conditionals = conditional_absorption_times(automaton, spec.model)
            assert solution.win_probs == probs
            assert solution.expected_duration == duration
            assert solution.conditional_durations == conditionals

    def test_public_pgfs_give_the_values_at_one(self, wide_specs):
        # E[T | j] = G_j'(1) / G_j(1) from `game_pgfs`, against the integer solves
        for spec in wide_specs:
            solution = solve_game(spec)
            pgfs, tail = game_pgfs(spec)
            conditionals = tuple(
                rational_derivative(pgf).evaluate(1) / pgf.evaluate(1) for pgf in pgfs
            )
            assert conditionals == solution.conditional_durations
            assert tail.evaluate(1) == solution.expected_duration

    def test_matches_conway_route(self, wide_specs):
        rng = random.Random(32)
        for spec in [*wide_specs, *(random_spec(rng) for _ in range(40))]:
            solution = solve_game(spec)
            assert conway_reference(spec) == (solution.win_probs, solution.expected_duration)


class TestCramerKernel:
    """Every check `_cramer` and its callers make, on small hand-built matrices."""

    def test_integer_solve(self):
        # det [[2, 1], [1, 3]] = 5; column 0 by c: det [[3, 1], [5, 3]] = 4; column 1: 7
        assert _cramer([[2, 1, 3], [1, 3, 5]]) == (5, [[4], [7]])

    def test_polynomial_solve(self):
        # [[1 + u, u], [u, 1]] by c = [1, u]: det 1 + u - u^2, numerators 1 - u^2 and u^2,
        # solved over Z at u = 2**bits and read back
        bits = 8
        rows = [[[1, 1], [0, 1], [1]], [[0, 1], [1], [0, 1]]]
        packed = [[sum(c << bits * t for t, c in enumerate(p)) for p in row] for row in rows]
        det, solved = _cramer(packed)
        assert _unpack(det, bits) == [1, 1, -1]
        assert [_unpack(n, bits) for n, in solved] == [[1, 0, -1], [0, 0, 1]]

    @pytest.mark.parametrize("bits", [2, 3, 8, 64, 65])
    def test_unpack_reads_back_balanced_digits(self, bits):
        # every coefficient below 2**(bits-1) in absolute value reads back, the
        # largest of them too
        top = (1 << (bits - 1)) - 1
        cases = [
            [],
            [top],
            [-top],
            [top, -top, top],
            [-top, top, -top],
            [top, 0, 0, -top],
            [0, 0, 1],
            [-1, 0, top, 0, 1],
        ]
        for coeffs in cases:
            value = sum(c << bits * t for t, c in enumerate(coeffs))
            assert _unpack(value, bits) == coeffs

    @pytest.mark.parametrize(
        "rows, det, numerators",
        # [[0, 1], [1, 1]] by c = [1, 1]: det -1, numerators 0 and -1
        [([[0, 1, 1], [1, 1, 1]], -1, [[0], [-1]])],
        ids=["integers"],
    )
    def test_zero_pivot_swaps_rows(self, rows, det, numerators):
        # a swap flips the sign of det and of every numerator together
        flipped = (-det, [[-n for n in row] for row in numerators])
        assert _cramer(rows) in [(det, numerators), flipped]

    @pytest.mark.parametrize(
        "rows, columns",
        [
            # [[2, 1, 0], [1, 3, 1], [0, 1, 4]] by three columns, no swap
            ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], [[1, 0, 2], [5, -1, 0], [0, 0, 0]]),
            # a zero leading pivot: the one swap it makes covers every column
            ([[0, 1, 2], [1, 1, 0], [3, 0, 1]], [[1, 1, 1], [2, -3, 0], [0, 7, 1]]),
            # a pivot that only becomes zero after the first step
            ([[1, 1, 0], [1, 1, 1], [0, 2, 1]], [[1, 2, 3], [4, 5, 6], [-1, 0, 1]]),
        ],
        ids=["no-swap", "zero-first-pivot", "zero-second-pivot"],
    )
    def test_several_columns_equal_one_call_per_column(self, rows, columns):
        together = _cramer(
            [[*row, *(column[i] for column in columns)] for i, row in enumerate(rows)]
        )
        singles = [
            _cramer([[*row, column[i]] for i, row in enumerate(rows)]) for column in columns
        ]
        assert all(det == together[0] for det, _ in singles)
        assert together[1] == [[n[i][0] for _, n in singles] for i in range(len(rows))]

    @pytest.mark.parametrize(
        "rows",
        [[[1, 2, 1], [2, 4, 1]], [[0, 1, 1], [0, 2, 1]], [[1, 2, 1, 0], [2, 4, 1, 3]]],
        ids=["integers", "integers-zero-column", "integers-two-columns"],
    )
    def test_singular_matrix_is_degenerate(self, rows):
        with pytest.raises(DegenerateGameError, match="singular"):
            _cramer(rows)

    def test_integer_division_checks_the_remainder(self):
        assert _divide_int(-6, 3) == -2
        with pytest.raises(ArithmeticError, match="not divisible"):
            _divide_int(7, 2)

    @staticmethod
    def _diagonal(monkeypatch, diagonal):
        """Make every solver see `diagonal(size, own)` in place of `own`, the
        overlaps of a pattern of length `size` with itself that
        `solver._correlations` reports."""
        real = solver._correlations

        def patched(heads, tails, weights):
            table = real(heads, tails, weights)
            for a, overlaps in zip(heads, table):
                own = [entry for entry in overlaps if tails[entry[0]] == a]
                others = [entry for entry in overlaps if tails[entry[0]] != a]
                overlaps[:] = others + diagonal(len(a), own)
            return table

        monkeypatch.setattr(solver, "_correlations", patched)

    def test_determinant_not_one_at_origin_is_degenerate(self, fair, monkeypatch):
        # the full overlap, k = len(a), is the diagonal entry's constant term in u
        self._diagonal(
            monkeypatch, lambda size, own: [(j, k, 2 * w if k == size else w) for j, k, w in own]
        )
        # the check on det M(0) belongs to the pgf solve, `game_pgfs`; with one
        # player no pivot divides, with two the divisions are exact all the same
        with pytest.raises(DegenerateGameError, match="det M"):
            game_pgfs(validate_pattern_set([parse_pattern("HH", fair)], fair))
        with pytest.raises(DegenerateGameError, match="det M"):
            game_pgfs(validate_pattern_set([parse_pattern(t, fair) for t in ("HH", "TH")], fair))

    # the ranked table and the running best share one scoring walk, and so its checks
    SCORERS = (response_table, best_response)

    def test_response_vanishing_minors_are_degenerate(self, fair, monkeypatch):
        for score in self.SCORERS:
            # no opponents: zero symbol weights make the candidate's Cramer numerator vanish
            with monkeypatch.context() as patch:
                patch.setitem(fair.__dict__, "weights", dict.fromkeys(fair.symbols, 0))
                with pytest.raises(DegenerateGameError, match="degenerate at s = 1"):
                    score([], 2, fair)
            # no opponents, D = 0 with weights 1: alpha and so det M vanish, while
            # N_new = 1 and the total is 1
            with monkeypatch.context() as patch:
                # D and the weights are computed once, in the model's constructor
                patch.setitem(fair.__dict__, "weights", dict.fromkeys(fair.symbols, 1))
                patch.setitem(fair.__dict__, "common_denominator", 0)
                with pytest.raises(DegenerateGameError, match="degenerate at s = 1"):
                    score([], 2, fair)
            # one opponent: det A is the opponent's diagonal entry
            with monkeypatch.context() as patch:
                self._diagonal(patch, lambda size, own: [])
                with pytest.raises(DegenerateGameError, match="leading minor"):
                    score([parse_pattern("HH", fair)], 2, fair)

    def test_response_length_must_be_positive(self, fair):
        # the CLI refuses --length 0 itself; the library's check is its own
        for score in self.SCORERS:
            for opponents in ([], [parse_pattern("HT", fair)]):
                with pytest.raises(ValidationError, match="at least 1"):
                    score(opponents, 0, fair)

    def test_response_opponents_minor_raises_only_with_a_candidate(self, fair, monkeypatch):
        self._diagonal(monkeypatch, lambda size, own: [])
        # two opponents: `_cramer` meets the vanishing order-1 minor of A as a divisor
        pair = [parse_pattern(text, fair) for text in ("HH", "TT")]
        for score in self.SCORERS:
            with pytest.raises(DegenerateGameError, match="leading minor"):
                score(pair, 3, fair)
        # every reply equals, contains or lies inside an opponent: nothing to score
        all_pairs = [parse_pattern(text, fair) for text in ("HH", "HT", "TH", "TT")]
        singles = [parse_pattern("H", fair), parse_pattern("T", fair)]
        assert response_table(all_pairs, 2, fair) == []
        assert response_table(singles, 1, fair) == []
        for opponents, length in ((all_pairs, 2), (singles, 1)):
            with pytest.raises(ValidationError, match="no admissible pattern"):
                best_response(opponents, length, fair)

    def test_response_bordered_step_checks_the_remainder(self, fair, monkeypatch):
        real = solver._cramer

        def det_off_by_one(rows):
            det, solved = real(rows)
            return det + 1, solved

        # the bordered step divides sum(N_opponents) * det A by det A; a det A that
        # does not match the adjugate columns leaves a remainder. With one opponent
        # that division is exact whatever det A is, so the game has two.
        monkeypatch.setattr(solver, "_cramer", det_off_by_one)
        pair = [parse_pattern(text, fair) for text in ("HH", "TT")]
        for score in self.SCORERS:
            with pytest.raises(ArithmeticError, match="not divisible"):
                score(pair, 3, fair)


class TestDualSolve:
    """Values at s = 1 with their slopes, the pairs a dual number holds, from
    two integer solves of M(1), against the pgf solve."""

    def test_dual_solve(self):
        # `test_polynomial_solve`'s system at u = 1: M(1) = [[2, 1], [1, 1]] with
        # slopes M' = [[1, 1], [1, 0]], c(1) = [1, 1] with slopes c' = [0, 1]
        values, slopes = [[2, 1], [1, 1]], [[1, 1], [1, 0]]
        det, solved = _cramer([[2, 1, 1], [1, 1, 1]])
        numerators = [n for n, in solved]
        # det 1 + u - u^2 -> 1, numerators 1 - u^2 -> 0 and u^2 -> 1
        assert (det, numerators) == (1, [0, 1])
        rhs = [
            det * c - sum(map(operator.mul, row, numerators))
            for c, row in zip([0, 1], slopes)
        ]
        det_again, solved = _cramer([[*row, r] for row, r in zip(values, rhs)])
        # x = N / det, so x' = (N' det - N det') / det**2 with N' = (-2, 2) and det' = -1
        slope_numerators = [n for n, in solved]
        det_slope = -1
        x_slope = [
            F(n_slope * det - n * det_slope, det**2) for n, n_slope in zip(numerators, (-2, 2))
        ]
        assert det_again == det
        assert slope_numerators == [det**2 * x for x in x_slope] == [-2, 3]

    def test_values_take_two_integer_solves(self, wide_specs, monkeypatch):
        calls = []
        real = solver._cramer

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        def refuse(spec):
            raise RuntimeError("the pgf solve ran")

        monkeypatch.setattr(solver, "_cramer", counted)
        monkeypatch.setattr(solver, "game_pgfs", refuse)
        for spec in wide_specs:
            calls.clear()
            solve_game(spec)
            # [M(1) | c(1)], then [M(1) | d c'(1) - M'(1) N], both over Z
            assert calls == [spec.player_count] * 2

    def test_matches_integer_route(self, wide_specs):
        # the values of `game_pgfs` at s = 1, and E[T | j] = g_j'(1) / g_j(1)
        for spec in wide_specs:
            solution = solve_game(spec)
            pgfs, tail = game_pgfs(spec)
            values = (
                tuple(pgf.evaluate(1) for pgf in pgfs),
                tail.evaluate(1),
                tuple(rational_derivative(g).evaluate(1) / g.evaluate(1) for g in pgfs),
            )
            assert _solve_at_one(spec) == values
            assert (
                solution.win_probs,
                solution.expected_duration,
                solution.conditional_durations,
            ) == values

    def test_inexact_division_propagates(self, example_spec, monkeypatch):
        def inexact(a, d):
            raise ArithmeticError("elimination step is not divisible by the previous pivot")

        def refuse(spec):
            raise RuntimeError("the pgf solve ran")

        # the error reaches the caller as it is, and no other route is tried
        monkeypatch.setattr(solver, "_divide_int", inexact)
        monkeypatch.setattr(solver, "game_pgfs", refuse)
        with pytest.raises(ArithmeticError, match="not divisible"):
            solve_game(example_spec)

    def test_solution_holds_only_its_fields(self, example_spec, monkeypatch, capsys):
        def refuse(*args):
            raise RuntimeError("the pgf solve ran")

        # `_unpack` reads the packed pgf solve back, and nothing else calls it
        monkeypatch.setattr(solver, "_unpack", refuse)
        solution = solve_game(example_spec)
        # every CLI answer and the win-time series come without the pgf solve,
        # and none of them leaves anything on the solution
        distribution = game_distribution(example_spec, 5)
        assert distribution[0][3] == (1, 8)
        for argv in (
            ["solve", "--patterns", "THH,HTH,HHT", "--series", "5"],
            ["simulate", "--patterns", "THH,HTH,HHT", "--trials", "100"],
            ["best-response", "--opponents", "THH,HTH", "--length", "3"],
        ):
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert tuple(vars(solution)) == GameSolution._fields
        assert solution == solve_game(example_spec)

    def test_pgfs_are_one_elimination_of_m_rows(self, wide_specs, monkeypatch):
        calls = []
        real = solver._cramer

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(solver, "_cramer", counted)
        for spec in wide_specs:
            solution = solve_game(spec)
            calls.clear()
            pgfs, tail = game_pgfs(spec)
            # [M | c] packed at u = 2**bits: one m-row elimination for every pgf
            assert calls == [spec.player_count]
            assert tuple(pgf.evaluate(1) for pgf in pgfs) == solution.win_probs
            assert tail.evaluate(1) == solution.expected_duration


class TestWinningProbabilities:
    def test_showcase_fair(self, example_spec):
        assert solve_game(example_spec).win_probs == (F(5, 12), F(1, 3), F(1, 4))

    @pytest.mark.parametrize("p", (F(1, 3), F(1, 4), F(2, 5)))
    def test_showcase_closed_forms(self, p):
        assert solve_game(showcase(p)).win_probs == closed_form_probs(p)

    def test_single_player(self, fair):
        spec = validate_pattern_set([parse_pattern("HTH", fair)], fair)
        assert solve_game(spec).win_probs == (F(1),)

    def test_sum_to_one(self):
        rng = random.Random(14)
        for _ in range(40):
            assert sum(solve_game(random_spec(rng)).win_probs) == 1

    def test_matches_pgf_value_at_one(self):
        rng = random.Random(15)
        for _ in range(20):
            spec = random_spec(rng)
            pgfs, _ = game_pgfs(spec)
            assert tuple(pgf.evaluate(1) for pgf in pgfs) == solve_game(spec).win_probs


class TestTwoPlayerOdds:
    def test_hh_vs_th(self, fair):
        hh, th = parse_pattern("HH", fair), parse_pattern("TH", fair)
        assert two_player_odds(hh, th, fair) == F(1, 3)  # (4-2)/(6-0)
        assert solve_game(validate_pattern_set([hh, th], fair)).win_probs == (
            F(1, 4),
            F(3, 4),
        )

    def test_symmetric_pair_is_even(self, fair):
        a, b = parse_pattern("HHT", fair), parse_pattern("TTH", fair)
        assert two_player_odds(a, b, fair) == 1

    def test_agrees_with_corollary_on_random_pairs(self):
        rng = random.Random(16)
        for _ in range(50):
            spec = random_pair(rng)
            first, second = spec.patterns
            probs = solve_game(spec).win_probs
            assert two_player_odds(first, second, spec.model) == probs[0] / probs[1]

    def test_invalid_pair_rejected(self, fair):
        with pytest.raises(ValidationError):
            two_player_odds(parse_pattern("HT", fair), parse_pattern("HTH", fair), fair)


class TestDurations:
    def test_single_hh_fair(self, fair):
        spec = validate_pattern_set([parse_pattern("HH", fair)], fair)
        assert solve_game(spec).expected_duration == 6

    def test_single_pattern_routes_agree(self):
        rng = random.Random(17)
        for _ in range(50):
            spec = random_single(rng)
            pattern = spec.patterns[0]
            assert solve_game(spec).expected_duration == single_pattern_expected_time(
                pattern, spec.model
            )

    def test_showcase_duration_matches_oracle(self, example_spec):
        value = solve_game(example_spec).expected_duration
        assert value == F(31, 6)
        assert value == expected_absorption_time(
            build_automaton(example_spec), example_spec.model
        )

    def test_solovev_examples(self, fair):
        assert single_pattern_expected_time(parse_pattern("THH", fair), fair) == 8
        assert single_pattern_expected_time(parse_pattern("HH", fair), fair) == 6

    def test_geometric_mean(self):
        p = F(1, 3)
        model = SourceModel(("H", "T"), (p, 1 - p))
        assert single_pattern_expected_time(parse_pattern("H", model), model) == 1 / p

    def test_equals_self_conway_number(self):
        rng = random.Random(18)
        for _ in range(50):
            spec = random_single(rng)
            pattern = spec.patterns[0]
            assert single_pattern_expected_time(pattern, spec.model) == conway_number(
                pattern, pattern, spec.model
            )

    def test_tail_gf_value_at_one_is_duration(self):
        rng = random.Random(19)
        for _ in range(20):
            spec = random_spec(rng)
            _, tail = game_pgfs(spec)
            assert tail.evaluate(1) == solve_game(spec).expected_duration


class TestGameDistribution:
    def test_zero_before_shortest_pattern(self):
        rng = random.Random(21)
        for _ in range(20):
            spec = random_spec(rng)
            shortest = min(p.length for p in spec.patterns)
            for row in as_fractions(game_distribution(spec, shortest - 1)):
                assert all(c == 0 for c in row)

    def test_first_possible_win(self, example_spec):
        distribution = as_fractions(game_distribution(example_spec, 3))
        assert distribution[0][3] == F(1, 8)

    def test_mass_accumulates_to_one(self, example_spec):
        distribution = as_fractions(game_distribution(example_spec, 60))
        running = F(0)
        previous = F(0)
        for k in range(61):
            running += sum(row[k] for row in distribution)
            assert previous <= running <= 1
            previous = running
        assert 1 - running < F(1, 1000)

    def test_coefficients_nonnegative(self):
        rng = random.Random(22)
        for _ in range(25):
            for row in as_fractions(game_distribution(random_spec(rng), 50)):
                assert all(c >= 0 for c in row)

    def test_solves_nothing(self, wide_specs, monkeypatch):
        # the recurrence reads only the spec: no elimination, for the values or the pgfs
        calls = []
        real = solver._cramer

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(solver, "_cramer", counted)
        for spec in wide_specs:
            assert len(game_distribution(spec, 40)) == spec.player_count
        assert calls == []


class TestSeriesKernel:
    """`game_distribution`, the integer recurrence, against the Fraction
    recurrence `refalgebra.series` on the pgfs and the chain oracle."""

    def test_matches_fraction_series(self, wide_specs):
        rng = random.Random(41)
        short_block = [
            sized_spec(rng, SourceModel.from_text(text), players, length)
            for text, players, length in SHORT_BLOCK_GAMES
        ]
        assert {spec.model.common_denominator for spec in short_block} == {10**6, HUGE_D}
        for spec in [*wide_specs, *short_block, *(random_spec(rng) for _ in range(40))]:
            pgfs, _ = game_pgfs(spec)
            terms = game_distribution(spec, 120)
            assert len(terms) == spec.player_count
            for pgf, player in zip(pgfs, terms):
                fractions = [F(int(n), int(d)) for n, d in player]
                assert fractions == series(pgf, 120)
                # each pair is already in lowest terms with a positive denominator
                assert [(f.numerator, f.denominator) for f in fractions] == [
                    (int(n), int(d)) for n, d in player
                ]

    def test_matches_oracle_on_ternary_game(self):
        model = SourceModel.from_text("a:1/2,b:1/3,c:1/6")
        spec = validate_pattern_set(
            [parse_pattern(text, model) for text in ("abc", "cab", "bba")], model
        )
        assert as_fractions(game_distribution(spec, 200)) == step_distribution(
            build_automaton(spec), model, 200
        )

    def reduce(self, num, k, scale, block=None):
        """`_lowest_terms` of num / scale**k, as ints; `block` is shared by
        calls the way one `game_distribution` call shares it."""
        with decimal.localcontext(solver._EXACT):
            powers = [decimal.Decimal(scale) ** j for j in range(k + 1)]
            n, d = _lowest_terms(
                decimal.Decimal(num), k, powers, block or _reduction_block(scale)
            )
        # integers with no exponent, so that str never prints E-notation
        assert n.as_tuple().exponent == d.as_tuple().exponent == 0
        # a denominator that is a power of D is that object of powers, which
        # the series writer then prints once
        exponents = {scale**j: j for j in range(k + 1)}
        if int(d) in exponents:
            assert d is powers[exponents[int(d)]]
        return int(n), int(d)

    def test_reduction_block(self):
        assert _reduction_block(2)[:4] == (2, 2**63, 2**63, 2**62)
        assert _reduction_block(3)[:4] == (3, 3**39, 3**39, 3**38)
        assert _reduction_block(10**6)[:4] == (10**6, 10**18, 10**18, 10**12)
        assert _reduction_block(2**63)[:4] == (2**63, 2**63, 2**63, 1)
        assert _reduction_block(HUGE_D)[:4] == (HUGE_D, HUGE_D, HUGE_D, 1)
        for scale in REDUCTION_SCALES:
            base, block, size, below, exponents, units = _reduction_block(scale)
            assert isinstance(base, decimal.Decimal) and base == scale
            assert isinstance(block, decimal.Decimal) and block == size
            assert size == below * scale
            assert size <= 2**63 < size * scale or size == scale > 2**63
            # D**j -> j for 0 < j <= e, B last
            assert exponents == {scale**j: j for j in range(1, len(exponents) + 1)}
            assert max(exponents) == size
            assert units == {}

    @pytest.mark.parametrize("scale", REDUCTION_SCALES)
    def test_reduction_matches_fraction(self, scale):
        block = _reduction_block(scale)[2]
        e = round(math.log(block, scale))
        assert scale**e == block
        rng = random.Random(scale)
        # one block for every term, as in one game_distribution call
        shared = _reduction_block(scale)
        strips = whole = 0
        for k in sorted({0, 1, 2, e - 1, e, e + 1, 2 * e + 1}):
            assert self.reduce(0, k, scale, shared) == (0, 1)
            for p in (*REDUCTION_SCALES[scale], scale):
                for r in (1, 7, rng.getrandbits(80) | 1):
                    # v runs past both e and k, so with p = D the numerator
                    # holds more factors of D than B and than D**k
                    for v in range(k + e + 3):
                        num = r * p**v
                        exact = F(num, scale**k)
                        assert self.reduce(num, k, scale, shared) == (
                            exact.numerator,
                            exact.denominator,
                        )
                        common = math.gcd(num, block)
                        # past the first remainder: c does not divide D**(e-1)
                        strips += k >= e and (block // scale) % common != 0
                        whole += exact.denominator == 1 and k > 0
        assert strips and whole

    def test_reduction_edge_cases(self):
        assert self.reduce(0, 10, 2) == (0, 1)
        assert self.reduce(6**7, 7, 6) == (1, 1)
        # more factors of D than the power holds: the denominator reaches 1
        assert self.reduce(5 * 6**9, 7, 6) == (5 * 6**2, 1)
        # D = 6 and a numerator divisible by 2 only: only the 2s cancel
        assert self.reduce(2**5 * 5, 3, 6) == (20, 27)
        assert self.reduce(2**2 * 5, 3, 6) == (5, 54)
        assert self.reduce(9 * 7, 3, 4) == (63, 64)
        assert self.reduce(2 * 7, 3, 4) == (7, 32)

    @pytest.mark.parametrize(
        "alphabet, patterns",
        [
            ("H:1/3,T:2/3", ("HTHTH", "TTHHT", "HHTTT")),
            ("H:1/2,T:1/2", ("THH", "HTH", "HHT")),
            ("H:1/4,T:3/4", ("HTHTH", "TTHHT", "HHTTT")),
            ("a:1/2,b:1/3,c:1/6", ("ab", "bc", "ca")),
            (HUGE_A, ("ab", "ba")),
        ],
        ids=["D=3", "D=2", "D=4", "D=6", "D=2**64+1"],
    )
    def test_denominators_are_shared(self, alphabet, patterns):
        # every denominator that is a power of D, all of them where D is
        # prime, is one object per value: the series writer prints each once
        model = SourceModel.from_text(alphabet)
        spec = validate_pattern_set([parse_pattern(t, model) for t in patterns], model)
        scale, horizon = model.common_denominator, 300
        powers = {scale**k for k in range(horizon + 1)}
        objects = {}
        for row in game_distribution(spec, horizon):
            for _, d in row:
                if int(d) in powers:
                    assert objects.setdefault(int(d), d) is d
                else:
                    assert scale in (4, 6)
        assert len(objects) > horizon // 2

    def test_ignores_the_callers_decimal_context(self, wide_specs):
        spec = wide_specs[1]
        expected = game_distribution(spec, 150)
        with decimal.localcontext() as ctx:
            ctx.prec = 6
            ctx.traps[decimal.Inexact] = False
            ctx.traps[decimal.Rounded] = False
            assert game_distribution(spec, 150) == expected
            assert decimal.getcontext().prec == 6
        assert as_fractions(expected) == [series(pgf, 150) for pgf in game_pgfs(spec)[0]]

    def test_pairs_print_past_the_digit_limit(self):
        # on the 1/3 coin D**k passes 4300 digits at k = 9014
        model = SourceModel.from_text("H:1/3,T:2/3")
        spec = validate_pattern_set([parse_pattern(t, model) for t in ("TH", "HH")], model)
        horizon = 9100
        terms = game_distribution(spec, horizon)[0]
        reference = series(game_pgfs(spec)[0][0], horizon)
        past = [k for k, (_, d) in enumerate(terms) if d.adjusted() + 1 > 4300]
        assert len(past) > 50
        # the interpreter's own limit, which str(Fraction) keeps to; none is inf
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or math.inf
        for k in [*range(0, horizon + 1, 101), *past]:
            (n, d), exact = terms[k], reference[k]
            # the Fraction route's value, and in lowest terms as a Fraction is
            assert (int(n), int(d)) == (exact.numerator, exact.denominator)
            # str prints each integer's digits, with no exponent, past the limit too
            (text,) = cli._ratio_texts([(n, d)], {})
            assert text.replace("/", "", 1).isdigit()
            if d.adjusted() < limit:
                assert text == str(exact)

    def test_negative_horizon_is_refused(self, example_spec):
        with pytest.raises(ValidationError):
            game_distribution(example_spec, -1)


class TestConditionalDuration:
    def test_single_player_equals_unconditional(self):
        rng = random.Random(23)
        for _ in range(20):
            spec = random_single(rng)
            assert solve_game(spec).conditional_durations == (
                single_pattern_expected_time(spec.patterns[0], spec.model),
            )

    def test_law_of_total_expectation(self, example_spec):
        solution = solve_game(example_spec)
        total = sum(map(operator.mul, solution.win_probs, solution.conditional_durations))
        assert total == solution.expected_duration

    def test_matches_oracle(self, example_spec):
        oracle_values = conditional_absorption_times(
            build_automaton(example_spec), example_spec.model
        )
        solver_values = solve_game(example_spec).conditional_durations
        assert solver_values == oracle_values == (F(86, 15), F(16, 3), F(4))


class TestBestResponse:
    def test_against_hh(self, fair):
        pattern, probability = best_response([parse_pattern("HH", fair)], 2, fair)
        assert str(pattern) == "TH"
        assert probability == F(3, 4)

    def test_against_hhh(self, fair):
        pattern, probability = best_response([parse_pattern("HHH", fair)], 3, fair)
        assert str(pattern) == "THH"
        assert probability == F(7, 8)

    def test_table_is_ranked_and_deterministic(self, fair):
        table = response_table([parse_pattern("HH", fair)], 2, fair)
        assert [(str(p), w) for p, w in table] == [
            ("TH", F(3, 4)),
            ("HT", F(1, 2)),
            ("TT", F(1, 2)),
        ]
        assert table == response_table([parse_pattern("HH", fair)], 2, fair)

    def test_no_admissible_candidate(self, fair):
        opponents = [parse_pattern("H", fair), parse_pattern("T", fair)]
        with pytest.raises(ValidationError, match="no admissible"):
            best_response(opponents, 1, fair)

    def test_matches_full_solves(self):
        # opponents of mixed lengths 1..5, replies shorter and longer than them
        rng = random.Random(2024)
        for trial in range(120):
            text, longest = RESPONSE_ALPHABETS[trial % len(RESPONSE_ALPHABETS)]
            model = SourceModel.from_text(text)
            count = trial % 4
            while True:
                opponents = [
                    Pattern(rng.choice(model.symbols) for _ in range(rng.randint(1, 5)))
                    for _ in range(count)
                ]
                try:
                    if opponents:
                        validate_pattern_set(opponents, model)
                except ValidationError:
                    continue
                break
            length = rng.randint(1, longest)
            expected = reference_response_table(opponents, length, model)
            assert response_table(opponents, length, model) == expected, (text, opponents, length)

    def test_no_admissible_candidate_matches_full_solves(self, fair):
        # every reply equals, contains or lies inside one of the four pairs
        opponents = [parse_pattern(text, fair) for text in ("HH", "HT", "TH", "TT")]
        for length in (1, 2, 3):
            assert response_table(opponents, length, fair) == []
            assert reference_response_table(opponents, length, fair) == []

    def test_a_label_ending_another_is_not_split(self):
        # text without delimiters would find "axa" inside "xaxa", and take "a"
        # for a suffix of it
        model = SourceModel.from_text("a:1/2,xa:1/2")
        opponents = [parse_pattern("xaxa", model)]
        table = response_table(opponents, 2, model)
        assert table == reference_response_table(opponents, 2, model)
        assert Pattern(("a", "xa")) in [pattern for pattern, _ in table]
        # "a" lies inside "abxa" but does not end it, though "abxa" ends in "a"
        model = SourceModel.from_text("a:1/3,b:1/3,xa:1/3")
        opponents = [parse_pattern("abxa", model)]
        assert response_table(opponents, 2, model) == reference_response_table(opponents, 2, model)

    def test_no_opponents_every_candidate_wins(self):
        for text, length in (("H:1/3,T:2/3", 3), ("a:1/2,b:1/3,c:1/6", 2), ("x:1/4,yy:3/4", 2)):
            model = SourceModel.from_text(text)
            table = response_table([], length, model)
            assert table == reference_response_table([], length, model)
            assert [p.symbols for p, _ in table] == list(
                itertools.product(model.symbols, repeat=length)
            )
            assert all(w == 1 for _, w in table)

    def test_guibas_odlyzko_best_reply_shape(self, fair):
        # Guibas & Odlyzko (1981): on a fair coin the best same-length reply to
        # b_1...b_L is x b_1...b_{L-1} for some symbol x
        def best_shaped(opponent):
            shaped = []
            for x in fair.symbols:
                reply = Pattern((x, *opponent.symbols[:-1]))
                try:
                    spec = validate_pattern_set([opponent, reply], fair)
                except ValidationError:
                    continue
                shaped.append(solve_game(spec).win_probs[-1])
            return max(shaped)

        checked = 0
        for length in range(3, 8):
            for symbols in itertools.product(fair.symbols, repeat=length):
                opponent = Pattern(symbols)
                table = response_table([opponent], length, fair)
                assert table[0][1] == best_shaped(opponent), str(opponent)
                checked += 1
        assert checked == 248
        # sampled opponents of length 13 to 16, and one at the CLI's longest, 20
        rng = random.Random(1981)
        lengths = [*(length for length in range(13, 17) for _ in range(3)), 20]
        for length in lengths:
            opponent = Pattern(tuple(rng.choice(fair.symbols) for _ in range(length)))
            _, chance = best_response([opponent], length, fair)
            assert chance == best_shaped(opponent), str(opponent)

    def test_integer_ranking_matches_fraction_order(self):
        big = 10**30
        fibonacci = [1, 2]
        while len(fibonacci) < 40:
            fibonacci.append(fibonacci[-1] + fibonacci[-2])
        values = [
            # exact ties
            F(1, 2), F(2, 4), F(big, 2 * big), F(1), F(7, 7),
            # Farey neighbours at the largest denominator: they differ by 1/(big (big - 1))
            F(big - 1, big), F(big - 2, big - 1), F(1, big), F(1, big - 1),
            # convergents of the golden ratio, alternating ever closer around it
            *(F(a, b) for a, b in zip(fibonacci, fibonacci[1:])),
            F(3 * fibonacci[-2], 3 * fibonacci[-1]),  # a tie with the last of them
        ]
        rng = random.Random(8)
        for _ in range(20):
            rng.shuffle(values)
            expected = sorted(range(len(values)), key=values.__getitem__, reverse=True)
            assert _ranking(values) == expected
        assert _ranking([]) == []

    def test_long_reply_against_a_pruning_opponent(self, fair):
        # only T^L avoids H; the walk keeps no call stack per symbol
        table = response_table([parse_pattern("H", fair)], 3000, fair)
        assert [(p.symbols, w) for p, w in table] == [(("T",) * 3000, F(1, 2**3000))]

    def test_prefix_automaton_matches_the_oracle(self):
        rng = random.Random(31)
        checked = 0
        while checked < 200:
            text, _ = RESPONSE_ALPHABETS[checked % len(RESPONSE_ALPHABETS)]
            model = SourceModel.from_text(text)
            opponents = [
                Pattern(rng.choice(model.symbols) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 3))
            ]
            try:
                spec = validate_pattern_set(opponents, model)
            except ValidationError:
                continue
            prefixes, transitions, stops = _prefix_automaton(opponents, model.symbols)
            automaton = build_automaton(spec)
            states = {prefix: k for k, prefix in enumerate(automaton.prefixes)}
            assert sorted(prefixes) == sorted(automaton.prefixes)
            for prefix, row, stop in zip(prefixes, transitions, stops):
                state = states[prefix]
                assert stop == (automaton.winner[state] is not None)
                if not stop:
                    assert [prefixes[t] for t in row] == [
                        automaton.prefixes[t] for t in automaton.transitions[state]
                    ]
            checked += 1
        assert _prefix_automaton([], model.symbols) == ([()], [[0] * len(model.symbols)], [False])

    def test_always_beats_any_length_three_opponent(self, fair):
        # the classic nontransitivity: every length-3 pattern is beaten by some reply
        for bits in range(8):
            text = "".join("H" if bits & (1 << k) else "T" for k in range(3))
            _, probability = best_response([parse_pattern(text, fair)], 3, fair)
            assert probability > F(1, 2)


# Alphabets of the best-response envelope, each with the longest reply that
# keeps |alphabet|**length <= 256.
ENVELOPE_ALPHABETS = (
    ("H:1/2,T:1/2", 8),
    ("H:1/3,T:2/3", 8),
    ("x:1/4,yy:3/4", 8),
    ("a:1/2,b:1/3,c:1/6", 5),
    ("a:1/5,b:1/5,c:3/5", 5),
)


@st.composite
def response_games(draw):
    """(opponents, length, model): 0 to 3 substring-free opponents of lengths
    1 to 7 and a reply length that may be shorter than, equal to or longer
    than any of them. A drawn opponent that contains or lies inside an
    earlier one is dropped."""
    text, longest = draw(st.sampled_from(ENVELOPE_ALPHABETS))
    model = SourceModel.from_text(text)
    kept: list[tuple[str, ...]] = []
    for _ in range(draw(st.integers(0, 3))):
        symbols = tuple(draw(st.lists(st.sampled_from(model.symbols), min_size=1, max_size=7)))
        if not any(_contains(symbols, p) or _contains(p, symbols) for p in kept):
            kept.append(symbols)
    return [Pattern(p) for p in kept], draw(st.integers(1, longest)), model


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(response_games())
def test_response_table_envelope(game):
    opponents, length, model = game
    assert response_table(opponents, length, model) == reference_response_table(
        opponents, length, model
    )


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(response_games())
def test_best_response_envelope(game):
    opponents, length, model = game
    table = response_table(opponents, length, model)
    if table:
        assert best_response(opponents, length, model) == table[0]
    else:
        with pytest.raises(ValidationError, match="no admissible pattern"):
            best_response(opponents, length, model)


class TestRunningBest:
    """`best_response`'s running best against the ranked table's first row."""

    @pytest.mark.parametrize(
        "text, opponents, length",
        [
            ("H:1/3,T:2/3", "HTHT,TTHH", 5),
            ("a:1/2,b:1/3,c:1/6", "abc,cab,bb", 4),
            ("H:1/2,T:1/2", "", 3),
        ],
    )
    def test_opponents_are_eliminated_once(self, text, opponents, length, monkeypatch):
        # one `_cramer` on [A | w_b | u per open state], however many states the
        # opponents' automaton has
        model = SourceModel.from_text(text)
        fixed = [parse_pattern(t, model) for t in opponents.split(",") if t]
        calls = []
        real = solver._cramer

        def counted(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(solver, "_cramer", counted)
        for score in (best_response, response_table):
            calls.clear()
            score(fixed, length, model)
            assert calls == [len(fixed)]

    @pytest.mark.parametrize("text", ["H:1/2,T:1/2", "H:1/3,T:2/3", "a:1/2,b:1/3,c:1/6"])
    def test_tie_at_the_top_keeps_alphabet_order(self, text):
        # alone, every reply wins with probability 1: the first in alphabet order wins
        model = SourceModel.from_text(text)
        first = Pattern((model.symbols[0],) * 3)
        assert best_response([], 3, model) == (first, F(1)) == response_table([], 3, model)[0]

    @pytest.mark.parametrize(
        "text, opponent, length, tied",
        [
            ("H:1/2,T:1/2", "HTHH", 3, ["HHT", "THT", "TTH"]),
            ("H:1/3,T:2/3", "HTHT", 4, ["TTHT", "TTTH"]),
        ],
    )
    def test_tie_at_the_top_against_an_opponent(self, text, opponent, length, tied):
        model = SourceModel.from_text(text)
        opponents = [parse_pattern(opponent, model)]
        table = response_table(opponents, length, model)
        assert [str(pattern) for pattern, value in table if value == table[0][1]] == tied
        assert best_response(opponents, length, model) == table[0]
        assert str(table[0][0]) == tied[0]

    def test_negative_totals_are_normalised(self, monkeypatch):
        model = SourceModel.from_text("H:1/3,T:2/3")
        opponents = [parse_pattern(text, model) for text in ("HTHT", "TTHH")]
        expected = response_table(opponents, 5, model)
        real = solver._cramer

        def flipped(rows):
            # det A and adj(A) B with the other sign, as an odd number of row swaps gives
            det, numerators = real(rows)
            return -det, [[-n for n in row] for row in numerators]

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_cramer", flipped)
            scores = list(solver._response_scores(opponents, 5, model))
            assert scores and all(new < 0 and total < 0 for _, new, total in scores)
            assert response_table(opponents, 5, model) == expected
            assert best_response(opponents, 5, model) == expected[0]
        # a pair's sign is det M's, so it may differ between candidates: flip every other one
        real_scores = solver._response_scores

        def alternating(*args):
            for k, (word, new, total) in enumerate(real_scores(*args)):
                yield (word, -new, -total) if k % 2 else (word, new, total)

        monkeypatch.setattr(solver, "_response_scores", alternating)
        assert response_table(opponents, 5, model) == expected
        assert best_response(opponents, 5, model) == expected[0]


class TestStructuralIdentities:
    def test_determinant_identities(self):
        rng = random.Random(24)
        one_minus_s = ONE - S
        for _ in range(40):
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

    def test_cramer_residual(self):
        rng = random.Random(25)
        one_minus_s = ONE - S
        for _ in range(25):
            spec = random_spec(rng)
            m = spec.player_count
            matrix = correlation_matrix(spec)
            column = completion_monomials(spec)
            pgfs, _ = game_pgfs(spec)
            denominator = pgfs[0].denom
            for i in range(m):
                left = column[i] * denominator
                right = Polynomial()
                for j in range(m):
                    right = right + pgfs[j].numer * (
                        column[i] + one_minus_s * matrix.rows[i][j]
                    )
                assert left == right

    def test_tail_gf_equals_one_minus_total_over_one_minus_s(self):
        rng = random.Random(26)
        for _ in range(20):
            spec = random_spec(rng)
            pgfs, tail = game_pgfs(spec)
            # every pgf and the tail share the denominator Q, so the identity
            # 1 - sum_j N_j / Q = (1 - s) * det M / Q is one on numerators
            denominator = tail.denom
            assert all(pgf.denom == denominator for pgf in pgfs)
            total = sum((pgf.numer for pgf in pgfs), Polynomial())
            assert denominator - total == (ONE - S) * tail.numer

    def test_solver_denominators_are_one_at_origin(self):
        # series extraction relies on this; it pins the identity-at-zero shape
        rng = random.Random(27)
        for _ in range(20):
            pgfs, tail = game_pgfs(random_spec(rng))
            assert pgfs[0].denom.evaluate(0) == 1
            assert tail.denom.evaluate(0) == 1
            assert series(tail, 0) == [F(1)]


class TestMetamorphic:
    """Renaming players or symbols moves the outputs by the same renaming."""

    @pytest.fixture(scope="class")
    def games(self, wide_specs):
        rng = random.Random(41)
        return [*wide_specs, *(random_spec(rng) for _ in range(40))]

    def test_permuting_players_permutes_outputs(self, games):
        rng = random.Random(42)
        for spec in games:
            order = list(range(spec.player_count))
            rng.shuffle(order)
            base = solve_game(spec)
            moved = solve_game(validate_pattern_set([spec.patterns[i] for i in order], spec.model))
            assert moved.win_probs == tuple(base.win_probs[i] for i in order)
            assert moved.conditional_durations == tuple(
                base.conditional_durations[i] for i in order
            )
            assert moved.expected_duration == base.expected_duration

    def test_swapping_symbols_with_their_probabilities(self, games):
        for spec in games:
            mapping = mirror(spec.model)
            swapped = validate_pattern_set(
                [relabel(p, mapping) for p in spec.patterns], relabel_model(spec.model, mapping)
            )
            base, moved = solve_game(spec), solve_game(swapped)
            assert (
                GameSolution(
                    spec, moved.win_probs, moved.expected_duration, moved.conditional_durations
                )
                == base
            )

    def test_swapping_symbols_relabels_response_table(self):
        rng = random.Random(43)
        cases = [(random_spec(rng, 3, 4), rng.randint(1, 5)) for _ in range(30)]
        for text, players in (("a:1/2,b:1/3,c:1/6", 2), ("x:1/4,yy:3/4", 3), ("H:1/3,T:2/3", 2)):
            model = SourceModel.from_text(text)
            cases += [(sized_spec(rng, model, players, 4), 3) for _ in range(3)]
        for spec, length in cases:
            mapping = mirror(spec.model)
            table = response_table(spec.patterns, length, spec.model)
            swapped = response_table(
                [relabel(p, mapping) for p in spec.patterns],
                length,
                relabel_model(spec.model, mapping),
            )
            assert dict(swapped) == {relabel(p, mapping): w for p, w in table}
            assert len(swapped) == len(table)
