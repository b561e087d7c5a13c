"""Win probabilities, per-player generating functions, and waiting times.

The machinery: every ordered pattern pair gets a correlation polynomial that
records where a prefix of one pattern can sit on a suffix of the other,
weighted by the probability of the symbols still needed. Arranging these into
an m-by-m matrix and applying Cramer's rule yields each player's probability
generating function

    g_i(s) = det M_i(s) / (sum_j det M_j(s) + (1 - s) * det M(s)),

where M(s) is the correlation matrix and M_j replaces column j by the
completion monomials P(A_i) * s^len(A_i).

The values and the generating functions come from one elimination,
`_cramer`: a fraction-free Gauss-Jordan pass on an integer [M | B] with row
swaps and any number of right-hand columns B. The win-time series need none.

Win probabilities, the expected game length and the conditional lengths need
only values at s = 1. With D the least common multiple of the
symbol-probability denominators, row a of M(1) x = c(1) scaled by D**len(a)
is integer, and so is its derivative in s. Two integer solves of M(1) give
everything: the first yields det M(1) and the Cramer numerators N = det x,
the second the slopes of x, from the right-hand side det c'(1) - M'(1) N.
With g_j = x_j / (sum(x) + 1 - s), win_j = x_j / sum(x), E[T] = 1 / sum(x),
and E[T | j] = x_j'/x_j - (sum(x') - 1) / sum(x).

The win-time series are the coefficients of the paper's own system
P(A_i) s**len(A_i) f(s) = sum_j C_ij(s) g_j(s), f the tail generating
function. Scaled by D**k they are integers, given by a recurrence with no
division (`game_distribution`). Each is reduced against D**k by one remainder
(`_lowest_terms`): with B = D**e the largest power of D at or below 2**63 and
c = gcd(n mod B, B), the common factor is gcd(c, D**k) when k < e, and
otherwise c itself when c divides D**(e-1), because then every prime of D
divides c fewer times than it divides B, so c holds all of that prime that
n has. They are exact `Decimal`s in a context that raises rather than
rounds, because they print in linear time where `int` printing is quadratic
in CPython.

The generating functions themselves are solved only when read
(`GameSolution.pgfs`, `tail_gf`). The substitution u = s/D turns M and the
completion column into integer polynomials. Kronecker substitution evaluates
each at u = 2**bits, with bits past a bound on every coefficient the solve
can produce, so one integer `_cramer` yields det M and every Cramer numerator
together, read back as balanced base-2**bits digits (`_unpack`).

Best responses need only the values: `_response_scores` scores each candidate
by the generalised Conway formula, the ratio of two Cramer numerators of its
game's M(1) x = c(1) over Z. Only the candidate's own row, column and
autocorrelation change from one candidate to the next, so one `_cramer`
eliminates the opponents' block per request, with every column a candidate
can bring, and each candidate costs the bordered last step. The candidates
are the leaves of one depth-first walk over the symbol trie: the row, the
completion weight and the KMP borders grow one symbol per depth, the column
is a table over the opponents' prefix automaton, and a subtree is cut where
the walk completes an opponent.
`best_response` keeps only a running best, compared exactly by
cross-multiplying the integer scores, and builds one `Pattern` and one
`Fraction`; `response_table` keeps every row and ranks them by exact integer
keys rather than `Fraction` comparisons.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from decimal import Decimal
from fractions import Fraction

from .patterns import GameSpec, Pattern, Record, SourceModel, ValidationError, validate_pattern_set
from .polyalg import Polynomial, RationalFunction

# Integer polynomials in u = s/D: coefficient lists, lowest degree first, with
# no trailing zeros (the zero polynomial is the empty list).
IntPoly = list[int]


class DegenerateGameError(ArithmeticError):
    """M(1) is singular, or a pgf denominator vanishes at s = 1; not seen for validated specs."""


def _symbol_weights(model: SourceModel) -> dict[str, int]:
    """D * P(symbol) per symbol: integers, D the common denominator."""
    scale = model.common_denominator
    return {s: p.numerator * (scale // p.denominator) for s, p in zip(model.symbols, model.probs)}


def _scaled_correlation(a: Pattern, b: Pattern, weights: dict[str, int]) -> IntPoly:
    """Correlation polynomial of `a` against `b` in u = s/D: integer coefficients.

    The coefficient of u**(len(a)-k) is D**(len(a)-k) P(last len(a)-k symbols
    of `a`) when the first k symbols of `a` equal the last k symbols of `b`,
    else 0.
    """
    head, tail = a.symbols, b.symbols
    size = len(head)
    coeffs = [0] * size
    for k in range(1, min(size, len(tail)) + 1):
        if head[:k] == tail[-k:]:
            coeffs[size - k] = math.prod(map(weights.__getitem__, head[k:]))
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _completion_weight(a: Pattern, weights: dict[str, int]) -> int:
    """D**len(a) P(a): the completion monomial's coefficient in u = s/D."""
    return math.prod(map(weights.__getitem__, a.symbols))


def _entry_at_one(
    a: Pattern, b: Pattern, weights: dict[str, int], powers: list[int]
) -> tuple[int, int]:
    """Entry (a, b) of M and its derivative in s, both at s = 1 and times D**len(a).

    Coefficient c_t of `_scaled_correlation(a, b)` contributes c_t * (s/D)**t
    to the entry. Times D**len(a) at s = 1 that is c_t * D**(len(a)-t), with
    slope t * c_t * D**(len(a)-t). `powers[k]` is D**k. `solve_game` runs this
    for every pair of players, and `_response_scores` once per request for the
    opponents' block and for the column of each automaton state, never per
    candidate.
    """
    size = a.length
    value = slope = 0
    for t, c in enumerate(_scaled_correlation(a, b, weights)):
        if c:
            term = c * powers[size - t]
            value += term
            slope += t * term
    return value, slope


def _in_s(coeffs: IntPoly, scale: int) -> Polynomial:
    """The polynomial in s = D*u: coefficient k divided by D**k."""
    out, power = [], 1
    for c in coeffs:
        out.append(Fraction(c, power))
        power *= scale
    return Polynomial(out)


def _divide_int(a: int, d: int) -> int:
    """Quotient a / d in Z, for a divisor d that `_cramer` has checked is
    nonzero; raises unless d divides a."""
    quotient, remainder = divmod(a, d)
    if remainder:
        raise ArithmeticError("elimination step is not divisible by the previous pivot")
    return quotient


def _cramer(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """One fraction-free Gauss-Jordan pass on an integer m-by-(m+k) matrix [A | B].

    After step k every entry is a (k+1)-by-(k+1) minor (Sylvester's identity),
    so each update (pivot * a_ij - a_ik * a_kj) / previous pivot is exact, and
    `_divide_int` checks that it is. Where a pivot is zero, the first later
    row whose entry in that column is nonzero is swapped in; if none is, A is
    singular and `DegenerateGameError` is raised. Returns det A, the last
    pivot, and per row i its entries past A: in column j, det A with column
    i replaced by column j of B, Cramer's numerators. The swaps depend on A
    alone, and each flips the sign of all of them together, so their ratios
    are A's. `rows` is overwritten.
    """
    m = len(rows)
    previous = 1
    for k in range(m):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, m) if rows[i][k]), None)
            if swap is None:
                raise DegenerateGameError("singular matrix: no row gives a nonzero leading minor")
            rows[k], rows[swap] = rows[swap], rows[k]
        pivot_row = rows[k]
        pivot = pivot_row[k]
        width = len(pivot_row)
        for i, row in enumerate(rows):
            if i == k:
                continue
            factor = row[k]
            for j in range(k + 1, width):
                scaled = pivot * row[j]
                if factor:
                    scaled -= factor * pivot_row[j]
                row[j] = _divide_int(scaled, previous)
        previous = pivot
    return previous, [row[m:] for row in rows]


def _unpack(value: int, bits: int) -> IntPoly:
    """The polynomial p with p(2**bits) = value and every coefficient of
    absolute value below 2**(bits-1): value's balanced base-2**bits digits,
    lowest first, with no trailing zeros."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs: IntPoly = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        coeffs.append(digit)
        value = (value - digit) >> bits
    return coeffs


def _solve_integer(spec: GameSpec) -> tuple[int, list[IntPoly], IntPoly, IntPoly]:
    """D, the Cramer numerators, det M and the shared denominator, as
    polynomials in u = s/D.

    Kronecker substitution: every entry of [M(u) | c(u)] is evaluated at
    u = 2**bits, one integer `_cramer` runs, and each result is read back by
    `_unpack`. Evaluation is a ring map, so the packed results are the
    polynomial ones evaluated, and they read back exactly while every
    coefficient is below 2**(bits-1) in absolute value; a nonzero pivot then
    packs to a nonzero integer, so the row swaps are the same too. Every
    coefficient of [M | c] is nonnegative, so a row's L1 norm is its sum, and
    it is at least 1, from M's diagonal. Every minor of [M | c], which every
    entry of the elimination is, then has L1 norm at most the product of the
    row norms, and Q = sum(N) + (1 - D u) det M at most m + 1 + D times that.
    """
    scale = spec.model.common_denominator
    weights = _symbol_weights(spec.model)
    entries = [
        [_scaled_correlation(a, b, weights) for b in spec.patterns]
        + [[0] * a.length + [_completion_weight(a, weights)]]
        for a in spec.patterns
    ]
    bound = (len(entries) + 1 + scale) * math.prod(sum(map(sum, row)) for row in entries)
    bits = bound.bit_length() + 2
    rows = [[sum(c << bits * t for t, c in enumerate(p)) for p in row] for row in entries]
    packed_det, solved = _cramer(rows)
    packed = [n for n, in solved]
    # Q = sum_j N_j + (1 - s) det M, with s = D*u and u = 2**bits
    denominator = sum(packed) + packed_det - (scale * packed_det << bits)
    det_corr = _unpack(packed_det, bits)
    if not det_corr or det_corr[0] != 1:
        raise DegenerateGameError("det M is not 1 at the origin; the matrix is not I at 0")
    return scale, [_unpack(n, bits) for n in packed], det_corr, _unpack(denominator, bits)


# Exact integer arithmetic on Decimals: every operation that would round raises.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.InvalidOperation,
        decimal.DivisionByZero,
        decimal.Overflow,
        decimal.Inexact,
        decimal.Rounded,
    ],
)


def game_distribution(spec: GameSpec, horizon: int) -> list[list[tuple[Decimal, Decimal]]]:
    """Per player i: (n, d) with P(i wins at toss k) = n / d in lowest terms,
    d > 0, for 0 <= k <= horizon.

    The paper's recurrence, over G_{i,k} = D**k P(i wins at toss k) and
    F_k = D**k P(no win by toss k), from F_0 = 1 and G_{i,0} = 0:

        G_{i,k} = w_i F_{k-len(A_i)} - sum_j sum_{t>=1} C_ij[t] G_{j,k-t},
        F_k = D F_{k-1} - sum_i G_{i,k},

    with w_i = `_completion_weight(A_i)` and C_ij[t] the coefficients of
    `_scaled_correlation(A_i, A_j)`. Every term is an integer, so nothing is
    divided. n and d are exact integers held as Decimals, computed in
    `_EXACT` whatever the caller's context, so that printing them takes time
    linear in their digits and is not bound by Python's int-to-str digit
    limit. Only the spec is read; nothing is solved.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    weights = _symbol_weights(spec.model)
    scale = spec.model.common_denominator
    # entry pad + k is toss k; the pad of zeros stands for the tosses before 0
    pad = max(a.length for a in spec.patterns)
    with decimal.localcontext(_EXACT):
        zero, base = Decimal(0), Decimal(scale)
        wins = [[zero] * (pad + 1) for _ in spec.patterns]
        tail = [zero] * pad + [Decimal(1)]
        players = []
        for a, own in zip(spec.patterns, wins):
            overlaps = [
                (row, t, Decimal(c))
                for b, row in zip(spec.patterns, wins)
                for t, c in enumerate(_scaled_correlation(a, b, weights))
                if t and c
            ]
            players.append((own, a.length, Decimal(_completion_weight(a, weights)), overlaps))
        for n in range(pad + 1, pad + horizon + 1):
            total = zero
            for own, length, weight, overlaps in players:
                acc = weight * tail[n - length]
                for row, t, c in overlaps:
                    acc -= c * row[n - t]
                own.append(acc)
                total += acc
            tail.append(base * tail[-1] - total)
        powers = list(itertools.accumulate([base] * horizon, operator.mul, initial=Decimal(1)))
        block = _reduction_block(scale)
        return [[_lowest_terms(n, d, block) for n, d in zip(row[pad:], powers)] for row in wins]


def _reduction_block(scale: int) -> tuple[Decimal, int, int]:
    """(B as a Decimal, B, D**(e-1)) for `_lowest_terms`: B = D**e is the
    largest power of D = `scale` at or below 2**63, or D itself if D is
    larger than that.

    At or below 2**63, B fits one 64-bit word and one 19-digit word of a
    Decimal, so a remainder by it is one short division over the digits.
    """
    block, below = scale, 1
    while block * scale <= 1 << 63:
        block, below = block * scale, block
    return Decimal(block), block, below


def _lowest_terms(
    num: Decimal, den: Decimal, block: tuple[Decimal, int, int]
) -> tuple[Decimal, Decimal]:
    """num / den in lowest terms, den = D**k, block = `_reduction_block(D)`;
    run inside `_EXACT`.

    Every prime of den divides D, so the common factor g of num and den has
    its primes in B = D**e, and c = gcd(num mod B, B, den) divides g. When
    c divides D**(e-1), c is all of g: for each prime p of D,
    v_p(c) <= (e-1) v_p(D) < v_p(B), so v_p(c) = min(v_p(num), v_p(den)).
    That holds for any den whose primes divide D. Each round costs one
    remainder of num by B. The first takes no remainder of den: den is a
    multiple of B when k >= e, and a divisor of B, small enough to read
    whole, when k < e. So a term where nothing cancels costs one remainder,
    and a term with k < e or c | D**(e-1) one exact division of each side
    as well. Only where a prime of D divides num at least as often as it
    divides B does a round divide out c and the next read den % c.
    """
    if not num:
        return Decimal(0), Decimal(1)
    modulus, size, below = block
    common = math.gcd(int(num % modulus), size)
    if common != 1 and den < modulus:
        common = math.gcd(common, int(den))
    while common != 1:
        num, den = num // common, den // common
        if not below % common:
            break
        common = math.gcd(int(num % modulus), size)
        common = math.gcd(common, int(den % common))
    return num, den


def _solve_at_one(
    spec: GameSpec,
) -> tuple[tuple[Fraction, ...], Fraction, tuple[Fraction, ...]]:
    """Win probabilities, E[T] and E[T | j] from two integer solves at s = 1.

    Row a of M(s) x = c(s) is scaled by D**len(a), which leaves x unchanged
    and makes M(1), M'(1), c(1) and c'(1) integer: `_entry_at_one` for M,
    (w_a, len(a) w_a) for the completion column. Dividing each pgf's
    numerator and denominator by det M gives g_j = x_j / (sum(x) + 1 - s), so
    win_j = x_j / sum(x), E[T] = 1 / sum(x) and

        E[T | j] = g_j'(1) / g_j(1) = x_j'/x_j - (sum(x') - 1) / sum(x),

    where x' = M(1)^-1 (c'(1) - M'(1) x); the slope of det M cancels. The
    first solve, of [M(1) | c(1)], gives d = det M(1) and N = d x. The second,
    of [M(1) | d c'(1) - M'(1) N], gives N2 = d**2 x'. It makes the same row
    swaps, so d carries the same sign in both.

    The solve fails only where M(1) is singular, and no route does better:
    det M / Q, the tail generating function, is E[T] >= 1 at s = 1, so
    det M(1) = E[T] Q(1) and Q(1) = 0 leaves no win probability either.
    """
    weights = _symbol_weights(spec.model)
    scale = spec.model.common_denominator
    powers = [scale**k for k in range(max(a.length for a in spec.patterns) + 1)]
    rows, slopes, completion_slopes = [], [], []
    for a in spec.patterns:
        values, slope_row = zip(*[_entry_at_one(a, b, weights, powers) for b in spec.patterns])
        weight = _completion_weight(a, weights)
        rows.append([*values, weight])
        slopes.append(slope_row)
        completion_slopes.append(a.length * weight)
    # M(1) again for the second solve, since `_cramer` overwrites `rows`
    second = [row[:-1] for row in rows]
    det_corr, solved = _cramer(rows)
    numerators = [n for n, in solved]
    for row, slope_row, w in zip(second, slopes, completion_slopes):
        row.append(det_corr * w - sum(map(operator.mul, slope_row, numerators)))
    _, solved = _cramer(second)
    slope_numerators = [n for n, in solved]
    total = sum(numerators)
    # d**2 (sum(x') - 1)
    slope_total = sum(slope_numerators) - det_corr * det_corr
    wins, conditionals = [], []
    for player, (n, n_slope) in enumerate(zip(numerators, slope_numerators), start=1):
        if n == 0:
            raise DegenerateGameError(f"player {player} has zero winning probability")
        wins.append(Fraction(n, total))
        conditionals.append(Fraction(n_slope * total - n * slope_total, det_corr * n * total))
    return tuple(wins), Fraction(det_corr, total), tuple(conditionals)


class GameSolution(Record):
    """All solved outputs of one game.

    The fields are the values at s = 1, from `solve_game`'s two integer
    solves of M(1); equality and repr rest on them. The generating functions
    come from a third integer solve, of [M | c] packed at u = 2**bits
    (`_solve_integer`), which runs when one of them is first read and is then
    cached. The win-time series need no solution: they are
    `game_distribution(spec, horizon)`.
    """

    _fields = ("spec", "win_probs", "expected_duration", "conditional_durations")
    spec: GameSpec
    win_probs: tuple[Fraction, ...]
    expected_duration: Fraction
    conditional_durations: tuple[Fraction, ...]

    @functools.cached_property
    def _integer_pgfs(self) -> tuple[int, list[IntPoly], IntPoly, IntPoly]:
        """D, the Cramer numerators, det M and the shared denominator in u = s/D."""
        return _solve_integer(self.spec)

    @functools.cached_property
    def pgfs(self) -> tuple[RationalFunction, ...]:
        """Per player: the generating function of P(that player wins at toss n)."""
        scale, numerators, _, denominator = self._integer_pgfs
        shared = _in_s(denominator, scale)
        return tuple(RationalFunction(_in_s(n, scale), shared) for n in numerators)

    @functools.cached_property
    def tail_gf(self) -> RationalFunction:
        """Generating function of P(game still running after n tosses).

        It is det M(s) over the shared pgf denominator; its value at 1 is the
        expected duration.
        """
        scale, _, det_corr, denominator = self._integer_pgfs
        return RationalFunction(_in_s(det_corr, scale), _in_s(denominator, scale))


def solve_game(spec: GameSpec) -> GameSolution:
    """Solve a validated game: win probabilities and durations now, pgfs when read."""
    return GameSolution(spec, *_solve_at_one(spec))


def _ranking(values: list[Fraction]) -> list[int]:
    """Indices of `values`, largest first; equal values keep their order.

    Each value n/d is keyed by the integer floor(n K / d), K the square of the
    largest denominator. Two different values differ by at least 1/K, so
    their keys differ in the same direction, and equal values get equal keys;
    no `Fraction` is compared. The sort is stable, in reverse too.
    """
    if not values:
        return []
    scale = max(value.denominator for value in values) ** 2
    keys = [value.numerator * scale // value.denominator for value in values]
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=True)


def _prefix_automaton(
    patterns: list[Pattern], symbols: tuple[str, ...]
) -> tuple[list[tuple[str, ...]], list[list[int]], list[bool]]:
    """The patterns' prefixes, their transitions and which of them are whole patterns.

    The successor of prefix q on symbol x is the longest suffix of q + x that
    is a prefix of some pattern. States are taken shortest first, so each
    state's failure link, the longest proper suffix of it that is a prefix,
    already has its row (Aho-Corasick). With no pattern, the empty prefix
    loops to itself. In a substring-free set a walk has completed a pattern
    exactly when it reaches that whole pattern.
    """
    prefixes: list[tuple[str, ...]] = [()]
    index = {(): 0}
    for pattern in patterns:
        for k in range(1, pattern.length + 1):
            prefix = pattern.symbols[:k]
            if prefix not in index:
                index[prefix] = len(prefixes)
                prefixes.append(prefix)
    transitions: list[list[int]] = [[]] * len(prefixes)
    links = [0] * len(prefixes)
    for state in sorted(range(len(prefixes)), key=lambda q: len(prefixes[q])):
        prefix, fallback = prefixes[state], transitions[links[state]]
        row = []
        for x, symbol in enumerate(symbols):
            target = index.get(prefix + (symbol,))
            if target is None:
                target = fallback[x] if prefix else 0
            else:
                links[target] = fallback[x] if prefix else 0
            row.append(target)
        transitions[state] = row
    whole = {pattern.symbols for pattern in patterns}
    return prefixes, transitions, [prefix in whole for prefix in prefixes]


def _response_scores(
    opponents: Iterable[Pattern], length: int, model: SourceModel
) -> Iterator[tuple[tuple[str, ...], int, int]]:
    """Every admissible pattern of `length` against the opponents, in alphabet
    order, as (symbols, N_new, total): the newcomer wins with probability
    N_new / total. Both are nonzero, and they carry one common sign.

    Each score is the generalised Conway formula at s = 1: with M(1) x = c(1),
    the newcomer wins with probability N_new / sum(N), N the Cramer
    numerators. Row a of the system is scaled by D**len(a), which makes it
    integer. With the opponents first, M = [[A, u], [v^T, alpha]] and
    c = (w_b, w_c): u is the candidate's column, v its row, alpha its
    autocorrelation and w_c its completion weight. One `_cramer` on
    [A | w_b | u per automaton state] gives d = det A, p = adj(A) w_b and
    every adj(A) u; then per candidate the bordered last step is

        det M = d alpha - v . adj(A) u,   N_new = d w_c - v . p,
        sum of the opponents' N = (det M sum(p) - sum(adj(A) u) N_new) / d.

    The candidates are the leaves of one depth-first walk over the symbol
    trie in alphabet order, the order of `itertools.product`. What depends on
    the candidate's prefix grows by one symbol per depth: v, the completion
    weight, and the KMP border table, whose chain gives alpha. What depends
    on its suffix comes from the opponents' prefix automaton
    (`_prefix_automaton`): u is a table per state, and a subtree is cut where
    the walk completes an opponent. An opponent contains the candidate when
    the candidate is in the table of the opponents' substrings.
    """
    if length < 1:
        raise ValidationError("response length must be at least 1")
    fixed = list(opponents)
    if fixed:
        validate_pattern_set(fixed, model)
    symbols = model.symbols
    prefixes, transitions, stops = _prefix_automaton(fixed, symbols)
    weights = _symbol_weights(model)
    top = max([length, *(a.length for a in fixed)])
    powers = [model.common_denominator**k for k in range(top + 1)]
    # [A | w_b | u per open state q], u the column of a candidate ending at q
    open_states = [q for q, stop in enumerate(stops) if not stop]
    suffixes = [Pattern(prefixes[q]) if prefixes[q] else None for q in open_states]
    rows = [
        [
            *(_entry_at_one(a, b, weights, powers)[0] for b in fixed),
            _completion_weight(a, weights),
            *(_entry_at_one(a, b, weights, powers)[0] if b else 0 for b in suffixes),
        ]
        for a in fixed
    ]
    # A singular A, the opponents' own M(1), is raised when the first candidate
    # is scored; with no admissible candidate nothing is yielded.
    failure: ArithmeticError | None = None
    try:
        # one elimination of A: d = det A, p = adj(A) w_b and adj(A) u per open state
        det_a, solved = _cramer(rows)
    except ArithmeticError as exc:
        failure, det_a, solved = exc, 0, []
    completion, *adjugate = [[row[c] for row in solved] for c in range(1 + len(open_states))]
    # per open state: adj(A) u and its sum
    columns: list[tuple[list[int], int] | None] = [None] * len(prefixes)
    for q, column in zip(open_states, adjugate):
        columns[q] = (column, sum(column))
    completion_total = sum(completion)

    # each substring of an opponent, with the opponents that end in it
    substrings: dict[tuple[str, ...], list[int]] = {}
    for j, b in enumerate(fixed):
        for start in range(b.length):
            for stop in range(start + 1, b.length + 1):
                ends = substrings.setdefault(b.symbols[start:stop], [])
                if stop == b.length:
                    ends.append(j)

    symbol_weights = [weights[s] for s in symbols]
    # per state: the (symbol index, successor) moves that complete no opponent
    moves = [[(x, target) for x, target in enumerate(row) if not stops[target]] for row in transitions]
    mul = operator.mul
    # indexed by depth t along the current path c:
    path = [0] * length  # the symbol index c[t]
    prefix_weight = [1] * (length + 1)  # D**t P(c[:t])
    self_entry = [0] * (length + 1)  # at_one(c[:t], c[:t]), summed over c[:t]'s borders
    # borders[t][x]: the longest proper border of c[:t] followed by symbol x
    borders = [[0] * len(symbols)] * (length + 1)

    # A frame is an inner node c[:depth] = `prefix` of the trie, at automaton
    # `state`. `inside` says whether `prefix` is a substring of an opponent.
    # `row` is v (at_one(c[:t], b) per opponent b) at the last depth t at which
    # c[:t] was one, and `row_weight` is D**t P(c[:t]). Past that depth no
    # prefix of c is a suffix of an opponent, so v only scales with the weight
    # of the symbols added. The node's own entries of the tables above (its
    # last symbol, weight, longest proper border and alpha) are written when it
    # is popped; the entries below `depth` are then its ancestors', since
    # every frame pushed after it is deeper in the trie. Leaves are scored
    # without a frame.
    stack = [(0, 0, (), [0] * len(fixed), 1, bool(fixed), 0, 1, 0, 0)]
    while stack:
        depth, state, prefix, row, row_weight, inside, last, weight, border, alpha = stack.pop()
        if depth:
            path[depth - 1] = last
            prefix_weight[depth] = weight
            self_entry[depth] = alpha
            node_borders = list(borders[border])
            node_borders[path[border]] = border + 1
            borders[depth] = node_borders
        weight_before = weight
        child = depth + 1
        power = powers[child]
        border_row = borders[depth]
        if child == length:
            # the same for every leaf of this frame: the weight that the symbols after
            # `row`'s depth add, but the leaf's own, and v . p
            frame_scale = weight_before // row_weight
            row_completion = sum(map(mul, row, completion))
        children = []
        for x, target in moves[state]:
            weight = weight_before * symbol_weights[x]
            border = border_row[x]
            alpha = power
            if border:
                # c[:child] = c[:child-border] + c[:border], so the symbols after
                # the border weigh as much as the first child - border
                alpha += prefix_weight[child - border] * self_entry[border]
            word = prefix + (symbols[x],)
            ends = substrings.get(word) if inside else None
            if child < length:
                if ends is None:
                    children.append((child, target, word, row, row_weight, False, x, weight, border, alpha))
                else:
                    # `prefix` is inside too, so `row` is its own v
                    child_row = [v * symbol_weights[x] for v in row]
                    for j in ends:
                        child_row[j] += power
                    children.append((child, target, word, child_row, weight, True, x, weight, border, alpha))
            elif ends is None:
                if failure is not None:
                    raise failure
                adjugate_column, column_total = columns[target]
                scale = frame_scale * symbol_weights[x]
                det = det_a * alpha - scale * sum(map(mul, row, adjugate_column))
                new = det_a * weight - scale * row_completion
                total = new + _divide_int(det * completion_total - column_total * new, det_a)
                if not (det and new and total):
                    raise DegenerateGameError(
                        f"candidate {Pattern(word)} makes the game degenerate at s = 1"
                    )
                yield word, new, total
        # popped last child first, so the walk keeps alphabet order
        stack.extend(reversed(children))


def response_table(
    opponents: Iterable[Pattern], length: int, model: SourceModel
) -> list[tuple[Pattern, Fraction]]:
    """All admissible patterns of `length`, ranked against the opponents.

    Sorted by win probability descending; ties keep alphabet-lexicographic
    order (the enumeration order), so the ranking is deterministic. The
    scores are `_response_scores`'.
    """
    table = [
        (Pattern(word), Fraction(new, total))
        for word, new, total in _response_scores(opponents, length, model)
    ]
    return [table[i] for i in _ranking([value for _, value in table])]


def best_response(
    opponents: Iterable[Pattern], length: int, model: SourceModel
) -> tuple[Pattern, Fraction]:
    """The admissible pattern of `length` maximizing the new player's win
    chance: `response_table(...)[0]`, without the table.

    A running best over `_response_scores`, compared exactly by
    cross-multiplication once each total is made positive. The strict `>`
    keeps the first of equal scores in alphabet order, as the table's stable
    ranking does. Only the winner becomes a `Pattern` and a `Fraction`.
    """
    best, best_new, best_total = None, 0, 1
    for word, new, total in _response_scores(opponents, length, model):
        if total < 0:
            new, total = -new, -total
        if best is None or new * best_total > best_new * total:
            best, best_new, best_total = word, new, total
    if best is None:
        raise ValidationError(
            f"no admissible pattern of length {length} against the given opponents"
        )
    return Pattern(best), Fraction(best_new, best_total)
