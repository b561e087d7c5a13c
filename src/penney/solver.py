"""Win probabilities, per-player generating functions, and waiting times.

The machinery: every ordered pattern pair gets a correlation polynomial that
records where a prefix of one pattern can sit on a suffix of the other,
weighted by the probability of the symbols still needed. Arranging these into
an m-by-m matrix and applying Cramer's rule yields each player's probability
generating function

    g_i(s) = det M_i(s) / (sum_j det M_j(s) + (1 - s) * det M(s)),

where M(s) is the correlation matrix and M_j replaces column j by the
completion monomials P(A_i) * s^len(A_i).

Every route reads the entries of M from one overlap table, `_correlations`,
one dict lookup per pattern symbol. The values and the generating functions
come from one elimination, `_cramer`: a fraction-free Gauss-Jordan pass on an
integer [M | B] with row swaps and any number of right-hand columns B. The
win-time series need none.

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
n has. Where that factor is D**j, the reduced denominator is the object
D**(k-j) of the one table of powers the recurrence builds, so with D prime
the N + 1 powers are every denominator there is, and the CLI prints each
once. They are exact `Decimal`s in a context that raises rather than
rounds, because they print in linear time where `int` printing is quadratic
in CPython.

The generating functions themselves are a third solve, which no value and
no series needs (`game_pgfs`). The substitution u = s/D turns M and the
completion column into integer polynomials. Kronecker substitution evaluates
each at u = 2**bits, with bits past a bound on every coefficient the solve
can produce, so one integer `_cramer` yields det M and every Cramer numerator
together, read back as balanced base-2**bits digits (`_unpack`).

Best responses need only the values: `_response_scores` scores each candidate
by the generalised Conway formula, the ratio of two Cramer numerators of its
game's M(1) x = c(1) over Z. Only the candidate's own row, column and
autocorrelation change from one candidate to the next, so one `_cramer`
eliminates the opponents' block per request, and each candidate, a leaf of
one depth-first walk over the symbol trie, costs the bordered last step,
taken in place by the leaf's parent. `best_response` keeps only a running
best, compared exactly by cross-multiplying the integer scores, and builds
one `Pattern` and one `Fraction`; `response_table` keeps every row and ranks
them by exact integer keys rather than `Fraction` comparisons.
"""

from __future__ import annotations

import decimal
import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from decimal import Decimal
from fractions import Fraction

from .patterns import GameSpec, Pattern, Record, SourceModel, ValidationError, delimited
from .patterns import validate_pattern_set
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


def _completion_weight(word: tuple[str, ...], weights: dict[str, int]) -> int:
    """D**len(word) P(word): the completion monomial's coefficient in u = s/D."""
    return math.prod(map(weights.__getitem__, word))


def _correlations(
    heads: list[tuple[str, ...]], tails: list[tuple[str, ...]], weights: dict[str, int]
) -> list[list[tuple[int, int, int]]]:
    """Per head a, every (j, k, w) with k >= 1 and a[:k] == tails[j][-k:], in
    tail order and then by k; w = D**(len(a)-k) P(a[k:]) is the coefficient of
    u**(len(a)-k) in the correlation of a against tails[j] in u = s/D, and
    every other coefficient is 0. Every prefix of every head goes in one dict,
    and each suffix of each tail is looked up once; neither list need be
    substring-free, and the tails need not be heads.
    """
    index: dict[tuple[str, ...], list[tuple[int, int]]] = {}
    for i, a in enumerate(heads):
        rest = 1
        for k in range(len(a), 0, -1):
            index.setdefault(a[:k], []).append((i, rest))
            rest *= weights[a[k - 1]]
    table: list[list[tuple[int, int, int]]] = [[] for _ in heads]
    for j, b in enumerate(tails):
        for k in range(1, len(b) + 1):
            for i, w in index.get(b[-k:], ()):
                table[i].append((j, k, w))
    return table


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


def game_pgfs(spec: GameSpec) -> tuple[tuple[RationalFunction, ...], RationalFunction]:
    """Per player the generating function of P(that player wins at toss n),
    and the tail generating function f of P(game still running after n
    tosses), whose value at 1 is E[T]. All share one denominator Q; f is
    det M over it.

    Kronecker substitution: every entry of [M(u) | c(u)], u = s/D, is
    evaluated at u = 2**bits, one integer `_cramer` runs, and each result is
    read back by `_unpack`. Evaluation is a ring map, so the packed results
    are the polynomial ones evaluated, and they read back exactly while every
    coefficient is below 2**(bits-1) in absolute value; a nonzero pivot then
    packs to a nonzero integer, so the row swaps are the same too. Every
    coefficient of [M | c] is nonnegative, so on |u| = 1 each entry e_ij is at
    most its L1 norm, its value at u = 1. A coefficient is at most its
    polynomial's maximum modulus there (Cauchy), and a determinant at most the
    product of its rows' 2-norms (Hadamard): no coefficient of det M or an N
    exceeds H = prod_i sqrt(sum_j L1(e_ij)**2). Every row's 2-norm is at least
    1, from M's diagonal, so H bounds every minor, which every entry of the
    elimination is, and Q = sum(N) + (1 - D u) det M is at most (m + 1 + D) H.
    """
    scale = spec.model.common_denominator
    weights = _symbol_weights(spec.model)
    words = [a.symbols for a in spec.patterns]
    table = _correlations(words, words, weights)
    completions = [_completion_weight(a, weights) for a in words]
    norms = [[0] * len(words) + [w] for w in completions]
    for row, overlaps in zip(norms, table):
        for j, _, c in overlaps:
            row[j] += c
    hadamard = math.isqrt(math.prod(sum(e * e for e in row) for row in norms)) + 1
    bits = ((len(words) + 1 + scale) * hadamard).bit_length() + 2
    rows = []
    for a, w, overlaps in zip(words, completions, table):
        # coefficient c of u**t packs to c << bits*t
        row = [0] * len(words) + [w << bits * len(a)]
        for j, k, c in overlaps:
            row[j] += c << bits * (len(a) - k)
        rows.append(row)
    packed_det, solved = _cramer(rows)
    packed = [n for n, in solved]
    # Q = sum_j N_j + (1 - s) det M, with s = D*u and u = 2**bits
    denominator = sum(packed) + packed_det - (scale * packed_det << bits)
    det_corr = _unpack(packed_det, bits)
    if not det_corr or det_corr[0] != 1:
        raise DegenerateGameError("det M is not 1 at the origin; the matrix is not I at 0")
    shared = _in_s(_unpack(denominator, bits), scale)
    pgfs = tuple(RationalFunction(_in_s(_unpack(n, bits), scale), shared) for n in packed)
    return pgfs, RationalFunction(_in_s(det_corr, scale), shared)


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

    with w_i = `_completion_weight(A_i)` and C_ij[t] the correlation of A_i
    against A_j in u = s/D, the weight that `_correlations` gives their
    overlap of length len(A_i) - t. Every term is an integer, so nothing is
    divided. n and d are exact integers held as Decimals, computed in
    `_EXACT` whatever the caller's context, so that printing them takes time
    linear in their digits and is not bound by Python's int-to-str digit
    limit. Only the spec is read; nothing is solved.
    """
    if horizon < 0:
        raise ValidationError("horizon must be nonnegative")
    weights = _symbol_weights(spec.model)
    scale = spec.model.common_denominator
    # entry pad + k is toss k; the pad of zeros stands for the tosses before 0
    words = [a.symbols for a in spec.patterns]
    pad = max(map(len, words))
    with decimal.localcontext(_EXACT):
        zero, base = Decimal(0), Decimal(scale)
        wins = [[zero] * (pad + 1) for _ in spec.patterns]
        tail = [zero] * pad + [Decimal(1)]
        players = []
        for a, own, overlaps in zip(words, wins, _correlations(words, words, weights)):
            terms = [(wins[j], len(a) - k, Decimal(c)) for j, k, c in overlaps if k < len(a)]
            players.append((own, len(a), Decimal(_completion_weight(a, weights)), terms))
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
        return [
            [_lowest_terms(n, k, powers, block) for k, n in enumerate(row[pad:])] for row in wins
        ]


def _reduction_block(scale: int) -> tuple[Decimal, Decimal, int, int, dict[int, int], dict]:
    """(D and B = D**e as Decimals, B, D**(e-1), {D**j: j for 0 < j <= e},
    and an empty dict) for `_lowest_terms`: B is the largest power of
    D = `scale` at or below 2**63, or D itself if D is larger than that.

    At or below 2**63, B fits one 64-bit word and one 19-digit word of a
    Decimal, so a remainder by it is one short division over the digits.
    The last dict is for one `game_distribution` call: `_lowest_terms` fills
    it with whether each residue mod D it meets is prime to D.
    """
    block, below, exponents = scale, 1, {scale: 1}
    while block * scale <= 1 << 63:
        block, below = block * scale, block
        exponents[block] = len(exponents) + 1
    return Decimal(scale), Decimal(block), block, below, exponents, {}


def _lowest_terms(
    num: Decimal, k: int, powers: list[Decimal], block: tuple
) -> tuple[Decimal, Decimal]:
    """num / D**k in lowest terms, with powers[j] = D**j for j <= k and
    block = `_reduction_block(D)`; run inside `_EXACT`. Where the
    denominator is a power of D, it is that object of `powers`.

    Every prime of D**k divides D, so the common factor g of num and D**k has
    its primes in B = D**e, and c = gcd(num mod B, B, D**k) divides g. When
    c divides D**(e-1), c is all of g: for each prime p of D,
    v_p(c) <= (e-1) v_p(D) < v_p(B), so v_p(c) = min(v_p(num), v_p(D**k)).
    That holds for any denominator whose primes divide D.

    So one remainder of num by B decides most terms. Nothing cancels where
    (num mod B) mod D is prime to D, which is looked up by that residue, and
    the term is (num, powers[k]). Where c is D**j with j < e, g is c: one
    exact division gives the numerator, and the denominator is
    powers[k - j]. Where c is B, B is divided out and the next remainder
    reads the rest. If g is D**t, every c on the way is a power of D: g
    itself where k < e, D**t where t < e <= k, and B where t >= e. So every
    denominator that is a power of D is one of `powers`, and with D prime
    every denominator is.

    Any other c, such as D = 6 with only 2s cancelling, takes the general
    rounds, each one remainder of num by B. Only where a prime of D divides
    num at least as often as it divides B does a round divide out c and the
    next read den % c.
    """
    if not num:
        return Decimal(0), powers[0]
    base, modulus, size, below, exponents, units = block
    rest = num % modulus
    residue = rest % base
    unit = units.get(residue)
    if unit is None:
        unit = units[residue] = math.gcd(int(residue), size) == 1
    if unit:
        return num, powers[k]
    while True:
        common = math.gcd(int(rest), size)
        if powers[k] < modulus:
            # D**k divides B: gcd(num mod B, D**k) is g itself
            common = math.gcd(common, int(powers[k]))
        j = exponents.get(common)
        if j is None:
            break
        num, k = num // powers[j], k - j
        if common != size:
            return num, powers[k]
        rest = num % modulus
    den = powers[k]
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
    and makes M(1), M'(1), c(1) and c'(1) integer: each overlap (k, w) of
    `_correlations` adds w D**k to M(1) and (len(a) - k) w D**k to M'(1), and
    the completion column is (w_a, len(a) w_a). Dividing each pgf's
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
    words = [a.symbols for a in spec.patterns]
    powers = [scale**k for k in range(max(map(len, words)) + 1)]
    rows, slopes, completion_slopes = [], [], []
    for a, overlaps in zip(words, _correlations(words, words, weights)):
        size, weight = len(a), _completion_weight(a, weights)
        row, slope_row = [0] * len(words) + [weight], [0] * len(words)
        # coefficient c of u**(size-k) is c D**k at s = 1, times D**size
        for j, k, c in overlaps:
            term = c * powers[k]
            row[j] += term
            slope_row[j] += (size - k) * term
        rows.append(row)
        slopes.append(slope_row)
        completion_slopes.append(size * weight)
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
    """The values of one game at s = 1, from `solve_game`'s two integer
    solves of M(1). The generating functions are `game_pgfs(spec)` and the
    win-time series `game_distribution(spec, horizon)`.
    """

    _fields = ("spec", "win_probs", "expected_duration", "conditional_durations")
    spec: GameSpec
    win_probs: tuple[Fraction, ...]
    expected_duration: Fraction
    conditional_durations: tuple[Fraction, ...]


def solve_game(spec: GameSpec) -> GameSolution:
    """Solve a validated game: win probabilities and durations; the pgfs are `game_pgfs`."""
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
) -> Iterator[tuple[str, int, int]]:
    """Every admissible pattern of `length` against the opponents, in alphabet
    order, as (its `delimited` text, N_new, total): the newcomer wins with
    probability N_new / total. Both are nonzero, and they carry one sign.

    Each score is the generalised Conway formula at s = 1: with M(1) x = c(1),
    the newcomer wins with probability N_new / sum(N), N the Cramer
    numerators. Row a of the system is scaled by D**len(a), which makes it
    integer. With the opponents first, M = [[A, u], [v^T, alpha]] and
    c = (w_b, w_c): u is the candidate's column, v its row, alpha its
    autocorrelation and w_c its completion weight. One `_cramer` on
    [A | w_b | u per automaton state] gives d = det A, p = adj(A) w_b and
    every adj(A) u; A and every u come from one `_correlations` call, with
    the opponents as heads and the opponents and the states as tails. Then
    per candidate the bordered last step is

        det M = d alpha - v . adj(A) u,   N_new = d w_c - v . p,
        sum of the opponents' N = (det M sum(p) - sum(adj(A) u) N_new) / d.

    The candidates are the leaves of one depth-first walk over the symbol
    trie in alphabet order, the order of `itertools.product`. What depends on
    the candidate's prefix grows by one symbol per depth: v, the completion
    weight, and the KMP border table, whose chain gives alpha. What depends
    on its suffix comes from the opponents' prefix automaton
    (`_prefix_automaton`): u is a table per state, and a subtree is cut where
    the walk completes an opponent. A word, carried as its `delimited` text,
    lies inside an opponent where it occurs in the opponents' texts joined by
    "\n", and ends each opponent whose text ends with it.
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
    # [A | w_b | u per open state q], u the column of a candidate ending at q;
    # the empty tail, which overlaps nothing, holds w_b's column
    open_states = [q for q, stop in enumerate(stops) if not stop]
    heads = [a.symbols for a in fixed]
    tails = [*heads, (), *(prefixes[q] for q in open_states)]
    rows = []
    for a, overlaps in zip(heads, _correlations(heads, tails, weights)):
        row = [0] * len(tails)
        row[len(heads)] = _completion_weight(a, weights)
        for j, k, c in overlaps:
            row[j] += c * powers[k]
        rows.append(row)
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

    texts = [delimited(b) for b in heads]
    haystack = "\n".join(texts)
    # per state: the moves that complete no opponent, each as (symbol index,
    # successor, symbol weight, the text the symbol appends)
    moves = [
        [
            (x, target, weights[symbols[x]], symbols[x] + ",")
            for x, target in enumerate(row)
            if not stops[target]
        ]
        for row in transitions
    ]
    mul = operator.mul
    # indexed by depth t along the current path c:
    path = [0] * length  # the symbol index c[t]
    prefix_weight = [1] * (length + 1)  # D**t P(c[:t])
    self_entry = [0] * (length + 1)  # at_one(c[:t], c[:t]), summed over c[:t]'s borders
    # borders[t][x]: the longest proper border of c[:t] followed by symbol x
    borders = [[0] * len(symbols)] * (length + 1)
    leaf_depth = length - 1

    # A frame is an inner node c[:depth] = `prefix` of the trie, at automaton
    # `state`; `prefix` is its delimited text, and `inside` says whether that
    # text occurs in an opponent's.
    # `row` is v (at_one(c[:t], b) per opponent b) at the last depth t at which
    # c[:t] was one, and `row_weight` is D**t P(c[:t]). Past that depth no
    # prefix of c is a suffix of an opponent, so v only scales with the weight
    # of the symbols added. The node's own entries of the tables above (its
    # last symbol, weight, longest proper border and alpha) are written when it
    # is popped; the entries below `depth` are then its ancestors', since
    # every frame pushed after it is deeper in the trie.
    #
    # A frame at `leaf_depth`, whose children are the leaves, pushes nothing
    # and writes no border row: each leaf reads its longest border from the
    # parent's row, c[:border] followed by the leaf's symbol x, where that row
    # differs from the frame's own only at x = c[border]. What every leaf of
    # the frame shares is computed once: the weight that the symbols after
    # `row`'s depth add, but the leaf's own, and the factor of which each
    # leaf's N_new is the multiple by its symbol weight.
    stack = [(0, 0, delimited(()), [0] * len(fixed), 1, bool(fixed), 0, 1, 0, 0)]
    while stack:
        depth, state, prefix, row, row_weight, inside, last, weight, border, alpha = stack.pop()
        if depth:
            path[depth - 1] = last
            prefix_weight[depth] = weight
            self_entry[depth] = alpha
        child = depth + 1
        power = powers[child]
        if depth < leaf_depth:
            border_row = borders[0]
            if depth:
                border_row = list(borders[border])
                border_row[path[border]] = border + 1
                borders[depth] = border_row
            weight_before = weight
            children = []
            for x, target, symbol_weight, symbol in moves[state]:
                weight = weight_before * symbol_weight
                border = border_row[x]
                alpha = power
                if border:
                    # c[:child] = c[:child-border] + c[:border], so the symbols after
                    # the border weigh as much as the first child - border
                    alpha += prefix_weight[child - border] * self_entry[border]
                word = prefix + symbol
                if inside and word in haystack:
                    # `prefix` is inside too, so `row` is its own v
                    child_row = [v * symbol_weight for v in row]
                    for j, text in enumerate(texts):
                        if text.endswith(word):
                            child_row[j] += power
                    children.append((child, target, word, child_row, weight, True, x, weight, border, alpha))
                else:
                    children.append((child, target, word, row, row_weight, False, x, weight, border, alpha))
            # popped last child first, so the walk keeps alphabet order
            stack.extend(reversed(children))
            continue
        # a leaf's border is border + 1 where its symbol is c[border], the
        # parent's row otherwise; the root, the leaf frame when length is 1, has none
        parent_row = borders[border]
        hit = path[border] if depth else -1
        frame_scale = weight // row_weight
        factor = det_a * weight - frame_scale * sum(map(mul, row, completion))
        for x, target, symbol_weight, symbol in moves[state]:
            word = prefix + symbol
            if inside and word in haystack:
                continue
            if failure is not None:
                raise failure
            leaf_border = border + 1 if x == hit else parent_row[x]
            alpha = power
            if leaf_border:
                alpha += prefix_weight[child - leaf_border] * self_entry[leaf_border]
            adjugate_column, column_total = columns[target]
            det = det_a * alpha - frame_scale * symbol_weight * sum(map(mul, row, adjugate_column))
            new = factor * symbol_weight
            # the sum of the opponents' N, an exact quotient
            rest, remainder = divmod(det * completion_total - column_total * new, det_a)
            if remainder:
                raise ArithmeticError("bordered step is not divisible by det A")
            total = new + rest
            if not (det and new and total):
                raise DegenerateGameError(
                    f"candidate {Pattern(word[1:-1].split(','))} makes the game degenerate at s = 1"
                )
            yield word, new, total


def response_table(
    opponents: Iterable[Pattern], length: int, model: SourceModel
) -> list[tuple[Pattern, Fraction]]:
    """All admissible patterns of `length`, ranked against the opponents.

    Sorted by win probability descending; ties keep alphabet-lexicographic
    order (the enumeration order), so the ranking is deterministic. The
    scores are `_response_scores`'.
    """
    table = [
        (Pattern(word[1:-1].split(",")), Fraction(new, total))
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
    return Pattern(best[1:-1].split(",")), Fraction(best_new, best_total)
