"""Ground truth for the tests and the benchmark, and the `simulate` command's simulator.

`Automaton` to `step_distribution` solve an exact absorbing chain on the pattern
prefixes, each move found by trying every suffix of prefix + symbol, by rational
Gaussian elimination. `kept_bounds` and `simulate` are a seeded Monte Carlo
simulator. Neither touches the correlation polynomials or the solver.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, compress

from .patterns import GameSpec, Record, SourceModel, ValidationError


class SingularSystemError(ArithmeticError):
    """Defensive: the absorbing-chain linear system had no unique solution."""


class InvariantError(ArithmeticError):
    """Defensive: a structural invariant of the automaton or simulator failed."""


class Automaton(Record):
    """Deterministic total automaton over pattern prefixes.

    State k is the prefix `prefixes[k]`; `transitions[k][a]` is the successor
    on alphabet symbol index a. A state whose prefix is a full pattern is
    absorbing (self-loops only) and `winner[k]` names the 0-based player.
    The game starts in state `start`, the empty prefix.
    """

    _fields = ("prefixes", "transitions", "winner", "start")
    prefixes: tuple[tuple[str, ...], ...]
    transitions: tuple[tuple[int, ...], ...]
    winner: tuple[int | None, ...]
    start: int

    @property
    def state_count(self) -> int:
        return len(self.prefixes)

    @property
    def absorbing(self) -> dict[int, int]:
        return {u: w for u, w in enumerate(self.winner) if w is not None}

    @property
    def player_count(self) -> int:
        return len(self.absorbing)


def build_automaton(spec: GameSpec) -> Automaton:
    """Prefix automaton of the pattern set.

    The successor of state u on symbol a is the longest suffix of u+a that is
    still a prefix of some pattern; substring-freeness guarantees that suffix
    is a full pattern exactly when some pattern completes on this toss, and
    that at most one pattern can complete at once.
    """
    prefixes: list[tuple[str, ...]] = [()]
    index: dict[tuple[str, ...], int] = {(): 0}
    for pattern in spec.patterns:
        for k in range(1, pattern.length + 1):
            prefix = pattern.symbols[:k]
            if prefix not in index:
                index[prefix] = len(prefixes)
                prefixes.append(prefix)
    terminal_player = {p.symbols: i for i, p in enumerate(spec.patterns)}
    winner = tuple(terminal_player.get(prefix) for prefix in prefixes)

    transitions: list[tuple[int, ...]] = []
    for state, prefix in enumerate(prefixes):
        if winner[state] is not None:
            transitions.append(tuple(state for _ in spec.model.symbols))
            continue
        row = []
        for symbol in spec.model.symbols:
            extended = prefix + (symbol,)
            for cut in range(len(extended) + 1):
                dest = index.get(extended[cut:])
                if dest is not None:
                    break
            row.append(dest)
        transitions.append(tuple(row))

    automaton = Automaton(tuple(prefixes), tuple(transitions), winner, 0)
    # Structural invariants: total, one terminal per pattern, terminals self-loop.
    if not (
        all(len(row) == len(spec.model.symbols) for row in automaton.transitions)
        and sorted(automaton.absorbing.values()) == list(range(spec.player_count))
        and all(all(t == u for t in automaton.transitions[u]) for u in automaton.absorbing)
        and automaton.winner[automaton.start] is None
    ):
        raise InvariantError("prefix automaton is not total with one absorbing state per pattern")
    return automaton


def solve_linear_system(
    coeffs: Sequence[Sequence[Fraction]], rhs: Sequence[Sequence[Fraction]]
) -> list[list[Fraction]]:
    """Solve coeffs @ X = rhs exactly by Gauss-Jordan elimination.

    Pivots on the first nonzero entry in each column (exact arithmetic needs
    no magnitude-based pivoting). Raises SingularSystemError if singular.
    """
    n = len(coeffs)
    aug = [list(coeffs[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularSystemError("singular linear system")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        row = aug[col] = [value / inv for value in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], row)]
    return [r[n:] for r in aug]


def _transient_system(
    automaton: Automaton, model: SourceModel
) -> tuple[list[int], dict[int, int], list[list[Fraction]], list[list[Fraction]]]:
    """Transient states, their index map, the (I - T) matrix, and the
    transient-to-player one-step absorption probabilities."""
    transient = [u for u in range(automaton.state_count) if automaton.winner[u] is None]
    t_index = {u: i for i, u in enumerate(transient)}
    players = automaton.player_count
    size = len(transient)
    coeffs = [[Fraction(0)] * size for _ in range(size)]
    absorb = [[Fraction(0)] * players for _ in range(size)]
    for i, u in enumerate(transient):
        coeffs[i][i] += 1
        for p, dest in zip(model.probs, automaton.transitions[u]):
            target = automaton.winner[dest]
            if target is None:
                coeffs[i][t_index[dest]] -= p
            else:
                absorb[i][target] += p
    return transient, t_index, coeffs, absorb


def absorption_probabilities(automaton: Automaton, model: SourceModel) -> tuple[Fraction, ...]:
    """Exact probability, per player, of ending in that player's pattern."""
    transient, t_index, coeffs, absorb = _transient_system(automaton, model)
    solution = solve_linear_system(coeffs, absorb)
    return tuple(solution[t_index[automaton.start]])


def expected_absorption_time(automaton: Automaton, model: SourceModel) -> Fraction:
    """Exact expected number of steps from the start state to absorption."""
    _, t_index, coeffs, _ = _transient_system(automaton, model)
    ones = [[Fraction(1)] for _ in coeffs]
    solution = solve_linear_system(coeffs, ones)
    return solution[t_index[automaton.start]][0]


def conditional_absorption_times(
    automaton: Automaton, model: SourceModel
) -> tuple[Fraction, ...]:
    """E[steps to absorption | absorbed by player i], per player, exact.

    With x the per-state absorption probabilities, y_u = sum_a P(a) * (x_dest +
    y_dest) accumulates E[steps * indicator], so (I - T) y = x and the answer
    is y_start / x_start.
    """
    transient, t_index, coeffs, absorb = _transient_system(automaton, model)
    x = solve_linear_system(coeffs, absorb)
    y = solve_linear_system(coeffs, x)
    start = t_index[automaton.start]
    out = []
    for player in range(automaton.player_count):
        if x[start][player] == 0:
            raise ArithmeticError(f"player {player + 1} has zero absorption probability")
        out.append(y[start][player] / x[start][player])
    return tuple(out)


def step_distribution(
    automaton: Automaton, model: SourceModel, horizon: int
) -> list[list[Fraction]]:
    """Exact P(absorbed by player i exactly at step k), k = 0..horizon.

    Pushes the state-occupancy vector forward one toss at a time; mass entering
    a terminal state is recorded for that step and removed from circulation.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    states = automaton.state_count
    grid = [[Fraction(0)] * (horizon + 1) for _ in range(automaton.player_count)]
    current = [Fraction(0)] * states
    current[automaton.start] = Fraction(1)
    for step in range(1, horizon + 1):
        nxt = [Fraction(0)] * states
        for u, mass in enumerate(current):
            if mass == 0:
                continue
            for p, dest in zip(model.probs, automaton.transitions[u]):
                nxt[dest] += mass * p
        for u, player in automaton.absorbing.items():
            if nxt[u]:
                grid[player][step] = nxt[u]
                nxt[u] = Fraction(0)
        current = nxt
    return grid


class SimulationReport(Record):
    """Outcome counts of a seeded simulation run."""

    _fields = ("trials", "wins", "total_tosses", "seed")
    trials: int
    wins: tuple[int, ...]
    total_tosses: int
    seed: int

    def __init__(self, *values) -> None:
        super().__init__(*values)
        if sum(self.wins) != self.trials:
            raise InvariantError(f"{sum(self.wins)} wins recorded for {self.trials} trials")

    @property
    def empirical_probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.trials) for w in self.wins)

    @property
    def mean_tosses(self) -> Fraction:
        return Fraction(self.total_tosses, self.trials)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """splitmix64 output function."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# Draws come in blocks of _LANES, all packed into one int, one lane per draw.
# A lane of `_lane_width(D)` bytes holds the largest product the kernel forms,
# so no lane carries into the next, and after each of splitmix64's right
# shifts, by at most 31 bits, the next lane's bits land above bit 64, where the
# mask drops them, so whole-int arithmetic acts on every lane at once.
_LANES = 4096


def _fraction_bits(common: int) -> int:
    """k, the least multiple of 8 with k >= 64 + D.bit_length() for D =
    `common`: the fraction bits of the product that classifies each toss."""
    return (64 + common.bit_length() + 7) // 8 * 8


def _lane_width(common: int) -> int:
    """The fewest whole bytes that hold max(65 + k - D.bit_length(), k + 32)
    bits for D = `common` and k = `_fraction_bits(D)`: room for the product
    z * ceil(2**k / D) < 2**(65 + k - D.bit_length()) of a 64-bit draw z, and
    for a 32-bit code at bit k. 17 bytes for every D < 2**40, 20 at
    D = 2**63 + 1 and 2**64 - 1, 21 at D = 2**64."""
    fraction = _fraction_bits(common)
    return (max(65 + fraction - common.bit_length(), fraction + 32) + 7) // 8


@functools.cache
def _lane_constants(width: int) -> tuple[int, int, int]:
    """For `width`-byte lanes: a 1 in every lane, 2**64 - 1 in every lane, and
    (i + 1) * gamma mod 2**64 in lane i: the splitmix64 counters of a block,
    less the state."""
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * _LANES, "little")
    counters = b"".join(
        ((i + 1) * _GAMMA & _MASK64).to_bytes(width, "little") for i in range(_LANES)
    )
    return ones, ones * _MASK64, int.from_bytes(counters, "little")


def _lane_bytes(value: int, width: int, start: int, size: int = 1) -> bytearray:
    """Bytes `start` to `start` + `size` of every `width`-byte lane, lane 0
    first."""
    lanes = value.to_bytes(_LANES * width, "little")
    units = bytearray(size * _LANES)
    for j in range(size):
        units[j::size] = lanes[start + j :: width]
    return units


def _toss_blocks(state: int, common: int, bounds: Sequence[int]) -> Iterator[str]:
    """The accepted tosses of the stream that starts at `state`, `_LANES`
    draws at a time, as one string per block with one character per toss:
    the character whose code point is the number of the cumulative bounds
    `bounds`, on the scale of D = `common`, that the toss's residue
    z mod D reaches.

    Draw i of the stream is mix64(state + (i + 1) * gamma), so a block of
    counters is one add away from the last. Every lane is masked to 64 bits
    before each multiply, so no product carries into the next lane. A draw
    z is rejected when z + (2**64 mod D) carries past 64 bits; one add and
    one AND tell whether a block has any such lane, and a power-of-two D,
    with 2**64 mod D = 0, rejects none and skips them.

    The residue r = z mod D itself is never formed (Lemire, Kaser & Kurz
    2019). With k = `_fraction_bits(D)` and M = ceil(2**k / D), write
    z = qD + r and z * M = q * 2**k + r * 2**k / D + z * e, 0 <= e < 1. As
    2**k / D > 2**64 > z * e, the fraction bits F = z * M mod 2**k lie in
    [r * 2**k / D, (r + 1) * 2**k / D), so r >= b exactly when
    F >= ceil(b * 2**k / D), and each bound is found as the carry of
    F + 2**k - ceil(b * 2**k / D) at bit k.

    A toss is read from bit k of its lane: byte k/8 as Latin-1 up to 256
    codes, and bytes k/8 to k/8 + 3 as UTF-32-LE, surrogates passed, above
    that. UTF-16 would read a high and a low surrogate, two tosses, as one
    character. A code past U+10FFFF would need over 1.1M kept bounds, whose
    `complements` alone, about 70 KB each, could not be held.
    """
    lane = _lane_width(common)
    ones, mask, counters = _lane_constants(lane)
    fraction = _fraction_bits(common)
    first, *rest = [
        ((1 << fraction) + (-bound << fraction) // common) * ones for bound in bounds
    ]
    multiplier = -((-1 << fraction) // common)
    low = ones * ((1 << fraction) - 1)
    tops = ones << fraction
    carry = ones << 64
    step = (_LANES * _GAMMA & _MASK64) * ones
    reject = (1 << 64) % common * ones
    size, encoding = (4, "utf-32-le") if len(bounds) >= 256 else (1, "latin-1")
    x = (counters + state * ones) & mask
    while True:
        z = ((x ^ x >> 30) & mask) * _MIX1 & mask
        z = ((z ^ z >> 27) & mask) * _MIX2 & mask
        z = (z ^ z >> 31) & mask
        x = (x + step) & mask
        f = z * multiplier & low
        # the code sits at bit k of each lane, where the carries land
        code = (f + first) & tops
        for complement in rest:
            code += (f + complement) & tops
        tosses = _lane_bytes(code, lane, fraction // 8, size).decode(encoding, "surrogatepass")
        if reject:
            rejected = (z + reject) & carry
            if rejected:
                tosses = "".join(compress(tosses, _lane_bytes(rejected ^ carry, lane, 8)))
        yield tosses


def _play_stream(
    blocks: Iterator[str],
    games: int,
    finder: re.Pattern,
    players: dict[str, int],
    keep: int,
    wins: list[int],
) -> int:
    """Play `games` games on the stream's tosses; count each winner in `wins`
    and return the tosses played. `finder` is one group around the
    alternation of the patterns, each written as the characters of its
    tosses, and `players` maps each such string to its player.

    In a substring-free set the pattern occurrence that starts first also
    ends first, and no other starts there, so each leftmost match of the
    alternation is one game, and the next game starts at its end. One split
    of a block yields its games' matches at the odd places and stops at the
    last game asked for; the text after the last match is the last part.
    Matches inside the scanned text are final: an occurrence that runs past
    its end ends later. Of an unfinished game only the last `keep` tosses
    can still begin a match, so only they are carried into the next block.
    """
    played = 0
    pending = ""
    while True:
        text = pending + next(blocks)
        parts = finder.split(text, games)
        matches = parts[1::2]
        for encoded, count in Counter(matches).items():
            wins[players[encoded]] += count
        end = len(text) - len(parts[-1])
        games -= len(matches)
        if not games:
            return played + end
        cut = max(end, len(text) - keep)
        played += cut
        pending = text[cut:]


def kept_bounds(spec: GameSpec) -> list[int]:
    """The interval ends the simulator tests each toss against: the index i
    of every cumulative bound between symbols i and i + 1, the last bound
    excepted, where symbol i or i + 1 is one that some pattern uses.

    A toss's code is the number of kept bounds its residue reaches, so every
    such symbol has a code of its own, and a run of other symbols shares one.
    Each kept bound costs a whole-int add and AND per block of draws. A
    common denominator D above 2**64 is refused: no 64-bit draw can split it.
    """
    model = spec.model
    common = model.common_denominator
    if common > 1 << 64:
        raise ValidationError(
            f"the probabilities' common denominator {common} is above 2^64, "
            "more than a 64-bit draw can split exactly"
        )
    used = {model.index(s) for p in spec.patterns for s in p.symbols}
    return [i for i in range(len(model.symbols) - 1) if i in used or i + 1 in used]


def simulate(spec: GameSpec, trials: int, seed: int = 0) -> SimulationReport:
    """Play `trials` games to completion with a deterministic seeded generator.

    Symbols are drawn by exact integer-interval inversion: each probability is
    scaled to the common denominator D, and each 64-bit splitmix64 draw z is
    placed among the cumulative bounds by its residue z mod D, read from the
    fraction bits of one product without being formed. The top sliver of the
    64-bit range is rejected so rational biases like 1/3 carry no modulo
    bias; D may be at most 2**64 (`kept_bounds`). The games are played one
    after another on one splitmix64 stream, whose state starts at the first
    splitmix64 output from `seed`, so the report is bit-identical for a fixed
    seed. Draws are made a block at a time as whole-int lane arithmetic, each
    toss one character of a string (`_toss_blocks`), and games are found by
    one regular-expression split of each block's string (`_play_stream`); the
    counts are those of playing toss by toss on the prefix automaton.
    """
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    kept = kept_bounds(spec)
    model = spec.model
    common = model.common_denominator
    bounds = list(accumulate(int(p * common) for p in model.probs))
    if bounds[-1] != common:
        raise InvariantError("scaled symbol probabilities do not sum to the common denominator")

    encodings = [
        "".join(chr(bisect_left(kept, model.index(s))) for s in p.symbols)
        for p in spec.patterns
    ]
    finder = re.compile("(" + "|".join(map(re.escape, encodings)) + ")")
    players = {encoded: i for i, encoded in enumerate(encodings)}
    keep = max(p.length for p in spec.patterns) - 1
    wins = [0] * spec.player_count
    state = _mix64((seed + _GAMMA) & _MASK64)
    blocks = _toss_blocks(state, common, [bounds[i] for i in kept])
    total_tosses = _play_stream(blocks, trials, finder, players, keep, wins)
    return SimulationReport(trials, tuple(wins), total_tosses, seed)
