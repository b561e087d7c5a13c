"""Independent ground truth for the analytic solver.

Two completely separate routes to the same numbers: an exact absorbing-chain
analysis on the pattern-prefix automaton (Aho-Corasick construction, rational
Gaussian elimination), and a seeded Monte Carlo simulator. Neither touches the
correlation-polynomial machinery; they share only the pattern and model types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .patterns import GameSpec, SourceModel, ValidationError


class SingularSystemError(ArithmeticError):
    """Defensive: the absorbing-chain linear system had no unique solution."""


class InvariantError(ArithmeticError):
    """Defensive: a structural invariant of the automaton or simulator failed."""


@dataclass(frozen=True)
class Automaton:
    """Deterministic total automaton over pattern prefixes.

    State k is the prefix `prefixes[k]`; `transitions[k][a]` is the successor
    on alphabet symbol index a. A state whose prefix is a full pattern is
    absorbing (self-loops only) and `winner[k]` names the 0-based player.
    """

    prefixes: tuple[tuple[str, ...], ...]
    transitions: tuple[tuple[int, ...], ...]
    winner: tuple[Optional[int], ...]
    start: int = 0

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

    automaton = Automaton(tuple(prefixes), tuple(transitions), winner)
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


@dataclass(frozen=True)
class SimulationReport:
    """Outcome counts of a seeded simulation run."""

    trials: int
    wins: tuple[int, ...]
    total_tosses: int
    seed: int
    streams: int
    empirical_probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if sum(self.wins) != self.trials:
            raise InvariantError(f"{sum(self.wins)} wins recorded for {self.trials} trials")

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


def _stream_states(seed: int, streams: int) -> list[int]:
    """Initial state of stream k is the (k+1)-th splitmix64 output from `seed`,
    so a (seed, streams) pair pins every draw of every stream."""
    master = seed & _MASK64
    states = []
    for _ in range(streams):
        master = (master + _GAMMA) & _MASK64
        states.append(_mix64(master))
    return states


def simulate(spec: GameSpec, trials: int, seed: int = 0, streams: int = 1) -> SimulationReport:
    """Play `trials` games to completion with a deterministic seeded generator.

    Symbols are drawn by exact integer-interval inversion: each probability is
    scaled to the common denominator L and a 64-bit splitmix64 draw is reduced
    mod L, with rejection of the top sliver of the 64-bit range so rational
    biases like 1/3 carry no modulo bias. Trials are split into contiguous
    blocks across `streams` independent substreams, so the report is
    bit-identical for a fixed (seed, streams).
    """
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    if streams < 1:
        raise ValidationError("streams must be at least 1")
    automaton = build_automaton(spec)
    model = spec.model

    common = model.common_denominator
    bounds = list(accumulate(int(p * common) for p in model.probs))
    if bounds[-1] != common:
        raise InvariantError("scaled symbol probabilities do not sum to the common denominator")
    reject_from = (1 << 64) - ((1 << 64) % common)

    transitions = automaton.transitions
    winner = automaton.winner
    start = automaton.start
    wins = [0] * spec.player_count
    total_tosses = 0

    base, extra = divmod(trials, streams)
    for k, state in enumerate(_stream_states(seed, streams)):
        for _ in range(base + (1 if k < extra else 0)):
            u = start
            steps = 0
            while True:
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                z ^= z >> 31
                if z >= reject_from:
                    continue
                r = z % common
                symbol = 0
                while r >= bounds[symbol]:
                    symbol += 1
                steps += 1
                u = transitions[u][symbol]
                if winner[u] is not None:
                    wins[winner[u]] += 1
                    total_tosses += steps
                    break

    empirical = tuple(Fraction(w, trials) for w in wins)
    return SimulationReport(trials, tuple(wins), total_tosses, seed, streams, empirical)
