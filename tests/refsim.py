"""Reference simulator for the tests only: one splitmix64 draw and one
automaton step per toss.

`penney.oracle.simulate` draws a block at a time and finds games with one
regular-expression scan; it must return exactly what this loop returns for
every (spec, trials, seed). Both play every game on one splitmix64 stream
whose state starts at the first splitmix64 output from the seed. The two
share only the splitmix64 constants and the report type; the stream is
seeded and mixed here on its own, and games are played on the prefix
automaton, which the block simulator does not use.
"""

from __future__ import annotations

from itertools import accumulate

from penney.oracle import (
    _GAMMA,
    _MASK64,
    _MIX1,
    _MIX2,
    SimulationReport,
    build_automaton,
)
from penney.patterns import GameSpec, ValidationError


def _mix(state: int) -> int:
    """The splitmix64 output function."""
    z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def draw_symbol(z: int, reject_from: int, common: int, bounds: list[int]) -> int | None:
    """The symbol a draw z stands for: None when z >= `reject_from`, the
    rejected top of the 64-bit range, and otherwise the first symbol whose
    cumulative bound, on the scale of D = `common`, z mod D falls below."""
    if z >= reject_from:
        return None
    r = z % common
    symbol = 0
    while r >= bounds[symbol]:
        symbol += 1
    return symbol


def reference_simulate(spec: GameSpec, trials: int, seed: int = 0) -> SimulationReport:
    """Play `trials` games toss by toss on the prefix automaton.

    The stream's state starts at the splitmix64 output of seed + gamma. Each
    toss advances it by gamma, mixes it, rejects a draw
    z >= 2**64 - (2**64 mod D), and maps z mod D to a symbol (`draw_symbol`).
    """
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    automaton = build_automaton(spec)
    model = spec.model

    common = model.common_denominator
    bounds = list(accumulate(int(p * common) for p in model.probs))
    reject_from = (1 << 64) - ((1 << 64) % common)

    transitions = automaton.transitions
    winner = automaton.winner
    start = automaton.start
    wins = [0] * spec.player_count
    total_tosses = 0

    state = _mix((seed + _GAMMA) & _MASK64)
    for _ in range(trials):
        u = start
        steps = 0
        while True:
            state = (state + _GAMMA) & _MASK64
            symbol = draw_symbol(_mix(state), reject_from, common, bounds)
            if symbol is None:
                continue
            steps += 1
            u = transitions[u][symbol]
            if winner[u] is not None:
                wins[winner[u]] += 1
                total_tosses += steps
                break
    return SimulationReport(trials, tuple(wins), total_tosses, seed)
