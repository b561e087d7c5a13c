"""Deterministic random-game generator shared by the randomized suites.

Player counts are uniform in 1..4, lengths uniform in 1..5, coin biases come
from a fixed menu of small rationals, and sets violating the substring-free
hypothesis are simply regenerated. `sized_spec` draws one game of a given size
over any alphabet, and the Hypothesis strategy `game_specs` draws games over
2 to 4 symbols, for checks beyond that binary envelope.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from penney.patterns import GameSpec, Pattern, SourceModel, ValidationError, validate_pattern_set

BIAS_MENU = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5))

# a rare symbol: exact values over its games run to thousands of digits
RARE_A = "a:1/1000000,b:999999/1000000"
# a near-fair coin with D = 2**64 + 1, past one machine word, so the series
# reduction's block is D itself
HUGE_D = 2**64 + 1
HUGE_A = f"a:{2**63}/{HUGE_D},b:{2**63 + 1}/{HUGE_D}"
# more than 256 symbols, with multi-character labels
WIDE_ALPHABET = SourceModel([f"s{i:03d}" for i in range(300)], [Fraction(1, 300)] * 300)


def _contains(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    """The reference substring rule: some window of `haystack` equals `needle`."""
    width = len(needle)
    return any(haystack[i : i + width] == needle for i in range(len(haystack) - width + 1))


def random_model(rng: random.Random) -> SourceModel:
    p = rng.choice(BIAS_MENU)
    return SourceModel(("H", "T"), (p, 1 - p))


def random_pattern(rng: random.Random, max_length: int = 5) -> Pattern:
    return Pattern(tuple(rng.choice("HT") for _ in range(rng.randint(1, max_length))))


def random_spec(rng: random.Random, max_players: int = 4, max_length: int = 5) -> GameSpec:
    model = random_model(rng)
    while True:
        patterns = [random_pattern(rng, max_length) for _ in range(rng.randint(1, max_players))]
        try:
            return validate_pattern_set(patterns, model)
        except ValidationError:
            continue


def random_single(rng: random.Random, max_length: int = 5) -> GameSpec:
    return validate_pattern_set([random_pattern(rng, max_length)], random_model(rng))


def random_pair(rng: random.Random, max_length: int = 5) -> GameSpec:
    model = random_model(rng)
    while True:
        patterns = [random_pattern(rng, max_length) for _ in range(2)]
        try:
            return validate_pattern_set(patterns, model)
        except ValidationError:
            continue


def sized_spec(rng: random.Random, model: SourceModel, players: int, max_length: int) -> GameSpec:
    """`players` patterns over `model`, lengths within two of `max_length`."""
    while True:
        patterns = [
            Pattern(
                tuple(
                    rng.choice(model.symbols)
                    for _ in range(rng.randint(max(1, max_length - 2), max_length))
                )
            )
            for _ in range(players)
        ]
        try:
            return validate_pattern_set(patterns, model)
        except ValidationError:
            continue


@st.composite
def game_specs(draw, max_players=8, max_length=12):
    """A game over 2 to 4 symbols with rational probabilities (integer weights
    1..6 over their sum) and up to `max_players` patterns, whose lengths lie
    within three of a drawn longest length of at most `max_length`. A drawn
    pattern that contains or is contained in an earlier one is dropped, so
    the set is substring-free."""
    size = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    model = SourceModel("abcd"[:size], [Fraction(w, sum(weights)) for w in weights])
    longest = draw(st.integers(1, max_length))
    kept: list[tuple[str, ...]] = []
    for _ in range(draw(st.integers(1, max_players))):
        length = draw(st.integers(max(1, longest - 3), longest))
        symbols = tuple(
            draw(st.lists(st.sampled_from(model.symbols), min_size=length, max_size=length))
        )
        if not any(_contains(symbols, p) or _contains(p, symbols) for p in kept):
            kept.append(symbols)
    return validate_pattern_set([Pattern(p) for p in kept], model)
