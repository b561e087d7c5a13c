"""Seeded request lists for the penney benchmark, and their output checks.

A workload is a list of rounds; a round is a list of `penney` argv lists.
The benchmark replays the rounds in order, one request at a time, so every
round keeps the class mix written below whatever the run length.

Every check compares a request's output with the chain oracle in
`penney.oracle` (absorbing Markov chain on the pattern-prefix automaton,
exact Gaussian elimination), never with `penney.solver`, so a solver change
cannot move the reference it is judged against.

Known defect, recorded rather than avoided: ``penney solve --alphabet
H:1/3,T:2/3 --patterns HH --series 9200`` dies with an uncaught ValueError,
because a coefficient's denominator 3**9200 has more than the 4300 digits
Python converts to text by default. The `series` horizons below stop at
3000 (denominators of at most 3**3000, 1432 digits) because longer series
take too long to repeat, not to step around the defect.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from fractions import Fraction
from typing import Sequence

from penney import oracle
from penney.patterns import SourceModel, parse_pattern, validate_pattern_set

BIASED_COIN = "H:1/3,T:2/3"
TERNARY = "a:1/2,b:1/3,c:1/6"
# Expected tosses per `simulate` request; trials are set from each game's
# exact expected length so that every request does about the same work.
SIMULATE_TOSSES = 150_000
SIMULATE_SEED = "0"
# Rounds drawn per seed. The light requests, which set the median, are games
# of their own in every round, so that the median rests on dozens of games;
# at --seconds 25 a run replays fewer rounds than this, except for solve,
# which goes through its rounds about twice.
SOLVE_ROUNDS = 12
SERIES_ROUNDS = 24
BEST_RESPONSE_ROUNDS = 16


def _patterns(rng: random.Random, symbols: str, players: int, length: int) -> str:
    """Distinct random patterns of one length, which makes them substring-free."""
    chosen: list[str] = []
    while len(chosen) < players:
        text = "".join(rng.choice(symbols) for _ in range(length))
        if text not in chosen:
            chosen.append(text)
    return ",".join(chosen)


def _spec(alphabet: str, patterns: str):
    model = SourceModel.from_text(alphabet)
    return model, validate_pattern_set([parse_pattern(p, model) for p in patterns.split(",")], model)


def _solve_argv(alphabet: str, patterns: str) -> list[str]:
    return ["solve", "--alphabet", alphabet, "--patterns", patterns, "--json"]


def solve_rounds(rng: random.Random) -> list[list[list[str]]]:
    """`penney solve --json` over (m, L) = (3,5), (4,8), (6,8), (8,10) on the
    1/3 coin, plus a ternary game with m=4, L=6.

    Why: at (8,10) Bareiss determinants take ~85% of a request and the
    derivative/limit for conditional durations ~10%, so a cheaper
    elimination shows in request_tail_ms and requests_per_s. Requests run
    from ~8 ms to ~3 s; (10,10) and larger take 7 s or more each and
    cannot be repeated inside a run.

    A round holds six (3,5), one ternary, one (4,8) and one (6,8) request,
    and every third round one (8,10) request; a cycle of the mix is three
    rounds. The median then falls inside the (3,5) requests, whose cost
    varies least from game to game (~18%), the tail (eleventh slowest)
    inside the (6,8) requests, and the (6,8) and (8,10) requests take most
    of the time. The light games are drawn afresh for each seed, many per
    run. The (6,8) game and the (8,10) game are the same for every seed:
    their cost varies up to 2.5x from game to game, their oracle checks
    take 0.4 s and 3 s, and the few a run can hold would make the tail and
    requests_per_s depend on the seed more than on the code.
    """
    fixed = random.Random("penney-bench:solve:fixed")
    heavy = _solve_argv(BIASED_COIN, _patterns(fixed, "HT", 6, 8))
    largest = _solve_argv(BIASED_COIN, _patterns(fixed, "HT", 8, 10))
    light = [(6, BIASED_COIN, "HT", 3, 5), (1, TERNARY, "abc", 4, 6), (1, BIASED_COIN, "HT", 4, 8)]
    rounds = []
    for index in range(SOLVE_ROUNDS):
        requests = [
            _solve_argv(alphabet, _patterns(rng, symbols, players, length))
            for count, alphabet, symbols, players, length in light
            for _ in range(count)
        ]
        requests.append(heavy)
        if index % 3 == 2:
            requests.append(largest)
        rng.shuffle(requests)
        rounds.append(requests)
    return rounds


def series_rounds(rng: random.Random) -> list[list[list[str]]]:
    """`penney solve --series N --json` on 3-player, length-5 games on the
    1/3 coin, for N = 200, 1000 and 3000.

    Why: a long `RationalFunction.series` recurrence over one fixed
    denominator with ever-growing coefficients is ~90% of the time and
    determinants ~2%, and N = 3000 prints ~12.5 MB of JSON, so polyalg
    series extraction and cli formatting are exercised, not elimination.

    A round is one seeded game at N = 200 and three more at N = 1000; every
    sixth round adds N = 3000 on a game that is the same for every seed. The
    median and the tail then both land inside the N = 1000 requests. Their
    cost follows each game's denominator degree and varies ~1.5x from game
    to game, so every N = 1000 request is a game of its own, 36 to 54 per run,
    and the median does not hinge on a few of them. The one N = 3000 game,
    which takes ~2 s and holds ~12.5 MB of output for its check, does not
    make requests_per_s depend on the seed.
    """
    longest = _solve_argv(BIASED_COIN, _patterns(random.Random("penney-bench:series:fixed"), "HT", 3, 5))
    rounds = []
    for index in range(SERIES_ROUNDS):
        games = [_solve_argv(BIASED_COIN, _patterns(rng, "HT", 3, 5)) for _ in range(4)]
        requests = [games[0] + ["--series", "200"]] + [game + ["--series", "1000"] for game in games[1:]]
        if index % 6 == 5:
            requests.append(longest + ["--series", "3000"])
        rounds.append(requests)
    return rounds


def best_response_rounds(rng: random.Random) -> list[list[list[str]]]:
    """`penney best-response --json` for L = 8 and 10 against one and two
    seeded opponents of length L on the 1/3 coin.

    Why: each request scores 256 or 1024 candidate patterns as tiny games:
    `conway_number` is ~65% of the time and constant determinants ~30%, with
    no polynomial of positive degree eliminated.

    A round holds six requests at (L = 8, one opponent) and two at (8, two
    opponents), and one at (10, 1) or, every other round, at (10, 2); a
    cycle of the mix is two rounds. At ~0.2, 0.55, 0.85 and 2.6 s each, the
    median then falls inside the (8, 1) requests, ~36 games per run, and
    the tail (eleventh slowest) inside the (8, 2) requests, while the
    L = 10 requests take over a third of the time.
    """
    rounds = []
    for index in range(BEST_RESPONSE_ROUNDS):
        shape = [(8, 1)] * 6 + [(8, 2)] * 2 + [(10, 1 + index % 2)]
        requests = [
            [
                "best-response", "--alphabet", BIASED_COIN,
                "--opponents", _patterns(rng, "HT", opponents, length),
                "--length", str(length), "--json",
            ]
            for length, opponents in shape
        ]
        rng.shuffle(requests)
        rounds.append(requests)
    return rounds


def simulate_rounds(rng: random.Random) -> list[list[list[str]]]:
    """`penney simulate --json --seed 0` on THH,HTH,HHT and on one seeded
    3-player, length-5 game, both on the 1/3 coin.

    Why: the per-toss loop of `oracle.simulate` is nearly all the time; it
    bypasses elimination and series. This is the control on which polyalg
    work should change nothing, and the workload a faster simulator moves.
    Trials are set to about SIMULATE_TOSSES / E[length], from the oracle's
    exact expected length, so the requests cost about the same whichever
    game a seed draws. The seeded game runs twice per round, so that the
    median falls inside its requests rather than between the two games.
    """
    requests = []
    for game in ("THH,HTH,HHT", _patterns(rng, "HT", 3, 5)):
        model, spec = _spec(BIASED_COIN, game)
        mean = oracle.expected_absorption_time(oracle.build_automaton(spec), model)
        trials = max(1000, round(SIMULATE_TOSSES / mean))
        requests.append([
            "simulate", "--alphabet", BIASED_COIN, "--patterns", game,
            "--trials", str(trials), "--seed", SIMULATE_SEED, "--json",
        ])
    return [requests + requests[1:]]


def _flag(argv: Sequence[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_solution(argv: Sequence[str], doc: dict) -> "str | None":
    """Win probabilities, E[T] and E[T | player] against the chain oracle."""
    model, spec = _spec(_flag(argv, "--alphabet"), _flag(argv, "--patterns"))
    automaton = oracle.build_automaton(spec)
    if doc["patterns"] != [str(p) for p in spec.patterns]:
        return "patterns differ from the request"
    if [Fraction(p["win_probability"]) for p in doc["players"]] != list(
        oracle.absorption_probabilities(automaton, model)
    ):
        return "win probabilities differ from the oracle"
    if Fraction(doc["expected_duration"]) != oracle.expected_absorption_time(automaton, model):
        return "expected_duration differs from the oracle"
    if [Fraction(p["conditional_expected_duration"]) for p in doc["players"]] != list(
        oracle.conditional_absorption_times(automaton, model)
    ):
        return "conditional durations differ from the oracle"
    return None


def check_solve(outputs: dict) -> dict:
    return {argv: _check_solution(argv, json.loads(text)) for argv, text in outputs.items()}


def check_series(outputs: dict) -> dict:
    """Every series coefficient against `step_distribution`, computed once per
    game to the longest horizon requested."""
    games = defaultdict(list)
    for argv in outputs:
        games[(_flag(argv, "--alphabet"), _flag(argv, "--patterns"))].append(argv)
    verdicts = {}
    for (alphabet, patterns), argvs in games.items():
        model, spec = _spec(alphabet, patterns)
        horizon = max(int(_flag(a, "--series")) for a in argvs)
        exact = oracle.step_distribution(oracle.build_automaton(spec), model, horizon)
        for argv in argvs:
            doc = json.loads(outputs[argv])
            verdict = _check_solution(argv, doc)
            n = int(_flag(argv, "--series"))
            got = [[Fraction(c) for c in p["coefficients"]] for p in doc["series"]["players"]]
            if verdict is None and got != [row[: n + 1] for row in exact]:
                verdict = "series coefficients differ from step_distribution"
            verdicts[argv] = verdict
    return verdicts


def check_best_response(outputs: dict) -> dict:
    """The best reply's win probability against the oracle on the full game."""
    verdicts = {}
    for argv, text in outputs.items():
        doc = json.loads(text)
        best = doc["best"]
        patterns = _flag(argv, "--opponents") + "," + best["pattern"]
        model, spec = _spec(_flag(argv, "--alphabet"), patterns)
        exact = oracle.absorption_probabilities(oracle.build_automaton(spec), model)[-1]
        if spec.patterns[-1].length != int(_flag(argv, "--length")):
            verdicts[argv] = "best reply has the wrong length"
        elif Fraction(best["win_probability"]) != exact:
            verdicts[argv] = "best reply's win probability differs from the oracle"
        else:
            verdicts[argv] = None
    return verdicts


def check_simulate(outputs: dict) -> dict:
    """Every win count within three standard deviations of trials * P(win),
    with P(win) exact from the oracle. Byte-identical repeats of one argv are
    checked for every workload by the runner."""
    verdicts = {}
    for argv, text in outputs.items():
        doc = json.loads(text)
        model, spec = _spec(_flag(argv, "--alphabet"), _flag(argv, "--patterns"))
        exact = oracle.absorption_probabilities(oracle.build_automaton(spec), model)
        trials = int(_flag(argv, "--trials"))
        wins = [p["wins"] for p in doc["players"]]
        verdict = None
        if doc["trials"] != trials or sum(wins) != trials:
            verdict = "win counts do not add up to the trials"
        for player, (w, p) in enumerate(zip(wins, exact), start=1):
            if verdict is None and (w - trials * p) ** 2 > 9 * trials * p * (1 - p):
                verdict = f"player {player} wins {w} times, outside 3 sigma of {trials} * {p}"
        verdicts[argv] = verdict
    return verdicts


# name -> (round generator, output check, rounds in one cycle of the class
# mix). A run replays whole cycles; the traced run replays the first one.
WORKLOADS = {
    "solve": (solve_rounds, check_solve, 3),
    "series": (series_rounds, check_series, 6),
    "best-response": (best_response_rounds, check_best_response, 2),
    "simulate": (simulate_rounds, check_simulate, 1),
}


def build(workload: str, seed: int) -> list[list[list[str]]]:
    """The workload's rounds; the same (workload, seed) gives the same argvs."""
    make, _, _ = WORKLOADS[workload]
    return make(random.Random(f"penney-bench:{workload}:{seed}"))


def cycle(workload: str) -> int:
    """Rounds in one cycle of the workload's class mix; the number of rounds
    `build` returns is a multiple of it."""
    return WORKLOADS[workload][2]


def check(workload: str, outputs: dict) -> dict:
    """Map each distinct argv (a tuple) to None when its output is right, else
    to a message saying what is wrong."""
    _, verify, _ = WORKLOADS[workload]
    return verify(outputs)
