"""Command-line front end: solve, simulate, best-response.

Machine output (--json) carries every number as an exact rational string
("5/12"), never a float, so nothing is lost on the wire; decimal columns are
advisory renderings at --digits precision, rounded half-even.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .oracle import simulate
from .patterns import Record, SourceModel, ValidationError, parse_pattern, validate_pattern_set
from .solver import best_response, game_distribution, response_table, solve_game

SCHEMA_VERSION = 1


def format_ratio(num: Decimal, den: Decimal) -> str:
    """`str(Fraction(num, den))` for a pair already in lowest terms, den > 0,
    printed through Decimal, which has no int-to-str digit limit."""
    # % calls str, where an f-string would take the slower Decimal.__format__
    return str(num) if den == 1 else "%s/%s" % (num, den)


def format_exact(value: Fraction | int) -> str:
    """`str(value)` for an exact rational or integer."""
    return format_ratio(Decimal(value.numerator), Decimal(value.denominator))


def _ratio_texts(pairs, tails: dict[int, str]) -> list[str]:
    """`format_ratio(n, d)` for each (n, d) of a Series, with the "/d" text
    of each denominator object printed once and kept in `tails` by id(d).

    An id is unique while its object lives, and the Series keeps every term
    alive while it is written (`copy.deepcopy`'s memo keys by id likewise;
    hashing a long Decimal costs about as much as printing it). So `tails`
    must be new for each document and dropped with it.
    """
    texts = []
    for num, den in pairs:
        tail = tails.get(id(den))
        if tail is None:
            tail = tails[id(den)] = "" if den == 1 else "/%s" % den
        texts.append("%s%s" % (num, tail))
    return texts


def _ratio_width(num: Decimal, den: Decimal) -> int:
    """len(format_ratio(num, den)), from the digit counts of the two integers."""
    width = num.adjusted() + 1
    return width if den == 1 else width + den.adjusted() + 2


def format_decimal(value: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering of an exact rational, round-half-even."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    num, den = value.numerator, value.denominator
    unit = 10**digits
    scaled, rem = divmod(abs(num) * unit, den)
    double = 2 * rem
    if double > den or (double == den and scaled % 2 == 1):
        scaled += 1
    sign = "-" if num < 0 and scaled else ""
    if digits == 0:
        return f"{sign}{format_exact(scaled)}"
    whole, frac = divmod(scaled, unit)
    return f"{sign}{format_exact(whole)}.{frac:0{digits}d}"


def sqrt_decimal(value: Fraction, digits: int) -> str:
    """Decimal rendering (truncated at the last digit) of sqrt of a rational."""
    if value < 0:
        raise ValueError("square root of a negative value")
    num, den = value.numerator, value.denominator
    scaled = math.isqrt(num * den * 10 ** (2 * digits)) // den
    if digits == 0:
        return format_exact(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{format_exact(whole)}.{frac:0{digits}d}"


def _parse_inputs(args) -> tuple[SourceModel, list]:
    model = SourceModel.from_text(args.alphabet)
    patterns = [parse_pattern(token.strip(), model) for token in args.patterns.split(",")]
    return model, patterns


def _alphabet_block(model: SourceModel) -> dict:
    return {
        "symbols": list(model.symbols),
        "probabilities": [format_exact(p) for p in model.probs],
    }


def _header(command: str, model: SourceModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "alphabet": _alphabet_block(model),
    }


def _int_str_limit() -> int:
    """Python's int-to-str digit limit, or its default of 4300 where the
    interpreter sets none (PYTHONINTMAXSTRDIGITS=0, or a Python without one)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _check_series_digits(model: SourceModel, horizon: int) -> None:
    """Refuse a horizon whose coefficients could pass Python's int-to-str digit limit.

    Every coefficient through toss N is at most 1 with a denominator dividing
    D**N (D the common denominator of the alphabet), so nothing exceeds that
    limit when D**N has at most that many digits. The series are printed from
    Decimals, which the limit does not cover, so this is the --series budget.
    """
    limit = _int_str_limit()
    scale = model.common_denominator
    # D >= 2, so D**N >= 10**limit once N >= 4 * limit; skip the big powers then.
    if horizon >= 4 * limit or scale**horizon >= 10**limit:
        raise ValidationError(
            f"--series {horizon} is too long for this alphabet: its coefficients have "
            f"denominators up to {scale}^{horizon}, more than the {limit} digits of "
            "Python's int-to-str limit (4300 where the interpreter sets none)"
        )


# The most best-response candidates the CLI enumerates: binary replies up to L = 20.
# Without --verbose only the running best is held: L = 20 on the 1/3 coin against
# two length-16 opponents takes 4.4 s and peaks at 17.6 MiB (Python 3.11, 2-vCPU
# Xeon). --verbose holds the whole table, about 1.4 KiB per candidate: at L = 16
# against them, --verbose --json peaks at 105.8 MiB for 65,536 rows (14.9 at start).
MAX_CANDIDATES = 2**20


def _check_candidate_count(model: SourceModel, length: int) -> None:
    """Refuse a reply length whose |alphabet|**length candidates exceed MAX_CANDIDATES."""
    size = len(model.symbols)
    # a model has at least two symbols, so L > 20 already passes 2**20; skip the big power
    if length > 20 or size**length > MAX_CANDIDATES:
        raise ValidationError(
            f"--length {length} would enumerate {size}^{length} candidates, more than "
            f"the {MAX_CANDIDATES} (2^20) best-response allows"
        )


# The most games simulate plays: about 2 minutes for THH,HTH,HHT on a fair
# coin, at ~1M games per second (0.75-1.14M over 15 in-process runs of 10^6
# games, one core of a 2-vCPU Xeon, Python 3.11.7).
MAX_TRIALS = 10**8


def _check_trial_count(trials: int) -> None:
    """Refuse a --trials above MAX_TRIALS."""
    if trials > MAX_TRIALS:
        raise ValidationError(
            f"--trials {trials} is more than the {MAX_TRIALS} (10^8) games simulate allows"
        )


class Series(Record):
    """The series block of a solve document: P(player j wins at toss k) = n/d
    for k <= horizon, as the (n, d) integers of `game_distribution`.

    `write_document` prints it in batches; its text is never held whole.
    Only the text of each distinct denominator object is held, for one call,
    so that a denominator several terms share is printed once.
    """

    _fields = ("horizon", "patterns", "terms")
    horizon: int
    patterns: list[str]
    terms: list[list[tuple[Decimal, Decimal]]]


def cmd_solve(args) -> dict:
    model, patterns = _parse_inputs(args)
    if args.series is not None:
        _check_series_digits(model, args.series)
    spec = validate_pattern_set(patterns, model)
    solution = solve_game(spec)
    digits = args.digits

    players = []
    for i, (pattern, prob, conditional) in enumerate(
        zip(spec.patterns, solution.win_probs, solution.conditional_durations), start=1
    ):
        players.append(
            {
                "player": i,
                "pattern": str(pattern),
                "win_probability": format_exact(prob),
                "win_probability_decimal": format_decimal(prob, digits),
                "conditional_expected_duration": format_exact(conditional),
                "conditional_expected_duration_decimal": format_decimal(conditional, digits),
            }
        )

    doc = _header("solve", model)
    doc["patterns"] = [str(p) for p in spec.patterns]
    doc["players"] = players
    doc["expected_duration"] = format_exact(solution.expected_duration)
    doc["expected_duration_decimal"] = format_decimal(solution.expected_duration, digits)
    if args.series is not None:
        doc["series"] = Series(args.series, doc["patterns"], game_distribution(spec, args.series))
    return doc


def cmd_simulate(args) -> dict:
    _check_trial_count(args.trials)
    model, patterns = _parse_inputs(args)
    spec = validate_pattern_set(patterns, model)
    solution = solve_game(spec)
    report = simulate(spec, args.trials, args.seed)
    digits = args.digits

    players = []
    for i, (pattern, exact, empirical, win_count) in enumerate(
        zip(spec.patterns, solution.win_probs, report.empirical_probs, report.wins), start=1
    ):
        error = abs(empirical - exact)
        sigma_sq = exact * (1 - exact) / report.trials
        players.append(
            {
                "player": i,
                "pattern": str(pattern),
                "wins": win_count,
                "exact_probability": format_exact(exact),
                "exact_probability_decimal": format_decimal(exact, digits),
                "empirical_probability": format_exact(empirical),
                "empirical_probability_decimal": format_decimal(empirical, digits),
                "absolute_error": format_exact(error),
                "absolute_error_decimal": format_decimal(error, digits),
                "three_sigma_decimal": sqrt_decimal(9 * sigma_sq, digits),
                "within_three_sigma": error * error <= 9 * sigma_sq,
            }
        )

    doc = _header("simulate", model)
    doc["patterns"] = [str(p) for p in spec.patterns]
    doc["trials"] = report.trials
    doc["seed"] = report.seed
    doc["players"] = players
    doc["total_tosses"] = report.total_tosses
    doc["mean_tosses"] = format_exact(report.mean_tosses)
    doc["mean_tosses_decimal"] = format_decimal(report.mean_tosses, digits)
    doc["expected_duration"] = format_exact(solution.expected_duration)
    doc["expected_duration_decimal"] = format_decimal(solution.expected_duration, digits)
    return doc


def cmd_best_response(args) -> dict:
    model = SourceModel.from_text(args.alphabet)
    opponents = [parse_pattern(token.strip(), model) for token in args.opponents.split(",")]
    _check_candidate_count(model, args.length)
    if args.verbose:
        table = response_table(opponents, args.length, model)
        if not table:
            raise ValidationError(
                f"no admissible pattern of length {args.length} against the given opponents"
            )
        best_pattern, best_prob = table[0]
    else:
        best_pattern, best_prob = best_response(opponents, args.length, model)
    digits = args.digits

    doc = _header("best-response", model)
    doc["opponents"] = [str(p) for p in opponents]
    doc["length"] = args.length
    doc["best"] = {
        "pattern": str(best_pattern),
        "win_probability": format_exact(best_prob),
        "win_probability_decimal": format_decimal(best_prob, digits),
    }
    if args.verbose:
        doc["candidates"] = [
            {
                "pattern": str(pattern),
                "win_probability": format_exact(prob),
                "win_probability_decimal": format_decimal(prob, digits),
            }
            for pattern, prob in table
        ]
    return doc


def _table_row(cells: list[str], widths: list[int]) -> str:
    return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()


def _table_rows(rows: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join(_table_row(row, widths) for row in rows)


def render_table(doc: dict) -> str:
    """The document as text, without a solve document's series."""
    lines = [
        f"alphabet: {', '.join(f'{s}:{p}' for s, p in zip(doc['alphabet']['symbols'], doc['alphabet']['probabilities']))}"
    ]
    command = doc["command"]
    if command == "solve":
        rows = [["player", "pattern", "P(win)", "decimal", "E[length|win]", "decimal"]]
        for p in doc["players"]:
            rows.append(
                [
                    str(p["player"]),
                    p["pattern"],
                    p["win_probability"],
                    p["win_probability_decimal"],
                    p["conditional_expected_duration"],
                    p["conditional_expected_duration_decimal"],
                ]
            )
        lines.append(_table_rows(rows))
        lines.append(
            f"expected game length: {doc['expected_duration']} ({doc['expected_duration_decimal']})"
        )
    elif command == "simulate":
        lines.append(f"trials: {doc['trials']}  seed: {doc['seed']}")
        rows = [["player", "pattern", "exact", "empirical", "|error|", "3-sigma", "ok"]]
        for p in doc["players"]:
            rows.append(
                [
                    str(p["player"]),
                    p["pattern"],
                    p["exact_probability_decimal"],
                    p["empirical_probability_decimal"],
                    p["absolute_error_decimal"],
                    p["three_sigma_decimal"],
                    "yes" if p["within_three_sigma"] else "NO",
                ]
            )
        lines.append(_table_rows(rows))
        lines.append(
            f"mean tosses: {doc['mean_tosses_decimal']}  exact expectation: {doc['expected_duration_decimal']}"
        )
    else:
        lines.append(f"opponents: {', '.join(doc['opponents'])}  length: {doc['length']}")
        best = doc["best"]
        lines.append(
            f"best response: {best['pattern']} with win probability "
            f"{best['win_probability']} ({best['win_probability_decimal']})"
        )
        if "candidates" in doc:
            rows = [["pattern", "P(win)", "decimal"]]
            for c in doc["candidates"]:
                rows.append([c["pattern"], c["win_probability"], c["win_probability_decimal"]])
            lines.append(_table_rows(rows))
    return "\n".join(lines)


# Series terms per write: the text of one batch is built at a time, never the whole.
_BATCH = 256


def write_document(doc: dict, as_json: bool, out: io.TextIOBase) -> None:
    """Write `doc` and a newline to `out`: `json.dumps(doc, indent=2)` or
    `render_table(doc)`, with a solve document's Series as the last key.

    The series is written in batches of terms, each formatted from its
    integers; its coefficients are digits and '/', so need no JSON escaping.
    """
    series = doc.get("series")
    head = {key: value for key, value in doc.items() if key != "series"}
    if not as_json:
        out.write(render_table(head))
        if series is not None:
            _write_series_table(series, out)
    elif series is None:
        out.write(json.dumps(head, indent=2))
    else:
        # drop the closing "\n}" to append the series as the last key
        out.write(
            f'{json.dumps(head, indent=2)[:-2]},\n  "series": {{\n'
            f'    "horizon": {series.horizon},\n    "players": ['
        )
        tails: dict[int, str] = {}
        for player, (pattern, terms) in enumerate(zip(series.patterns, series.terms), start=1):
            out.write(
                f'{"," if player > 1 else ""}\n      {{\n        "player": {player},\n'
                f'        "pattern": {json.dumps(pattern)},\n        "coefficients": ['
            )
            lead = '\n          "'
            for start in range(0, len(terms), _BATCH):
                texts = _ratio_texts(terms[start : start + _BATCH], tails)
                out.write(lead + '",\n          "'.join(texts) + '"')
                lead = ',\n          "'
            out.write("\n        ]\n      }")
        out.write("\n    ]\n  }\n}")
    # The newline goes alone, as `print` writes it. On an unbuffered stdout
    # (python -u) a write cut short by the reader leaving returns without an
    # error; only the next write raises BrokenPipeError.
    out.write("\n")


def _write_series_table(series: Series, out: io.TextIOBase) -> None:
    """The series as table rows, one per toss; widths from the digit counts."""
    widths = [max(4, len(str(series.horizon)))] + [
        max(len(pattern), max(_ratio_width(n, d) for n, d in terms))
        for pattern, terms in zip(series.patterns, series.terms)
    ]
    out.write(
        f"\nwin distribution through toss {series.horizon}:"
        f"\n{_table_row(['toss', *series.patterns], widths)}"
    )
    tails: dict[int, str] = {}
    for start in range(0, series.horizon + 1, _BATCH):
        columns = [_ratio_texts(terms[start : start + _BATCH], tails) for terms in series.terms]
        out.write(
            "".join(
                "\n" + _table_row([str(k), *cells], widths)
                for k, cells in enumerate(zip(*columns), start)
            )
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penney",
        description="Exact win probabilities and waiting times for pattern-race games.",
    )
    parser.add_argument("--version", action="version", version=f"penney {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alphabet",
        default="H:1/2,T:1/2",
        help="symbol:probability pairs, exact rationals (default: fair coin)",
    )
    common.add_argument("--digits", type=int, default=6, help="decimal digits to display")
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    solve = sub.add_parser("solve", parents=[common], help="exact win probabilities and durations")
    solve.add_argument("--patterns", required=True, help="comma-separated patterns, one per player")
    solve.add_argument(
        "--series", type=int, default=None, metavar="N", help="also print P(win at toss k), k<=N"
    )

    sim = sub.add_parser("simulate", parents=[common], help="seeded Monte Carlo cross-check")
    sim.add_argument("--patterns", required=True, help="comma-separated patterns, one per player")
    sim.add_argument("--trials", type=int, default=100000, help="number of games to play")
    sim.add_argument("--seed", type=int, default=0, help="generator seed")

    best = sub.add_parser(
        "best-response", parents=[common], help="exhaustive best reply against fixed opponents"
    )
    best.add_argument("--opponents", required=True, help="comma-separated opponent patterns")
    best.add_argument("--length", type=int, required=True, help="length of the reply pattern")
    best.add_argument("--verbose", action="store_true", help="print the full ranked table")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a light request."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.digits < 0:
        parser.error("--digits must be nonnegative")
    # a decimal's fractional field has at most --digits digits, so the limit suffices
    limit = _int_str_limit()
    if args.digits > limit:
        parser.error(
            f"--digits {args.digits} is more than the {limit} digits of Python's "
            "int-to-str limit (4300 where the interpreter sets none)"
        )
    if getattr(args, "series", None) is not None and args.series < 0:
        parser.error("--series must be nonnegative")
    if getattr(args, "trials", None) is not None and args.trials < 1:
        parser.error("--trials must be at least 1")
    if getattr(args, "length", None) is not None and args.length < 1:
        parser.error("--length must be at least 1")
    try:
        return _answer(args)
    except KeyboardInterrupt:
        print("penney: interrupted", file=sys.stderr)
        return 130


def _answer(args: argparse.Namespace) -> int:
    """Run the command's handler and print its document; the exit code."""
    # looked up per call, not stored in the cached parser, so a replaced handler is used
    handlers = {"solve": cmd_solve, "simulate": cmd_simulate, "best-response": cmd_best_response}
    try:
        doc = handlers[args.command](args)
    except ValidationError as exc:
        print(f"penney: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"penney: internal error: {exc}", file=sys.stderr)
        return 1
    try:
        write_document(doc, args.json, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`penney ... | head`). Point stdout at devnull so the
        # interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


def run() -> None:
    sys.exit(main())
