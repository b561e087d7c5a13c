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
from types import GeneratorType

from . import __version__
from .oracle import kept_bounds, simulate
from .patterns import SourceModel, ValidationError, parse_pattern, validate_pattern_set
from .solver import best_response, game_distribution, response_table, solve_game

SCHEMA_VERSION = 1


# `sys.set_int_max_str_digits` takes no limit below 640 but 0 (no limit), so
# `str` prints an integer of fewer than 3 * 640 bits, at most 578 digits, under
# any limit the interpreter can have.
_STR_BITS = 3 * 640


def format_exact(value: Fraction | int) -> str:
    """`str(value)` for an exact rational or integer, past Python's int-to-str
    digit limit too.

    A value whose numerator and denominator have fewer than `_STR_BITS` bits
    prints through `str`; a longer one through `Decimal`, which has no digit
    limit.
    """
    num, den = value.numerator, value.denominator
    if num.bit_length() < _STR_BITS and den.bit_length() < _STR_BITS:
        return str(num) if den == 1 else "%d/%d" % (num, den)
    num, den = Decimal(num), Decimal(den)
    # % calls str, where an f-string would take the slower Decimal.__format__
    return str(num) if den == 1 else "%s/%s" % (num, den)


def _ratio_texts(pairs, tails: dict[int, str]) -> list[str]:
    """The "n/d" text, "n" when d is 1, of each (n, d) Decimal pair of a
    series in lowest terms, with the "/d" text of each denominator object
    printed once and kept in `tails` by id(d).

    An id is unique while its object lives, and the document keeps every term
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
    """The length of the (num, den) pair's text in `_ratio_texts`, from the
    digit counts of the two integers."""
    width = num.adjusted() + 1
    return width if den == 1 else width + den.adjusted() + 2


def _fixed_point(scaled: int, digits: int) -> str:
    """The text of scaled / 10**digits, scaled >= 0, with `digits` decimals."""
    text = format_exact(scaled)
    if digits == 0:
        return text
    text = text.rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def format_decimal(value: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering of an exact rational, round-half-even."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    num, den = value.numerator, value.denominator
    scaled, rem = divmod(abs(num) * 10**digits, den)
    double = 2 * rem
    if double > den or (double == den and scaled % 2 == 1):
        scaled += 1
    sign = "-" if num < 0 and scaled else ""
    return sign + _fixed_point(scaled, digits)


def _put_exact(fields: dict, name: str, value: Fraction, digits: int) -> dict:
    """Set `name` to `value`'s exact text and `name`_decimal to its
    `digits`-place decimal in `fields`, and return `fields`."""
    fields[name] = format_exact(value)
    fields[name + "_decimal"] = format_decimal(value, digits)
    return fields


def sqrt_decimal(value: Fraction, digits: int) -> str:
    """Decimal rendering (truncated at the last digit) of sqrt of a rational."""
    if value < 0:
        raise ValueError("square root of a negative value")
    num, den = value.numerator, value.denominator
    scaled = math.isqrt(num * den * 10 ** (2 * digits)) // den
    return _fixed_point(scaled, digits)


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


# The most digits of --digits, and of a --series coefficient's denominator.
# Long values print through Decimal (`format_exact`), so these ceilings are
# penney's own: the interpreter's int-to-str digit limit changes no answer.
MAX_DIGITS = 4300


def _check_series_digits(model: SourceModel, horizon: int) -> None:
    """Refuse a horizon whose denominators could pass MAX_DIGITS digits.

    Every coefficient through toss N is at most 1 with a denominator dividing
    D**N (D the common denominator of the alphabet), so no denominator has
    more digits than D**N.
    """
    scale = model.common_denominator
    # D >= 2, so D**N >= 10**MAX_DIGITS once N >= 4 * MAX_DIGITS; skip the big powers then.
    if horizon >= 4 * MAX_DIGITS or scale**horizon >= 10**MAX_DIGITS:
        raise ValidationError(
            f"--series {horizon} is too long for this alphabet: its coefficients have "
            f"denominators up to {scale}^{horizon}, more than the {MAX_DIGITS} digits "
            "--series allows"
        )


# The most best-response candidates the CLI enumerates: binary replies up to L = 20.
# Without --verbose only the running best is held: L = 20 on the 1/3 coin against
# two length-16 opponents takes 2.3 s in `best_response` (best of 5 in one
# process) and the command peaks at 16.4 MiB (Python 3.11, 2-vCPU Xeon).
# --verbose holds the whole table, about 1.4 KiB per candidate: at L = 16 against
# them, --verbose --json peaks at 105.8 MiB for 65,536 rows (14.9 at start).
MAX_CANDIDATES = 2**20


# The most rows --verbose ranks and prints. The table holds about 1.4 KiB per
# row until it is written, so this ceiling, binary --length 18, peaks near
# 360 MiB; L = 18 against the two length-16 opponents above peaked at 364 MiB
# (7.2 s), and L = 20, which MAX_CANDIDATES admits, would need about 1.4 GiB.
MAX_VERBOSE_ROWS = 2**18


def _check_candidate_count(model: SourceModel, length: int, verbose: bool) -> None:
    """Refuse a reply length whose |alphabet|**length candidates exceed
    MAX_CANDIDATES, or MAX_VERBOSE_ROWS with --verbose."""
    size = len(model.symbols)
    # a model has at least two symbols, so L > 20 already passes 2**20; skip the big power
    if length > 20 or size**length > MAX_CANDIDATES:
        raise ValidationError(
            f"--length {length} would enumerate {size}^{length} candidates, more than "
            f"the {MAX_CANDIDATES} (2^20) best-response allows"
        )
    if verbose and size**length > MAX_VERBOSE_ROWS:
        raise ValidationError(
            f"--verbose --length {length} would rank {size}^{length} candidates, more than "
            f"the {MAX_VERBOSE_ROWS} (2^18) rows --verbose allows; "
            "without --verbose only the best reply is kept"
        )


# The most games simulate plays: about 80 s for THH,HTH,HHT on a fair coin, at
# ~1.2M games per second (median of 30 in-process runs of 10^6 games, 0.81-1.38M,
# one core of a shared 2-vCPU Xeon, Python 3.11.7).
MAX_TRIALS = 10**8


def _check_trial_count(trials: int) -> None:
    """Refuse a --trials above MAX_TRIALS."""
    if trials > MAX_TRIALS:
        raise ValidationError(
            f"--trials {trials} is more than the {MAX_TRIALS} (10^8) games simulate allows"
        )


# The most tosses simulate expects to play, trials * E[T], counted in tosses of
# a game with one kept bound (`oracle.kept_bounds`), as every coin game has:
# 1 to 2 minutes. The simulator played 6.6-8.6M tosses per second (best of 3
# in-process runs of 10^6 games, each of five games, fair coin to ternary, one
# core of a 2-vCPU Xeon, Python 3.11.7). It admits 10^8 games of
# THH,HTH,HHT on a fair coin, whose E[T] is 31/6.
MAX_TOSSES = 6 * 10**8

# Each kept bound costs a whole-int add and AND per block of tosses, so a toss
# with k kept bounds is charged (TOSS_BOUND_OFFSET + k) / (TOSS_BOUND_OFFSET + 1)
# one-bound tosses. The least-squares line through 14 measured rates (best of
# 3, about 10^6 tosses each, same host) is 70-82 + 8.1-8.3 k ns per toss over
# two runs, whose intercept is 8 to 10 bounds' worth, below the offset of 16.
# The games ran from k = 1 (coins, 115-126 ns) and k = 2 (ternary,
# 150 ns) through doubled symbols of a uniform 300-symbol alphabet, k = 4 to
# 299 (108 to 2,600 ns), to its 150 one-symbol patterns s001, s003, ..., s299
# (k = 299, 2,382-2,543 ns). That game costs 19 to 22 coin-game tosses and is
# charged 315/17, about 18.5: it is admitted up to 16,190,476 games (about 32M
# tosses, 80 s at that rate); uncharged, 10^8 of them, about 8 minutes, were
# admitted.
TOSS_BOUND_OFFSET = 16


def _check_toss_count(trials: int, expected_duration: Fraction, kept: int) -> None:
    """Refuse a --trials whose expected tosses, trials * E[T], each charged
    for its `kept` kept bounds, exceed MAX_TOSSES."""
    tosses = trials * expected_duration
    charged = tosses * Fraction(TOSS_BOUND_OFFSET + kept, TOSS_BOUND_OFFSET + 1)
    if charged > MAX_TOSSES:
        cost = "" if kept == 1 else (
            f", as slow as {format_decimal(charged, 0)} tosses of a coin game "
            f"for the {kept} symbol interval ends each toss is tested against"
        )
        raise ValidationError(
            f"--trials {trials} would toss about {format_decimal(tosses, 0)} times "
            f"(E[T] = {format_decimal(expected_duration, 2)} tosses a game){cost}, more than "
            f"the {MAX_TOSSES} (6*10^8) simulate allows"
        )


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
        player = {"player": i, "pattern": str(pattern)}
        _put_exact(player, "win_probability", prob, digits)
        _put_exact(player, "conditional_expected_duration", conditional, digits)
        players.append(player)

    doc = _header("solve", model)
    doc["patterns"] = [str(p) for p in spec.patterns]
    doc["players"] = players
    _put_exact(doc, "expected_duration", solution.expected_duration, digits)
    if args.series is not None:
        doc["series"] = game_distribution(spec, args.series)
    return doc


def cmd_simulate(args) -> dict:
    _check_trial_count(args.trials)
    model, patterns = _parse_inputs(args)
    spec = validate_pattern_set(patterns, model)
    kept = kept_bounds(spec)
    solution = solve_game(spec)
    _check_toss_count(args.trials, solution.expected_duration, len(kept))
    report = simulate(spec, args.trials, args.seed)
    digits = args.digits

    players = []
    for i, (pattern, exact, empirical, win_count) in enumerate(
        zip(spec.patterns, solution.win_probs, report.empirical_probs, report.wins), start=1
    ):
        error = abs(empirical - exact)
        sigma_sq = exact * (1 - exact) / report.trials
        player = {"player": i, "pattern": str(pattern), "wins": win_count}
        _put_exact(player, "exact_probability", exact, digits)
        _put_exact(player, "empirical_probability", empirical, digits)
        _put_exact(player, "absolute_error", error, digits)
        player["three_sigma_decimal"] = sqrt_decimal(9 * sigma_sq, digits)
        player["within_three_sigma"] = error * error <= 9 * sigma_sq
        players.append(player)

    doc = _header("simulate", model)
    doc["patterns"] = [str(p) for p in spec.patterns]
    doc["trials"] = report.trials
    doc["seed"] = report.seed
    doc["players"] = players
    doc["total_tosses"] = report.total_tosses
    _put_exact(doc, "mean_tosses", report.mean_tosses, digits)
    _put_exact(doc, "expected_duration", solution.expected_duration, digits)
    return doc


def cmd_best_response(args) -> dict:
    model = SourceModel.from_text(args.alphabet)
    opponents = [parse_pattern(token.strip(), model) for token in args.opponents.split(",")]
    _check_candidate_count(model, args.length, args.verbose)
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
    doc["best"] = _put_exact({"pattern": str(best_pattern)}, "win_probability", best_prob, digits)
    if args.verbose:
        doc["candidates"] = [
            _put_exact({"pattern": str(pattern)}, "win_probability", prob, digits)
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

_quote = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str, parts: list[str], out: io.TextIOBase) -> None:
    """Append the text that `json.dumps(value, indent=2)` gives `value` to
    `parts`, for a value whose lines start with `indent`: a newline and two
    spaces per level of nesting.

    The value is a dict with str keys, a list, a str, an int, a bool or a
    generator. A generator stands for a nonempty list of strings that need
    no escaping, written in batches: `parts` is first written to `out` and
    emptied, and then each nonempty list of strings the generator yields is
    written as it comes, so that the text of the whole list is never held.
    """
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        lead = "{" + inner
        for key, item in value.items():
            # most leaves are strings: they are quoted here, without a call
            if type(item) is str:
                parts.append(f"{lead}{_quote(key)}: {_quote(item)}")
            else:
                parts.append(f"{lead}{_quote(key)}: ")
                _json_text(item, inner, parts, out)
            lead = "," + inner
        parts.append(indent + "}")
    elif kind is list:
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        lead = "[" + inner
        for item in value:
            if type(item) is str:
                parts.append(lead + _quote(item))
            else:
                parts.append(lead)
                _json_text(item, inner, parts, out)
            lead = "," + inner
        parts.append(indent + "]")
    elif kind is bool:
        parts.append("true" if value else "false")
    elif kind is int:
        parts.append(str(value))
    elif kind is GeneratorType:
        out.write("".join(parts))
        parts.clear()
        inner = indent + "  "
        lead = f'[{inner}"'
        for texts in value:
            out.write(lead + f'",{inner}"'.join(texts) + '"')
            lead = f',{inner}"'
        parts.append(indent + "]")
    else:
        raise TypeError(f"{kind.__name__} is not a document value")


def write_document(doc: dict, as_json: bool, out: io.TextIOBase) -> None:
    """Write `doc` and a newline to `out`: `json.dumps(doc, indent=2)` or
    `render_table(doc)` and then a solve document's series.

    Every JSON document is written by `_json_text`, whose bytes are those of
    `json.dumps(doc, indent=2)`: strings are escaped by the C encoder that
    `json` uses, and only the layout is Python.

    A solve document's series, its last key, is `game_distribution`'s list:
    per player of `doc["patterns"]`, P(player j wins at toss k) = n/d for
    k = 0..N as the (n, d) integers. It is written in batches of terms, each
    formatted from its integers, and its text is never held whole: in JSON,
    each player's coefficients are a generator of batches. Only the text of
    each distinct denominator object is held, for one call, so that a
    denominator several terms share is printed once.
    """
    series = doc.get("series")
    if as_json:
        if series is not None:
            tails: dict[int, str] = {}
            doc = {
                **doc,
                "series": {
                    "horizon": len(series[0]) - 1,
                    "players": [
                        {"player": i, "pattern": pattern, "coefficients": _batches(terms, tails)}
                        for i, (pattern, terms) in enumerate(zip(doc["patterns"], series), start=1)
                    ],
                },
            }
        parts: list[str] = []
        _json_text(doc, "\n", parts, out)
        out.write("".join(parts))
    else:
        out.write(render_table(doc))
        if series is not None:
            _write_series_table(doc["patterns"], series, out)
    # The newline goes alone, as `print` writes it. On an unbuffered stdout
    # (python -u) a write cut short by the reader leaving returns without an
    # error; only the next write raises BrokenPipeError.
    out.write("\n")


def _batches(terms: list, tails: dict[int, str]):
    """The texts of a series column's (n, d) terms, `_BATCH` at a time."""
    for start in range(0, len(terms), _BATCH):
        yield _ratio_texts(terms[start : start + _BATCH], tails)


def _write_series_table(
    patterns: list[str], terms: list[list[tuple[Decimal, Decimal]]], out: io.TextIOBase
) -> None:
    """The series as table rows, one per toss; widths from the digit counts."""
    horizon = len(terms[0]) - 1
    widths = [max(4, len(str(horizon)))] + [
        max(len(pattern), max(_ratio_width(n, d) for n, d in column))
        for pattern, column in zip(patterns, terms)
    ]
    out.write(
        f"\nwin distribution through toss {horizon}:"
        f"\n{_table_row(['toss', *patterns], widths)}"
    )
    tails: dict[int, str] = {}
    for start in range(0, horizon + 1, _BATCH):
        columns = [_ratio_texts(column[start : start + _BATCH], tails) for column in terms]
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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and each command's subparser by name, built once per
    process: building them costs more than a light request."""
    parser = build_parser()
    # argparse has no public name for a parser's subcommands
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, commands


def main(argv: "list[str] | None" = None) -> int:
    """Parse `argv` (default `sys.argv[1:]`), run its command and print the
    document; the exit code.

    An argv that begins with a command's name, and that the command's own
    parser takes whole, is parsed by that parser alone, as the top-level
    parser would hand it on. Any other argv, including one that leaves a
    token over, goes to the top-level parser, so every help, usage and error
    text is argparse's own.
    """
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    extras = None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras != []:  # no command first, or a token left over
        args = parser.parse_args(argv)
    if args.digits < 0:
        parser.error("--digits must be nonnegative")
    if args.digits > MAX_DIGITS:
        parser.error(f"--digits {args.digits} is more than the {MAX_DIGITS} digits penney allows")
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
