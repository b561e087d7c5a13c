"""Command-line interface: documents, exit codes, and golden JSON bytes."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from childenv import child_env
import penney.cli
import penney.solver
from goldentable import GOLDEN_COMMANDS, GOLDEN_DIR
from penney.cli import _int_str_limit, format_decimal, format_exact, main, sqrt_decimal
from penney.oracle import SimulationReport
from penney.patterns import SourceModel, parse_pattern, validate_pattern_set
from penney.solver import solve_game
from refcli import reference_text
from specgen import HUGE_A, RARE_A, game_specs


# specgen.WIDE_ALPHABET as --alphabet text, and 150 one-symbol patterns of it
WIDE_TEXT = ",".join(f"s{i:03d}:1/300" for i in range(300))
WIDE_GAME = ",".join(f"s{i:03d}" for i in range(1, 300, 2))


def exact_value(text: str) -> F:
    """A CLI's exact rational string as a Fraction, with no int-from-str digit limit."""
    num, _, den = text.partition("/")
    return F(int(Decimal(num)), int(Decimal(den or 1)))


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "penney", *args],
        capture_output=True,
        timeout=120,
        env=child_env(),
    )


class TestFormatting:
    def test_decimal_round_half_even(self):
        assert format_decimal(F(5, 12), 6) == "0.416667"
        assert format_decimal(F(1, 4), 6) == "0.250000"
        assert format_decimal(F(1, 8), 2) == "0.12"  # ties to even
        assert format_decimal(F(3, 8), 2) == "0.38"
        assert format_decimal(F(-5, 4), 1) == "-1.2"
        assert format_decimal(F(31, 6), 0) == "5"

    @given(st.data(), st.integers(0, 30))
    @settings(max_examples=300, deadline=None)
    def test_decimal_matches_exact_rounding(self, data, digits):
        exact_ties = st.builds(
            lambda n: F(2 * n + 1, 2 * 10**digits), st.integers(-(10**12), 10**12)
        )
        value = data.draw(
            st.fractions(max_denominator=10**9) | exact_ties | st.just(F(0)), label="value"
        )
        # Fraction's round() goes half to even; a value that rounds to 0 has no "-"
        scaled = round(abs(value) * 10**digits)
        text = str(scaled).rjust(digits + 1, "0")
        if digits:
            text = f"{text[:-digits]}.{text[-digits:]}"
        assert format_decimal(value, digits) == ("-" if value < 0 and scaled else "") + text

    def test_sqrt_decimal(self):
        assert sqrt_decimal(F(1, 4), 6) == "0.500000"
        assert sqrt_decimal(F(2), 3) == "1.414"
        assert sqrt_decimal(F(0), 4) == "0.0000"
        assert sqrt_decimal(F(9, 4), 0) == "1"
        assert sqrt_decimal(F(10**6), 0) == "1000"

    def test_decimal_renderings_refuse_bad_input(self):
        with pytest.raises(ValueError, match="digits must be nonnegative"):
            format_decimal(F(1, 3), -1)
        with pytest.raises(ValueError, match="square root of a negative value"):
            sqrt_decimal(F(-1, 4), 6)

    def test_numbers_past_the_digit_limit(self):
        # `str` of an int or Fraction this long raises ValueError under the default limit
        big = 10**5000
        assert format_exact(F(big + 1, 3)) == f"{Decimal(big + 1)}/3"
        assert format_decimal(F(big), 2) == f"1{'0' * 5000}.00"
        assert format_decimal(F(-big), 0) == f"-1{'0' * 5000}"
        assert sqrt_decimal(F(big * big), 1) == f"1{'0' * 5000}.0"

    def test_str_and_decimal_routes_agree_at_their_boundary(self):
        # fewer than 3 * 640 bits print through str, more through Decimal;
        # both are under the default limit here, so str(Fraction) is the reference
        for bits in (1, 1918, 1919, 1920, 1921, 4000):
            for value in (F(2**bits - 1), F(2**bits + 1), F(1, 2**bits - 1), F(2**bits + 1, 3)):
                assert format_exact(value) == str(value)
                assert format_exact(value.numerator) == str(value.numerator)
            scaled = round(F(2**bits - 1, 10**6) * 10**6)
            assert format_decimal(F(2**bits - 1, 10**6), 6) == f"{scaled // 10**6}.{scaled % 10**6:06d}"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_values_print_under_the_lowest_digit_limit(self):
        # 640 digits is the lowest limit Python takes; these values pass it
        value = F(10**700 + 1, 3)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            texts = [format_exact(value), format_decimal(value, 2), sqrt_decimal(value * value, 1)]
        finally:
            sys.set_int_max_str_digits(limit)
        assert texts == [f"1{'0' * 699}1/3", f"3{'3' * 699}.67", f"3{'3' * 699}.6"]


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["solve", "--patterns", "THH,HTH,HHT"]) == 0
        assert "5/12" in capsys.readouterr().out

    def test_substring_violation_is_user_error(self, capsys):
        assert main(["solve", "--patterns", "HH,HHT"]) == 2
        err = capsys.readouterr().err
        assert "pattern 1" in err and "pattern 2" in err

    def test_unknown_symbol_is_user_error(self, capsys):
        assert main(["solve", "--patterns", "HXH"]) == 2
        assert "position 1" in capsys.readouterr().err

    def test_bad_alphabet_is_user_error(self, capsys):
        assert main(["solve", "--patterns", "HH", "--alphabet", "H:1/2,T:1/3"]) == 2
        assert "sum" in capsys.readouterr().err

    def test_zero_trials_is_usage_error(self):
        result = run_cli("simulate", "--patterns", "TH", "--trials", "0")
        assert result.returncode == 2

    def test_no_admissible_response_is_user_error(self, capsys):
        for verbose in ([], ["--verbose"]):
            assert main(["best-response", "--opponents", "H,T", "--length", "1", *verbose]) == 2
            assert "no admissible" in capsys.readouterr().err

    def test_series_past_the_digit_limit_is_user_error(self, capsys):
        argv = ["solve", "--alphabet", "H:1/3,T:2/3", "--patterns", "HH", "--series", "9200"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(_int_str_limit()) in captured.err
        assert "3^9200" in captured.err

    @pytest.mark.parametrize(
        "alphabet, opponent, length, admitted",
        [
            ("H:1/2,T:1/2", "HH", 20, True),
            ("H:1/2,T:1/2", "HH", 21, False),
            ("H:1/2,T:1/2", "HH", 40, False),
            ("a:1/2,b:1/3,c:1/6", "ab", 12, True),
            ("a:1/2,b:1/3,c:1/6", "ab", 13, False),
            ("H:1/2,T:1/2", "HH", 10**12, False),
        ],
    )
    def test_length_budget(self, capsys, monkeypatch, alphabet, opponent, length, admitted):
        # a stub stands in for the enumeration, so no long reply is enumerated;
        # without --verbose the CLI keeps only the running best
        calls = []

        def stub(opponents, length, model):
            calls.append(length)
            return opponents[0], F(1, 2)

        monkeypatch.setattr(penney.cli, "best_response", stub)
        argv = ["best-response", "--alphabet", alphabet, "--opponents", opponent]
        code = main([*argv, "--length", str(length)])
        captured = capsys.readouterr()
        if admitted:
            assert (code, calls) == (0, [length])
        else:
            assert (code, calls, captured.out) == (2, [], "")
            size = len(alphabet.split(","))
            assert f"{size}^{length} candidates" in captured.err
            assert str(2**20) in captured.err

    @pytest.mark.parametrize(
        "alphabet, opponent, length, admitted",
        [
            ("H:1/2,T:1/2", "HH", 18, True),
            ("H:1/2,T:1/2", "HH", 19, False),
            ("H:1/2,T:1/2", "HH", 20, False),
            ("a:1/2,b:1/3,c:1/6", "ab", 11, True),
            ("a:1/2,b:1/3,c:1/6", "ab", 12, False),
        ],
    )
    def test_verbose_row_budget(self, capsys, monkeypatch, alphabet, opponent, length, admitted):
        # a stub stands in for the ranked table, so no long reply is enumerated;
        # every refused length here is one that MAX_CANDIDATES admits
        calls = []

        def stub(opponents, length, model):
            calls.append(length)
            return [(opponents[0], F(1, 2))]

        monkeypatch.setattr(penney.cli, "response_table", stub)
        argv = ["best-response", "--alphabet", alphabet, "--opponents", opponent, "--json"]
        code = main([*argv, "--length", str(length), "--verbose"])
        captured = capsys.readouterr()
        if admitted:
            assert (code, calls) == (0, [length])
            assert len(json.loads(captured.out)["candidates"]) == 1
        else:
            assert (code, calls, captured.out) == (2, [], "")
            size = len(alphabet.split(","))
            assert f"{size}^{length} candidates" in captured.err
            assert str(penney.cli.MAX_VERBOSE_ROWS) in captured.err

    @pytest.mark.parametrize("trials, admitted", [(10**8, True), (10**8 + 1, False)])
    def test_trials_budget(self, capsys, monkeypatch, trials, admitted):
        # a stub stands in for the simulation, so no long run is played
        calls = []

        def stub(spec, trials, seed=0):
            calls.append(trials)
            return SimulationReport(trials, (trials, 0), 2 * trials, seed, (F(1), F(0)))

        monkeypatch.setattr(penney.cli, "simulate", stub)
        code = main(["simulate", "--patterns", "HH,TT", "--trials", str(trials)])
        captured = capsys.readouterr()
        if admitted:
            assert (code, calls) == (0, [trials])
            # every win goes to player 1, an error of 1/2 against the exact
            # 1/2, far past 3 sigma, so both player rows read NO
            rows = captured.out.splitlines()[3:5]
            assert [row.split()[:2] for row in rows] == [["1", "HH"], ["2", "TT"]]
            assert all(row.endswith(" NO") for row in rows)
        else:
            assert (code, calls, captured.out) == (2, [], "")
            assert f"--trials {trials}" in captured.err
            assert str(10**8) in captured.err

    @pytest.mark.parametrize(
        "alphabet, patterns, trials, admitted",
        [
            ("H:1/2,T:1/2", "HH,TT", 10**8, True),  # E[T] = 3
            ("H:1/2,T:1/2", "THH,HTH,HHT", 10**8, True),  # E[T] = 31/6
            ("H:1/2,T:1/2", "HHH", 42_857_142, True),  # E[T] = 14: 599,999,988 tosses
            ("H:1/2,T:1/2", "HHH", 42_857_143, False),  # 600,000,002 tosses
            (f"H:1/{2**64},T:{2**64 - 1}/{2**64}", "H", 10, False),  # E[T] = 2^64
            # 150 one-symbol patterns of a uniform 300-symbol alphabet: E[T] = 2 and
            # 299 kept bounds, so each toss is charged 315/17: about 599,999,993 and
            # 600,000,030 charged tosses
            pytest.param(WIDE_TEXT, WIDE_GAME, 16_190_476, True, id="wide-16190476-True"),
            pytest.param(WIDE_TEXT, WIDE_GAME, 16_190_477, False, id="wide-16190477-False"),
            pytest.param(WIDE_TEXT, WIDE_GAME, 10**8, False, id="wide-100000000-False"),
        ],
    )
    def test_toss_budget(self, capsys, monkeypatch, alphabet, patterns, trials, admitted):
        # a stub stands in for the simulation, so no long run is played
        calls = []

        def stub(spec, trials, seed=0):
            calls.append(trials)
            wins = (trials,) + (0,) * (spec.player_count - 1)
            empirical = (F(1),) + (F(0),) * (spec.player_count - 1)
            return SimulationReport(trials, wins, 2 * trials, seed, empirical)

        monkeypatch.setattr(penney.cli, "simulate", stub)
        argv = ["simulate", "--alphabet", alphabet, "--patterns", patterns]
        code = main([*argv, "--trials", str(trials)])
        captured = capsys.readouterr()
        if admitted:
            assert (code, calls) == (0, [trials])
        else:
            assert (code, calls, captured.out) == (2, [], "")
            assert f"--trials {trials} would toss about" in captured.err
            assert str(penney.cli.MAX_TOSSES) in captured.err
            assert ("299 symbol interval ends" in captured.err) == (patterns == WIDE_GAME)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--patterns", "HTH,TTH"],
            ["best-response", "--opponents", "HH", "--length", "2"],
        ],
    )
    def test_digits_past_the_digit_limit_is_usage_error(self, argv):
        limit = _int_str_limit()
        result = run_cli(*argv, "--digits", str(limit + 700))
        assert result.returncode == 2
        assert result.stdout == b""
        assert f"the {limit} digits".encode() in result.stderr
        assert b"Traceback" not in result.stderr

    def test_digits_at_the_digit_limit_render(self, capsys):
        limit = _int_str_limit()
        assert main(["solve", "--patterns", "HTH,TTH", "--digits", str(limit), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        whole, frac = doc["players"][0]["win_probability_decimal"].split(".")
        assert whole == "0" and len(frac) == limit

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--patterns", "HTH,TTH", "--digits", "5000"],
            ["solve", "--alphabet", RARE_A, "--patterns", "ab", "--series", "800"],
        ],
    )
    def test_budgets_hold_without_an_interpreter_digit_limit(self, argv):
        # PYTHONINTMAXSTRDIGITS=0 lifts Python's limit; the CLI's budgets stay at 4300
        result = subprocess.run(
            [sys.executable, "-m", "penney", *argv],
            capture_output=True,
            timeout=120,
            env={**child_env(), "PYTHONINTMAXSTRDIGITS": "0"},
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"4300" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--patterns", f"{'a' * 199}b,{'b' * 199}a,{'ab' * 100}"],
            ["simulate", "--patterns", f"{'b' * 300},a{'b' * 299},{'ab' * 150}", "--trials", "1000"],
        ],
    )
    def test_values_past_the_digit_limit_print(self, argv):
        # exact values with more digits than Python's int-to-str limit, which `str`
        # of a Fraction refuses with a ValueError
        result = run_cli(*argv, "--alphabet", RARE_A, "--json")
        assert result.returncode == 0, result.stderr.decode()
        assert b"Traceback" not in result.stderr
        doc = json.loads(result.stdout)
        model = SourceModel.from_text(RARE_A)
        patterns = [parse_pattern(text, model) for text in argv[2].split(",")]
        solution = solve_game(validate_pattern_set(patterns, model))
        key = "win_probability" if argv[0] == "solve" else "exact_probability"
        texts = [player[key] for player in doc["players"]]
        assert max(map(len, texts)) > 4300
        # read through Decimal, which parses any number of digits
        assert [exact_value(text) for text in texts] == list(solution.win_probs)
        assert exact_value(doc["expected_duration"]) == solution.expected_duration
        if argv[0] == "solve":
            conditionals = [exact_value(p["conditional_expected_duration"]) for p in doc["players"]]
            assert conditionals == list(solution.conditional_durations)

    def test_interrupt_in_handler_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(penney.cli, "cmd_solve", interrupted)
        assert main(["solve", "--patterns", "HTH,TTH"]) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "penney: interrupted\n"

    def test_interrupt_while_printing_exits_130(self, capsys, monkeypatch):
        class InterruptedStream(io.StringIO):
            def write(self, text):
                raise KeyboardInterrupt

        monkeypatch.setattr(sys, "stdout", InterruptedStream())
        assert main(["best-response", "--opponents", "HH", "--length", "2"]) == 130
        assert capsys.readouterr().err == "penney: interrupted\n"

    def test_closed_pipe_exits_without_traceback(self):
        # ~1 MB of output, far more than a pipe buffers, so the writes outlive the reader
        argv = ["best-response", "--opponents", "HTTHTH", "--length", "11", "--verbose"]
        with subprocess.Popen(
            [sys.executable, "-m", "penney", *argv, "--json", "--digits", "500"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert stderr == b""


# labels that JSON must escape: non-ASCII, a quote and a backslash
ESCAPED_ALPHABET = 'é:1/4,":1/4,\\:1/4,☃:1/4'
ESCAPED_PATTERNS = 'é"\\,☃é,"☃'


class TestJsonDocuments:
    def test_solve_roundtrips_exact_rationals(self, capsys):
        assert main(
            ["solve", "--patterns", "THH,HTH,HHT", "--series", "5", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        probs = [F(p["win_probability"]) for p in doc["players"]]
        assert probs == [F(5, 12), F(1, 3), F(1, 4)]
        assert F(doc["expected_duration"]) == F(31, 6)
        assert [F(c) for c in doc["series"]["players"][0]["coefficients"]] == [
            F(0),
            F(0),
            F(0),
            F(1, 8),
            F(1, 16),
            F(1, 16),
        ]

    def test_biased_alphabet(self, capsys):
        assert main(
            ["solve", "--alphabet", "H:1/3,T:2/3", "--patterns", "THH,HTH,HHT", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        probs = [F(p["win_probability"]) for p in doc["players"]]
        assert probs == [F(22, 45), F(2, 5), F(1, 9)]
        assert sum(probs) == 1

    def test_simulate_reports_errors_and_sigma(self, capsys):
        assert main(
            ["simulate", "--patterns", "TH,HT", "--trials", "5000", "--seed", "7", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 7 and doc["trials"] == 5000
        for player in doc["players"]:
            exact = F(player["exact_probability"])
            empirical = F(player["empirical_probability"])
            assert abs(empirical - exact) == F(player["absolute_error"])
            assert player["within_three_sigma"] is True

    def test_simulate_deterministic_output(self, capsys):
        args = ["simulate", "--patterns", "THH,HTH", "--trials", "1000", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_best_response_verbose_table(self, capsys):
        assert main(
            ["best-response", "--opponents", "HH", "--length", "2", "--verbose", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best"]["pattern"] == "TH"
        assert F(doc["best"]["win_probability"]) == F(3, 4)
        assert [c["pattern"] for c in doc["candidates"]] == ["TH", "HT", "TT"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--patterns", ESCAPED_PATTERNS],
            ["simulate", "--patterns", ESCAPED_PATTERNS, "--trials", "2000"],
            ["best-response", "--opponents", 'é",☃\\', "--length", "2", "--verbose"],
        ],
    )
    def test_labels_the_writer_must_escape(self, capsys, argv):
        # labels may hold any non-space character but ':' and ','
        argv = [*argv, "--alphabet", ESCAPED_ALPHABET]
        assert main([*argv, "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["alphabet"]["symbols"] == ["é", '"', "\\", "☃"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith('alphabet: é:1/4, ":1/4, \\:1/4, ☃:1/4\n')


# strings with what JSON escapes: non-ASCII, astral, quotes, backslashes, controls
json_strings = st.text(st.characters() | st.sampled_from('"\\é☃\U0001f600\n\x00\x7f'), max_size=12)
json_values = st.recursive(
    json_strings | st.integers(-(10**30), 10**30) | st.booleans(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(json_strings.filter(lambda key: key != "series"), json_values))
    def test_writer_matches_json_dumps(self, doc):
        out = io.StringIO()
        penney.cli.write_document(doc, True, out)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(game_specs(), st.integers(0, 300))
    def test_series_document_parses_to_its_coefficients(self, spec, horizon):
        alphabet = ",".join(f"{s}:{p}" for s, p in zip(spec.model.symbols, spec.model.probs))
        patterns = ",".join(str(p) for p in spec.patterns)
        doc = series_document(alphabet, patterns, horizon, True)
        out = io.StringIO()
        penney.cli.write_document(doc, True, out)
        parsed = json.loads(out.getvalue())
        assert out.getvalue() == json.dumps(parsed, indent=2) + "\n"
        assert parsed["series"]["horizon"] == horizon
        columns = [player["coefficients"] for player in parsed["series"]["players"]]
        assert [[exact_value(text) for text in column] for column in columns] == [
            [F(int(n), int(d)) for n, d in column] for column in doc["series"]
        ]


def parse_outcome(monkeypatch, argv: list[str], top_level_only: bool) -> tuple:
    """The namespace that `main(argv)` hands its command (None if none), its
    stdout, its stderr and its exit code; with `top_level_only`, every argv
    goes to `build_parser().parse_args`."""
    seen = []
    with monkeypatch.context() as patch:
        patch.setattr(penney.cli, "_answer", lambda args: seen.append(args) or 0)
        if top_level_only:
            patch.setattr(penney.cli, "_parsers", lambda: (penney.cli.build_parser(), {}))
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return (seen or [None])[0], out.getvalue(), err.getvalue(), code


PARSE_TOKENS = [
    "solve", "simulate", "best-response", "frobnicate", "-h", "--help", "--version",
    "--patterns", "--pat", "--patterns=HT", "HT,TH", "--", "--json", "--digits", "3", "x",
    "-1", "--series", "--trials", "--seed", "--opponents", "--length", "--verbose", "--ver",
    "--v", "--alphabet", "H:1/3,T:2/3", "-hx",
]


class TestParse:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--version"],
            ["frobnicate"],
            ["frobnicate", "--patterns", "HT"],
            ["solve", "-h"],
            ["simulate", "--help"],
            ["best-response", "-h"],
            ["solve", "--patterns", "HT", "--version"],
            ["--version", "solve"],
            ["solve", "--pat", "HT,TH"],
            ["solve", "--patterns=HT", "--json"],
            ["solve", "--", "--patterns", "HT"],
            ["solve", "--patterns", "HT", "--"],
            ["--", "solve", "--patterns", "HT"],
            ["solve"],
            ["best-response", "--opponents", "HH"],
            ["solve", "--patterns", "HT", "--digits", "x"],
            ["simulate", "--patterns", "HT", "--trials", "1e3"],
            ["solve", "--patterns", "HT", "extra"],
            ["solve", "extra", "--patterns", "HT"],
            ["best-response", "--opponents", "HH", "--length", "2", "--ver"],
            ["solve", "--patterns", "HT", "--digits", "-1"],
            ["simulate", "--patterns", "HT", "--trials", "0", "--seed", "4"],
            ["solve", "--alphabet", "H:1/3,T:2/3", "--patterns", "HTHTH,TTHHT,HHTTT", "--json"],
        ],
    )
    def test_main_parses_like_the_top_level_parser(self, monkeypatch, argv):
        assert parse_outcome(monkeypatch, argv, False) == parse_outcome(monkeypatch, argv, True)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(PARSE_TOKENS), max_size=7))
    def test_token_mixes_parse_like_the_top_level_parser(self, argv):
        with pytest.MonkeyPatch.context() as monkeypatch:
            ours = parse_outcome(monkeypatch, argv, False)
            theirs = parse_outcome(monkeypatch, argv, True)
        assert ours == theirs


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_documented_invocations_are_byte_identical(self, name):
        result = run_cli(*GOLDEN_COMMANDS[name])
        assert result.returncode == 0, result.stderr.decode()
        expected = (GOLDEN_DIR / name).read_bytes()
        assert result.stdout == expected

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_values_need_no_polynomial_elimination(self, capsys, monkeypatch, name):
        # values at s = 1 come from two integer solves and series from the
        # paper's recurrence; only the library's `game_pgfs` runs the pgf solve,
        # and only it reads the packed results back with `_unpack`
        def refuse(*args):
            raise RuntimeError("the pgf solve ran")

        monkeypatch.setattr(penney.solver, "_unpack", refuse)
        assert main(GOLDEN_COMMANDS[name]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()

    def test_back_to_back_calls_share_no_state(self, capsys):
        # `main` reuses one parser per process; no option may carry over to the next call
        commands = [
            ["best-response", "--opponents", "HTH", "--length", "3", "--verbose", "--json"],
            ["best-response", "--opponents", "HTH", "--length", "3", "--json"],
            ["solve", "--patterns", "HTH,TTH", "--series", "6"],
            ["solve", "--patterns", "HTH,TTH"],
        ]
        outputs = []
        for argv in commands:
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        for argv, output in zip(commands, outputs):
            fresh = run_cli(*argv)
            assert fresh.returncode == 0, fresh.stderr.decode()
            assert output.encode() == fresh.stdout, argv

    def test_goldens_survive_optimized_interpreter(self):
        # python -O strips asserts; every library invariant must be an explicit check
        for name, argv in sorted(GOLDEN_COMMANDS.items()):
            result = subprocess.run(
                [sys.executable, "-O", "-m", "penney", *argv],
                capture_output=True,
                timeout=120,
                env=child_env(),
            )
            assert result.returncode == 0, result.stderr.decode()
            assert result.stdout == (GOLDEN_DIR / name).read_bytes()


# The child's own peak resident set in KiB, printed to stderr after the command.
# It is read from VmHWM, the peak of the child's address space: ru_maxrss would
# also hold the test process's size, which Linux folds into a child at exec.
PEAK_RSS_CHILD = """
import sys
from penney.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(peak, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is Linux's")
def test_best_response_keeps_no_table():
    # 2^16 candidates: a table of them peaked at 54 MiB, the running best at 17 MiB
    argv = [
        "best-response",
        "--alphabet",
        "H:1/3,T:2/3",
        "--opponents",
        "TTTTTHTHTTHHHTTT,HTTHTHHHTTTHTTTT",
        "--length",
        "16",
        "--json",
    ]
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, *argv],
        capture_output=True,
        timeout=120,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr.decode()
    assert json.loads(result.stdout)["best"]["pattern"] == "TTTTTTTTTTTTTTHT"
    peak_kib = int(result.stderr.decode().split()[-1])
    assert peak_kib < 32 * 1024


def assert_streams_like_the_reference(argv: list[str]) -> None:
    for form in ([], ["--json"]):
        args = penney.cli.build_parser().parse_args(argv + form)
        expected = reference_text(penney.cli.cmd_solve(args), args.json)
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv + form) == 0
        assert out.getvalue() == expected


def series_document(alphabet: str, patterns: str, horizon: int, as_json: bool) -> dict:
    """A solve document with its series through `horizon`, built whatever the
    `--series` digit budget."""
    argv = ["solve", "--alphabet", alphabet, "--patterns", patterns] + ["--json"] * as_json
    doc = penney.cli.cmd_solve(penney.cli.build_parser().parse_args(argv))
    model = SourceModel.from_text(alphabet)
    spec = validate_pattern_set([parse_pattern(p, model) for p in patterns.split(",")], model)
    doc["series"] = penney.solver.game_distribution(spec, horizon)
    return doc


@contextmanager
def unlimited_int_digits():
    """Lift Python's int-to-str digit limit, where it has one, for the
    reference route's `str(Fraction)`, and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# the series writer's games: D = 4, 6 and 10 cancel factors that are not
# powers of D, so their denominators are new objects as well as shared ones
WRITER_GAMES = {
    "D=4": ("H:1/4,T:3/4", "HTHTH,TTHHT,HHTTT"),
    "D=6": ("a:1/2,b:1/3,c:1/6", "ab,bc,ca"),
    "D=10": ("H:3/10,T:7/10", "HTT,THT,TTH"),
    "D=2**64+1": (HUGE_A, "aab,abb"),
}


class TestSeriesStream:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(game_specs(), st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    def test_streamed_series_matches_the_document_route(self, spec, horizon):
        alphabet = ",".join(f"{s}:{p}" for s, p in zip(spec.model.symbols, spec.model.probs))
        patterns = ",".join(str(p) for p in spec.patterns)
        assert_streams_like_the_reference(
            ["solve", "--alphabet", alphabet, "--patterns", patterns, "--series", str(horizon)]
        )

    @pytest.mark.parametrize("horizon", [255, 256, 257, 700])
    def test_series_across_batches_matches_the_document_route(self, horizon):
        # the writer formats 256 tosses per write; these horizons end at and past a batch
        assert_streams_like_the_reference(
            GOLDEN_COMMANDS["solve_series_ternary.txt"][:-1] + [str(horizon)]
        )

    @pytest.mark.parametrize(
        "alphabet, patterns, horizon",
        [
            pytest.param(alphabet, patterns, horizon, id=f"{name}-{horizon}")
            for name, (alphabet, patterns) in WRITER_GAMES.items()
            # the reference's str(Fraction) takes ~13 s on 2**64 + 1 at 700
            for horizon in [255, 256, 257] + [700] * (alphabet != HUGE_A)
        ],
    )
    def test_writer_matches_the_document_route(self, alphabet, patterns, horizon):
        # past toss 222 the 2**64 + 1 coin's denominators pass the int-to-str
        # digit limit that `--series` keeps to, so the document is built here
        for as_json in (False, True):
            doc = series_document(alphabet, patterns, horizon, as_json)
            with unlimited_int_digits():
                expected = reference_text(doc, as_json)
            out = io.StringIO()
            penney.cli.write_document(doc, as_json, out)
            assert out.getvalue() == expected

    def test_no_denominator_text_outlives_a_document(self):
        # the writer keeps each denominator's text by id(d) for one document;
        # the second document's Decimals are made just after the first's are
        # freed, so they take the same memory, and so ids, with other values
        second = series_document("H:1/4,T:3/4", "HTT,THT,TTH", 300, True)
        digits = [[(str(n), str(d)) for n, d in row] for row in second["series"]]
        first = series_document("H:1/3,T:2/3", "HTHTH,TTHHT,HHTTT", 400, True)
        penney.cli.write_document(first, True, io.StringIO())
        freed = {id(d): str(d) for row in first["series"] for _, d in row}
        del first
        gc.collect()
        # equal denominators share one object, as the solver's powers of D do
        shared = {d: Decimal(d) for d in dict.fromkeys(d for row in digits for _, d in row)}
        terms = [[(Decimal(n), shared[d]) for n, d in row] for row in digits]
        second["series"] = terms
        assert any(freed.get(id(d), str(d)) != str(d) for row in terms for _, d in row)
        out = io.StringIO()
        penney.cli.write_document(second, True, out)
        assert out.getvalue() == reference_text(second, True)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["solve", "--alphabet", "H:1/3,T:2/3", "--patterns", "HTHTH,TTHHT,HHTTT"]
                + ["--series", "3000", "--json"],
                "cdc771a3b19027b274e6403c46f76d5885f511c5844ccee330d9bc178f90a8b1",
            ),
            (
                GOLDEN_COMMANDS["solve_series_ternary.txt"][:-1] + ["700"],
                "bfbb02e7685ca3f34c5791a134ecae425b67b48bea1190ed88e0ea68f0da9e0f",
            ),
        ],
        ids=["coin-3000-json", "ternary-700-table"],
    )
    def test_long_series_bytes_are_pinned(self, argv, digest):
        # 12.6 MB and 1.7 MB, too large for goldens: their sha256
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest

    def test_goldens_match_the_document_route(self):
        for name in ("solve_series.json", "solve_series_ternary.txt"):
            args = penney.cli.build_parser().parse_args(GOLDEN_COMMANDS[name])
            text = reference_text(penney.cli.cmd_solve(args), args.json)
            assert text.encode() == (GOLDEN_DIR / name).read_bytes()

    def test_closed_pipe_in_mid_series_exits_1(self):
        # 12.6 MB of JSON, far more than a pipe buffers
        argv = ["--alphabet", "H:1/3,T:2/3", "--patterns", "HTHTH,TTHHT,HHTTT", "--series", "3000"]
        with subprocess.Popen(
            [sys.executable, "-m", "penney", "solve", *argv, "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert stderr == b""

    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_series_past_the_digit_limit_writes_nothing(self, form):
        argv = ["solve", "--alphabet", "H:1/3,T:2/3", "--patterns", "HH", "--series", "9200"]
        result = run_cli(*argv, *form)
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"3^9200" in result.stderr

    def test_interrupt_in_mid_series_exits_130(self, capsys, monkeypatch):
        argv = ["solve", "--patterns", "THH,HTH,HHT", "--series", "1000", "--json"]
        assert main(argv) == 0
        whole = capsys.readouterr().out

        class InterruptedStream(io.StringIO):
            # the head with the first player's opening, then two batches of coefficients, go through
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 3:
                    raise KeyboardInterrupt
                return super().write(text)

        stream = InterruptedStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(argv) == 130
        assert capsys.readouterr().err == "penney: interrupted\n"
        written = stream.getvalue()
        assert '"coefficients": [\n          "0",' in written
        assert len(written) < len(whole) and whole.startswith(written)
