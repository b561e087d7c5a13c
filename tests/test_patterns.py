"""Source models and their symbol weights, pattern parsing, the delimited
word text, set validation, the value behaviour of every record type, and the
overlap and probability helpers of the test-side reference `refconway`."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penney.oracle import Automaton, build_automaton, simulate
from penney.patterns import (
    Pattern,
    Record,
    SourceModel,
    ValidationError,
    delimited,
    parse_pattern,
    undelimited,
    validate_pattern_set,
)
from penney.polyalg import ONE, S, Polynomial, RationalFunction
from penney.solver import GameSolution, solve_game
from refconway import (
    EMPTY_WORD_PROBABILITY,
    overlap_indicator,
    pattern_probability,
    symbols_probability,
)
from specgen import HUGE_A, WIDE_ALPHABET, _contains, random_spec

# models whose weights are checked: coins, a ternary alphabet, D = 2**64 + 1
# and a uniform 300-symbol alphabet
WEIGHTED_MODELS = {
    "fair": SourceModel.from_text("H:1/2,T:1/2"),
    "third": SourceModel.from_text("H:1/3,T:2/3"),
    "ternary": SourceModel.from_text("a:1/2,b:1/3,c:1/6"),
    "huge-d": SourceModel.from_text(HUGE_A),
    "wide": WIDE_ALPHABET,
}


class TestSourceModel:
    def test_fair_coin(self, fair):
        assert fair.symbols == ("H", "T")
        assert fair.probs == (F(1, 2), F(1, 2))

    def test_from_text_roundtrip(self):
        model = SourceModel.from_text("H:1/3,T:2/3")
        assert model.probs[model.index("H")] == F(1, 3)
        text = ",".join(f"{s}:{p}" for s, p in zip(model.symbols, model.probs))
        assert text == "H:1/3,T:2/3"
        assert SourceModel.from_text(text) == model

    def test_from_text_allows_spaces(self):
        model = SourceModel.from_text(" a:1/4 , b:3/4 ")
        assert model.symbols == ("a", "b")

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            SourceModel(("H", "T"), (F(1, 2), F(1, 3)))

    def test_zero_probability_rejected(self):
        with pytest.raises(ValidationError):
            SourceModel(("H", "T"), (F(1), F(0)))

    def test_needs_two_symbols(self):
        with pytest.raises(ValidationError):
            SourceModel(("H",), (F(1),))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            SourceModel(("H", "H"), (F(1, 2), F(1, 2)))

    def test_prefix_labels_rejected(self):
        with pytest.raises(ValidationError):
            SourceModel(("A", "AB"), (F(1, 2), F(1, 2)))

    @pytest.mark.parametrize(
        "labels", [("ab", "x", "y", "a"), ("abc", "b", "ac", "a"), ("ba", "c", "bb", "b", "d")]
    )
    def test_prefix_labels_apart_in_input_order_rejected(self, labels):
        with pytest.raises(ValidationError) as caught:
            SourceModel(labels, [F(1, len(labels))] * len(labels))
        message = str(caught.value)
        named = re.fullmatch(r"ambiguous alphabet: '(\w+)' is a prefix of '(\w+)'", message)
        assert named is not None, message
        a, b = named.groups()
        assert a in labels and b in labels and a != b and b.startswith(a)

    def test_labels_sharing_a_start_accepted(self):
        labels = ("ab", "ba", "aab", "bb", "bc")
        assert SourceModel(labels, [F(1, 5)] * 5).symbols == labels

    def test_float_probabilities_rejected(self):
        with pytest.raises(ValidationError):
            SourceModel(("H", "T"), (0.5, 0.5))

    def test_bad_format(self):
        with pytest.raises(ValidationError):
            SourceModel.from_text("H=1/2,T=1/2")

    @pytest.mark.parametrize("model", WEIGHTED_MODELS.values(), ids=WEIGHTED_MODELS)
    def test_weights_are_the_probabilities_over_d(self, model):
        scale = model.common_denominator
        assert tuple(model.weights) == model.symbols
        for symbol, p in zip(model.symbols, model.probs):
            assert type(model.weights[symbol]) is int
            assert model.weights[symbol] == p * scale
        assert sum(model.weights.values()) == scale

    def test_weights_are_read_only_and_not_a_field(self):
        model, fresh = SourceModel.from_text("H:1/3,T:2/3"), SourceModel.from_text("H:1/3,T:2/3")
        with pytest.raises(AttributeError, match="weights"):
            model.weights = {"H": 1, "T": 2}
        with pytest.raises(TypeError):
            model.weights["H"] = 2
        with pytest.raises(TypeError):
            del model.weights["H"]
        assert dict(model.weights) == {"H": 1, "T": 2}
        # equality, hash and repr are the two fields'
        assert model._fields == ("symbols", "probs")
        assert model == fresh and hash(model) == hash((model.symbols, model.probs))
        assert repr(model) == "SourceModel(symbols=('H', 'T'), probs=(Fraction(1, 3), Fraction(2, 3)))"

    def test_three_symbol_alphabet(self):
        model = SourceModel(("a", "b", "c"), (F(1, 2), F(1, 3), F(1, 6)))
        assert model.probs[model.index("c")] == F(1, 6)


class TestParsePattern:
    def test_basic(self, fair):
        assert parse_pattern("THH", fair).symbols == ("T", "H", "H")

    def test_empty_rejected(self, fair):
        with pytest.raises(ValidationError):
            parse_pattern("", fair)

    def test_unknown_symbol(self, fair):
        with pytest.raises(ValidationError, match="position 1"):
            parse_pattern("HXT", fair)

    def test_multicharacter_labels(self):
        model = SourceModel(("A", "BB"), (F(1, 2), F(1, 2)))
        assert parse_pattern("ABBA", model).symbols == ("A", "BB", "A")

    def test_pattern_requires_symbols(self):
        with pytest.raises(ValidationError):
            Pattern(())


class TestProbabilities:
    def test_fair_cube(self, fair):
        assert pattern_probability(parse_pattern("THH", fair), fair) == F(1, 8)

    def test_general_bias(self):
        p = F(1, 3)
        model = SourceModel(("H", "T"), (p, 1 - p))
        assert pattern_probability(parse_pattern("THH", model), model) == (1 - p) * p * p

    def test_empty_word_convention(self, fair):
        assert EMPTY_WORD_PROBABILITY == 1
        assert symbols_probability((), fair) == 1

    def test_multiplicative_under_concatenation(self):
        rng = random.Random(9)
        model = SourceModel(("H", "T"), (F(1, 3), F(2, 3)))
        for _ in range(50):
            left = tuple(rng.choice("HT") for _ in range(rng.randint(1, 6)))
            right = tuple(rng.choice("HT") for _ in range(rng.randint(1, 6)))
            assert symbols_probability(left + right, model) == symbols_probability(
                left, model
            ) * symbols_probability(right, model)


class TestOverlapIndicator:
    def test_showcase_overlaps(self, fair):
        thh = parse_pattern("THH", fair)
        hth = parse_pattern("HTH", fair)
        assert overlap_indicator(thh, hth, 2)  # TH == TH
        assert not overlap_indicator(thh, hth, 1)  # T != H

    def test_full_self_overlap(self, fair):
        for text in ("H", "HT", "THH", "HHTH"):
            a = parse_pattern(text, fair)
            assert overlap_indicator(a, a, a.length)

    def test_out_of_range(self, fair):
        a = parse_pattern("TH", fair)
        with pytest.raises(ValueError):
            overlap_indicator(a, a, 0)
        with pytest.raises(ValueError):
            overlap_indicator(a, a, 3)

    def test_validated_sets_have_no_full_cross_overlap(self):
        # a full prefix/suffix match of the shorter pattern would make it a
        # substring of the longer one, which validation forbids
        rng = random.Random(31)
        for _ in range(50):
            spec = random_spec(rng)
            for i, a in enumerate(spec.patterns):
                for j, b in enumerate(spec.patterns):
                    if i != j and a.length <= b.length:
                        assert not overlap_indicator(a, b, a.length)


class TestValidatePatternSet:
    def test_showcase_valid(self, example_spec):
        assert example_spec.player_count == 3

    def test_substring_rejected(self, fair):
        with pytest.raises(ValidationError, match="pattern 1 .* inside pattern 2"):
            validate_pattern_set(
                [parse_pattern("HH", fair), parse_pattern("HHT", fair)], fair
            )

    def test_duplicates_rejected(self, fair):
        with pytest.raises(ValidationError, match="duplicates"):
            validate_pattern_set(
                [parse_pattern("HH", fair), parse_pattern("HH", fair)], fair
            )

    def test_first_offending_pair_is_reported(self, fair):
        # both sets hold a duplicate and a substring; pairs are met with the
        # first index outermost, so each names the pair that comes first
        def spec(texts):
            return validate_pattern_set([parse_pattern(t, fair) for t in texts], fair)

        with pytest.raises(ValidationError, match=r"^patterns 1 and 3 are duplicates: HTH$"):
            spec(["HTH", "HT", "HTH"])
        with pytest.raises(
            ValidationError, match=r"^pattern 1 \(HT\) occurs inside pattern 2 \(HTH\);"
        ):
            spec(["HT", "HTH", "HT"])

    def test_a_label_ending_another_is_not_inside_it(self):
        # as text without delimiters, "a" lies inside "xa"
        model = SourceModel.from_text("a:1/2,xa:1/2")
        spec = validate_pattern_set([parse_pattern(t, model) for t in ("a", "xa")], model)
        assert [p.symbols for p in spec.patterns] == [("a",), ("xa",)]

    def test_wrong_alphabet_rejected(self, fair):
        other = SourceModel(("a", "b"), (F(1, 2), F(1, 2)))
        with pytest.raises(ValidationError, match="outside the alphabet"):
            validate_pattern_set([parse_pattern("ab", other)], fair)

    def test_needs_a_pattern(self, fair):
        with pytest.raises(ValidationError):
            validate_pattern_set([], fair)

    def test_single_pattern_ok(self, fair):
        spec = validate_pattern_set([parse_pattern("H", fair)], fair)
        assert spec.player_count == 1


# prefix-free alphabets in which some labels end others
ENDING_LABELS = (("a", "xa", "ya", "b"), ("0", "10", "110", "111"), ("H", "TH"))


def reference_refusal(patterns: list[Pattern]) -> str | None:
    """The message `validate_pattern_set` gives a set that is not
    substring-free, by the reference rule `_contains`; None for a valid set."""
    for i, a in enumerate(patterns):
        for j, b in enumerate(patterns):
            if i != j and _contains(b.symbols, a.symbols):
                if a == b:
                    return f"patterns {i + 1} and {j + 1} are duplicates: {a}"
                return (
                    f"pattern {i + 1} ({a}) occurs inside pattern {j + 1} "
                    f"({b}); substring-free sets required"
                )
    return None


@st.composite
def labelled_sets(draw):
    """A model over one of ENDING_LABELS and 1 to 5 patterns of 1 to 4 symbols."""
    labels = draw(st.sampled_from(ENDING_LABELS))
    model = SourceModel(labels, [F(1, len(labels))] * len(labels))
    word = st.lists(st.sampled_from(labels), min_size=1, max_size=4).map(Pattern)
    return model, draw(st.lists(word, min_size=1, max_size=5))


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(labelled_sets())
def test_substring_rule_matches_the_reference(game):
    model, patterns = game
    expected = reference_refusal(patterns)
    if expected is None:
        assert validate_pattern_set(patterns, model).patterns == tuple(patterns)
    else:
        with pytest.raises(ValidationError) as refusal:
            validate_pattern_set(patterns, model)
        assert str(refusal.value) == expected


# the labels of ENDING_LABELS, or any label `SourceModel` takes: no ':', ','
# or whitespace
LABELS = st.sampled_from(sorted({label for labels in ENDING_LABELS for label in labels})) | (
    st.text(min_size=1).filter(lambda text: not any(c in ":," or c.isspace() for c in text))
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(LABELS, max_size=6))
def test_undelimited_inverts_delimited(symbols):
    assert undelimited(delimited(symbols)) == tuple(symbols)
    assert undelimited(",") == ()


def one_record_of_each_type() -> list[Record]:
    """One record of every type in the package, all built afresh on each call."""
    model = SourceModel.from_text("H:1/3,T:2/3")
    spec = validate_pattern_set([parse_pattern(t, model) for t in ("HTH", "THH")], model)
    return [
        model,
        spec.patterns[0],
        spec,
        Polynomial((1, F(1, 2))),
        RationalFunction(S, ONE - S),
        solve_game(spec),
        build_automaton(spec),
        simulate(spec, 50, seed=3),
    ]


class TestRecords:
    def test_every_record_type_is_covered(self):
        types = {type(record) for record in one_record_of_each_type()}
        assert types == {
            cls for cls in Record.__subclasses__() if cls.__module__.startswith("penney.")
        }

    def test_equal_construction_gives_equal_values(self):
        for a, b in zip(one_record_of_each_type(), one_record_of_each_type()):
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert repr(a) == repr(b)
            assert repr(a).startswith(f"{type(a).__name__}({a._fields[0]}=")

    def test_records_of_different_classes_are_never_equal(self):
        for a, b in itertools.permutations(one_record_of_each_type(), 2):
            assert a != b and not a == b
        # the same fields and values, another class
        lookalike = type("Lookalike", (Record,), {"_fields": ("symbols",)})
        subclass = type("Subclass", (Pattern,), {})
        pattern = Pattern(("H", "T"))
        for other in (lookalike(("H", "T")), subclass(("H", "T"))):
            assert pattern != other and other != pattern
            assert not pattern == other and not other == pattern

    def test_fields_are_read_only(self):
        for record, fresh in zip(one_record_of_each_type(), one_record_of_each_type()):
            for name in record._fields:
                value = getattr(record, name)
                with pytest.raises(AttributeError, match=name):
                    setattr(record, name, None)
                with pytest.raises(AttributeError, match=name):
                    delattr(record, name)
                assert getattr(record, name) is value
            with pytest.raises(AttributeError):
                record.extra = 1
            assert record == fresh

    def test_pickle_and_copy_rebuild_through_the_constructor(self):
        for record in one_record_of_each_type():
            for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
                assert clone == record and type(clone) is type(record)
                assert vars(clone).keys() == vars(record).keys()
        model = one_record_of_each_type()[0]
        assert pickle.loads(pickle.dumps(model)).weights == model.weights

    def test_constructor_takes_the_fields_in_order(self, fair):
        spec = validate_pattern_set([parse_pattern("HT", fair)], fair)
        solution = solve_game(spec)
        assert solution.spec is spec and solution.expected_duration == 4
        with pytest.raises(TypeError, match="spec, win_probs"):
            GameSolution(spec, solution.win_probs)
        with pytest.raises(TypeError):
            Automaton((), (), (), 0, 0)
        automaton = build_automaton(spec)
        assert automaton.start == 0
        assert automaton == Automaton(
            automaton.prefixes, automaton.transitions, automaton.winner, 0
        )
        # every field is given: none has a default
        with pytest.raises(TypeError, match="prefixes, transitions, winner, start"):
            Automaton(automaton.prefixes, automaton.transitions, automaton.winner)

    def test_a_solution_is_its_four_fields(self, example_spec):
        solution, fresh = solve_game(example_spec), solve_game(example_spec)
        assert tuple(vars(solution)) == GameSolution._fields
        assert solution == fresh and hash(solution) == hash(fresh)
        assert repr(solution) == repr(fresh)
        for name in ("pgfs", "tail_gf"):
            assert not hasattr(solution, name)

    def test_a_polynomial_is_not_a_sequence(self):
        assert 2 * S == S * 2 == Polynomial((0, 2))
        assert 1 + S == S + 1 == Polynomial((1, 1))
        for operation in (
            lambda: 2.0 * S,
            lambda: S * [1],
            lambda: S + (1,),
            lambda: (1,) + S,
            lambda: len(S),
            lambda: iter(S),
        ):
            with pytest.raises(TypeError):
                operation()
