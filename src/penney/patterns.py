"""Alphabets with exact symbol probabilities, patterns, and pattern-set validation.

A game is a source model (finite alphabet, one positive rational probability
per symbol, summing to one) plus a substring-free set of patterns over that
alphabet. Substring-freeness is what makes the winner at the stopping time
unique, so it is enforced here as a hard validation error rather than left to
the solver to misbehave on.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from types import MappingProxyType


class ValidationError(ValueError):
    """A source model, pattern, or pattern set violates the game's hypotheses."""


class Record:
    """Base of the package's value types: a read-only record, equal to and
    hashed like another record of its class with equal fields.

    `_fields` names the fields in order, and the constructor takes exactly
    their values in that order. A subclass that validates writes its own
    `__init__`, which either stores each field in the instance dict or
    calls this one and then checks the stored fields.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        cls = type(self)
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls._fields)}")
        self.__dict__.update(zip(cls._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild a record through its constructor, which
        # derives what is not a field, such as a model's weights
        return type(self), self._values()

    def _read_only(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is read-only")

    __setattr__ = __delattr__ = _read_only


def _coerce_probability(value) -> Fraction:
    if isinstance(value, float):
        raise ValidationError(
            "symbol probabilities must be exact (Fraction, int, or string), not float"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"cannot parse probability {value!r}: {exc}") from None


class SourceModel(Record):
    """Finite alphabet with one exact positive probability per symbol.

    Symbol labels may be multi-character; no label may be a prefix of another,
    so at most one label matches at each position of a pattern's text.
    """

    _fields = ("symbols", "probs")
    symbols: tuple[str, ...]
    probs: tuple[Fraction, ...]
    # Least common multiple D of the probability denominators, computed once:
    # every probability is an integer multiple of 1/D, so any product of k
    # symbol probabilities is an integer over D**k.
    common_denominator: int
    # D * P(symbol) per symbol, in symbol order: the integers over D that weigh
    # every correlation polynomial and bound the simulator's draws. They sum to
    # D. Read-only, as the record is.
    weights: MappingProxyType[str, int]

    def __init__(self, symbols: Iterable[str], probs: Iterable) -> None:
        labels = tuple(symbols)
        values = tuple(_coerce_probability(p) for p in probs)
        if len(labels) < 2:
            raise ValidationError("a source model needs at least two symbols")
        if len(labels) != len(values):
            raise ValidationError("one probability per symbol required")
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValidationError(f"symbol label must be a nonempty string: {label!r}")
            if any(ch in ":," or ch.isspace() for ch in label):
                raise ValidationError(f"symbol label may not contain ':', ',' or spaces: {label!r}")
        if len(set(labels)) != len(labels):
            raise ValidationError("symbol labels must be distinct")
        # labels between a and a longer label it begins have a as prefix too,
        # so a prefix of any label is a prefix of the next label in sorted order
        ordered = sorted(labels)
        for a, b in zip(ordered, ordered[1:]):
            if b.startswith(a):
                raise ValidationError(f"ambiguous alphabet: {a!r} is a prefix of {b!r}")
        for label, p in zip(labels, values):
            if p <= 0:
                raise ValidationError(
                    f"probability of {label!r} must be positive (got {p}); "
                    "zero-probability symbols would make some patterns wait forever"
                )
        if sum(values) != 1:
            raise ValidationError(f"probabilities must sum to exactly 1 (got {sum(values)})")
        common = math.lcm(*(p.denominator for p in values))
        self.__dict__.update(
            symbols=labels,
            probs=values,
            common_denominator=common,
            weights=MappingProxyType(
                {s: p.numerator * (common // p.denominator) for s, p in zip(labels, values)}
            ),
            _lookup={s: i for i, s in enumerate(labels)},
        )

    @classmethod
    def from_text(cls, text: str) -> "SourceModel":
        """Parse ``"H:1/2,T:1/2"``: comma-separated symbol:probability pairs, exact."""
        symbols, probs = [], []
        for chunk in text.split(","):
            part = chunk.strip()
            if part.count(":") != 1:
                raise ValidationError(f"expected SYMBOL:PROBABILITY, got {part!r}")
            label, value = part.split(":")
            symbols.append(label.strip())
            probs.append(value.strip())
        return cls(symbols, probs)

    def index(self, symbol: str) -> int:
        if symbol not in self._lookup:
            raise ValidationError(f"symbol {symbol!r} is not in the alphabet")
        return self._lookup[symbol]


class Pattern(Record):
    """A nonempty string of alphabet symbols a player bets on appearing first."""

    _fields = ("symbols",)
    symbols: tuple[str, ...]

    def __init__(self, symbols: Iterable[str]) -> None:
        syms = tuple(symbols)
        if not syms:
            raise ValidationError("a pattern must have at least one symbol")
        self.__dict__.update(symbols=syms)

    @property
    def length(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return "".join(self.symbols)


def parse_pattern(text: str, model: SourceModel) -> Pattern:
    """Tokenize pattern text into alphabet symbols. No label of the model is a
    prefix of another, so at most one label matches at each position."""
    if not text:
        raise ValidationError("empty pattern")
    out: list[str] = []
    i = 0
    while i < len(text):
        for label in model.symbols:
            if text.startswith(label, i):
                out.append(label)
                i += len(label)
                break
        else:
            raise ValidationError(f"unrecognized symbol at position {i} in {text!r}")
    return Pattern(out)


def delimited(symbols: Iterable[str]) -> str:
    """The text "," + each symbol + ",": () is "," and ("H", "T") is ",H,T,".
    `SourceModel` refuses "," and whitespace in labels, so a match of one text
    in another, or in texts joined by "\n", never starts or ends inside a
    symbol: `a in b` says that a's symbols occur inside b's, and
    `b.endswith(a)` that they end b's."""
    return ",".join(("", *symbols, ""))


def undelimited(text: str) -> tuple[str, ...]:
    """The symbols whose `delimited` text is `text`: "," is () and ",H,T," is
    ("H", "T")."""
    return tuple(text[1:-1].split(",")) if text != "," else ()


class GameSpec(Record):
    """A validated game: source model plus distinct, substring-free patterns."""

    _fields = ("model", "patterns")
    model: SourceModel
    patterns: tuple[Pattern, ...]

    def __init__(self, model: SourceModel, patterns: Iterable[Pattern]) -> None:
        pats = tuple(patterns)
        if not pats:
            raise ValidationError("at least one pattern required")
        alphabet = set(model.symbols)
        for idx, pattern in enumerate(pats, start=1):
            for symbol in pattern.symbols:
                if symbol not in alphabet:
                    raise ValidationError(
                        f"pattern {idx} ({pattern}) uses symbol {symbol!r} outside the alphabet"
                    )
        # of two equal patterns the one listed first is met first, as pattern i
        texts = [delimited(p.symbols) for p in pats]
        for i, (a, text) in enumerate(zip(pats, texts)):
            for j, other in enumerate(texts):
                if i != j and text in other:
                    if text == other:
                        raise ValidationError(f"patterns {i + 1} and {j + 1} are duplicates: {a}")
                    raise ValidationError(
                        f"pattern {i + 1} ({a}) occurs inside pattern {j + 1} "
                        f"({pats[j]}); substring-free sets required"
                    )
        self.__dict__.update(model=model, patterns=pats)

    @property
    def player_count(self) -> int:
        return len(self.patterns)


def validate_pattern_set(patterns: Iterable[Pattern], model: SourceModel) -> GameSpec:
    """Validate and freeze a pattern set; raises ValidationError naming offenders."""
    return GameSpec(model, tuple(patterns))
