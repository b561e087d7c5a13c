"""Exact univariate polynomials and rational functions.

These are the value types the game solver returns: every generating
function and its numerator and denominator. The solver's own arithmetic
runs over integers (see `penney.solver`); these types carry the results.
They are evaluated, not expanded: the win-time series come from the paper's
recurrence (`penney.solver.game_distribution`), and the Taylor expansion of a
`RationalFunction`, its independent check, lives with the tests in
`tests/refalgebra.py`.
Everything here is arbitrary precision and exact: coefficients are
`fractions.Fraction`, arithmetic never rounds, and equality is decidable.
Polynomials are dense coefficient tuples in a single formal variable (written
``s`` throughout): degrees stay bounded by the combined pattern length, so
sparse storage would buy nothing.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .patterns import Record

Scalar = Fraction | int


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Polynomial(Record):
    """Dense univariate polynomial; ``coeffs[k]`` is the coefficient of s**k.

    Trailing zeros are trimmed on construction, so the zero polynomial is the
    empty tuple (never a stored zero coefficient).
    """

    _fields = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.__dict__.update(coeffs=tuple(cs))

    @staticmethod
    def constant(value: Scalar) -> "Polynomial":
        return Polynomial((value,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, at: Scalar) -> Fraction:
        """Exact Horner evaluation."""
        point = _coerce(at)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (Fraction, int)):
            return Polynomial(c * other for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
                continue
            var = "s" if k == 1 else f"s^{k}"
            if c == 1:
                terms.append(var)
            elif c == -1:
                terms.append(f"-{var}")
            else:
                terms.append(f"{c}*{var}")
        return " + ".join(terms).replace("+ -", "- ")


ONE = Polynomial((1,))
S = Polynomial((0, 1))  # the formal variable


def _as_polynomial(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


class RationalFunction(Record):
    """Exact ratio of two polynomials.

    Representations are never reduced by polynomial GCDs; evaluation is
    exact regardless. The solver gives every player's pgf the same
    denominator, so sums over players are sums of numerators.
    """

    _fields = ("numer", "denom")
    numer: Polynomial
    denom: Polynomial

    def __init__(self, numer: "Polynomial | Scalar", denom: "Polynomial | Scalar" = ONE) -> None:
        top = _as_polynomial(numer)
        bottom = _as_polynomial(denom)
        if bottom.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.__dict__.update(numer=top, denom=bottom)

    def evaluate(self, at: Scalar) -> Fraction:
        value = self.denom.evaluate(at)
        if value == 0:
            raise ZeroDivisionError(f"denominator vanishes at s={_coerce(at)}")
        return self.numer.evaluate(at) / value

    def __str__(self) -> str:
        return f"({self.numer}) / ({self.denom})"
