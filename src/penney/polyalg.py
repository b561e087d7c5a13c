"""Exact univariate polynomials and rational functions.

These are the value types the game solver returns: every generating
function and its numerator and denominator. The solver's own arithmetic
runs over integers (see `penney.solver`); these types carry the results.
Everything here is arbitrary precision and exact: coefficients are
`fractions.Fraction`, arithmetic never rounds, and equality is decidable.
Polynomials are dense coefficient tuples in a single formal variable (written
``s`` throughout): degrees stay bounded by the combined pattern length, so
sparse storage would buy nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int]


class SingularAtOriginError(ZeroDivisionError):
    """Series expansion requested for a ratio whose denominator vanishes at 0."""


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; ``coeffs[k]`` is the coefficient of s**k.

    Trailing zeros are trimmed on construction, so the zero polynomial is the
    empty tuple and its degree is -inf (never a stored zero coefficient).
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def constant(value: Scalar) -> "Polynomial":
        return Polynomial((value,))

    @property
    def degree(self) -> "int | float":
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

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


ZERO = Polynomial()
ONE = Polynomial((1,))
S = Polynomial((0, 1))  # the formal variable


def _as_polynomial(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


@dataclass(frozen=True)
class RationalFunction:
    """Exact ratio of two polynomials.

    Representations are never reduced by polynomial GCDs; evaluation and
    series extraction are exact regardless. The solver gives every player's
    pgf the same denominator, so sums over players are sums of numerators.
    """

    numer: Polynomial
    denom: Polynomial

    def __init__(self, numer: "Polynomial | Scalar", denom: "Polynomial | Scalar" = ONE) -> None:
        top = _as_polynomial(numer)
        bottom = _as_polynomial(denom)
        if bottom.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "numer", top)
        object.__setattr__(self, "denom", bottom)

    def evaluate(self, at: Scalar) -> Fraction:
        value = self.denom.evaluate(at)
        if value == 0:
            raise ZeroDivisionError(f"denominator vanishes at s={_coerce(at)}")
        return self.numer.evaluate(at) / value

    def series(self, n: int) -> list[Fraction]:
        """First n+1 Taylor coefficients at 0, by the exact division recurrence.

        c_k = (numer_k - sum_{j>=1} denom_j * c_{k-j}) / denom_0.
        """
        if n < 0:
            raise ValueError("series length must be nonnegative")
        d0 = self.denom.coefficient(0)
        if d0 == 0:
            raise SingularAtOriginError("denominator vanishes at the origin")
        dcs = self.denom.coeffs
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = self.numer.coefficient(k)
            for j in range(1, min(k, len(dcs) - 1) + 1):
                acc -= dcs[j] * out[k - j]
            out.append(acc / d0)
        return out

    def __str__(self) -> str:
        return f"({self.numer}) / ({self.denom})"
