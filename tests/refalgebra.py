"""Reference algebra over `penney.polyalg`'s value types, for the tests only.

The library gets every value and every generating function from one
fraction-free integer elimination (`penney.solver._cramer`; for the
generating functions each polynomial entry is packed into one integer at
u = 2**bits) and the win-time series from the paper's integer recurrence
(`penney.solver.game_distribution`). The routes here are independent of
both: a square polynomial matrix, Bareiss and cofactor determinants,
polynomial long division, derivatives and the Taylor series of a rational
function. The tests replay the paper's determinant identities,
Cramer's rule and the series with them. Nothing here imports
`penney.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from penney.polyalg import ONE, Polynomial, RationalFunction, Scalar, _as_polynomial

ZERO = Polynomial()


class SingularAtOriginError(ZeroDivisionError):
    """Series expansion requested for a ratio whose denominator vanishes at 0."""


def coefficient(p: Polynomial, k: int) -> Fraction:
    """The coefficient of s**k in p, 0 past its degree."""
    return p.coeffs[k] if 0 <= k < len(p.coeffs) else Fraction(0)


def series(f: RationalFunction, n: int) -> list[Fraction]:
    """First n+1 Taylor coefficients of f at 0, by the exact division recurrence.

    c_k = (numer_k - sum_{j>=1} denom_j * c_{k-j}) / denom_0.
    """
    if n < 0:
        raise ValueError("series length must be nonnegative")
    d0 = coefficient(f.denom, 0)
    if d0 == 0:
        raise SingularAtOriginError("denominator vanishes at the origin")
    dcs = f.denom.coeffs
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = coefficient(f.numer, k)
        for j in range(1, min(k, len(dcs) - 1) + 1):
            acc -= dcs[j] * out[k - j]
        out.append(acc / d0)
    return out


def as_fractions(distribution: list[list[tuple[Decimal, Decimal]]]) -> list[list[Fraction]]:
    """`game_distribution`'s (n, d) pairs per player, as Fractions."""
    return [[Fraction(int(n), int(d)) for n, d in player] for player in distribution]


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix of polynomials, such as the correlation matrix M(s).

    Column indices on the public surface are 1-based, matching the usual
    mathematical convention for Cramer-style column replacement.
    """

    rows: tuple[tuple[Polynomial, ...], ...]

    def __init__(self, rows: Iterable[Iterable["Polynomial | Scalar"]]) -> None:
        grid = tuple(tuple(_as_polynomial(entry) for entry in row) for row in rows)
        if not grid or any(len(row) != len(grid) for row in grid):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", grid)

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def replace_column(self, column: int, values: Sequence["Polynomial | Scalar"]) -> "PolyMatrix":
        """New matrix with 1-based `column` replaced by `values`; self unchanged."""
        n = self.dimension
        if not 1 <= column <= n:
            raise IndexError(f"column index {column} out of range 1..{n}")
        if len(values) != n:
            raise ValueError(f"replacement column must have {n} entries")
        j = column - 1
        fresh = tuple(_as_polynomial(v) for v in values)
        return PolyMatrix(
            tuple(row[:j] + (fresh[i],) + row[j + 1 :] for i, row in enumerate(self.rows))
        )

    def evaluate(self, at: Scalar) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(entry.evaluate(at) for entry in row) for row in self.rows)


def divide(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of polynomial long division, deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return ZERO, a
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    span = len(b.coeffs)
    quot = [Fraction(0)] * (len(rem) - span + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + span - 1] / lead
        if c:
            quot[i] = c
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= c * bc
    return Polynomial(quot), Polynomial(rem[: span - 1])


def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient when the division is exact; raises ArithmeticError otherwise."""
    quotient, remainder = divide(a, b)
    if not remainder.is_zero():
        raise ArithmeticError(f"({a}) is not divisible by ({b})")
    return quotient


def derivative(p: Polynomial) -> Polynomial:
    return Polynomial(k * c for k, c in enumerate(p.coeffs) if k)


def rational_derivative(f: RationalFunction) -> RationalFunction:
    """Quotient rule, with no reduction: (n'd - nd') / d**2."""
    n, d = f.numer, f.denom
    return RationalFunction(derivative(n) * d - n * derivative(d), d * d)


def determinant(matrix: PolyMatrix) -> Polynomial:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every interior division is by the previous pivot and is exact in the
    polynomial ring, so intermediates never leave Polynomial.
    """
    n = matrix.dimension
    work = [list(row) for row in matrix.rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if work[k][k].is_zero():
            for r in range(k + 1, n):
                if not work[r][k].is_zero():
                    work[k], work[r] = work[r], work[k]
                    sign = -sign
                    break
            else:
                return ZERO
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = exact_div(work[i][j] * pivot - work[i][k] * work[k][j], prev)
            work[i][k] = ZERO
        prev = pivot
    result = work[n - 1][n - 1]
    return -result if sign < 0 else result


def determinant_cofactor(matrix: PolyMatrix) -> Polynomial:
    """Determinant by first-row cofactor expansion: exponential in the
    dimension, so only for small matrices, as a check on `determinant`."""
    rows = matrix.rows
    if len(rows) == 1:
        return rows[0][0]
    total = ZERO
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = PolyMatrix(tuple(row[:j] + row[j + 1 :] for row in rows[1:]))
        term = entry * determinant_cofactor(minor)
        total = total + (-term if j % 2 else term)
    return total
