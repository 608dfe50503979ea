"""Runge-Kutta tableaus: exact rational coefficients, the plain-text file
format, and the builtin schemes with their classical orders.

This module needs only ``fractions``, so the float steppers read a
tableau without loading the B-series layer; ``bseries_hopf`` re-exports
every name here and computes elementary weights and order conditions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ParseError


class RKTableau:
    """An s-stage Runge-Kutta scheme with exact rational coefficients.
    ``order`` is its classical order where that is known data (the
    builtins), else None."""

    __slots__ = ("name", "s", "a", "b", "c", "floats", "order")

    def __init__(self, a, b, c=None, name: str = "", order: int | None = None):
        self.a = tuple(tuple(Fraction(x) for x in row) for row in a)
        self.b = tuple(Fraction(x) for x in b)
        self.s = len(self.b)
        if len(self.a) != self.s or any(len(row) != self.s for row in self.a):
            raise DomainError("tableau matrix must be square and match b")
        derived = tuple(sum(row, Fraction(0)) for row in self.a)
        if c is not None:
            given = tuple(Fraction(x) for x in c)
            if given != derived:
                raise DomainError("tableau abscissae must equal the row sums exactly")
        self.c = derived
        self.name = name
        self.order = order
        # a, b and c as floats, for the numerical steppers
        self.floats = (
            tuple(tuple(float(x) for x in row) for row in self.a),
            tuple(float(x) for x in self.b),
            tuple(float(x) for x in self.c),
        )

    @property
    def is_explicit(self) -> bool:
        return all(
            self.a[i][j] == 0 for i in range(self.s) for j in range(i, self.s)
        )

    def __repr__(self) -> str:
        return f"RKTableau(name={self.name!r}, s={self.s})"


def parse_tableau(text: str, name: str = "file") -> RKTableau:
    """Read the plain-text format: line 1 is s, then s rows of a, then b."""
    tokens = [line.split() for line in text.splitlines() if line.strip()]
    if not tokens:
        raise ParseError("empty tableau", text, 0)
    try:
        s = int(tokens[0][0])
    except (ValueError, IndexError) as exc:
        raise ParseError("first tableau line must be the stage count", text, 0) from exc
    if len(tokens) != s + 2:
        raise ParseError(
            f"expected {s} matrix rows plus weights, got {len(tokens) - 1} lines", text, 0
        )
    try:
        a = [[Fraction(x) for x in tokens[1 + i]] for i in range(s)]
        b = [Fraction(x) for x in tokens[1 + s]]
    except ValueError as exc:
        raise ParseError(f"bad rational in tableau: {exc}", text, 0) from exc
    if any(len(row) != s for row in a) or len(b) != s:
        raise ParseError("tableau rows must have exactly s entries", text, 0)
    return RKTableau(a, b, name=name)


def read_tableau(path: str) -> RKTableau:
    """Read a tableau file in the ``parse_tableau`` format, named by its
    path. An unreadable file raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tableau(fh.read(), name=path)


def _f(x: str) -> Fraction:
    return Fraction(x)


BUILTIN_TABLEAUS: dict[str, RKTableau] = {
    "euler": RKTableau([[0]], [1], name="euler", order=1),
    "explicit_midpoint": RKTableau(
        [[0, 0], [_f("1/2"), 0]], [0, 1], name="explicit_midpoint", order=2
    ),
    "implicit_midpoint": RKTableau([[_f("1/2")]], [1], name="implicit_midpoint", order=2),
    "rk4": RKTableau(
        [
            [0, 0, 0, 0],
            [_f("1/2"), 0, 0, 0],
            [0, _f("1/2"), 0, 0],
            [0, 0, 1, 0],
        ],
        [_f("1/6"), _f("1/3"), _f("1/3"), _f("1/6")],
        name="rk4",
        order=4,
    ),
}


def builtin_tableau(name: str) -> RKTableau:
    try:
        return BUILTIN_TABLEAUS[name]
    except KeyError:
        raise DomainError(
            f"unknown tableau {name!r}; builtins: {', '.join(sorted(BUILTIN_TABLEAUS))}"
        ) from None
