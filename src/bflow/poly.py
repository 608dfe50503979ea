"""Exact sparse polynomials over named variables.

A ``Poly`` maps exponent tuples to nonzero ``Fraction`` coefficients: the
k-th entry of a tuple is the power of ``names[k]``. The field layer keeps
polynomial vector fields, their derivatives and the series built from
them in this form, with a symbolic step size or parameter as one more
named variable. Arithmetic between polynomials over different names runs
over the union of the names.

``parse`` reads a polynomial from text by walking its Python syntax tree
against a whitelist; the text is never evaluated. ``float_source`` prints
a polynomial as Python float arithmetic in the order sympy's ``lambdify``
prints the same polynomial, so a compiled field reproduces its values bit
for bit. Only the standard library is imported; ``_sympy_`` converts to a
sympy expression on request, for callers that use sympy as an oracle.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from operator import add

from .errors import DomainError


class Poly:
    """A polynomial with ``Fraction`` coefficients in the variables ``names``."""

    __slots__ = ("names", "terms")

    def __init__(self, names: tuple, terms: dict):
        """``terms`` maps exponent tuples, one entry per name, to nonzero
        Fractions. The dict is adopted, not copied, and never mutated."""
        self.names = names
        self.terms = terms

    @classmethod
    def const(cls, value, names) -> "Poly":
        names = tuple(names)
        return cls(names, {(0,) * len(names): Fraction(value)} if value else {})

    @classmethod
    def var(cls, name: str, names) -> "Poly":
        names = tuple(names)
        return cls(names, {tuple(int(n == name) for n in names): Fraction(1)})

    # -- inspection ------------------------------------------------------

    @property
    def free(self) -> tuple[str, ...]:
        """The names that occur with a positive power, in declaration order."""
        return tuple(n for k, n in enumerate(self.names) if any(e[k] for e in self.terms))

    def constant(self) -> Fraction | None:
        """The value as a Fraction if no variable occurs, else None."""
        if self.free:
            return None
        return next(iter(self.terms.values()), Fraction(0))

    def over(self, names) -> "Poly":
        """The same polynomial in the variables ``names``, which must
        include every free one."""
        names = tuple(names)
        if names == self.names:
            return self
        stray = [n for n in self.free if n not in names]
        if stray:
            raise DomainError(f"unexpected symbols {stray}; expected only {list(names)}")
        slots = [(k, names.index(n)) for k, n in enumerate(self.names) if n in names]
        out = {}
        for exps, c in self.terms.items():
            new = [0] * len(names)
            for k, j in slots:
                new[j] = exps[k]
            out[tuple(new)] = c
        return Poly(names, out)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ------------------------------------------------------

    def _pair(self, other):
        """(names, own terms, other's terms) over shared names, or None for
        an operand that is neither a Poly nor an exact number."""
        if isinstance(other, Poly):
            if other.names == self.names:
                return self.names, self.terms, other.terms
            names = self.names + tuple(n for n in other.names if n not in self.names)
            return names, self.over(names).terms, other.over(names).terms
        if isinstance(other, (int, Fraction)):
            return self.names, self.terms, Poly.const(other, self.names).terms
        return None

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        names, a, b = pair
        return Poly(names, _combine(dict(a), b, 1))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        names, a, b = pair
        return Poly(names, _combine(dict(a), b, -1))

    def __rsub__(self, other):
        return -self + other

    def __neg__(self) -> "Poly":
        return Poly(self.names, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.names, {})
            return Poly(self.names, {e: c * other for e, c in self.terms.items()})
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        names, a, b = pair
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return Poly(names, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise DomainError("division of a polynomial by zero")
        return self * (1 / Fraction(other))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"polynomial powers need a non-negative integer, got {k}")
        out = Poly.const(1, self.names)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[1] == pair[2]

    __hash__ = None

    # -- calculus and evaluation ------------------------------------------

    def diff(self, name: str) -> "Poly":
        """The partial derivative in the variable ``name``."""
        if name not in self.names:
            return Poly(self.names, {})
        k = self.names.index(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[k]:
                out[exps[:k] + (exps[k] - 1,) + exps[k + 1 :]] = c * exps[k]
        return Poly(self.names, out)

    def subs(self, values) -> "Poly":
        """Substitute numbers (or polynomials) for named variables; the
        names stay declared, with power 0 wherever a value went in."""
        slots = [(k, values[n]) for k, n in enumerate(self.names) if n in values]
        numeric: dict = {}
        symbolic = []
        for exps, c in self.terms.items():
            rest = list(exps)
            for k, v in slots:
                c = c * v ** exps[k]
                rest[k] = 0
            rest = tuple(rest)
            if isinstance(c, Poly):
                symbolic.append(c * Poly(self.names, {rest: Fraction(1)}))
            else:
                numeric[rest] = numeric.get(rest, 0) + c
        base = Poly(self.names, {e: c for e, c in numeric.items() if c})
        return sum(symbolic, base)

    # -- printing ----------------------------------------------------------

    def _printed_terms(self, order):
        """Terms in descending lex order of their exponents, read in the
        variable order ``order``."""
        return sorted(self.terms.items(), key=lambda t: [t[0][k] for k in order], reverse=True)

    def __str__(self) -> str:
        parts = []
        for exps, c in self._printed_terms(range(len(self.names))):
            powers = [n if e == 1 else f"{n}**{e}" for n, e in zip(self.names, exps) if e]
            mag = abs(c)
            text = "*".join(([] if mag == 1 and powers else [str(mag)]) + powers)
            parts.append(("-" if c < 0 else "+", text))
        if not parts:
            return "0"
        head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return head + "".join(f" {sign} {text}" for sign, text in parts[1:])

    __repr__ = __str__

    def float_source(self, args) -> str:
        """Python source that evaluates the polynomial in floats at the
        arguments named ``args``, one per variable.

        The order is the one sympy's lambdify prints: variables sorted by
        name, terms in descending lex order of their exponents, each term
        its float coefficient times the powers, multiplied left to right.
        A coefficient beyond the float range raises DomainError.
        """
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        parts = []
        for exps, c in self._printed_terms(order):
            try:
                value = float(c)
            except OverflowError:
                term = Poly(self.names, {exps: Fraction(1)})
                size = math.log10(abs(c.numerator)) - math.log10(c.denominator)
                raise DomainError(
                    f"the coefficient of {term}, about 1e{size:.0f}, is beyond the float range"
                ) from None
            powers = [args[k] if exps[k] == 1 else f"{args[k]}**{exps[k]}" for k in order if exps[k]]
            parts.append("*".join([repr(value)] + powers))
        return " + ".join(parts) or "0.0"

    def _sympy_(self):
        import sympy

        syms = [sympy.Symbol(n) for n in self.names]
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s**e for s, e in zip(syms, exps)))
                for exps, c in self.terms.items()
            )
        )


def _combine(out: dict, terms: dict, sign: int) -> dict:
    """Add sign * terms into out, dropping coefficients that cancel."""
    for e, c in terms.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def parse(text: str, names=None) -> Poly:
    """Read a polynomial from text.

    Accepted: ``+``, ``-``, ``*``, unary signs, ``**`` or ``^`` with a
    non-negative integer exponent, division by a nonzero constant, the
    declared ``names`` (by default every name in the text, in order of
    first appearance) and int and float literals, read exactly (``0.1``
    is 1/10). Anything else raises ``DomainError``.
    """
    source = str(text).replace("^", "**").strip()
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise DomainError(f"cannot parse polynomial {text!r}: {exc.msg}") from None
    if names is None:
        found = sorted(
            (n for n in ast.walk(tree) if isinstance(n, ast.Name)),
            key=lambda n: (n.lineno, n.col_offset),
        )
        names = dict.fromkeys(n.id for n in found)
    return _read(tree.body, source, tuple(names))


def _read(node, source: str, names: tuple) -> Poly:
    def text(node) -> str:
        return repr(ast.get_source_segment(source, node))

    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        k = _read(node.right, source, names).constant()
        if k is None or k.denominator != 1:
            raise DomainError(f"exponent must be a non-negative integer: {text(node)}")
        return _read(node.left, source, names) ** int(k)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        d = _read(node.right, source, names).constant()
        if not d:
            raise DomainError(f"division only by a nonzero constant: {text(node)}")
        return _read(node.left, source, names) / d
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
        left, right = _read(node.left, source, names), _read(node.right, source, names)
        if isinstance(node.op, ast.Add):
            return left + right
        return left - right if isinstance(node.op, ast.Sub) else left * right
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _read(node.operand, source, names)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise DomainError(f"unexpected symbol {node.id!r}; expected one of {list(names)}")
        return Poly.var(node.id, names)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value
        if isinstance(value, float):
            value = Fraction(ast.get_source_segment(source, node).replace("_", ""))
        return Poly.const(value, names)
    raise DomainError(f"not a polynomial expression: {text(node)}")
