"""Tests for the exact sparse polynomial: arithmetic and calculus against
sympy, the whitelist parser, and the float path against sympy's lambdify.

sympy is a test oracle only; bflow never imports it.
"""

from __future__ import annotations

import builtins
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from bflow.errors import DomainError
from bflow.integrators import PolyVectorField
from bflow.poly import Poly, parse

NAMES = ("y0", "y1", "y2")


def random_text(rng: random.Random, names=NAMES, degree=4, terms=5, floats=True) -> str:
    """A polynomial as text: rational and float-literal coefficients,
    monomials of total degree at most ``degree``, and a constant term."""
    parts = []
    for _ in range(rng.randint(1, terms)):
        exps = [0] * len(names)
        for _ in range(rng.randint(1, degree)):
            exps[rng.randrange(len(names))] += 1
        if floats and rng.random() < 0.5:
            coeff = f"{rng.choice('+-')}{rng.randint(0, 99)}.{rng.randint(0, 999):03d}"
            if rng.random() < 0.3:
                coeff += f"e{rng.randint(-3, 2)}"
        else:
            coeff = f"{rng.choice('+-')}{rng.randint(1, 12)}/{rng.randint(1, 9)}"
        powers = [n if e == 1 else f"{n}**{e}" for n, e in zip(names, exps) if e]
        parts.append("*".join([f"({coeff})"] + powers))
    parts.append(f"({rng.randint(-5, 5)}/{rng.randint(1, 7)})")
    return " + ".join(parts)


def sympy_field(texts):
    """The components as the sympy-based parser read them."""
    syms = sympy.symbols(f"y0:{len(texts)}")
    local = {str(s): s for s in syms}
    return syms, [sympy.expand(sympy.sympify(t, locals=local, rational=True)) for t in texts]


def random_poly(rng: random.Random, names=NAMES) -> Poly:
    return parse(random_text(rng, names, degree=3, terms=4, floats=False), names)


# ---------------------------------------------------------------------------
# Arithmetic and calculus, with sympy as the oracle
# ---------------------------------------------------------------------------


class TestArithmetic:
    def test_ring_operations_match_sympy(self):
        rng = random.Random(11)
        for _ in range(40):
            p, q = random_poly(rng), random_poly(rng)
            P, Q = sympy.sympify(p), sympy.sympify(q)
            k = rng.randint(0, 3)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            C = sympy.Rational(c.numerator, c.denominator)
            cases = [
                (p + q, P + Q), (p - q, P - Q), (p * q, P * Q), (p**k, P**k),
                (-p, -P), (c * p, C * P), (p + c, P + C), (c - p, C - P),
            ]
            for got, want in cases:
                assert sympy.expand(sympy.sympify(got) - want) == 0

    def test_derivatives_match_sympy(self):
        rng = random.Random(12)
        for _ in range(30):
            p = random_poly(rng)
            for name in NAMES:
                want = sympy.diff(sympy.sympify(p), sympy.Symbol(name))
                assert sympy.expand(sympy.sympify(p.diff(name)) - want) == 0

    def test_substitution_and_constants(self):
        rng = random.Random(13)
        for _ in range(30):
            p = random_poly(rng)
            point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in NAMES}
            want = sympy.sympify(p).subs({sympy.Symbol(n): sympy.Rational(v) for n, v in point.items()})
            value = p.subs(point).constant()
            assert isinstance(value, Fraction)
            assert value == Fraction(int(want.p), int(want.q))
            partial = p.subs({"y0": point["y0"]})
            assert "y0" not in partial.free
            assert partial.subs(point).constant() == value
            q = random_poly(rng, ("t", "y1"))
            want = sympy.sympify(p).subs(sympy.Symbol("y0"), sympy.sympify(q))
            assert sympy.expand(sympy.sympify(p.subs({"y0": q})) - want) == 0

    def test_variables_join_by_name(self):
        h = Poly.var("h", ("h",))
        y = parse("y0**2 + 1", ("y0",))
        prod = h * y
        assert prod.names == ("h", "y0")
        assert prod == parse("h*y0**2 + h", ("y0", "h"))
        assert prod.over(("y0", "h", "k")).names == ("y0", "h", "k")
        with pytest.raises(DomainError):
            prod.over(("y0",))
        assert (h - h).constant() == 0 and not (h - h)
        assert (h**0).constant() == 1
        assert Poly(("y0",), {(2,): Fraction(3)}) == parse("3*y0**2", ("y0",))

    def test_str_reads_back_through_sympy(self):
        rng = random.Random(14)
        for _ in range(30):
            p = random_poly(rng)
            assert sympy.sympify(str(p)) == sympy.sympify(p)
            assert parse(str(p), NAMES) == p
        assert str(Poly.const(0, NAMES)) == "0"
        assert str(parse("-y0*y1**2/3 + 1 - y2", NAMES)) == "-1/3*y0*y1**2 - y2 + 1"


# ---------------------------------------------------------------------------
# The parser
# ---------------------------------------------------------------------------


REJECTED = [
    "sin(y0)",
    "y0**-1",
    "y0**0.5",
    "2**y0",
    "y0/y1",
    "y0/0",
    "y0 +* 2",
    "y0 + z",
    "__import__('os')",
    "__import__('os').system('false')",
    "y0.real",
    "y0[0]",
    "(lambda: y0)()",
    "lambda y0: y0",
    "y0 < y1",
    "y0 if y1 else 1",
    "'y0'",
    "1j*y0",
    "True*y0",
    "y0 % 2",
    "y0 // 2",
    "[y0]",
    "",
]


class TestParser:
    @pytest.mark.parametrize("text", REJECTED)
    def test_rejects_anything_but_polynomials(self, text, monkeypatch):
        """Each input raises DomainError, and parsing it calls no eval,
        exec or import."""
        calls = []
        real_import = builtins.__import__

        def record(name):
            def fn(*args, **kwargs):
                calls.append((name, args[:1]))
                return real_import(*args, **kwargs) if name == "import" else None

            return fn

        with monkeypatch.context() as m:
            for name in ("eval", "exec", "__import__"):
                m.setattr(builtins, name, record(name.strip("_")))
            try:
                parse(text, ("y0", "y1"))
            except DomainError:
                rejected = True
            else:
                rejected = False
        assert rejected, text
        assert calls == [], calls

    def test_caret_is_a_power(self):
        names = ("y0", "y1")
        assert parse("y0^2", names) == parse("y0**2", names)
        assert parse("2*y0^2 + y1", names) == parse("2*y0**2 + y1", names)

    def test_float_literals_are_read_exactly(self):
        p = parse("0.1*y0", ("y0",))
        assert p.terms == {(1,): Fraction(1, 10)}
        assert parse("1e-3 + 2.5", ()).constant() == Fraction(2501, 1000)
        assert parse("1_000.5", ()).constant() == Fraction(2001, 2)

    def test_constant_exponents_and_divisors(self):
        names = ("y0",)
        assert parse("y0**(1+1)", names) == parse("y0*y0", names)
        assert parse("(y0 + 1)/(2*3)", names) == parse("y0/6 + 1/6", names)
        assert parse("-+y0", names) == -Poly.var("y0", names)

    def test_undeclared_names_are_collected_when_none_are_given(self):
        p = parse("b*h + a")
        assert p.names == ("b", "h", "a")


# ---------------------------------------------------------------------------
# The float path against sympy's lambdify, bit for bit
# ---------------------------------------------------------------------------


def _lambdify_reference(texts):
    syms, exprs = sympy_field(texts)
    compiled = sympy.lambdify(syms, sympy.Matrix(exprs), "numpy")
    n = len(texts)
    return lambda y: np.asarray(compiled(*np.asarray(y, dtype=float).reshape(n)), dtype=float).reshape(n)


def _assert_bitwise_equal(texts, points):
    got = PolyVectorField.from_strings(texts).as_callable()
    want = _lambdify_reference(texts)
    for y in points:
        a, b = got(y), want(y)
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes(), (texts, y, a, b)


def _points(rng: np.random.Generator, n: int, count: int = 20):
    pts = [rng.normal(scale=2.0, size=n) for _ in range(count)]
    pts.append(np.zeros(n))
    pts.append(-np.zeros(n))
    return pts


CUBIC_2D = [
    "y0**3/2 - 2*y0*y1 + 3*y1**2 - y1 + 2",
    "y0**2*y1 - y1**3/3 + y0 - 5/7",
]


@pytest.mark.parametrize(
    "texts",
    [CUBIC_2D, ["y1", "-y0", "-y2/2"], ["y0**2", "y1"], ["y0", "1", "0"]],
    ids=["cubic_2d", "linear", "readme", "constants"],
)
def test_callable_matches_lambdify_bit_for_bit(texts):
    _assert_bitwise_equal(texts, _points(np.random.default_rng(5), len(texts)))


def test_callable_matches_lambdify_on_random_fields():
    rng = random.Random(2024)
    nrng = np.random.default_rng(2024)
    for _ in range(50):
        texts = [random_text(rng) for _ in range(3)]
        _assert_bitwise_equal(texts, _points(nrng, 3, count=5))


def test_callable_matches_lambdify_with_names_past_y9():
    """lambdify orders variables by name, so y10 sorts before y2."""
    rng = random.Random(7)
    names = tuple(f"y{k}" for k in range(12))
    texts = [random_text(rng, names, degree=3, terms=6) for _ in range(12)]
    _assert_bitwise_equal(texts, _points(np.random.default_rng(7), 12, count=5))
