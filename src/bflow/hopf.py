"""The convolution calculus shared by the two Hopf algebras of forests.

B-series are coefficient maps on non-planar forests, convolved against
the pruning (BCK) coproduct; Lie-Butcher series are maps on planar
forests, convolved against the MKW coproduct. In both, composing series
is convolution, and the convolution logarithm of a character is the
infinitesimal character of its backward-error field: the eulerian
logarithm on the planar side, the modified field of Murua (FoCM 2006) and
of Chartier, Hairer & Vilmart (FoCM 2010) on the other. ``Coeff`` is the
coefficient-map base, ``convolve`` the one convolution and
``convolution_series`` the one exp/log series; ``bseries_hopf.BCoeff`` and
``lbseries.LBCoeff`` bring the basis, the coproduct and the kind rule.

Values are Fractions, but sums of products of them are not added as
Fractions. A coefficient map splits a value into the factors of its kind
rule (``Coeff._factors``), every coproduct multiplicity is an integer,
and ``exact_sum`` adds the integer numerators of all the terms of one
value over one common denominator, building a single Fraction per value.
Convolution, the exp/log series, substitution, the modified-field solve,
and the planar ``dynkin_apply``, ``q_apply`` and ``lb_substitute`` all
sum through it.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable

from .algebra import FormalSum
from .errors import CapacityError, DomainError
from .forest_core import enumerate_forests

KINDS = ("character", "infinitesimal", "plain")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def exact_sum(terms: Iterable[tuple[int, Iterable[Fraction]]], divisor: int = 1) -> Fraction:
    """sum c * prod(factors) over the terms (c, factors), c an int and the
    factors Fractions, divided by the positive int divisor, as one Fraction.

    Each term is read once, as the integer c * prod(numerators) over
    prod(denominators), and added to an integer total over one common
    denominator, the lcm of the term denominators so far; the total is
    rescaled when a term's denominator does not divide it. One Fraction
    is built, at the end. The terms are not collected first, so only one
    of them is alive at a time."""
    total, scale = 0, 1
    for c, factors in terms:
        num, den = c, 1
        for f in factors:
            num *= f.numerator
            den *= f.denominator
        if num:
            if scale % den:
                grown = math.lcm(scale, den)
                total *= grown // scale
                scale = grown
            total += num * (scale // den)
    return Fraction(total, scale * divisor)


# one Fraction per distinct multiplicity, shared by every memoised sum
_fraction = functools.lru_cache(maxsize=None)(Fraction)


def wrap_rows(rows: dict) -> FormalSum:
    """Integer rows, basis element to int multiplicity, as a sum: one
    shared Fraction per nonzero row, and no Fraction added."""
    return FormalSum._wrap({x: _fraction(m) for x, m in rows.items() if m})


class Coeff:
    """A truncated rational coefficient map on the forests of one Hopf
    algebra.

    A ``character`` is 1 on the empty forest and multiplicative, an
    ``infinitesimal`` map is 0 on the empty forest and on products, and a
    ``plain`` map claims nothing. ``fn`` gives the values the subclass
    stores, each computed once; its ``_factors`` (the kind rule) gives the
    stored values whose product is the value at a basis element, or None
    where the kind rule makes it 0. Values are defined up to the
    truncation order ``N``; anything of higher order raises CapacityError.
    """

    __slots__ = ("kind", "N", "_fn", "_cache")
    basis: type  # the forest class, Forest or PlanarForest
    coproduct: Callable[..., FormalSum]  # a forest to a sum of Tensors

    def __init__(self, kind: str, N: int, fn: Callable):
        if kind not in KINDS:
            raise DomainError(f"unknown coefficient kind {kind!r}")
        self.kind = kind
        self.N = N
        self._fn = fn
        self._cache: dict = {}

    def _beyond(self, x) -> CapacityError:
        return CapacityError(
            f"coefficient map truncated at order {self.N}, asked for order {x.order}"
        )

    def _cached(self, x) -> Fraction:
        """``fn`` at x, computed once; the cache holds nothing beyond N."""
        value = self._cache.get(x)
        if value is None:
            if x.order > self.N:
                raise self._beyond(x)
            value = self._cache[x] = Fraction(self._fn(x))
        return value

    def _factors(self, x) -> tuple[Fraction, ...] | None:
        raise NotImplementedError

    def _value(self, x) -> Fraction:
        factors = self._factors(x)
        if factors is None:
            return _ZERO
        return functools.reduce(operator.mul, factors) if factors else _ONE

    def __call__(self, x) -> Fraction:
        if isinstance(x, FormalSum):
            return sum((coeff * self(basis) for basis, coeff in x), Fraction(0))
        return self._value(x)

    def table(self, N: int | None = None) -> dict:
        """All forest values up to order N, sorted by (order, serial)."""
        N = self.N if N is None else N
        planar = self.basis.planar
        return {f: self(f) for n in range(N + 1) for f in enumerate_forests(n, planar)}


def convolve(alpha: Coeff, beta: Coeff, N: int) -> Coeff:
    """Convolution against the coproduct of the maps' Hopf algebra,
    (alpha * beta)(x) = sum c alpha(l) beta(r) over the terms c l (x) r of
    Delta(x), summed by ``exact_sum``. For method characters this is
    composition: the first slot is the map applied first. Two characters
    give a character, anything else a plain map. Both maps must be of one
    class and truncated at order N or beyond."""
    cls = type(alpha)
    if type(beta) is not cls:
        raise DomainError(
            f"cannot convolve a {cls.__name__} with a {type(beta).__name__}"
        )
    if alpha.N < N or beta.N < N:
        raise DomainError(
            f"convolution to order {N} needs both maps at that order "
            f"(got {alpha.N} and {beta.N})"
        )

    left, right = alpha._factors, beta._factors

    def terms(x):
        for t, c in cls.coproduct(x):
            a = left(t.left)
            if a is not None:
                b = right(t.right)
                if b is not None:
                    yield c.numerator, a + b

    def fn(x) -> Fraction:
        return exact_sum(terms(x))

    kind = "character" if alpha.kind == beta.kind == "character" else "plain"
    return cls(kind, N, fn)


def convolution_series(x: Coeff, coeffs: list[Fraction], kind: str, N: int) -> Coeff:
    """w -> sum_k coeffs[k] x^{*k}(w) under the convolution of x's class,
    x^{*0} the unit.

    x is read only on nonempty forests, as if it vanished on the empty
    one, so x^{*k} vanishes below order k and x^{*k}(w) = sum c
    x^{*(k-1)}(left) x(right) over the terms of Delta(w) with both sides
    nonempty. The powers x^{*1}(w), ..., x^{*|w|}(w) are filled together
    from one pass over Delta(w), which collects the rows (c, factors of
    x(right), powers of left); each power is one ``exact_sum`` over the
    rows, and the memo of powers belongs to the returned map.
    """
    coproduct, factors, as_forest = type(x).coproduct, x._factors, x.basis._of
    memo: dict = {}

    def powers(w) -> list[Fraction]:
        out = memo.get(w)
        if out is None:
            rows = []
            for t, c in coproduct(w):
                if t.left.order and t.right.order:
                    f = factors(t.right)
                    if f is not None:
                        rows.append((c.numerator, f, powers(t.left)))
            out = [x._value(w)] + [
                exact_sum((c, f + (p[k - 1],)) for c, f, p in rows if k <= len(p))
                for k in range(1, w.order)
            ]
            memo[w] = out
        return out

    def fn(w) -> Fraction:
        if not w.order:
            return coeffs[0]
        return exact_sum((1, (a, p)) for a, p in zip(coeffs[1:], powers(as_forest(w))))

    return type(x)(kind, N, fn)


def convolution_log(alpha: Coeff, N: int) -> Coeff:
    """The convolution logarithm of a character,
    log*(alpha) = sum_{k>=1} (-1)^(k+1)/k (alpha - eta)^{*k}: the
    infinitesimal character of the field whose exact flow is alpha, which
    vanishes on the empty forest and on products."""
    if alpha.kind != "character":
        raise DomainError("the convolution logarithm is defined for characters")
    if alpha.N < N:
        raise DomainError(f"character truncated at {alpha.N}, need {N}")
    coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, N + 1)]
    return convolution_series(alpha, coeffs, "infinitesimal", N)


def convolution_exp(beta: Coeff, N: int) -> Coeff:
    """The convolution exponential of a field,
    exp*(beta) = sum_{k>=0} beta^{*k} / k!, a character. Inverse of
    convolution_log."""
    if beta(beta.basis()) != 0:
        raise DomainError("the convolution exponential needs a field: beta(1) must be 0")
    if beta.N < N:
        raise DomainError(f"field truncated at {beta.N}, need {N}")
    coeffs = [Fraction(1, math.factorial(k)) for k in range(N + 1)]
    return convolution_series(beta, coeffs, "character", N)
