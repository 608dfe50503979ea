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
Fractions. A coefficient map gives one value per lookup, the value its
kind rule makes at a basis element (``Coeff._kind_value``), every
coproduct multiplicity is an integer, and ``exact_sum`` adds the integer
numerators of all the terms of one value over one common denominator,
building a single Fraction per value.
Convolution, substitution, the modified-field solve, and the planar
``dynkin_apply``, ``q_apply`` and ``lb_substitute`` all sum through it.
The exp/log series keeps the same integer arithmetic in its own loop,
and never makes a Fraction of a power: the powers x^{*k}(w) of a forest
are int numerators over one int denominator. One pass over the
coproduct of the forest adds each row into the numerators of every
power at once, and a value sums its powers on ints into the one
Fraction it returns.

A map's values are computed once and held in its memo, ``_cache``.
Every lookup (``__call__``, ``_kind_value``, ``tree_value``) reads the memo
first; only a miss converts the argument, checks the truncation order
and calls ``fn``. A B-series character also stores there its value on
each nonempty forest it is asked for, the product of its tree values,
so a second lookup of that forest is one dict hit; an infinitesimal map
stores nothing for a forest, where its kind rule gives one tree value
or 0, and nothing beyond the truncation order is stored. That memo,
and the powers memo of each ``convolution_series`` map, are plain dicts
owned by one map, which die with it. Every module-wide memo of the exact
engine is a cached function (``functools.cache``): ``_fraction`` here,
the enumerations and products of ``forest_core``, the coproducts and
row tables of ``bseries_hopf`` and ``lbseries``, and the stage weights of
Runge-Kutta tableaus in ``bseries_hopf``. Each can be inspected
with ``cache_info()`` and emptied with ``cache_clear()``;
``bflow.caches`` does both for all of them.
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


# one Fraction per distinct multiplicity, shared by every cached sum
_fraction = functools.cache(Fraction)


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
    stores, each computed once; its ``_kind_value`` (the kind rule) gives
    the value at a basis element, or None where the kind rule makes it 0.
    Values are defined up to the truncation order ``N``; anything of
    higher order raises CapacityError.
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
            value = self._fn(x)
            if type(value) is not Fraction:
                value = Fraction(value)
            self._cache[x] = value
        return value

    def _kind_value(self, x) -> Fraction | None:
        raise NotImplementedError

    def _value(self, x) -> Fraction:
        value = self._kind_value(x)
        return _ZERO if value is None else value

    def __call__(self, x) -> Fraction:
        # a sum is never a key, and hashing one hashes every term
        if isinstance(x, FormalSum):
            return exact_sum((1, (coeff, self(basis))) for basis, coeff in x)
        try:
            value = self._cache.get(x)
        except TypeError:  # unhashable, so neither a basis element nor a sum
            raise DomainError(f"cannot evaluate coefficients on {type(x).__name__}") from None
        if value is not None:
            return value
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

    left, right = alpha._kind_value, beta._kind_value

    def terms(x):
        for (l, r), c in cls.coproduct(x):
            a = left(l)
            if a is not None:
                b = right(r)
                if b is not None:
                    yield c.numerator, (a, b)

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
    nonempty. No power is a Fraction: the powers x^{*1}(w), ...,
    x^{*|w|}(w) are held as a tuple of int numerators over one int
    denominator, reduced by the gcd of them all. They are filled in one
    integer pass over Delta(w): each row whose c x(right) is not 0 is
    read once, the common denominator grows to the lcm with the row's
    (the numerators rescaled, as ``exact_sum`` does), and c x(right)
    x^{*j}(left) is added to the numerator of power j + 1 for every j at
    once. A value is the dot product of these numerators with coeffs[1:]
    over their own common denominator, the one Fraction it builds. The
    memo of powers belongs to the returned map.
    """
    as_forest = x.basis._of
    # coeffs[1:] as integer weights over one common denominator
    unit = math.lcm(*(c.denominator for c in coeffs[1:]))
    weights = [c.numerator * (unit // c.denominator) for c in coeffs[1:]]
    memo: dict = {}

    def fn(w) -> Fraction:
        if not w.order:
            return coeffs[0]
        w = as_forest(w)
        nums, scale = memo.get(w) or _powers(x, memo, w)
        return Fraction(sum(map(operator.mul, weights, nums)), unit * scale)

    return type(x)(kind, N, fn)


def _powers(x: Coeff, memo: dict, w) -> tuple[tuple[int, ...], int]:
    """The powers of x at the forest w for ``convolution_series``, filled
    into memo with those of the left sides they need. A module function
    and not a closure that calls itself, which would be a reference cycle:
    the memo dies with its map, not at the next garbage collection."""
    value = x._kind_value
    num, scale = x._value(w).as_integer_ratio()
    # totals[k - 1] / scale is x^{*k}(w)
    totals = [num] + [0] * (w.order - 1)
    for (l, r), c in x.coproduct(w):
        if not (l.order and r.order):
            continue
        f = value(r)
        if f is None:
            continue
        num, den = f.as_integer_ratio()
        if not num:
            continue
        nums, pden = memo.get(l) or _powers(x, memo, l)
        den *= pden
        if scale % den:
            grown = math.lcm(scale, den)
            up = grown // scale
            totals = [t * up for t in totals]
            scale = grown
        num *= c.numerator * (scale // den)
        for j, p in enumerate(nums, 1):
            totals[j] += num * p
    common = math.gcd(scale, *totals)
    out = memo[w] = (tuple(t // common for t in totals), scale // common)
    return out


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
