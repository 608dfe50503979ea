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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .algebra import FormalSum
from .errors import CapacityError, DomainError
from .forest_core import enumerate_forests

KINDS = ("character", "infinitesimal", "plain")


class Coeff:
    """A truncated rational coefficient map on the forests of one Hopf
    algebra.

    A ``character`` is 1 on the empty forest and multiplicative, an
    ``infinitesimal`` map is 0 on the empty forest and on products, and a
    ``plain`` map claims nothing. ``fn`` gives the values the subclass
    stores, each computed once; its ``_value`` (the kind rule) evaluates
    a basis element. Values are defined up to the truncation order
    ``N``; anything of higher order raises CapacityError.
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
    Delta(x). For method characters this is composition: the first slot
    is the map applied first. Two characters give a character, anything
    else a plain map. Both maps must be of one class and truncated at
    order N or beyond."""
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

    left, right = alpha._value, beta._value

    def fn(x) -> Fraction:
        return sum((c * left(t.left) * right(t.right) for t, c in cls.coproduct(x)), Fraction(0))

    kind = "character" if alpha.kind == beta.kind == "character" else "plain"
    return cls(kind, N, fn)


def convolution_series(x: Coeff, coeffs: list[Fraction], kind: str, N: int) -> Coeff:
    """w -> sum_k coeffs[k] x^{*k}(w) under the convolution of x's class,
    x^{*0} the unit.

    x is read only on nonempty forests, as if it vanished on the empty
    one, so x^{*k} vanishes below order k and x^{*k}(w) = sum c
    x^{*(k-1)}(left) x(right) over the terms of Delta(w) with both sides
    nonempty. The powers x^{*1}(w), ..., x^{*|w|}(w) are filled together
    in one pass over Delta(w), each c x(right) multiplied into all the
    powers of left; the memo of powers belongs to the returned map.
    """
    coproduct, value, as_forest = type(x).coproduct, x._value, x.basis._of
    memo: dict = {}

    def powers(w) -> list[Fraction]:
        out = memo.get(w)
        if out is None:
            out = [value(w)] + [Fraction(0)] * (w.order - 1)
            for t, c in coproduct(w):
                if t.left.order and t.right.order:
                    weight = c * value(t.right)
                    if weight:
                        for k, p in enumerate(powers(t.left), 1):
                            out[k] += p * weight
            memo[w] = out
        return out

    def fn(w) -> Fraction:
        if not w.order:
            return coeffs[0]
        return sum((a * p for a, p in zip(coeffs[1:], powers(as_forest(w)))), Fraction(0))

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
