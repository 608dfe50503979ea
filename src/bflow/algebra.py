"""Sparse exact-rational linear combinations over arbitrary hashable bases.

Every graded computation in the package runs through :class:`FormalSum`:
coproducts, grafting products, antipodes, series coefficients. Instances
are treated as immutable values; arithmetic returns fresh sums and zero
coefficients are pruned eagerly, so equality is plain dict equality.

There is one accumulation path, ``_accumulate``: it adds ``c * image``,
where the image is a basis element or a sum, into a dict under
construction. The constructor, ``+``, ``map_basis`` and ``bilinear`` build
their result through it, so callers feed ``FormalSum((image, coeff) for
...)`` and a sum of n terms is collected in one dict, not copied once per
term. Only that dict is ever written: a sum, once returned, is never
mutated, because memo tables hand the same instance to every caller.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

Scalar = int | Fraction


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class FormalSum:
    """A finite linear combination ``sum(coeff * basis)`` with exact coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Hashable, Scalar] | Iterable[tuple[Any, Scalar]] = ()):
        """Collect ``(image, coeff)`` pairs; an image that is itself a sum is
        added in, scaled by its coefficient."""
        data: dict[Hashable, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for image, coeff in items:
            _accumulate(data, image, _as_fraction(coeff))
        self._terms = data

    @classmethod
    def _wrap(cls, data: dict[Hashable, Fraction]) -> "FormalSum":
        """Adopt a dict already built by ``_accumulate`` (no copy)."""
        result = cls.__new__(cls)
        result._terms = data
        return result

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def term(cls, basis: Hashable, coeff: Scalar = 1) -> "FormalSum":
        return cls(((basis, coeff),))

    # -- inspection ------------------------------------------------------

    def coeff(self, basis: Hashable) -> Fraction:
        return self._terms.get(basis, _ZERO)

    def support(self) -> frozenset:
        return frozenset(self._terms)

    def __iter__(self) -> Iterator[tuple[Hashable, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FormalSum):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        parts = ", ".join(f"{b!r}: {c}" for b, c in self._terms.items())
        return f"FormalSum({{{parts}}})"

    # -- linear arithmetic ----------------------------------------------

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        out = dict(self._terms)
        _accumulate(out, other, 1)
        return FormalSum._wrap(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-1) * other

    def __neg__(self) -> "FormalSum":
        return (-1) * self

    def __rmul__(self, scalar: Scalar) -> "FormalSum":
        c = _as_fraction(scalar)
        if not c:
            return FormalSum()
        return FormalSum._wrap({b: c * v for b, v in self._terms.items()})

    def __mul__(self, scalar: Scalar) -> "FormalSum":
        return self.__rmul__(scalar)

    def __truediv__(self, scalar: Scalar) -> "FormalSum":
        return self.__rmul__(Fraction(1, 1) / _as_fraction(scalar))

    # -- structural maps -------------------------------------------------

    def map_basis(self, fn: Callable[[Hashable], Any]) -> "FormalSum":
        """Linear extension of ``fn``; ``fn`` may return a basis element or a FormalSum."""
        out: dict[Hashable, Fraction] = {}
        for basis, coeff in self._terms.items():
            _accumulate(out, fn(basis), coeff)
        return FormalSum._wrap(out)

    def filter(self, keep: Callable[[Hashable], bool]) -> "FormalSum":
        return FormalSum((b, c) for b, c in self._terms.items() if keep(b))


_ZERO = Fraction(0)


def _accumulate(data: dict[Hashable, Fraction], image: Any, coeff: Scalar) -> None:
    """Add ``coeff * image`` into ``data``, pruning zeros; the image is a
    basis element or a FormalSum, and only ``data`` is written."""
    if not coeff:
        return
    if not isinstance(image, FormalSum):
        items = ((image, coeff),)
    elif coeff == 1:
        items = image._terms.items()
    else:
        items = [(basis, coeff * value) for basis, value in image._terms.items()]
    for basis, value in items:
        c = data.get(basis, _ZERO) + value
        if c:
            data[basis] = c
        else:
            del data[basis]


def as_sum(x: Any) -> FormalSum:
    """Wrap a bare basis element as a singleton sum; pass sums through."""
    if isinstance(x, FormalSum):
        return x
    return FormalSum.term(x)


def bilinear(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], FormalSum]:
    """Extend a basis-level product to FormalSum arguments in both slots."""

    def lifted(x: Any, y: Any) -> FormalSum:
        xs, ys = as_sum(x), as_sum(y)
        out: dict[Hashable, Fraction] = {}
        for bx, cx in xs:
            for by, cy in ys:
                _accumulate(out, fn(bx, by), cx * cy)
        return FormalSum._wrap(out)

    return lifted


class Tensor(tuple):
    """An ordered pair of basis elements, used for coproduct output. A
    tuple, so that it is compared and hashed in C."""

    __slots__ = ()

    def __new__(cls, left: Any, right: Any):
        return tuple.__new__(cls, (left, right))

    def __getnewargs__(self):
        return tuple(self)

    left = property(operator.itemgetter(0))
    right = property(operator.itemgetter(1))

    @property
    def serial(self) -> str:
        ls = getattr(self.left, "serial", None) or str(self.left)
        rs = getattr(self.right, "serial", None) or str(self.right)
        return f"{ls} (x) {rs}"

    def __mul__(self, other: "Tensor") -> "Tensor":
        """The product of the tensor square of an algebra, slot by slot."""
        return Tensor(self[0] * other[0], self[1] * other[1])

    def __repr__(self) -> str:
        return f"Tensor({self.left!r}, {self.right!r})"


def tensor_sum(pairs: Iterable[tuple[Any, Any, Scalar]]) -> FormalSum:
    return FormalSum((Tensor(l, r), c) for l, r, c in pairs)


def render_sum(fs: FormalSum, sort_key: Callable[[Any], Any]) -> str:
    """Serialize a sum as ``coeff * basis`` terms joined by `` + ``, in the
    order of ``sort_key``.

    A basis element is written as its ``serial``, or as ``str`` of it
    when it has none or an empty one; a ``Tensor`` as the two sides so
    written, joined by `` (x) ``. A coefficient is written from its
    numerator and denominator, read once: ``n/d``, or ``n`` when d is 1,
    and a unit coefficient is left implicit. The zero sum renders as
    ``0``.
    """
    if not fs:
        return "0"
    terms = fs._terms
    parts = []
    for basis in sorted(terms, key=sort_key):
        if type(basis) is Tensor:
            left, right = basis
            serial = (
                f"{getattr(left, 'serial', None) or str(left)} (x) "
                f"{getattr(right, 'serial', None) or str(right)}"
            )
        else:
            serial = getattr(basis, "serial", None) or str(basis)
        num, den = terms[basis].as_integer_ratio()
        if den != 1:
            serial = f"{num}/{den} * {serial}"
        elif num != 1:
            serial = f"{num} * {serial}"
        parts.append(serial)
    return " + ".join(parts)
