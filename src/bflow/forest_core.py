"""Rooted trees, planar (ordered) trees, forests, and their products.

Serialized grammar, used everywhere (tests, dumps, the command line):

    tree   := "[" [color ":"] forest "]"
    forest := tree tree ... | "1"

``[]`` is the single vertex, ``[[][]]`` the cherry, ``[[[]]]`` the
three-vertex ladder, and ``1`` the empty forest. Trees inside a forest
may be juxtaposed or separated by whitespace. A vertex color other than
the default 0 is tagged as in ``[2:[][]]``.

Non-planar trees keep their children sorted by serialized form, so two
trees are isomorphic exactly when their serial strings are equal. Planar
trees keep child order as given. The constructors build each tree and
forest once and return the shared object afterwards (``_Basis``).

The products implemented here:

* ``butcher_product``    graft a forest directly onto the root
* ``prelie_graft``       sum of single-edge attachments over all vertices
* ``left_graft``         planar grafting, attaching as leftmost child
* ``shuffle``            word shuffle of planar forests
* ``gl_product``         Grossman-Larson product of planar forests
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from typing import Iterable, Iterator, Union

from .algebra import FormalSum, bilinear
from .errors import CapacityError, DomainError, ParseError

DEFAULT_MAX_ORDER = 8
_SERIAL = operator.attrgetter("serial")


def max_order() -> int:
    """The configured order cap (environment variable BF_MAX_ORDER, default 8)."""
    raw = os.environ.get("BF_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise CapacityError(f"BF_MAX_ORDER must be an integer, got {raw!r}") from exc
    if value < 1:
        raise CapacityError(f"BF_MAX_ORDER must be positive, got {value}")
    return value


def _check_capacity(n: int) -> None:
    cap = max_order()
    if n > cap:
        raise CapacityError(
            f"order {n} exceeds the configured cap {cap}; raise BF_MAX_ORDER to go higher"
        )


class _Basis:
    """A tree or a forest. The constructor is the one way to build one: it
    looks the arguments up in the class's intern table, ``_interned``,
    and builds and stores the object only on a miss, so there is one
    object per class and serial. Equality and hashing are therefore
    identity, inherited from ``object`` and computed in C, and the planar
    and non-planar families stay apart as dict keys. Pickling and
    copying rebuild through the constructor, so they return the shared
    object, and a pickle loads under any hash seed.

    An intern table only grows. No code may empty one while objects from
    it are alive: a tree built afterwards would be a second object with
    the same serial, equal to nothing built before."""

    __slots__ = ("order", "serial")
    planar: bool

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.serial!r})"


class _Tree(_Basis):
    """A root colour and its children. ``planar`` is the one difference
    between the two tree classes: a non-planar tree sorts its children by
    serial, so that isomorphic trees are one object. The intern table is
    keyed by (children, colour), the children sorted or in order."""

    __slots__ = ("children", "color")
    _forest: type  # the forest class of the same family, for B-

    def __new__(cls, children: Iterable = (), color: int = 0):
        kids = tuple(children)
        tree = cls._interned.get((kids, color))
        if tree is None:
            for kid in kids:
                if not isinstance(kid, cls):
                    raise TypeError(
                        f"{cls.__name__} children must be {cls.__name__}, got {type(kid)}"
                    )
            if not cls.planar:
                # the table holds the children sorted
                kids = tuple(sorted(kids, key=_SERIAL))
                tree = cls._interned.get((kids, color))
        if tree is None:
            tree = object.__new__(cls)
            tree.children = kids
            tree.color = color
            tag = f"{color}:" if color else ""
            tree.serial = "[" + tag + "".join(t.serial for t in kids) + "]"
            tree.order = 1 + sum(t.order for t in kids)
            # setdefault keeps the object another thread may have stored
            tree = cls._interned.setdefault((kids, color), tree)
        return tree

    def __reduce__(self):
        return type(self), (self.children, self.color)


class RootedTree(_Tree):
    """A non-planar rooted tree; children form a canonically sorted multiset."""

    __slots__ = ()
    planar = False
    _interned: dict = {}


class PlanarTree(_Tree):
    """An ordered rooted tree; the order of children is significant."""

    __slots__ = ()
    planar = True
    _interned: dict = {}


class _Forest(_Basis):
    """The member trees and their product, which joins the members. A
    non-planar forest sorts its members (a multiset, with a commutative
    product); a planar one keeps them in order (a word, with
    concatenation). The intern table is keyed by the member tuple. The
    empty forest serialises as ``1``."""

    __slots__ = ("_members",)
    _tree: type  # the member class, for B+

    def __new__(cls, trees: Iterable = ()):
        members = tuple(trees)
        forest = cls._interned.get(members)
        if forest is None:
            tree = cls._tree
            for t in members:
                if not isinstance(t, tree):
                    raise TypeError(
                        f"{cls.__name__} members must be {tree.__name__}, got {type(t)}"
                    )
            if not cls.planar:
                # the table holds the members sorted
                members = tuple(sorted(members, key=_SERIAL))
                forest = cls._interned.get(members)
        if forest is None:
            forest = object.__new__(cls)
            forest._members = members
            forest.order = sum(t.order for t in members)
            forest.serial = " ".join(t.serial for t in members) if members else "1"
            # setdefault keeps the object another thread may have stored
            forest = cls._interned.setdefault(members, forest)
        return forest

    def __reduce__(self):
        return type(self), (self._members,)

    def __mul__(self, other):
        """The forest of the joined members."""
        return type(self)(self._members + other._members)

    def __len__(self) -> int:
        return len(self._members)

    @classmethod
    def _of(cls, x):
        """x itself, or a tree of the same family as a one-tree forest."""
        if isinstance(x, cls):
            return x
        if isinstance(x, cls._tree):
            return cls((x,))
        raise DomainError(f"expected a {cls.__name__}, got {type(x).__name__}")


class Forest(_Forest):
    """A multiset of non-planar rooted trees; the empty forest is the unit."""

    __slots__ = ()
    planar = False
    _tree = RootedTree
    _interned: dict = {}
    trees = _Forest._members  # the members, sorted by serial


class PlanarForest(_Forest):
    """An ordered word of planar trees; concatenation is the magma product."""

    __slots__ = ()
    planar = True
    _tree = PlanarTree
    _interned: dict = {}
    word = _Forest._members  # the letters, in order


RootedTree._forest = Forest
PlanarTree._forest = PlanarForest


Tree = Union[RootedTree, PlanarTree]
AnyForest = Union[Forest, PlanarForest]

EMPTY_FOREST = Forest()
EMPTY_WORD = PlanarForest()


def single(color: int = 0) -> RootedTree:
    """The one-vertex tree."""
    return RootedTree((), color)


def psingle(color: int = 0) -> PlanarTree:
    """The one-vertex planar tree."""
    return PlanarTree((), color)


# ---------------------------------------------------------------------------
# B+ / B- and basic statistics
# ---------------------------------------------------------------------------


def bplus(forest: AnyForest, color: int = 0) -> Tree:
    """Attach every tree of the forest to a fresh root."""
    if not isinstance(forest, _Forest):
        raise TypeError(f"bplus expects a forest, got {type(forest)}")
    return forest._tree(forest._members, color)


def bminus(tree: Tree) -> AnyForest:
    """Remove the root, returning the forest of its subtrees."""
    if not isinstance(tree, _Tree):
        raise DomainError(f"bminus needs a single tree, got {type(tree).__name__}")
    return tree._forest(tree.children)


@functools.cache
def tree_stats(tree: RootedTree) -> tuple[int, int, int]:
    """Return ``(order, sigma, factorial)`` for a non-planar tree.

    ``sigma`` is the symmetry (automorphism count): the product over the
    distinct child shapes of ``sigma(child)**m * m!`` where ``m`` is the
    multiplicity. The tree factorial follows the recursion
    ``B+(t1..tk)! = |B+(t1..tk)| * t1! * ... * tk!``.
    """
    if not isinstance(tree, RootedTree):
        raise TypeError("tree_stats is defined for non-planar RootedTree input")
    sigma = 1
    factorial = tree.order
    for shape, group in itertools.groupby(tree.children):
        m = len(list(group))
        _, child_sigma, child_factorial = tree_stats(shape)
        sigma *= child_sigma**m * _int_factorial(m)
        factorial *= child_factorial**m
    return tree.order, sigma, factorial


def _int_factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def forest_sigma(forest: Forest) -> int:
    """Symmetry of a forest: tree symmetries times multiplicity factorials."""
    sigma = 1
    for shape, group in itertools.groupby(forest.trees):
        m = len(list(group))
        sigma *= tree_stats(shape)[1] ** m * _int_factorial(m)
    return sigma


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@functools.cache
def _trees(n: int, planar: bool) -> tuple[Tree, ...]:
    # bplus is injective on interned forests, so no tree comes twice
    forests = _planar_forests(n - 1) if planar else _nonplanar_forests(n - 1)
    return tuple(sorted(map(bplus, forests), key=_SERIAL))


@functools.cache
def _nonplanar_pool(n: int) -> tuple[RootedTree, ...]:
    pool: list[RootedTree] = []
    for k in range(1, n + 1):
        pool.extend(_trees(k, False))
    return tuple(pool)


@functools.cache
def _nonplanar_forests(n: int) -> tuple[Forest, ...]:
    if n == 0:
        return (EMPTY_FOREST,)
    pool = _nonplanar_pool(n)

    def pick(remaining: int, start: int) -> Iterator[tuple[RootedTree, ...]]:
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.order <= remaining:
                for rest in pick(remaining - t.order, i):
                    yield (t,) + rest

    forests = [Forest(ts) for ts in pick(n, 0)]
    return tuple(sorted(forests, key=lambda f: f.serial))


@functools.cache
def _planar_forests(n: int) -> tuple[PlanarForest, ...]:
    if n == 0:
        return (EMPTY_WORD,)
    out = []
    for k in range(1, n + 1):
        for head in _trees(k, True):
            for tail in _planar_forests(n - k):
                out.append(PlanarForest((head,) + tail.word))
    return tuple(sorted(out, key=lambda f: f.serial))


def enumerate_trees(n: int, planar: bool = False) -> list[Tree]:
    """All trees of order exactly ``n`` in canonical serialization order."""
    if n < 1:
        raise DomainError(f"tree order must be at least 1, got {n}")
    _check_capacity(n)
    return list(_trees(n, planar))


def enumerate_forests(n: int, planar: bool = False) -> list[AnyForest]:
    """All forests of total order exactly ``n`` (n = 0 gives the unit)."""
    if n < 0:
        raise DomainError(f"forest order must be non-negative, got {n}")
    _check_capacity(n)
    return list(_planar_forests(n) if planar else _nonplanar_forests(n))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_word(text: str, pos: int, planar: bool) -> tuple[list, int]:
    items = []
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "]":
            break
        if ch != "[":
            raise ParseError("expected '['", text, pos)
        tree, pos = _parse_tree(text, pos, planar)
        items.append(tree)
    return items, pos


def _parse_tree(text: str, pos: int, planar: bool) -> tuple[Tree, int]:
    assert text[pos] == "["
    start = pos
    pos += 1
    color = 0
    digits = ""
    while pos < len(text) and text[pos].isdigit():
        digits += text[pos]
        pos += 1
    if digits:
        if pos < len(text) and text[pos] == ":":
            color = int(digits)
            pos += 1
        else:
            raise ParseError("color tag must be followed by ':'", text, pos)
    children, pos = _parse_word(text, pos, planar)
    if pos >= len(text) or text[pos] != "]":
        raise ParseError("unclosed '['", text, start)
    pos += 1
    cls = PlanarTree if planar else RootedTree
    return cls(children, color), pos


def parse_forest(text: str, planar: bool = False) -> AnyForest:
    """Parse the bracket grammar; ``"1"`` denotes the empty forest."""
    stripped = text.strip()
    if stripped == "1":
        return EMPTY_WORD if planar else EMPTY_FOREST
    items, pos = _parse_word(text, 0, planar)
    if pos != len(text) and not text[pos:].isspace():
        raise ParseError("trailing input", text, pos)
    if not items:
        raise ParseError("empty input (write '1' for the empty forest)", text, 0)
    return PlanarForest(items) if planar else Forest(items)


def parse_tree(text: str, planar: bool = False) -> Tree:
    forest = parse_forest(text, planar)
    if len(forest) != 1:
        raise ParseError("expected a single tree", text, 0)
    return forest._members[0]


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def butcher_product(tree: RootedTree, forest: Forest | RootedTree) -> RootedTree:
    """Graft every tree of ``forest`` directly onto the root of ``tree``."""
    if isinstance(forest, RootedTree):
        forest = Forest((forest,))
    if not isinstance(tree, RootedTree) or not isinstance(forest, Forest):
        raise DomainError("butcher_product expects a non-planar tree and forest")
    return RootedTree(tree.children + forest.trees, tree.color)


def prelie_graft(t1: RootedTree, t2: RootedTree) -> FormalSum:
    """Sum over the vertices of ``t2`` of attaching ``t1`` below that vertex.

    Defined on single non-planar trees only; forests raise DomainError.
    """
    if isinstance(t1, (Forest, PlanarForest)) or isinstance(t2, (Forest, PlanarForest)):
        raise DomainError("prelie_graft is defined on trees, not forests")
    if not isinstance(t1, RootedTree) or not isinstance(t2, RootedTree):
        raise DomainError("prelie_graft expects non-planar rooted trees")
    return _prelie(t1, t2)


@functools.cache
def _prelie(t1: RootedTree, t2: RootedTree) -> FormalSum:
    kids = t2.children
    below = (
        (RootedTree(kids[:i] + kids[i + 1 :] + (sub,), t2.color), coeff)
        for i, child in enumerate(kids)
        for sub, coeff in _prelie(t1, child)
    )
    return FormalSum([(RootedTree(kids + (t1,), t2.color), 1), *below])


_as_word = PlanarForest._of  # a planar forest, or a planar tree as a one-letter word


@functools.cache
def _graft(w1: PlanarForest, w2: PlanarForest) -> FormalSum:
    # The defining recursion. The only case not forced by bilinearity is a
    # single tree grafted onto a single tree, handled by attaching it as the
    # leftmost child of each vertex: onto B+(w) this is B+(t w) + B+(t -> w).
    if not w1.word:
        return FormalSum.term(w2)
    if not w2.word:
        return FormalSum.zero()
    if len(w1.word) >= 2:
        head = PlanarForest(w1.word[:1])
        tail = PlanarForest(w1.word[1:])
        inner = _graft(tail, w2).map_basis(lambda w: _graft(head, w))
        outer = _graft(head, tail).map_basis(lambda w: _graft(w, w2))
        return inner - outer
    if len(w2.word) >= 2:
        head = PlanarForest(w2.word[:1])
        tail = PlanarForest(w2.word[1:])
        left = _graft(w1, head).map_basis(lambda w: w * tail)
        right = _graft(w1, tail).map_basis(lambda w: head * w)
        return left + right
    target = w2.word[0]
    inside = PlanarForest(target.children)
    first = PlanarTree((w1.word[0],) + target.children, target.color)
    out = FormalSum.term(PlanarForest((first,)))
    wrap = lambda w: PlanarForest((PlanarTree(w.word, target.color),))
    return out + _graft(w1, inside).map_basis(wrap)


def left_graft(x, y) -> FormalSum:
    """Planar left grafting, extended bilinearly to formal sums."""
    lifted = bilinear(lambda a, b: _graft(_as_word(a), _as_word(b)))
    return lifted(x, y)


@functools.cache
def _shuffle(w1: PlanarForest, w2: PlanarForest) -> FormalSum:
    word = PlanarForest
    if not w1.word:
        return FormalSum.term(w2)
    if not w2.word:
        return FormalSum.term(w1)
    h1, t1 = w1.word[0], word(w1.word[1:])
    h2, t2 = w2.word[0], word(w2.word[1:])
    first = _shuffle(t1, w2).map_basis(lambda w: word((h1,) + w.word))
    second = _shuffle(w1, t2).map_basis(lambda w: word((h2,) + w.word))
    return first + second


def shuffle(x, y) -> FormalSum:
    """Word shuffle of planar forests, extended bilinearly."""
    lifted = bilinear(lambda a, b: _shuffle(_as_word(a), _as_word(b)))
    return lifted(x, y)


def concat(x, y) -> FormalSum:
    """Concatenation of planar forests, extended bilinearly."""
    lifted = bilinear(lambda a, b: _as_word(a) * _as_word(b))
    return lifted(x, y)


def gl_product(x, y) -> FormalSum:
    """Grossman-Larson product: ``B-(w1 grafted onto B+(w2))``."""

    def base(w1: PlanarForest, w2: PlanarForest) -> FormalSum:
        lifted = _graft(w1, PlanarForest((bplus(w2),)))
        return lifted.map_basis(lambda w: bminus(w.word[0]))

    return bilinear(lambda a, b: base(_as_word(a), _as_word(b)))(x, y)


# ---------------------------------------------------------------------------
# Planarity projection
# ---------------------------------------------------------------------------


def project_nonplanar(x):
    """Forget planar structure: PlanarTree -> RootedTree, words -> multisets.

    Formal sums are mapped linearly, with coefficients collected.
    """
    if isinstance(x, FormalSum):
        return x.map_basis(project_nonplanar)
    if isinstance(x, PlanarTree):
        return RootedTree((project_nonplanar(c) for c in x.children), x.color)
    if isinstance(x, PlanarForest):
        return Forest(project_nonplanar(t) for t in x.word)
    if isinstance(x, (RootedTree, Forest)):
        return x
    raise TypeError(f"cannot project {type(x)}")
