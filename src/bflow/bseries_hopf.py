"""Composition and substitution structure for Butcher series.

Coefficient maps (``BCoeff``, on the ``hopf.Coeff`` base) live on
non-planar rooted forests. The composition coproduct prunes branches off
a tree (admissible cuts); the substitution coproduct sums over spanning
subforests, contracting each part to a vertex. Convolution against the
first (``convolve_bck``, the shared ``hopf.convolve``) gives method
composition and the convolution inverse (antipode), and its logarithm
``log_bck`` the modified field; convolution against the second gives
backward error analysis and modifying integrators. Everything is exact
rational arithmetic.

Each coproduct has one algorithm, memoised per tree, and neither
enumerates cuts or edge subsets. The pruning coproduct follows the B+
recursion Delta(t) = t (x) 1 + (id (x) B+) Delta(B-(t)). The contraction
coproduct folds in the children of a tree one at a time over a memo per
subtree; the fold's keys are interned forests, and every join of two of
them is one cached product. The antipode of the pruning Hopf algebra is
read off the contraction coproduct: S(t) = sum of c (-1)^|r| l over its terms c l (x) r,
the edge-subset form of the Connes-Kreimer antipode (Calaque,
Ebrahimi-Fard & Manchon, "Two interacting Hopf algebras of trees", Adv.
Appl. Math. 2011). The enumerations over cuts and edge subsets are the
independent routes in the tests.

The memos are cached functions (``functools.cache``): one per tree for
each coproduct and the antipode, ``_cefm_parts`` for the contraction
rows, and ``_forest_product`` for the product of a forest's tree rows,
which gives each coproduct and the antipode on a forest. Three more
cache what the rows are built from: ``_join``, the product of two
forests or of two tensors of them, ``_bplus``, B+ of a forest with a
root colour, and ``_one_tree``, the one-tree forest of a tree. The rows
are integer rows over trees and forests, each of which the constructor
builds once and shares (``forest_core``), so rows compare and hash their
keys by identity; multiplicities are added as ints, and each distinct
term of a cached sum gets one shared Fraction. Each contraction row
carries its forests and trees, each built once: the components without
the root, the quotient root's children, the root's component, the left
forest and the quotient. A cache may be emptied (``cache_clear``, or
``bflow.caches.clear()`` for all of them) at any time, since it is
rebuilt from the same interned trees; an intern table never is.

A character stores its value on a forest, the product of its tree
values, in its own memo at the first lookup, so each forest of the
pruning coproduct's rows is multiplied out once per map.

Runge-Kutta tableaus (``bflow.tableaus``, whose names are re-exported
here) and their elementary weights connect the algebra to actual
methods: the weight map of a tableau is a character, and order
conditions are equalities against the exact-flow coefficients 1/tree!.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from .algebra import FormalSum, Tensor
from .errors import DomainError
from .forest_core import (
    EMPTY_FOREST,
    Forest,
    RootedTree,
    bminus,
    bplus,
    butcher_product,
    enumerate_trees,
    single,
    tree_stats,
)
from .hopf import Coeff, convolution_exp, convolution_log, convolve, exact_sum, wrap_rows
from .tableaus import (  # re-exported under their old names
    BUILTIN_TABLEAUS,
    RKTableau,
    builtin_tableau,
    parse_tableau,
    read_tableau,
)

DOT = single()
DOT_FOREST = Forest((DOT,))
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Pruning coproduct (the B+ recursion)
# ---------------------------------------------------------------------------


_UNIT_TENSOR = Tensor(EMPTY_FOREST, EMPTY_FOREST)


@functools.cache
def _join(a, b):
    """The product of two interned forests, or of two tensors of them."""
    return a * b


@functools.cache
def _one_tree(tree: RootedTree) -> Forest:
    """The one-tree forest of a tree."""
    return Forest((tree,))


# B+ of an interned forest with a root colour
_bplus = functools.cache(bplus)


def _product_rows(sums, unit) -> dict:
    """The product of sums over forests, or over tensors of forests,
    basis element by basis element, with int multiplicities."""
    rows = {unit: 1}
    for s in sums:
        factor = [(y, c.numerator) for y, c in s]
        joined: dict = {}
        for x, m in rows.items():
            for y, n in factor:
                z = _join(x, y)
                joined[z] = joined.get(z, 0) + m * n
        rows = joined
    return rows


@functools.cache
def _forest_product(per_tree, forest: Forest, unit) -> FormalSum:
    """The product of per_tree over the trees of a forest, on integer rows;
    cached per (per_tree, forest, unit)."""
    return wrap_rows(_product_rows(map(per_tree, forest.trees), unit))


def _multiplicative(per_tree, omega: Forest | RootedTree, unit) -> FormalSum:
    """A per-tree map extended multiplicatively to forests: per_tree(t) on
    a tree or a one-tree forest, and on any other forest the product of
    its trees' images (``_forest_product``), the unit on the empty one.
    per_tree is a cached function, so both sides are computed once."""
    if isinstance(omega, RootedTree):
        return per_tree(omega)
    trees = Forest._of(omega).trees
    if len(trees) == 1:
        return per_tree(trees[0])
    return _forest_product(per_tree, omega, unit)


@functools.cache
def _delta_bck_tree(tree: RootedTree) -> FormalSum:
    below = _product_rows(map(_delta_bck_tree, bminus(tree).trees), _UNIT_TENSOR)
    rows = {Tensor(_one_tree(tree), EMPTY_FOREST): 1}
    for (left, right), m in below.items():
        rows[Tensor(left, _one_tree(_bplus(right, tree.color)))] = m
    return wrap_rows(rows)


def delta_bck(omega: Forest | RootedTree) -> FormalSum:
    """Pruning coproduct: the sum over admissible cuts, the pruned part in
    the left slot.

    Returns a formal sum of Forest (x) Forest tensors, multiplicative on
    forests. A tree is built by the B+ recursion
    Delta(t) = t (x) 1 + (id (x) B+) Delta(B-(t)), B+ taking the colour of
    the root, which holds because B+ is a Hochschild 1-cocycle (Connes &
    Kreimer, CMP 1998). Delta(B-(t)) is the product of the children's
    coproducts on integer rows; each tree's and each forest's coproduct
    is memoised.
    """
    return _multiplicative(_delta_bck_tree, omega, _UNIT_TENSOR)


def antipode_bck(omega: Forest | RootedTree) -> FormalSum:
    """Antipode of the pruning Hopf algebra, multiplicative on forests.

    On a tree it is read off the contraction coproduct: S(t) is the sum
    of c (-1)^|r| l over the terms c l (x) r of delta_cefm(t). The left
    side l is the forest of components left by cutting the edges outside
    one subset, and |r| - 1 is the number of cut edges, so this is the
    sum over edge subsets of the Connes-Kreimer antipode (Calaque,
    Ebrahimi-Fard & Manchon, Adv. Appl. Math. 2011). The quotient r has
    one vertex per component, so S(t) reads only the left forest and
    the int multiplicity of each integer row of the contraction memo
    (``_cefm_parts``), never the quotient, and builds no tree or forest
    of its own. Each tree's and each forest's antipode is memoised.
    """
    return _multiplicative(_antipode_tree, omega, EMPTY_FOREST)


@functools.cache
def _antipode_tree(tree: RootedTree) -> FormalSum:
    rows: dict[Forest, int] = {}
    for l, _, m, _, left, _ in _cefm_parts(tree):
        # r has one vertex per component: |r| = 1 + len(l)
        rows[left] = rows.get(left, 0) + (m if len(l) % 2 else -m)
    return wrap_rows(rows)


# ---------------------------------------------------------------------------
# Coefficient maps
# ---------------------------------------------------------------------------


class BCoeff(Coeff):
    """A truncated rational coefficient map on non-planar forests.

    Three kinds are supported. A ``character`` is multiplicative: its
    value on a forest is the product of its tree values and its value on
    the empty forest is 1. An ``infinitesimal`` map vanishes on the empty
    forest and on any product of two or more trees. Both are built from
    tree values, so each is the kind it claims by construction. A
    ``plain`` map stores forest values literally.

    Values are defined up to the truncation order ``N``; evaluation on
    anything of higher order raises CapacityError.
    """

    __slots__ = ()
    basis = Forest
    coproduct = staticmethod(delta_bck)

    # -- constructors -------------------------------------------------

    @classmethod
    def character(cls, tree_values, N: int) -> "BCoeff":
        """Multiplicative map from tree values (mapping or callable)."""
        return cls("character", N, _as_fn(tree_values))

    @classmethod
    def infinitesimal(cls, tree_values, N: int) -> "BCoeff":
        """Map vanishing on the unit and on proper products."""
        return cls("infinitesimal", N, _as_fn(tree_values))

    @classmethod
    def plain(cls, forest_values, N: int) -> "BCoeff":
        """Literal forest values (mapping or callable), missing means 0."""
        return cls("plain", N, _as_fn(forest_values, Forest._of))

    # -- evaluation ---------------------------------------------------

    def tree_value(self, tree: RootedTree) -> Fraction:
        value = self._cache.get(tree)
        if value is None:
            # a plain map stores forest values, the other kinds tree values
            value = self._cached(Forest((tree,)) if self.kind == "plain" else tree)
        return value

    def unit_value(self) -> Fraction:
        if self.kind == "plain":
            return self._cached(EMPTY_FOREST)
        return Fraction(1 if self.kind == "character" else 0)

    def _kind_value(self, x) -> Fraction | None:
        """The kind rule: a tree gives its value; on a forest a character
        gives the product of its tree values, stored in the memo on the
        first lookup (1, not stored, on the empty forest), an
        infinitesimal map the value of its one tree (None, for 0, on the
        unit and on products), and a plain map its stored value."""
        value = self._cache.get(x)
        if value is not None:
            return value
        if x is EMPTY_FOREST and self.kind == "character":
            return _ONE
        if isinstance(x, RootedTree):
            return self.tree_value(x)
        if not isinstance(x, Forest):
            raise DomainError(f"cannot evaluate coefficients on {type(x).__name__}")
        if self.kind == "plain":
            return self._cached(x)
        if x.order > self.N:
            raise self._beyond(x)
        trees = x.trees
        if self.kind == "character":
            value = self._cache[x] = functools.reduce(operator.mul, map(self._cached, trees))
            return value
        return self._cached(trees[0]) if len(trees) == 1 else None


def _as_fn(values, key=lambda x: x):
    """A callable as it is, a mapping (keys passed through ``key``) as a
    lookup with 0 for missing keys."""
    if callable(values):
        return values
    table = {key(k): Fraction(v) for k, v in values.items()}
    return lambda x: table.get(x, Fraction(0))


def eta(N: int) -> BCoeff:
    """The convolution unit: 1 on the empty forest, 0 elsewhere."""
    return BCoeff.character({}, N)


def exact_gamma(N: int) -> BCoeff:
    """Exact-flow coefficients, 1/tree! on every tree."""
    return BCoeff.character(lambda t: Fraction(1, tree_stats(t)[2]), N)


def dot_field(N: int) -> BCoeff:
    """The identity for substitution: 1 on the single vertex, 0 elsewhere."""
    return BCoeff.infinitesimal({DOT: Fraction(1)}, N)


# Convolution against the pruning coproduct. For method characters this
# is composition: the first slot is the map applied first.
convolve_bck = convolve


# ---------------------------------------------------------------------------
# Elementary weights of Runge-Kutta tableaus
# ---------------------------------------------------------------------------


@functools.cache
def _stage_weights(tableau: RKTableau, tree: RootedTree) -> tuple[Fraction, ...]:
    """The stage weights of a tree, sum_j a_ij prod over the children of
    their stage weights at j, one ``exact_sum`` per stage."""
    factors = [_stage_weights(tableau, child) for child in tree.children]
    return tuple(
        exact_sum((1, (a, *(f[j] for f in factors))) for j, a in enumerate(row) if a)
        for row in tableau.a
    )


def elementary_weights(tableau: RKTableau, tree: RootedTree) -> Fraction:
    """The elementary weight of a tree: sum over stage assignments, one
    ``exact_sum``."""
    factors = [_stage_weights(tableau, child) for child in tree.children]
    return exact_sum(
        (1, (b, *(f[j] for f in factors))) for j, b in enumerate(tableau.b) if b
    )


def rk_character(tableau: RKTableau, N: int) -> BCoeff:
    """The character of a tableau: elementary weights on trees."""
    return BCoeff.character(lambda t: elementary_weights(tableau, t), N)


def order_report(alpha: BCoeff, N: int) -> tuple[int, RootedTree | None]:
    """Largest n <= N with alpha = 1/tree! through order n, plus the
    first violating tree (in (order, serial) scan order), if any."""
    for n in range(1, N + 1):
        for tree in enumerate_trees(n):
            if alpha(tree) != Fraction(1, tree_stats(tree)[2]):
                return n - 1, tree
    return N, None


def order_of(alpha: BCoeff, N: int) -> int:
    return order_report(alpha, N)[0]


# ---------------------------------------------------------------------------
# Contraction coproduct (spanning subforests)
# ---------------------------------------------------------------------------


@functools.cache
def _cefm_parts(tree: RootedTree) -> tuple[tuple, ...]:
    """The edge subsets of a tree, collected as rows (L, Q, m, top, left,
    right): L the forest of components without the root, Q the forest of
    the quotient root's children, m the multiplicity, top = B+(C) the
    root's component (C the children it keeps), left the forest L top and
    right the one-tree forest of the quotient B+(Q), with the root's
    colour. Built by folding in one child at a time over the child's rows:
    the fold's keys (L, C, Q) are interned forests, each join is a
    cached product (``_join``), and the trees and one-tree forests of a
    row come from cached functions of interned arguments."""
    parts: dict[tuple, int] = {(EMPTY_FOREST, EMPTY_FOREST, EMPTY_FOREST): 1}
    for child in tree.children:
        options = []
        for lc, qc, m, top, left, right in _cefm_parts(child):
            # cut the edge to the child: its root component joins L and
            # its quotient hangs below the quotient root
            options.append((left, EMPTY_FOREST, right, m))
            # keep it: the child's root component merges into the root's
            options.append((lc, _one_tree(top), qc, m))
        folded: dict[tuple, int] = {}
        for (l, c, q), m in parts.items():
            for la, ca, qa, mo in options:
                key = (_join(l, la), _join(c, ca), _join(q, qa))
                folded[key] = folded.get(key, 0) + m * mo
        parts = folded
    rows = []
    for (l, c, q), m in parts.items():
        top = _bplus(c, tree.color)
        right = _one_tree(_bplus(q, tree.color))
        rows.append((l, q, m, top, _join(l, _one_tree(top)), right))
    return tuple(rows)


@functools.cache
def _delta_cefm_tree(tree: RootedTree) -> FormalSum:
    rows: dict[Tensor, int] = {}
    for _, _, m, _, left, right in _cefm_parts(tree):
        key = Tensor(left, right)
        rows[key] = rows.get(key, 0) + m
    return wrap_rows(rows)


def delta_cefm(omega: Forest | RootedTree) -> FormalSum:
    """Contraction coproduct as a sum over spanning subforests.

    On a tree, each subset of kept edges gives the forest of its
    components on the left and the quotient tree, each component shrunk
    to a vertex, on the right. The subsets are not enumerated one by one:
    a memo per subtree holds them as triples (components without the
    root, children of the root's component, children of the quotient's
    root), and a tree folds in its children one at a time. Cutting the
    edge to a child sends the child's root component to the left side and
    makes its quotient a child of the quotient root; keeping it merges
    the child's root component into the root's and lifts its quotient
    children. Then delta(t) is the sum of L (B+(C)) (x) B+(Q) (Calaque,
    Ebrahimi-Fard & Manchon, Adv. Appl. Math. 2011). Multiplicative on
    forests.
    """
    return _multiplicative(_delta_cefm_tree, omega, _UNIT_TENSOR)


def substitute_b(alpha: BCoeff, beta: BCoeff, N: int) -> BCoeff:
    """Substitute the field with coefficients alpha into the series beta.

    alpha must vanish on the empty forest (it describes a vector field).
    The result takes beta's value on the empty forest, and on a tree it
    is the contraction-coproduct convolution, with alpha evaluated as a
    product over the components of the spanning subforest, summed by
    ``exact_sum``.
    """
    if alpha.unit_value() != 0:
        raise DomainError("substitution needs a field: alpha(1) must be 0")
    if alpha.N < N or beta.N < N:
        raise DomainError(
            f"substitution to order {N} needs both maps at that order "
            f"(got {alpha.N} and {beta.N})"
        )
    component, right = alpha.tree_value, beta._kind_value

    def terms(x):
        for t, c in delta_cefm(x):
            b = right(t.right)
            if b is not None:
                yield c.numerator, (*map(component, t.left.trees), b)

    def fn(x) -> Fraction:
        # x is a tree, or a forest when beta is plain
        return exact_sum(terms(x))

    return BCoeff(beta.kind, N, fn)


def solve_modified(alpha: BCoeff, mode: str, N: int) -> BCoeff:
    """Solve for the field beta whose substitution relates alpha and the
    exact flow.

    mode "backward_error": substituting beta into the exact-flow series
    reproduces the method alpha (the modified equation the method solves
    exactly). mode "modifying_integrator": substituting beta into the
    method series gives the exact flow.

    Tree by tree in order, target(t) is the sum over the terms c l (x) r
    of delta_cefm(t) of c beta(l) other(r). The term with r the single
    vertex is beta(t) itself, since other(.) = 1 for a consistent method
    and for the exact flow, so beta(t) is one ``exact_sum`` of target(t)
    and the other terms negated.
    """
    if mode not in ("backward_error", "modifying_integrator"):
        raise DomainError(f"unknown mode {mode!r}")
    if alpha(DOT) != 1:
        raise DomainError("method must be consistent: alpha(.) = 1")
    gamma = exact_gamma(N)
    other = gamma if mode == "backward_error" else alpha
    target = alpha if mode == "backward_error" else gamma

    values: dict[RootedTree, Fraction] = {}

    def terms(tree):
        yield 1, (target.tree_value(tree),)
        for pair, c in delta_cefm(tree):
            if pair.right != DOT_FOREST:
                right = other.tree_value(pair.right.trees[0])
                yield -c.numerator, (*map(values.__getitem__, pair.left.trees), right)

    for n in range(1, N + 1):
        for tree in enumerate_trees(n):
            values[tree] = exact_sum(terms(tree))
    return BCoeff.infinitesimal(values, N)


def log_bck(alpha: BCoeff, N: int) -> BCoeff:
    """The convolution logarithm of a character under the pruning
    coproduct: the field of its modified equation, the same values as
    solve_modified(alpha, "backward_error", N). DomainError unless alpha
    is a character."""
    return convolution_log(alpha, N)


def exp_bck(beta: BCoeff, N: int) -> BCoeff:
    """The convolution exponential of an infinitesimal map under the
    pruning coproduct, a character; the inverse of log_bck. A character
    is extended from its tree values, so beta must vanish on products:
    DomainError unless it is infinitesimal."""
    if beta.kind != "infinitesimal":
        raise DomainError("exp_bck needs a field: an infinitesimal map")
    return convolution_exp(beta, N)


# ---------------------------------------------------------------------------
# Geometric coefficient conditions
# ---------------------------------------------------------------------------


def check_geometric(
    alpha: BCoeff, kind: str, N: int
) -> list[tuple[RootedTree, RootedTree]]:
    """Check the tree-pair conditions for the given geometric property.

    kind "hamiltonian_field": alpha(t1 o t2) + alpha(t2 o t1) = 0 for all
    unordered pairs with |t1| + |t2| <= N (alpha must vanish on the empty
    forest). kind "symplectic_method": alpha(t1 o t2) + alpha(t2 o t1) =
    alpha(t1) alpha(t2). Returns the violating pairs; empty means the
    condition holds.
    """
    if kind not in ("hamiltonian_field", "symplectic_method"):
        raise DomainError(f"unknown geometric kind {kind!r}")
    if kind == "hamiltonian_field" and alpha.unit_value() != 0:
        raise DomainError("a field must vanish on the empty forest")
    violations = []
    pool: list[RootedTree] = []
    for n in range(1, N):
        pool.extend(enumerate_trees(n))
    for i, t1 in enumerate(pool):
        for t2 in pool[i:]:
            if t1.order + t2.order > N:
                continue
            lhs = alpha(butcher_product(t1, t2)) + alpha(butcher_product(t2, t1))
            rhs = alpha(t1) * alpha(t2) if kind == "symplectic_method" else Fraction(0)
            if lhs != rhs:
                violations.append((t1, t2))
    violations.sort(key=lambda p: (p[0].order + p[1].order, p[0].serial, p[1].serial))
    return violations
