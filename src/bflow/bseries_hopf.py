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
subtree. The antipode of the pruning Hopf algebra is read off the
contraction coproduct: S(t) = sum of c (-1)^|r| l over its terms c l (x) r,
the edge-subset form of the Connes-Kreimer antipode (Calaque,
Ebrahimi-Fard & Manchon, "Two interacting Hopf algebras of trees", Adv.
Appl. Math. 2011). The enumerations over cuts and edge subsets are the
independent routes in the tests.

The memos are integer rows over trees and forests, each of which the
constructor builds once and shares (``forest_core``), so rows compare and
hash their keys by identity; multiplicities are added as ints, and each
distinct term of a memoised sum gets one shared Fraction. Each row of
the contraction memo carries its trees, each built once: the root's
component, the left forest and the quotient. On a forest, each coproduct and the
antipode are the product of its trees' rows, memoised per forest.

Runge-Kutta tableaus and their elementary weights connect the algebra to
actual methods: the weight map of a tableau is a character, and order
conditions are equalities against the exact-flow coefficients 1/tree!.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FormalSum, Tensor
from .errors import DomainError, ParseError
from .forest_core import (
    EMPTY_FOREST,
    Forest,
    RootedTree,
    _SERIAL,
    bminus,
    butcher_product,
    enumerate_trees,
    single,
    tree_stats,
)
from .hopf import Coeff, convolution_exp, convolution_log, convolve, exact_sum, wrap_rows

DOT = single()
DOT_FOREST = Forest((DOT,))


# ---------------------------------------------------------------------------
# Pruning coproduct (the B+ recursion)
# ---------------------------------------------------------------------------


_UNIT_TENSOR = Tensor(EMPTY_FOREST, EMPTY_FOREST)


def _product_rows(sums, unit) -> dict:
    """The product of sums over forests, or over tensors of forests,
    basis element by basis element, with int multiplicities."""
    rows = {unit: 1}
    for s in sums:
        factor = [(y, c.numerator) for y, c in s]
        joined: dict = {}
        for x, m in rows.items():
            for y, n in factor:
                z = x * y
                joined[z] = joined.get(z, 0) + m * n
        rows = joined
    return rows


def _multiplicative(per_tree, memo: dict, omega: Forest | RootedTree, unit) -> FormalSum:
    """A tree's memoised image per_tree(t); on a forest the product of the
    images of its trees on integer rows, memoised in ``memo`` (the empty
    forest gives the unit)."""
    if isinstance(omega, RootedTree):
        return per_tree(omega)
    trees = Forest._of(omega).trees
    if len(trees) == 1:
        return per_tree(trees[0])
    out = memo.get(omega)
    if out is None:
        out = memo[omega] = wrap_rows(_product_rows(map(per_tree, trees), unit))
    return out


_BCK_CACHE: dict[RootedTree | Forest, FormalSum] = {}


def _delta_bck_tree(tree: RootedTree) -> FormalSum:
    out = _BCK_CACHE.get(tree)
    if out is None:
        below = _product_rows(map(_delta_bck_tree, bminus(tree).trees), _UNIT_TENSOR)
        rows = {Tensor(Forest((tree,)), EMPTY_FOREST): 1}
        for (left, right), m in below.items():
            rows[Tensor(left, Forest((RootedTree(right.trees, tree.color),)))] = m
        out = _BCK_CACHE[tree] = wrap_rows(rows)
    return out


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
    return _multiplicative(_delta_bck_tree, _BCK_CACHE, omega, _UNIT_TENSOR)


_ANTIPODE_CACHE: dict[RootedTree | Forest, FormalSum] = {}


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
    return _multiplicative(_antipode_tree, _ANTIPODE_CACHE, omega, EMPTY_FOREST)


def _antipode_tree(tree: RootedTree) -> FormalSum:
    out = _ANTIPODE_CACHE.get(tree)
    if out is None:
        rows: dict[Forest, int] = {}
        for l, _, m, _, left, _ in _cefm_parts(tree):
            # r has one vertex per component: |r| = 1 + len(l)
            rows[left] = rows.get(left, 0) + (m if len(l) % 2 else -m)
        out = _ANTIPODE_CACHE[tree] = wrap_rows(rows)
    return out


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
        if self.kind == "plain":
            return self._cached(Forest((tree,)))
        value = self._cache.get(tree)
        return self._cached(tree) if value is None else value

    def unit_value(self) -> Fraction:
        if self.kind == "plain":
            return self._cached(EMPTY_FOREST)
        return Fraction(1 if self.kind == "character" else 0)

    def _factors(self, x) -> tuple[Fraction, ...] | None:
        """The kind rule: a tree gives its value; on a forest a character
        gives the values of its trees (none on the empty forest), an
        infinitesimal map the value of its one tree (None, for 0, on the
        unit and on products), and a plain map its stored value."""
        if isinstance(x, RootedTree):
            return (self.tree_value(x),)
        if not isinstance(x, Forest):
            raise DomainError(f"cannot evaluate coefficients on {type(x).__name__}")
        if self.kind == "plain":
            return (self._cached(x),)
        if x.order > self.N:
            raise self._beyond(x)
        trees = x.trees
        if self.kind == "character":
            return (*map(self._cached, trees),)
        return (self._cached(trees[0]),) if len(trees) == 1 else None


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
# Runge-Kutta tableaus and elementary weights
# ---------------------------------------------------------------------------


class RKTableau:
    """An s-stage Runge-Kutta scheme with exact rational coefficients."""

    __slots__ = ("name", "s", "a", "b", "c", "floats", "_weights")

    def __init__(self, a, b, c=None, name: str = ""):
        self._weights: dict = {}
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
    "euler": RKTableau([[0]], [1], name="euler"),
    "explicit_midpoint": RKTableau(
        [[0, 0], [_f("1/2"), 0]], [0, 1], name="explicit_midpoint"
    ),
    "implicit_midpoint": RKTableau([[_f("1/2")]], [1], name="implicit_midpoint"),
    "rk4": RKTableau(
        [
            [0, 0, 0, 0],
            [_f("1/2"), 0, 0, 0],
            [0, _f("1/2"), 0, 0],
            [0, 0, 1, 0],
        ],
        [_f("1/6"), _f("1/3"), _f("1/3"), _f("1/6")],
        name="rk4",
    ),
}


def builtin_tableau(name: str) -> RKTableau:
    try:
        return BUILTIN_TABLEAUS[name]
    except KeyError:
        raise DomainError(
            f"unknown tableau {name!r}; builtins: {', '.join(sorted(BUILTIN_TABLEAUS))}"
        ) from None


def _stage_weights(tableau: RKTableau, tree: RootedTree, cache) -> tuple[Fraction, ...]:
    if tree in cache:
        return cache[tree]
    factors = [_stage_weights(tableau, child, cache) for child in tree.children]
    out = []
    for i in range(tableau.s):
        total = Fraction(0)
        for j in range(tableau.s):
            term = tableau.a[i][j]
            if term:
                for f in factors:
                    term *= f[j]
            total += term
        out.append(total)
    result = tuple(out)
    cache[tree] = result
    return result


def elementary_weights(tableau: RKTableau, tree: RootedTree) -> Fraction:
    """The elementary weight of a tree: sum over stage assignments."""
    cache = tableau._weights
    factors = [_stage_weights(tableau, child, cache) for child in tree.children]
    total = Fraction(0)
    for j in range(tableau.s):
        term = tableau.b[j]
        if term:
            for f in factors:
                term *= f[j]
        total += term
    return total


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


_CEFM_CACHE: dict[RootedTree | Forest, FormalSum] = {}
_CEFM_PARTS: dict[RootedTree, tuple] = {}


def _by_serial(trees: tuple[RootedTree, ...]) -> tuple[RootedTree, ...]:
    return tuple(sorted(trees, key=_SERIAL))


def _cefm_parts(tree: RootedTree) -> tuple[tuple, ...]:
    """The edge subsets of a tree, collected as rows (L, Q, m, top, left,
    right): L the components without the root and Q the children of the
    quotient's root, each a tuple sorted by serial, m the multiplicity,
    top = B+(C) the root's component (C the children it keeps), left the
    forest L top and right the one-tree forest of the quotient B+(Q),
    with the root's colour. Built by folding in one child at a time over
    the child's rows, whose trees are built once, with the row."""
    if tree in _CEFM_PARTS:
        return _CEFM_PARTS[tree]
    parts: dict[tuple, int] = {((), (), ()): 1}
    for child in tree.children:
        options = []
        for lc, qc, m, top, left, right in _cefm_parts(child):
            # cut the edge to the child: its root component joins L and
            # its quotient hangs below the quotient root
            options.append((left.trees, (), right.trees, m))
            # keep it: the child's root component merges into the root's
            options.append((lc, (top,), qc, m))
        folded: dict[tuple, int] = {}
        for (l, c, q), m in parts.items():
            for la, ca, qa, mo in options:
                key = (
                    _by_serial(l + la) if la else l,
                    _by_serial(c + ca) if ca else c,
                    _by_serial(q + qa) if qa else q,
                )
                folded[key] = folded.get(key, 0) + m * mo
        parts = folded
    rows = []
    for (l, c, q), m in parts.items():
        top = RootedTree(c, tree.color)
        right = Forest((RootedTree(q, tree.color),))
        rows.append((l, q, m, top, Forest(l + (top,)), right))
    _CEFM_PARTS[tree] = rows = tuple(rows)
    return rows


def _delta_cefm_tree(tree: RootedTree) -> FormalSum:
    out = _CEFM_CACHE.get(tree)
    if out is None:
        rows: dict[Tensor, int] = {}
        for _, _, m, _, left, right in _cefm_parts(tree):
            key = Tensor(left, right)
            rows[key] = rows.get(key, 0) + m
        out = _CEFM_CACHE[tree] = wrap_rows(rows)
    return out


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
    return _multiplicative(_delta_cefm_tree, _CEFM_CACHE, omega, _UNIT_TENSOR)


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
    component, right = alpha.tree_value, beta._factors

    def terms(x):
        for t, c in delta_cefm(x):
            b = right(t.right)
            if b is not None:
                yield c.numerator, (*map(component, t.left.trees), *b)

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
