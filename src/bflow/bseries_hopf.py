"""Composition and substitution structure for Butcher series.

Coefficient maps live on non-planar rooted forests. The composition
coproduct prunes branches off a tree (admissible cuts); the substitution
coproduct sums over spanning subforests, contracting each part to a
vertex. Convolution against the first gives method composition and the
convolution inverse (antipode); convolution against the second gives
backward error analysis and modifying integrators. Everything is exact
rational arithmetic.

Runge-Kutta tableaus and their elementary weights connect the algebra to
actual methods: the weight map of a tableau is a character, and order
conditions are equalities against the exact-flow coefficients 1/tree!.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Union

from .algebra import FormalSum, tensor_sum
from .errors import CapacityError, DomainError, ParseError
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

Scalar = Union[int, Fraction]

DOT = single()
DOT_FOREST = Forest((DOT,))


# ---------------------------------------------------------------------------
# Coefficient maps
# ---------------------------------------------------------------------------


class BCoeff:
    """A truncated rational coefficient map on non-planar forests.

    Three kinds are supported. A ``character`` is multiplicative: its
    value on a forest is the product of its tree values and its value on
    the empty forest is 1. An ``infinitesimal`` map vanishes on the empty
    forest and on any product of two or more trees. A ``plain`` map
    stores forest values literally.

    Values are defined up to the truncation order ``N``; evaluation on
    anything of higher order raises CapacityError.
    """

    __slots__ = ("kind", "N", "_tree_fn", "_forest_fn", "_cache")

    def __init__(self, kind: str, N: int, tree_fn=None, forest_fn=None):
        if kind not in ("character", "infinitesimal", "plain"):
            raise DomainError(f"unknown coefficient kind {kind!r}")
        self.kind = kind
        self.N = N
        self._tree_fn = tree_fn
        self._forest_fn = forest_fn
        self._cache: dict = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def character(cls, tree_values, N: int) -> "BCoeff":
        """Multiplicative map from tree values (mapping or callable)."""
        return cls("character", N, tree_fn=_as_tree_fn(tree_values))

    @classmethod
    def infinitesimal(cls, tree_values, N: int) -> "BCoeff":
        """Map vanishing on the unit and on proper products."""
        return cls("infinitesimal", N, tree_fn=_as_tree_fn(tree_values))

    @classmethod
    def plain(cls, forest_values, N: int) -> "BCoeff":
        """Literal forest values (mapping or callable), missing means 0."""
        if callable(forest_values):
            fn = forest_values
        else:
            table = {_as_forest(k): Fraction(v) for k, v in forest_values.items()}
            fn = lambda f: table.get(f, Fraction(0))
        return cls("plain", N, forest_fn=fn)

    # -- evaluation ---------------------------------------------------

    def tree_value(self, tree: RootedTree) -> Fraction:
        if tree.order > self.N:
            raise CapacityError(
                f"coefficient map truncated at order {self.N}, asked for order {tree.order}"
            )
        if tree in self._cache:
            return self._cache[tree]
        if self._tree_fn is not None:
            value = Fraction(self._tree_fn(tree))
        else:
            value = Fraction(self._forest_fn(Forest((tree,))))
        self._cache[tree] = value
        return value

    def unit_value(self) -> Fraction:
        if self.kind == "character":
            return Fraction(1)
        if self.kind == "infinitesimal":
            return Fraction(0)
        return Fraction(self._forest_fn(EMPTY_FOREST))

    def __call__(self, x) -> Fraction:
        if isinstance(x, FormalSum):
            return sum((coeff * self(basis) for basis, coeff in x), Fraction(0))
        if isinstance(x, RootedTree):
            return self.tree_value(x)
        if not isinstance(x, Forest):
            raise DomainError(f"cannot evaluate coefficients on {type(x).__name__}")
        if x.order > self.N:
            raise CapacityError(
                f"coefficient map truncated at order {self.N}, asked for order {x.order}"
            )
        if not x.trees:
            return self.unit_value()
        if self.kind == "character":
            out = Fraction(1)
            for t in x.trees:
                out *= self.tree_value(t)
            return out
        if self.kind == "infinitesimal":
            if len(x.trees) == 1:
                return self.tree_value(x.trees[0])
            return Fraction(0)
        return Fraction(self._forest_fn(x))

    def table(self, N: int | None = None) -> dict[Forest, Fraction]:
        """All forest values up to order N, sorted by (order, serial)."""
        from .forest_core import enumerate_forests

        N = self.N if N is None else N
        out: dict[Forest, Fraction] = {}
        for n in range(0, N + 1):
            for forest in enumerate_forests(n):
                out[forest] = self(forest)
        return out


def _as_tree_fn(tree_values):
    if callable(tree_values):
        return tree_values
    table = {k: Fraction(v) for k, v in tree_values.items()}
    return lambda t: table.get(t, Fraction(0))


def _as_forest(x) -> Forest:
    if isinstance(x, Forest):
        return x
    if isinstance(x, RootedTree):
        return Forest((x,))
    raise DomainError(f"expected a forest, got {type(x).__name__}")


def eta(N: int) -> BCoeff:
    """The convolution unit: 1 on the empty forest, 0 elsewhere."""
    return BCoeff.character({}, N)


def exact_gamma(N: int) -> BCoeff:
    """Exact-flow coefficients, 1/tree! on every tree."""
    return BCoeff.character(lambda t: Fraction(1, tree_stats(t)[2]), N)


def dot_field(N: int) -> BCoeff:
    """The identity for substitution: 1 on the single vertex, 0 elsewhere."""
    return BCoeff.infinitesimal({DOT: Fraction(1)}, N)


# ---------------------------------------------------------------------------
# Pruning coproduct (admissible cuts)
# ---------------------------------------------------------------------------


def _tree_cuts(tree: RootedTree) -> list[tuple[tuple[RootedTree, ...], RootedTree]]:
    """All admissible cuts of a tree except the full one.

    Each cut is returned as (pruned subtrees, remaining tree with the
    root). The empty cut ((), tree) is included.
    """
    per_child = []
    for child in tree.children:
        options = [((child,), None)]
        options.extend(_tree_cuts(child))
        per_child.append(options)
    out = []
    for combo in itertools.product(*per_child):
        pruned: tuple[RootedTree, ...] = ()
        kept = []
        for p, r in combo:
            pruned += p
            if r is not None:
                kept.append(r)
        out.append((pruned, RootedTree(kept, tree.color)))
    return out


def _delta_bck_tree(tree: RootedTree) -> FormalSum:
    terms = [(Forest((tree,)), EMPTY_FOREST, 1)]
    for pruned, rest in _tree_cuts(tree):
        terms.append((Forest(pruned), Forest((rest,)), 1))
    return tensor_sum(terms)


def _tensor_pairs(x: FormalSum) -> Iterable[tuple[Forest, Forest, Fraction]]:
    for t, coeff in x:
        yield t.left, t.right, coeff


def _tensor_mul(x: FormalSum, y: FormalSum) -> FormalSum:
    out = []
    for l1, r1, c1 in _tensor_pairs(x):
        for l2, r2, c2 in _tensor_pairs(y):
            out.append((l1 * l2, r1 * r2, c1 * c2))
    return tensor_sum(out)


_UNIT_TENSOR = tensor_sum([(EMPTY_FOREST, EMPTY_FOREST, 1)])


def delta_bck(omega: Forest | RootedTree) -> FormalSum:
    """Pruning coproduct, as a sum over admissible cuts.

    Returns a formal sum of Forest (x) Forest tensors; the pruned part
    sits in the left slot. Multiplicative on forests.
    """
    omega = _as_forest(omega)
    out = _UNIT_TENSOR
    for tree in omega.trees:
        out = _tensor_mul(out, _delta_bck_tree(tree))
    return out


_DELTA_REC_CACHE: dict[RootedTree, FormalSum] = {}


def delta_bck_recursive(omega: Forest | RootedTree) -> FormalSum:
    """Pruning coproduct through the B+ recursion (independent route)."""
    omega = _as_forest(omega)
    out = _UNIT_TENSOR
    for tree in omega.trees:
        out = _tensor_mul(out, _delta_rec_tree(tree))
    return out


def _delta_rec_tree(tree: RootedTree) -> FormalSum:
    if tree in _DELTA_REC_CACHE:
        return _DELTA_REC_CACHE[tree]
    inner = delta_bck_recursive(bminus(tree))
    terms = [(Forest((tree,)), EMPTY_FOREST, 1)]
    for left, right, coeff in _tensor_pairs(inner):
        terms.append((left, Forest((bplus(right, tree.color),)), coeff))
    out = tensor_sum(terms)
    _DELTA_REC_CACHE[tree] = out
    return out


_ANTIPODE_CACHE: dict[RootedTree, FormalSum] = {}


def antipode_bck(omega: Forest | RootedTree) -> FormalSum:
    """Antipode of the pruning Hopf algebra, multiplicative on forests."""
    omega = _as_forest(omega)
    out = FormalSum.term(EMPTY_FOREST)
    for tree in omega.trees:
        out = _forest_mul(out, _antipode_tree(tree))
    return out


def _forest_mul(x: FormalSum, y: FormalSum) -> FormalSum:
    return FormalSum((f1 * f2, c1 * c2) for f1, c1 in x for f2, c2 in y)


def _antipode_tree(tree: RootedTree) -> FormalSum:
    if tree in _ANTIPODE_CACHE:
        return _ANTIPODE_CACHE[tree]
    terms = [(Forest((tree,)), -1)]
    for pruned, rest in _tree_cuts(tree):
        if pruned:
            rest_forest = Forest((rest,))
            terms.extend((f * rest_forest, -c) for f, c in antipode_bck(Forest(pruned)))
    out = _ANTIPODE_CACHE[tree] = FormalSum(terms)
    return out


def convolve_bck(alpha: BCoeff, beta: BCoeff, N: int) -> BCoeff:
    """Convolution against the pruning coproduct.

    For method characters this is composition: the first slot is the map
    applied first. Both inputs must be truncated at order N or beyond.
    """
    if alpha.N < N or beta.N < N:
        raise DomainError(
            f"convolution to order {N} needs both maps at that order "
            f"(got {alpha.N} and {beta.N})"
        )

    def on_tree(tree: RootedTree) -> Fraction:
        total = alpha(Forest((tree,))) * beta.unit_value()
        for pruned, rest in _tree_cuts(tree):
            total += alpha(Forest(pruned)) * beta(Forest((rest,)))
        return total

    if alpha.kind == "character" and beta.kind == "character":
        return BCoeff.character(on_tree, N)

    def on_forest(forest: Forest) -> Fraction:
        return sum(
            (c * alpha(l) * beta(r) for l, r, c in _tensor_pairs(delta_bck(forest))),
            Fraction(0),
        )

    return BCoeff.plain(on_forest, N)


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


def _vertex_table(tree: RootedTree):
    colors: list[int] = []
    parent: dict[int, int] = {}
    children: list[list[int]] = []

    def walk(t: RootedTree, par: int | None) -> None:
        vid = len(colors)
        colors.append(t.color)
        children.append([])
        if par is not None:
            parent[vid] = par
            children[par].append(vid)
        for child in t.children:
            walk(child, vid)

    walk(tree, None)
    return colors, parent, children


def cefm_splits(tree: RootedTree) -> list[tuple[Forest, RootedTree]]:
    """All (spanning subforest, contracted tree) pairs of a tree.

    One pair per subset of kept edges: the left part collects the
    connected components induced by the kept edges, the right part is
    the quotient tree with each component shrunk to a vertex.
    """
    colors, parent, children = _vertex_table(tree)
    n = len(colors)
    edges = list(range(1, n))
    out = []
    for keep in itertools.product((False, True), repeat=len(edges)):
        comp = list(range(n))

        def find(v: int) -> int:
            while comp[v] != v:
                comp[v] = comp[comp[v]]
                v = comp[v]
            return v

        for idx, flag in enumerate(keep):
            if flag:
                v = edges[idx]
                comp[find(v)] = find(parent[v])

        members: dict[int, list[int]] = {}
        for v in range(n):
            members.setdefault(find(v), []).append(v)

        def build_component(root: int, allowed: set[int]) -> RootedTree:
            kids = [
                build_component(w, allowed) for w in children[root] if w in allowed
            ]
            return RootedTree(kids, colors[root])

        parts = []
        rep_of: dict[int, int] = {}
        for rep, verts in members.items():
            vset = set(verts)
            croot = min(verts)
            parts.append((croot, build_component(croot, vset)))
            for v in verts:
                rep_of[v] = croot
        left = Forest(t for _, t in parts)

        quotient_children: dict[int, list[int]] = {croot: [] for croot, _ in parts}
        root_rep = rep_of[0]
        for croot, _ in parts:
            if croot != 0:
                quotient_children[rep_of[parent[croot]]].append(croot)

        def build_quotient(croot: int) -> RootedTree:
            kids = [build_quotient(w) for w in quotient_children[croot]]
            return RootedTree(kids, colors[croot])

        out.append((left, build_quotient(root_rep)))
    return out


_CEFM_CACHE: dict[RootedTree, FormalSum] = {}


def delta_cefm(omega: Forest | RootedTree) -> FormalSum:
    """Contraction coproduct as a sum over spanning subforests."""
    omega = _as_forest(omega)
    if not omega.trees:
        return _UNIT_TENSOR
    out = None
    for tree in omega.trees:
        if tree not in _CEFM_CACHE:
            _CEFM_CACHE[tree] = tensor_sum(
                (left, Forest((right,)), 1) for left, right in cefm_splits(tree)
            )
        part = _CEFM_CACHE[tree]
        out = part if out is None else _tensor_mul(out, part)
    return out


def _product_over_trees(alpha: BCoeff, forest: Forest) -> Fraction:
    out = Fraction(1)
    for t in forest.trees:
        out *= alpha.tree_value(t)
    return out


def substitute_b(alpha: BCoeff, beta: BCoeff, N: int) -> BCoeff:
    """Substitute the field with coefficients alpha into the series beta.

    alpha must vanish on the empty forest (it describes a vector field).
    The result takes beta's value on the empty forest, and on a tree it
    is the contraction-coproduct convolution, with alpha evaluated as a
    product over the components of the spanning subforest.
    """
    if alpha.unit_value() != 0:
        raise DomainError("substitution needs a field: alpha(1) must be 0")
    if alpha.N < N or beta.N < N:
        raise DomainError(
            f"substitution to order {N} needs both maps at that order "
            f"(got {alpha.N} and {beta.N})"
        )

    def on_tree(tree: RootedTree) -> Fraction:
        total = Fraction(0)
        for left, right, c in _tensor_pairs(delta_cefm(tree)):
            total += c * _product_over_trees(alpha, left) * beta.tree_value(right.trees[0])
        return total

    if beta.kind == "plain":

        def on_forest(forest: Forest) -> Fraction:
            if not forest.trees:
                return beta.unit_value()
            total = Fraction(0)
            for l, r, c in _tensor_pairs(delta_cefm(forest)):
                total += c * _product_over_trees(alpha, l) * beta(r)
            return total

        return BCoeff.plain(on_forest, N)
    if beta.kind == "character":
        return BCoeff.character(on_tree, N)
    return BCoeff.infinitesimal(on_tree, N)


def solve_modified(alpha: BCoeff, mode: str, N: int) -> BCoeff:
    """Solve for the field beta whose substitution relates alpha and the
    exact flow.

    mode "backward_error": substituting beta into the exact-flow series
    reproduces the method alpha (the modified equation the method solves
    exactly). mode "modifying_integrator": substituting beta into the
    method series gives the exact flow.
    """
    if mode not in ("backward_error", "modifying_integrator"):
        raise DomainError(f"unknown mode {mode!r}")
    if alpha(DOT) != 1:
        raise DomainError("method must be consistent: alpha(.) = 1")
    gamma = exact_gamma(N)
    other = gamma if mode == "backward_error" else alpha
    target = alpha if mode == "backward_error" else gamma

    values: dict[RootedTree, Fraction] = {}

    for n in range(1, N + 1):
        for tree in enumerate_trees(n):
            total = Fraction(0)
            for left, right, c in _tensor_pairs(delta_cefm(tree)):
                if right == DOT_FOREST:
                    continue  # the unknown beta(tree) itself
                prod = c
                for t in left.trees:
                    prod *= values[t]
                total += prod * other.tree_value(right.trees[0])
            values[tree] = (target.tree_value(tree) - total) / other.tree_value(DOT)
    return BCoeff.infinitesimal(dict(values), N)


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
