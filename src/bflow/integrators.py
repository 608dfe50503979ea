"""Elementary differentials and exact B-series evaluation on polynomial
vector fields.

The package keeps its two layers in two modules that never mix
arithmetic. This one is the exact layer: it evaluates truncated series on
polynomial vector fields in rational arithmetic. Elementary differentials
have one route: derivative tensors contracted at an exact point, whose
entries may be rationals or polynomials; ``modified_field`` takes the
field's own state variables as the point. The Taylor oracle expands a
Runge-Kutta map over a generic field, one monomial per tree, with no
reference to the elementary-weight product formula (that independence is
the point). The floating-point layer, ``bflow.steppers``, supplies the
steppers, the group actions, and a convergence-order harness in 64-bit
floats.

Importing this module loads neither numpy, the float layer nor the
B-series layer: the Taylor oracles import ``bflow.bseries_hopf`` to build
their characters, and a polynomial field needs none of it. The float
layer's public names stay readable here (``from bflow.integrators import
integrate`` works): each is looked up in ``bflow.steppers`` on first
access, which imports that module and numpy, and is then kept in this
module's namespace. numpy otherwise loads only when ``as_callable``
compiles a float field.

Polynomial fields are exact sparse polynomials (``bflow.poly``, standard
library only), imported with the first field; no part of the package
imports sympy.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .algebra import FormalSum
from .errors import DomainError
from .forest_core import Forest, RootedTree, bplus, enumerate_trees, single, tree_stats

if TYPE_CHECKING:
    import numpy as np

    from .bseries_hopf import BCoeff, RKTableau


# ---------------------------------------------------------------------------
# Polynomial vector fields
# ---------------------------------------------------------------------------


class PolyVectorField:
    """A vector field whose components are polynomials with rational
    coefficients.

    Components are ``Poly``s over the state names followed by the declared
    parameters, so partial derivatives and point evaluations stay exact.
    A parameter (a symbolic step size, say) is one more named variable
    that passes through evaluation untouched. Components may be given as
    ``Poly``s or as text for ``parse``; anything else is read through its
    ``str()``, so sympy expressions and symbols are accepted as input.
    Its elementary differentials are derivative tensors contracted at a
    point (``elementary_differential``). ``as_callable`` compiles a float
    version for the steppers (parameter-free fields only).
    """

    def __init__(self, exprs, syms, params=()):
        from .poly import Poly, parse

        self.syms = tuple(str(s) for s in syms)
        self.params = tuple(str(p) for p in params)
        names = self.syms + self.params
        if len(set(names)) != len(names):
            raise DomainError(f"state and parameter names must be distinct, got {names}")
        self.exprs = tuple(
            e.over(names) if isinstance(e, Poly) else parse(str(e), names) for e in exprs
        )
        self.n = len(self.exprs)
        if len(self.syms) != self.n:
            raise DomainError(
                f"field needs one state symbol per component, got {len(self.syms)} "
                f"symbols for {self.n} components"
            )
        self._fn = None
        self._differential = None

    @classmethod
    def from_strings(cls, texts: Sequence[str], prefix: str = "y") -> "PolyVectorField":
        """Parse components like ``"y0**2 - y1"`` over symbols y0..y_{n-1}."""
        return cls(texts, [f"{prefix}{k}" for k in range(len(texts))])

    def as_callable(self) -> Callable[[np.ndarray], np.ndarray]:
        """The field in floats, each component compiled once and evaluated
        in the order sympy's lambdify prints it (``Poly.float_source``)."""
        if self.params:
            raise DomainError("cannot compile a field with free parameters")
        if self._fn is None:
            import numpy as np

            args = [f"x{k}" for k in range(self.n)]
            body = ", ".join(e.float_source(args) for e in self.exprs)
            # The source holds only float literals and the names in args.
            compiled = eval(f"lambda {', '.join(args)}: ({body},)", {})

            def fn(y, _c=compiled, _n=self.n):
                arr = np.asarray(y, dtype=float).reshape(_n)
                return np.asarray(_c(*arr), dtype=float).reshape(_n)

            self._fn = fn
        return self._fn

    def _state_differentials(self) -> Callable[[RootedTree], tuple]:
        """tree -> F(tree) at the field's own state variables, a tuple of
        Polys. The memos behind it are built with the first call and kept
        with the field, since they depend on nothing else."""
        if self._differential is None:
            self._differential = _differentials(self, self.syms)
        return self._differential


def _exact(value):
    """A number as a Fraction. A Poly, or anything else read through its
    ``str()`` (a sympy symbol, say), becomes a Poly unless it is constant."""
    if isinstance(value, (int, float, Fraction)):
        return Fraction(value)
    from .poly import Poly, parse

    if not isinstance(value, Poly):
        value = parse(str(value))
    c = value.constant()
    return value if c is None else c


def _differentials_at(field: PolyVectorField, y: list) -> Callable:
    """Elementary differentials at the exact point y, whose entries are
    Fractions or Polys.

    F(B+(t1..tm))(y) = f^(m)(y)[F(t1)(y), ..., F(tm)(y)]. Each entry of a
    derivative tensor at y is summed once from the field's monomials and
    each tree is contracted once from its children's values, both in
    memos that live as long as the returned function. The field's
    parameters enter as their own variables, never differentiated. A
    symbolic entry is taken over the field's names followed by its own, so
    the values print in the field's variable order.
    """
    n = field.n
    names = field.syms + field.params
    symbolic = [v for v in y if not isinstance(v, Fraction)]
    if symbolic or field.params:
        from .poly import Poly

        names += tuple(dict.fromkeys(k for v in symbolic for k in v.names if k not in names))
        y = [v if isinstance(v, Fraction) else v.over(names) for v in y]
        y += [Poly.var(p, names) for p in field.params]
    pad = (0,) * len(field.params)
    monomials = [e.terms for e in field.exprs]
    entries: dict[tuple, object] = {}
    values: dict[RootedTree, tuple] = {}

    def entry(i: int, counts: tuple[int, ...]):
        # component i differentiated counts[k] times in y_k, at y
        key = (i, counts)
        if key not in entries:
            total = Fraction(0)
            for exps, c in monomials[i].items():
                if all(e >= d for e, d in zip(exps, counts)):
                    term = c
                    for e, d, v in zip(exps, counts, y):
                        term *= math.perm(e, d) * v ** (e - d)
                    total += term
            entries[key] = total
        return entries[key]

    def differential(tree: RootedTree) -> tuple:
        if tree in values:
            return values[tree]
        children = [differential(c) for c in tree.children]
        out = []
        for i in range(n):
            total = Fraction(0)
            for jtuple in itertools.product(range(n), repeat=len(children)):
                term = entry(i, tuple(jtuple.count(k) for k in range(n)) + pad)
                if not term:
                    continue
                for j, child in zip(jtuple, children):
                    term *= child[j]
                total += term
            out.append(_exact(total))
        values[tree] = tuple(out)
        return values[tree]

    return differential


def _differentials(field: PolyVectorField, y) -> Callable:
    """tree -> F(tree)(y), after checking the dimension of y and reading
    its entries exactly."""
    if len(y) != field.n:
        raise DomainError(
            f"state has dimension {len(y)}, field expects {field.n}"
        )
    return _differentials_at(field, [_exact(v) for v in y])


def elementary_differential(tree: RootedTree, field: PolyVectorField, y) -> list:
    """Exact value of the elementary differential F(tree) at the point y."""
    return list(_differentials(field, y)(tree))


def _tree_terms(alpha: BCoeff, differential: Callable, h, N: int, shift: int):
    """(h^(|t|-shift) alpha(t)/sigma(t), F(t)) for each tree t of order 1
    to N where alpha(t) is not 0, in enumeration order."""
    for n in range(1, N + 1):
        hn = h ** (n - shift)
        for tree in enumerate_trees(n):
            c = alpha.tree_value(tree)
            if c:
                yield hn * c / tree_stats(tree)[1], differential(tree)


def eval_bseries(alpha: BCoeff, field: PolyVectorField, y, h, N: int) -> list:
    """Evaluate the truncated series: alpha(1) y plus, for every tree of
    order at most N, h^|t| alpha(t)/sigma(t) times the elementary
    differential at y. Exact in rational arithmetic; a symbolic h (a name
    such as ``"h"``, or a sympy symbol) or a parametric field produces
    ``Poly`` components instead."""
    if alpha.N < N:
        raise DomainError(
            f"series evaluation to order {N} needs coefficients at that order "
            f"(map truncated at {alpha.N})"
        )
    differential = _differentials(field, y)
    unit = alpha.unit_value()
    acc = [unit * _exact(v) for v in y]
    for weight, vec in _tree_terms(alpha, differential, _exact(h), N, 0):
        acc = [a + weight * v for a, v in zip(acc, vec)]
    return [_exact(a) for a in acc]


def modified_field(beta: BCoeff, field: PolyVectorField, h, N: int) -> PolyVectorField:
    """The vector field represented by an infinitesimal series: the sum
    over trees of h^{|t|-1} beta(t)/sigma(t) F(t), as a new polynomial
    field in the same state symbols. Pass h as an exact rational to get a
    concrete field, or symbolic (a name such as ``"h"``, or a sympy
    symbol) to keep it as a parameter; the new field's parameters are the
    old ones followed by those of h."""
    if beta.unit_value() != 0:
        raise DomainError("a vector field series must vanish on the empty forest")
    if beta.N < N:
        raise DomainError(
            f"field construction to order {N} needs coefficients at that order"
        )
    hval = _exact(h)
    exprs = [0] * field.n
    for weight, vec in _tree_terms(beta, field._state_differentials(), hval, N, 1):
        exprs = [e + weight * v for e, v in zip(exprs, vec)]
    free = () if isinstance(hval, Fraction) else hval.free
    params = field.params + tuple(p for p in free if p not in field.syms + field.params)
    return PolyVectorField(exprs, field.syms, params)


# ---------------------------------------------------------------------------
# The Taylor oracle
# ---------------------------------------------------------------------------
#
# A series is a FormalSum over trees for the deviation of a state from the
# base point y, the tree standing for its elementary differential over a
# generic field (derivative tensors as opaque symmetric slots, which is why
# non-planar trees are the right bookkeeping) and carrying the h-power equal
# to its order. Expanding h f(y + D) by multivariate Taylor contributes, for
# every multiset of monomials from D, the tree obtained by grafting the
# multiset under a fresh root, weighted by prod c^k / k!.


def _expand_field(series: FormalSum, N: int) -> FormalSum:
    terms = [(single(), Fraction(1))]
    items = sorted(series, key=lambda kv: kv[0].order)

    def rec(idx: int, budget: int, chosen: list, coeff: Fraction) -> None:
        if idx == len(items):
            if chosen:
                terms.append((bplus(Forest(tuple(chosen))), coeff))
            return
        tree, c = items[idx]
        rec(idx + 1, budget, chosen, coeff)
        k, mult, fact, used = 1, c, 1, tree.order
        while used <= budget:
            rec(idx + 1, budget - used, chosen + [tree] * k, coeff * mult / fact)
            k += 1
            mult *= c
            fact *= k
            used += tree.order

    rec(0, N - 1, [], Fraction(1))
    return FormalSum(terms)


def _rk_deviation(tableau: RKTableau, base: FormalSum, N: int) -> FormalSum:
    """Deviation series of one step started at y + base, truncated at N.

    Stages are solved by structural fixed point: each sweep recomputes
    every stage from the previous sweep's values, and the iteration must
    reach a sweep that changes nothing.
    """
    stages = [FormalSum()] * tableau.s
    for _ in range(N + tableau.s + 2):
        expanded = [_expand_field(base + st, N) for st in stages]
        new_stages = [FormalSum(zip(expanded, row)) for row in tableau.a]
        if new_stages == stages:
            return base + FormalSum(zip(expanded, tableau.b))
        stages = new_stages
    raise DomainError(
        f"stage expansion of {tableau.name or 'tableau'} did not stabilize "
        f"at order {N}"
    )


def _taylor_character(tableaus: Sequence[RKTableau], N: int) -> BCoeff:
    """The character of one step of each tableau in turn, all with the
    same h, expanded around the original point: the tree coefficients of
    the Taylor series times sigma, undoing the B-series normalization."""
    from .bseries_hopf import BCoeff

    if N > 5:
        raise DomainError(f"the Taylor oracle is capped at order 5, got {N}")
    series = FormalSum()
    for tableau in tableaus:
        series = _rk_deviation(tableau, series, N)
    return BCoeff.character({t: c * tree_stats(t)[1] for t, c in series}, N)


def rk_taylor_oracle(tableau: RKTableau, N: int) -> BCoeff:
    """Brute-force character of a Runge-Kutta map.

    Expands the map over a generic polynomial field and reads the tree
    coefficients straight off the Taylor series. Shares no code with
    elementary_weights.
    """
    return _taylor_character((tableau,), N)


def composed_taylor_oracle(first: RKTableau, second: RKTableau, N: int) -> BCoeff:
    """Taylor character of the composed map: a step of ``first``, then a
    step of ``second`` with the same h, expanded around the original
    point."""
    return _taylor_character((first, second), N)


def bell_frechet_word(word) -> str:
    """Symbolic image of a Bell word under the letter map d_i to the
    (i-1)-th derivative of the frozen field. Bookkeeping only."""
    if not word.word:
        return "1"
    return ".".join(f"F^({i - 1})" for i in word.word)


# The float layer's public names, defined in ``bflow.steppers``. Reading one
# here (``from bflow.integrators import integrate``) imports the float layer
# then, never with this module.
_STEPPERS = (
    "rk_step",
    "GroupAction",
    "make_action",
    "affine_element",
    "LGProblem",
    "dexpinv",
    "make_stepper",
    "lg_step",
    "integrate",
    "convergence_order",
    "rigid_body_problem",
    "toda_problem",
)


def __getattr__(name: str):
    if name in _STEPPERS:
        from . import steppers

        value = globals()[name] = getattr(steppers, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
