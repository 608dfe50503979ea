"""Tests for the composition and substitution structure on forests.

The coproduct tables are frozen strings checked against both
implementations: the memoised recursions in bflow, and the enumerations
over admissible cuts and edge subsets here, kept as the independent
routes. Convolution identities, antipode laws, modified-field solves,
and the geometric pair conditions are verified exhaustively on small
orders and on seeded random characters.
"""

from __future__ import annotations

import collections
import copy
import hashlib
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from bflow import bseries_hopf
from bflow.algebra import FormalSum, Tensor, render_sum, tensor_sum
from bflow.bseries_hopf import (
    BCoeff,
    RKTableau,
    antipode_bck,
    builtin_tableau,
    check_geometric,
    convolve_bck,
    delta_bck,
    delta_cefm,
    dot_field,
    elementary_weights,
    eta,
    exact_gamma,
    exp_bck,
    log_bck,
    order_of,
    order_report,
    parse_tableau,
    rk_character,
    solve_modified,
    substitute_b,
)
from bflow.errors import CapacityError, DomainError, ParseError
from bflow.hopf import convolve
from bflow.lbseries import convolve_mkw, eta_mkw
from bflow.forest_core import (
    Forest,
    RootedTree,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    single,
    tree_stats,
)

DOT = single()
L2 = parse_tree("[[]]")
CHERRY = parse_tree("[[][]]")
L3 = parse_tree("[[[]]]")


def show(tensors: FormalSum) -> str:
    return render_sum(
        tensors, sort_key=lambda t: (-t.left.order, t.left.serial, t.right.serial)
    )


def random_tree(rng: random.Random, n: int) -> RootedTree:
    """A tree of order n: each vertex hangs below a uniformly chosen earlier
    one, and every vertex takes a colour in 0-2."""
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        kids[rng.randrange(v)].append(v)
    colors = [rng.randrange(3) for _ in range(n)]

    def build(v: int) -> RootedTree:
        return RootedTree([build(w) for w in kids[v]], colors[v])

    return build(0)


TREES_TO_8 = [t for n in range(1, 9) for t in enumerate_trees(n)]
_rng = random.Random(6061)
RANDOM_TREES = [random_tree(_rng, _rng.randint(1, 9)) for _ in range(60)]


# ---------------------------------------------------------------------------
# The independent routes: enumerations over cuts and edge subsets
# ---------------------------------------------------------------------------


def tree_cuts(tree: RootedTree) -> list[tuple[tuple[RootedTree, ...], RootedTree]]:
    """All admissible cuts of a tree except the full one.

    Each cut is returned as (pruned subtrees, remaining tree with the
    root). The empty cut ((), tree) is included.
    """
    per_child = []
    for child in tree.children:
        options = [((child,), None)]
        options.extend(tree_cuts(child))
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


def delta_bck_by_cuts(omega: Forest) -> FormalSum:
    """The pruning coproduct from its definition: on a tree, t (x) 1 plus
    pruned (x) rest over its admissible cuts; on a forest, the product of
    its trees' coproducts, slot by slot."""
    out = FormalSum.term(Tensor(Forest(), Forest()))
    for tree in omega.trees:
        terms = [(Forest((tree,)), Forest(), 1)]
        terms.extend((Forest(pruned), Forest((rest,)), 1) for pruned, rest in tree_cuts(tree))
        out = FormalSum(
            (Tensor(t1.left * t2.left, t1.right * t2.right), c1 * c2)
            for t1, c1 in out
            for t2, c2 in tensor_sum(terms)
        )
    return out


def vertex_table(tree: RootedTree):
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
    colors, parent, children = vertex_table(tree)
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


# ---------------------------------------------------------------------------
# Pruning coproduct: frozen table
# ---------------------------------------------------------------------------


BCK_TABLE = [
    ("1", "1 (x) 1"),
    ("[]", "[] (x) 1 + 1 (x) []"),
    ("[[]]", "[[]] (x) 1 + [] (x) [] + 1 (x) [[]]"),
    (
        "[[[]]]",
        "[[[]]] (x) 1 + [[]] (x) [] + [] (x) [[]] + 1 (x) [[[]]]",
    ),
    (
        "[[][]]",
        "[[][]] (x) 1 + [] [] (x) [] + 2 * [] (x) [[]] + 1 (x) [[][]]",
    ),
    (
        "[[[[]]]]",
        "[[[[]]]] (x) 1 + [[[]]] (x) [] + [[]] (x) [[]] + [] (x) [[[]]] + 1 (x) [[[[]]]]",
    ),
    (
        "[[[][]]]",
        "[[[][]]] (x) 1 + [[][]] (x) [] + [] [] (x) [[]] + 2 * [] (x) [[[]]] "
        "+ 1 (x) [[[][]]]",
    ),
    (
        "[[[]][]]",
        "[[[]][]] (x) 1 + [[]] [] (x) [] + [[]] (x) [[]] + [] [] (x) [[]] "
        "+ [] (x) [[[]]] + [] (x) [[][]] + 1 (x) [[[]][]]",
    ),
]


@pytest.mark.parametrize("serial, expected", BCK_TABLE, ids=lambda x: x[:20])
def test_delta_bck_table(serial, expected):
    assert show(delta_bck(parse_forest(serial))) == expected


@pytest.mark.parametrize("serial, expected", BCK_TABLE, ids=lambda x: x[:20])
def test_delta_bck_recursive_table(serial, expected):
    # The frozen table read through the cut enumeration, the second route.
    assert show(delta_bck_by_cuts(parse_forest(serial))) == expected


def test_delta_bck_routes_agree_to_order_eight():
    # Every forest of order <= 8, and coloured trees up to order 9: the
    # recursion must keep the colour of each root it re-attaches.
    for n in range(0, 9):
        for forest in enumerate_forests(n):
            assert delta_bck(forest) == delta_bck_by_cuts(forest), forest.serial
    for tree in RANDOM_TREES:
        forest = Forest((tree,))
        assert delta_bck(tree) == delta_bck_by_cuts(forest), tree.serial


def test_delta_bck_multiplicative():
    f1 = parse_forest("[[]]")
    f2 = parse_forest("[] []")
    combined = delta_bck(f1 * f2)
    product = FormalSum.zero()
    for t1, c1 in delta_bck(f1):
        for t2, c2 in delta_bck(f2):
            product = product + FormalSum.term(
                Tensor(t1.left * t2.left, t1.right * t2.right), c1 * c2
            )
    assert combined == product


def test_delta_bck_vertex_grading():
    for n in range(0, 6):
        for forest in enumerate_forests(n):
            for t, _ in delta_bck(forest):
                assert t.left.order + t.right.order == n


def triple(delta, forest, first_slot: bool) -> dict:
    """Apply delta twice, once into the chosen slot, collecting a
    three-slot coefficient dictionary."""
    out: dict = {}
    for t, c in delta(forest):
        inner = delta(t.left if first_slot else t.right)
        for s, d in inner:
            key = (s.left, s.right, t.right) if first_slot else (t.left, s.left, s.right)
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("delta", [delta_bck, delta_cefm], ids=["prune", "contract"])
def test_coassociativity(delta):
    for n in range(0, 6):
        for forest in enumerate_forests(n):
            assert triple(delta, forest, True) == triple(delta, forest, False)


# ---------------------------------------------------------------------------
# Antipode
# ---------------------------------------------------------------------------


def test_antipode_small():
    assert render_sum(
        antipode_bck(DOT), sort_key=lambda f: (f.order, f.serial)
    ) == "-1 * []"
    assert render_sum(
        antipode_bck(L2), sort_key=lambda f: (f.order, f.serial)
    ) == "-1 * [[]] + [] []"
    assert render_sum(
        antipode_bck(CHERRY), sort_key=lambda f: (f.order, f.serial)
    ) == "-1 * [[][]] + 2 * [[]] [] + -1 * [] [] []"


def test_antipode_unit():
    assert antipode_bck(parse_forest("1")) == FormalSum.term(Forest())


def test_antipode_multiplicative():
    f = parse_forest("[[]] []")
    direct = antipode_bck(f)
    left = antipode_bck(L2)
    right = antipode_bck(DOT)
    product = FormalSum.zero()
    for f1, c1 in left:
        for f2, c2 in right:
            product = product + FormalSum.term(f1 * f2, c1 * c2)
    assert direct == product


def random_character(rng: random.Random, N: int) -> BCoeff:
    values = {}
    for n in range(1, N + 1):
        for tree in enumerate_trees(n):
            values[tree] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return BCoeff.character(values, N)


def test_antipode_gives_convolution_inverse():
    rng = random.Random(20240817)
    for _ in range(50):
        alpha = random_character(rng, 5)
        inv = BCoeff.character(lambda t: alpha(antipode_bck(t)), 5)
        conv = convolve_bck(alpha, inv, 5)
        for n in range(1, 6):
            for tree in enumerate_trees(n):
                assert conv(tree) == 0
        assert conv.unit_value() == 1


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def test_convolution_unit_law():
    rng = random.Random(7)
    alpha = random_character(rng, 4)
    for conv in (convolve_bck(alpha, eta(4), 4), convolve_bck(eta(4), alpha, 4)):
        for n in range(1, 5):
            for tree in enumerate_trees(n):
                assert conv(tree) == alpha(tree)


def test_exact_flow_self_composition():
    gamma = exact_gamma(4)
    twice = convolve_bck(gamma, gamma, 4)
    # Composing two unit-step exact flows is the exact 2-step flow.
    for n in range(1, 5):
        for tree in enumerate_trees(n):
            assert twice(tree) == 2**n * gamma(tree)


def test_euler_composed_with_itself():
    euler = rk_character(builtin_tableau("euler"), 4)
    twice = convolve_bck(euler, euler, 4)
    assert twice(L2) == 1


def test_first_applied_method_sits_in_first_slot():
    # Euler then exact flow: the h^3 cherry coefficient is 7/3; swapped
    # order gives 4/3, so the slot convention is observable.
    euler = rk_character(builtin_tableau("euler"), 4)
    gamma = exact_gamma(4)
    assert convolve_bck(euler, gamma, 4)(CHERRY) == Fraction(7, 3)
    assert convolve_bck(gamma, euler, 4)(CHERRY) == Fraction(4, 3)


def test_convolution_associativity_random():
    rng = random.Random(99)
    for _ in range(10):
        a = random_character(rng, 5)
        b = random_character(rng, 5)
        c = random_character(rng, 5)
        left = convolve_bck(convolve_bck(a, b, 5), c, 5)
        right = convolve_bck(a, convolve_bck(b, c, 5), 5)
        for n in range(1, 6):
            for tree in enumerate_trees(n):
                assert left(tree) == right(tree)


def test_convolution_truncation_mismatch():
    with pytest.raises(DomainError):
        convolve_bck(exact_gamma(3), exact_gamma(5), 4)


def test_convolution_needs_maps_of_one_algebra():
    # convolve_bck and convolve_mkw are one convolve; it reads the
    # coproduct of the maps' class, so mixed maps have none to read
    assert convolve_bck is convolve is convolve_mkw
    with pytest.raises(DomainError):
        convolve(exact_gamma(3), eta_mkw(3), 3)
    with pytest.raises(DomainError):
        convolve(eta_mkw(3), exact_gamma(3), 3)


def test_evaluation_beyond_truncation():
    gamma = exact_gamma(2)
    with pytest.raises(CapacityError):
        gamma(CHERRY)


# ---------------------------------------------------------------------------
# Exact flow coefficients
# ---------------------------------------------------------------------------


def test_exact_gamma_values():
    gamma = exact_gamma(4)
    assert gamma(DOT) == 1
    assert gamma(CHERRY) == Fraction(1, 3)
    assert gamma(L3) == Fraction(1, 6)
    assert gamma(parse_forest("1")) == 1
    assert gamma(parse_forest("[] [[]]")) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# Tableaus and elementary weights
# ---------------------------------------------------------------------------


def test_tableau_round_sums():
    rk4 = builtin_tableau("rk4")
    assert rk4.c == (0, Fraction(1, 2), Fraction(1, 2), 1)
    assert rk4.is_explicit
    assert not builtin_tableau("implicit_midpoint").is_explicit


def test_tableau_c_consistency_enforced():
    with pytest.raises(DomainError):
        RKTableau([[0]], [1], c=[Fraction(1, 2)])


def test_parse_tableau():
    text = "2\n0 0\n1/2 0\n0 1\n"
    tab = parse_tableau(text)
    assert tab.s == 2
    assert tab.a[1][0] == Fraction(1, 2)
    assert tab.c == (0, Fraction(1, 2))
    with pytest.raises(ParseError):
        parse_tableau("2\n0 0\n1/2 0\n")
    with pytest.raises(ParseError):
        parse_tableau("x\n")
    with pytest.raises(ParseError):
        parse_tableau("1\n0 0\n1\n")


def random_tableau(rng: random.Random, s: int) -> RKTableau:
    a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(s)] for _ in range(s)]
    b = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(s)]
    return RKTableau(a, b)


def test_elementary_weights_closed_forms():
    # Low-order weights have classical closed forms in the coefficients.
    rng = random.Random(5)
    for _ in range(5):
        tab = random_tableau(rng, 3)
        s = range(tab.s)
        assert elementary_weights(tab, DOT) == sum(tab.b[j] for j in s)
        assert elementary_weights(tab, L2) == sum(tab.b[j] * tab.c[j] for j in s)
        assert elementary_weights(tab, CHERRY) == sum(tab.b[j] * tab.c[j] ** 2 for j in s)
        assert elementary_weights(tab, L3) == sum(
            tab.b[j] * tab.a[j][k] * tab.c[k] for j in s for k in s
        )


def _stage_weights_reference(tableau, tree, cache):
    """The stage weights as each was summed before, one Fraction at a
    time with the zero terms added."""
    if tree in cache:
        return cache[tree]
    factors = [_stage_weights_reference(tableau, child, cache) for child in tree.children]
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
    cache[tree] = tuple(out)
    return cache[tree]


def _elementary_weight_reference(tableau, tree, cache):
    factors = [_stage_weights_reference(tableau, child, cache) for child in tree.children]
    total = Fraction(0)
    for j in range(tableau.s):
        term = tableau.b[j]
        if term:
            for f in factors:
                term *= f[j]
        total += term
    return total


def _sparse_tableau(rng: random.Random, s: int) -> RKTableau:
    """A full tableau whose entries are 0 about half the time."""
    entry = lambda: Fraction(rng.choice((0, 0, 0, 1, -2, 3)), rng.choice((1, 2, 3, 7)))
    return RKTableau([[entry() for _ in range(s)] for _ in range(s)], [entry() for _ in range(s)])


def test_weights_match_the_fraction_loop():
    # Each stage weight and each elementary weight is one exact_sum; the
    # reference adds Fractions term by term, zeros included.
    rng = random.Random("weights")
    tableaus = list(bseries_hopf.BUILTIN_TABLEAUS.values())
    tableaus += [_sparse_tableau(rng, s) for s in (1, 2, 3, 4, 4, 5)]
    trees = [t for n in range(1, 9) for t in enumerate_trees(n)]
    for tab in tableaus:
        cache = {}
        for tree in trees:
            want = _elementary_weight_reference(tab, tree, cache)
            got = elementary_weights(tab, tree)
            assert type(got) is Fraction and got == want, (tab.a, tab.b, tree.serial)
            stages = bseries_hopf._stage_weights(tab, tree)
            assert stages == _stage_weights_reference(tab, tree, cache), tree.serial
    assert any(not elementary_weights(tab, t) for tab in tableaus for t in trees)


def test_the_cache_registry_clears_the_stage_weights_of_the_builtins():
    # The builtin tableaus live for the process; their stage weights are
    # a cached function, so a clear() leaves the next pass cold.
    from bflow import caches

    rk4 = rk_character(builtin_tableau("rk4"), 8)
    convolve_bck(rk4, rk4, 8).table()
    assert bseries_hopf._stage_weights.cache_info().currsize > 0
    caches.clear()
    assert bseries_hopf._stage_weights.cache_info().currsize == 0


def test_implicit_midpoint_weights():
    tab = builtin_tableau("implicit_midpoint")
    assert [elementary_weights(tab, t) for t in (DOT, L2, CHERRY, L3)] == [
        1,
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
    ]


def test_implicit_midpoint_weight_formula():
    # The one-stage midpoint rule weights depend only on the order.
    tab = builtin_tableau("implicit_midpoint")
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            assert elementary_weights(tab, tree) == Fraction(1, 2 ** (n - 1))


@pytest.mark.parametrize(
    "name, expected",
    [("euler", 1), ("explicit_midpoint", 2), ("implicit_midpoint", 2), ("rk4", 4)],
)
def test_builtin_orders(name, expected):
    alpha = rk_character(builtin_tableau(name), 6)
    assert order_of(alpha, 5) == expected


def test_rk4_order_report():
    alpha = rk_character(builtin_tableau("rk4"), 6)
    n, violation = order_report(alpha, 5)
    assert n == 4
    assert violation is not None and violation.order == 5
    # Every order-4 condition holds exactly.
    for k in range(1, 5):
        for tree in enumerate_trees(k):
            assert alpha(tree) == Fraction(1, tree_stats(tree)[2])


def test_order_zero_for_inconsistent():
    alpha = BCoeff.character({DOT: Fraction(1, 2)}, 4)
    assert order_of(alpha, 4) == 0


# ---------------------------------------------------------------------------
# Contraction coproduct: frozen table
# ---------------------------------------------------------------------------


CEFM_TABLE = [
    ("[]", "[] (x) []"),
    ("[[]]", "[[]] (x) [] + [] [] (x) [[]]"),
    (
        "[[[]]]",
        "[[[]]] (x) [] + 2 * [[]] [] (x) [[]] + [] [] [] (x) [[[]]]",
    ),
    (
        "[[][]]",
        "[[][]] (x) [] + 2 * [[]] [] (x) [[]] + [] [] [] (x) [[][]]",
    ),
    (
        "[[[[]]]]",
        "[[[[]]]] (x) [] + 2 * [[[]]] [] (x) [[]] + [[]] [[]] (x) [[]] "
        "+ 3 * [[]] [] [] (x) [[[]]] + [] [] [] [] (x) [[[[]]]]",
    ),
    (
        "[[[][]]]",
        "[[[][]]] (x) [] + 2 * [[[]]] [] (x) [[]] + [[][]] [] (x) [[]] "
        "+ 2 * [[]] [] [] (x) [[[]]] + [[]] [] [] (x) [[][]] + [] [] [] [] (x) [[[][]]]",
    ),
    (
        "[[[]][]]",
        "[[[]][]] (x) [] + [[[]]] [] (x) [[]] + [[][]] [] (x) [[]] + [[]] [[]] (x) [[]] "
        "+ [[]] [] [] (x) [[[]]] + 2 * [[]] [] [] (x) [[][]] + [] [] [] [] (x) [[[]][]]",
    ),
]


@pytest.mark.parametrize("serial, expected", CEFM_TABLE, ids=lambda x: x[:20])
def test_delta_cefm_table(serial, expected):
    assert show(delta_cefm(parse_forest(serial))) == expected


def test_delta_cefm_edge_grading():
    def edges(f: Forest) -> int:
        return f.order - len(f.trees)

    for n in range(1, 6):
        for forest in enumerate_forests(n):
            if not forest.trees:
                continue
            e = edges(forest)
            for t, _ in delta_cefm(forest):
                assert edges(t.left) + edges(t.right) == e


def test_cefm_split_count_is_edge_powerset():
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            assert len(cefm_splits(tree)) == 2 ** (tree.order - 1)


def antipode_by_cuts(omega: Forest, memo: dict) -> FormalSum:
    """The antipode through its defining recursion over admissible cuts,
    S(t) = -t - sum S(P) R over the cuts P, R with P nonempty."""
    out = FormalSum.term(Forest())
    for tree in omega.trees:
        if tree not in memo:
            terms = [(Forest((tree,)), -1)]
            for pruned, rest in tree_cuts(tree):
                if pruned:
                    rest_forest = Forest((rest,))
                    s_pruned = antipode_by_cuts(Forest(pruned), memo)
                    terms.extend((f * rest_forest, -c) for f, c in s_pruned)
            memo[tree] = FormalSum(terms)
        out = FormalSum(
            (f1 * f2, c1 * c2) for f1, c1 in out for f2, c2 in memo[tree]
        )
    return out


def test_delta_cefm_matches_the_edge_subsets():
    assert any(t.order == 9 for t in RANDOM_TREES)
    assert {c for t in RANDOM_TREES for c in t.serial if c in "12"} == {"1", "2"}
    for tree in TREES_TO_8 + RANDOM_TREES:
        want = tensor_sum((left, Forest((right,)), 1) for left, right in cefm_splits(tree))
        assert delta_cefm(tree) == want, tree.serial


def test_antipode_table_is_pinned():
    # sha256 of the antipode of every tree of order <= 8, each rendered
    # by forests of (tree count, serial), as printed when the antipode was
    # summed term by term in Fractions
    text = "".join(
        f"{t.serial}\t{render_sum(antipode_bck(t), lambda f: (len(f.trees), f.serial))}\n"
        for t in TREES_TO_8
    )
    assert len(TREES_TO_8) == 200
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b7d0233794c4bb666a76dc468a148a97a7d019de7804fe7d5c46823f1c380684"
    )


def test_antipode_matches_the_cut_recursion():
    memo: dict = {}
    for tree in TREES_TO_8 + RANDOM_TREES:
        assert antipode_bck(tree) == antipode_by_cuts(Forest((tree,)), memo), tree.serial
    forest = parse_forest("[[]] [1:[2:]] []")
    assert antipode_bck(forest) == antipode_by_cuts(forest, memo)


def test_contraction_and_antipode_run_without_the_enumerations():
    # The enumerations live only in this file, so bflow cannot reach them.
    for name in ("cefm_splits", "_vertex_table", "_tree_cuts", "delta_bck_recursive", "itertools"):
        assert not hasattr(bseries_hopf, name), name
    fresh_memos()
    for tree in TREES_TO_8:
        delta_cefm(tree)
        antipode_bck(tree)
    rk4 = rk_character(builtin_tableau("rk4"), 8)
    be = solve_modified(rk4, "backward_error", 8)
    mi = solve_modified(rk4, "modifying_integrator", 8)
    back = substitute_b(be, exact_gamma(8), 8)
    forward = substitute_b(mi, rk4, 8)
    gamma = exact_gamma(8)
    for tree in TREES_TO_8:
        assert back(tree) == rk4(tree)
        assert forward(tree) == gamma(tree)


COPRODUCT_MEMOS = (
    bseries_hopf._cefm_parts,
    bseries_hopf._delta_cefm_tree,
    bseries_hopf._antipode_tree,
    bseries_hopf._delta_bck_tree,
    bseries_hopf._forest_product,
    bseries_hopf._join,
    bseries_hopf._one_tree,
    bseries_hopf._bplus,
)


def fresh_memos():
    """Empty the coproduct caches. The intern tables stay: emptying one
    while its trees are alive would make a tree built afterwards a second
    object, equal to none of them."""
    for memo in COPRODUCT_MEMOS:
        memo.cache_clear()


def test_the_coproduct_fill_adds_no_fractions(no_fraction_sums):
    # The memos are filled from integer rows: each term's coefficient is
    # built as a Fraction once, and no Fraction is added.
    forests = [parse_forest("[[]] [1:[2:]] []"), parse_forest("[[]] [[]] [[][]]")]
    everything = TREES_TO_8 + RANDOM_TREES + forests
    maps = (delta_bck, delta_cefm, antipode_bck)
    want = [[f(x) for x in everything] for f in maps]
    fresh_memos()
    with no_fraction_sums():
        got = [[f(x) for x in everything] for f in maps]
    assert got == want
    assert all(isinstance(c, Fraction) for sums in got for s in sums for _, c in s)


def interned(x) -> bool:
    """Whether x is the tree or forest its intern table holds for its
    children and colour, or members, and so are its trees."""
    if isinstance(x, RootedTree):
        key = x.children, x.color
        return RootedTree._interned.get(key) is x and all(map(interned, x.children))
    return Forest._interned.get(x.trees) is x and all(map(interned, x.trees))


def test_coproduct_rows_hold_the_interned_trees():
    for tree in TREES_TO_8:
        for t, _ in itertools.chain(delta_cefm(tree), delta_bck(tree)):
            assert interned(t.left) and interned(t.right), (tree.serial, t.serial)
        for f, _ in antipode_bck(tree):
            assert interned(f), (tree.serial, f.serial)
        for l, q, _, top, left, right in bseries_hopf._cefm_parts(tree):
            assert all(map(interned, (l, q, top, left, right))), tree.serial
    # the constructor returns the one shared object, whatever the order
    # of the children or members
    for tree in RANDOM_TREES:
        assert interned(tree)
        assert RootedTree(tree.children, tree.color) is tree
        assert RootedTree(reversed(tree.children), tree.color) is tree
        assert Forest((tree, DOT)) is Forest((DOT, tree)) is Forest((DOT,)) * Forest((tree,))
        assert parse_tree(tree.serial) is tree
    tree = RootedTree((L2, CHERRY), 2)
    forest = Forest((tree, DOT))
    sizes = len(RootedTree._interned), len(Forest._interned)
    for x in (tree, forest):
        for twin in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin is x
    assert (len(RootedTree._interned), len(Forest._interned)) == sizes


def test_forest_coproducts_are_memoised(monkeypatch):
    # Delta of a forest is the product of its trees' rows, built once: a
    # second logarithm reads the memo and multiplies nothing.
    calls = collections.Counter()
    product = bseries_hopf._product_rows

    def counting(sums, unit):
        calls["products"] += 1
        return product(sums, unit)

    fresh_memos()
    monkeypatch.setattr(bseries_hopf, "_product_rows", counting)
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    rk4 = rk_character(builtin_tableau("rk4"), 7)
    first = [log_bck(rk4, 7)(t) for t in trees]
    assert calls["products"] and bseries_hopf._forest_product.cache_info().currsize
    calls.clear()
    assert [log_bck(rk_character(builtin_tableau("rk4"), 7), 7)(t) for t in trees] == first
    assert not calls


def test_convolve_bck_enumerates_cuts_once_per_tree(monkeypatch):
    # Building the pruning coproduct of a tree takes B-(tree) once; every
    # later convolution reads the memo.
    calls: collections.Counter = collections.Counter()
    take_root = bseries_hopf.bminus

    def counting(tree):
        calls[tree] += 1
        return take_root(tree)

    fresh_memos()
    monkeypatch.setattr(bseries_hopf, "bminus", counting)
    rk4 = rk_character(builtin_tableau("rk4"), 6)
    trees = [t for n in range(1, 7) for t in enumerate_trees(n)]
    first = [convolve_bck(rk4, rk4, 6)(t) for t in trees]
    after_first = sum(calls.values())
    second = [convolve_bck(rk4, rk4, 6)(t) for t in trees]
    assert first == second
    assert after_first and max(calls.values()) == 1
    assert sum(calls.values()) == after_first


# ---------------------------------------------------------------------------
# Substitution and modified fields
# ---------------------------------------------------------------------------


def random_field(rng: random.Random, N: int) -> BCoeff:
    values = {DOT: Fraction(1)}
    for n in range(2, N + 1):
        for tree in enumerate_trees(n):
            values[tree] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return BCoeff.infinitesimal(values, N)


def test_substitution_identity():
    gamma = exact_gamma(4)
    out = substitute_b(dot_field(4), gamma, 4)
    for n in range(1, 5):
        for tree in enumerate_trees(n):
            assert out(tree) == gamma(tree)
    assert out.unit_value() == 1


def test_substitution_low_order_formulas():
    rng = random.Random(11)
    alpha = random_field(rng, 3)
    beta = random_character(rng, 3)
    out = substitute_b(alpha, beta, 3)
    assert out(DOT) == alpha(DOT) * beta(DOT)
    assert out(L2) == alpha(L2) * beta(DOT) + alpha(DOT) ** 2 * beta(L2)


def test_substitution_rejects_nonfield():
    with pytest.raises(DomainError):
        substitute_b(exact_gamma(3), exact_gamma(3), 3)


def test_solve_modified_euler():
    euler = rk_character(builtin_tableau("euler"), 4)
    back = solve_modified(euler, "backward_error", 4)
    mod = solve_modified(euler, "modifying_integrator", 4)
    assert back(L2) == Fraction(-1, 2)
    assert mod(L2) == Fraction(1, 2)
    assert back.unit_value() == 0


def test_solve_modified_exact_flow_is_fixed():
    gamma = exact_gamma(4)
    for mode in ("backward_error", "modifying_integrator"):
        beta = solve_modified(gamma, mode, 4)
        assert beta(DOT) == 1
        for n in range(2, 5):
            for tree in enumerate_trees(n):
                assert beta(tree) == 0


@pytest.mark.parametrize("name", ["euler", "explicit_midpoint", "implicit_midpoint", "rk4"])
def test_solve_modified_roundtrips(name):
    alpha = rk_character(builtin_tableau(name), 5)
    gamma = exact_gamma(5)
    back = solve_modified(alpha, "backward_error", 5)
    recovered = substitute_b(back, gamma, 5)
    mod = solve_modified(alpha, "modifying_integrator", 5)
    exactified = substitute_b(mod, alpha, 5)
    for n in range(1, 6):
        for tree in enumerate_trees(n):
            assert recovered(tree) == alpha(tree)
            assert exactified(tree) == gamma(tree)


def test_solve_modified_requires_consistency():
    with pytest.raises(DomainError):
        solve_modified(eta(3), "backward_error", 3)
    with pytest.raises(DomainError):
        solve_modified(exact_gamma(3), "sideways", 3)


# ---------------------------------------------------------------------------
# Backward error as a convolution logarithm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [6, 7])
@pytest.mark.parametrize("name", ["euler", "explicit_midpoint", "implicit_midpoint", "rk4"])
def test_log_bck_is_the_backward_error_field(name, N):
    # Two independent routes to the modified field: the logarithm under
    # the pruning convolution, and the contraction-coproduct solve.
    alpha = rk_character(builtin_tableau(name), N)
    log = log_bck(alpha, N)
    back = solve_modified(alpha, "backward_error", N)
    assert log.kind == "infinitesimal"
    for n in range(1, N + 1):
        for tree in enumerate_trees(n):
            assert log(tree) == back(tree), tree.serial


def test_exp_bck_inverts_log_bck():
    # exp*(log*(alpha)) = alpha holds for the convolution of any
    # associative product, so this checks the shared series and its
    # coefficients, not that the logarithm is the backward error.
    rng = random.Random(2026)
    characters = [rk_character(builtin_tableau("rk4"), 6)]
    characters += [random_character(rng, 6) for _ in range(3)]
    for alpha in characters:
        back = exp_bck(log_bck(alpha, 6), 6)
        assert back.kind == "character"
        for n in range(0, 7):
            for forest in enumerate_forests(n):
                assert back(forest) == alpha(forest), forest.serial


def test_log_and_exp_bck_read_each_coproduct_once(monkeypatch):
    # One table of log_bck, then one of exp_bck of it: each asks for the
    # coproduct of a forest at most once, whatever the power.
    calls: collections.Counter = collections.Counter()

    def counting(omega):
        calls[Forest._of(omega)] += 1
        return delta_bck(omega)

    monkeypatch.setattr(BCoeff, "coproduct", staticmethod(counting))
    rk4 = rk_character(builtin_tableau("rk4"), 7)
    log = log_bck(rk4, 7)
    back = solve_modified(rk4, "backward_error", 7)
    table = log.table()
    assert table == {f: back(f) for f in table}
    assert any(f.order == 7 for f in calls) and max(calls.values()) == 1
    calls.clear()
    assert exp_bck(log, 7).table() == rk4.table()
    assert any(f.order == 7 for f in calls) and max(calls.values()) == 1


def test_log_and_exp_bck_need_their_kinds():
    with pytest.raises(DomainError):
        log_bck(dot_field(3), 3)
    with pytest.raises(DomainError):
        log_bck(BCoeff.plain({Forest(): 1}, 3), 3)
    with pytest.raises(DomainError):
        log_bck(exact_gamma(3), 4)
    with pytest.raises(DomainError):
        exp_bck(exact_gamma(3), 3)
    with pytest.raises(DomainError):
        exp_bck(BCoeff.plain({DOT: 1}, 3), 3)


# ---------------------------------------------------------------------------
# Geometric pair conditions
# ---------------------------------------------------------------------------


def test_midpoint_is_symplectic():
    alpha = rk_character(builtin_tableau("implicit_midpoint"), 6)
    assert check_geometric(alpha, "symplectic_method", 6) == []


def test_euler_is_not_symplectic():
    alpha = rk_character(builtin_tableau("euler"), 4)
    violations = check_geometric(alpha, "symplectic_method", 2)
    assert violations == [(DOT, DOT)]


def test_zero_field_is_hamiltonian():
    alpha = BCoeff.infinitesimal({}, 4)
    assert check_geometric(alpha, "hamiltonian_field", 4) == []


def test_dot_field_is_hamiltonian():
    assert check_geometric(dot_field(4), "hamiltonian_field", 4) == []


def test_hamiltonian_requires_field():
    with pytest.raises(DomainError):
        check_geometric(exact_gamma(4), "hamiltonian_field", 4)


def test_symplectic_method_has_hamiltonian_modified_field():
    alpha = rk_character(builtin_tableau("implicit_midpoint"), 6)
    beta = solve_modified(alpha, "backward_error", 6)
    assert check_geometric(beta, "hamiltonian_field", 6) == []


def test_nonsymplectic_method_fails_through_its_field():
    euler = rk_character(builtin_tableau("euler"), 4)
    beta = solve_modified(euler, "backward_error", 4)
    violations = check_geometric(beta, "hamiltonian_field", 4)
    assert (DOT, DOT) in violations
