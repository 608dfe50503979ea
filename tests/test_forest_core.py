"""Tests for trees, forests, parsing, and the grafting products.

Expected values come from independent oracles defined at the top of this
file: the Euler-transform counting recurrence, brute-force automorphism
counting over vertex bijections, the subtree-size product for the tree
factorial, and exhaustive increasing-labelling counts.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import bflow
from bflow import (
    CapacityError,
    DomainError,
    EMPTY_FOREST,
    EMPTY_WORD,
    Forest,
    FormalSum,
    ParseError,
    PlanarForest,
    PlanarTree,
    RootedTree,
    bminus,
    bplus,
    butcher_product,
    concat,
    enumerate_forests,
    enumerate_trees,
    forest_sigma,
    gl_product,
    left_graft,
    parse_forest,
    parse_tree,
    prelie_graft,
    project_nonplanar,
    psingle,
    shuffle,
    single,
    tree_stats,
)
from bflow.forest_core import _Basis, _Forest, _Tree

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_tree_counts(n_max: int) -> list[int]:
    """Counts of non-planar rooted trees via the Euler-transform recurrence.

    r(n+1) = (1/n) * sum_{k=1..n} ( sum_{d | k} d*r(d) ) * r(n+1-k)
    """
    r = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            c = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += c * r[n + 1 - k]
        assert total % n == 0
        r.append(total // n)
    return r[1 : n_max + 1]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def vertex_table(tree) -> tuple[list, dict[int, int]]:
    """DFS labelling: list of vertex payloads and a child -> parent map."""
    payloads: list = []
    parent: dict[int, int] = {}

    def walk(t, par):
        vid = len(payloads)
        payloads.append(t)
        if par is not None:
            parent[vid] = par
        for child in t.children:
            walk(child, vid)

    walk(tree, None)
    return payloads, parent


def oracle_automorphisms(tree) -> int:
    """Count root-fixing vertex bijections preserving parent and color."""
    payloads, parent = vertex_table(tree)
    n = len(payloads)
    count = 0
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if any(parent[perm[v]] != perm[parent[v]] for v in range(1, n)):
            continue
        if any(payloads[v].color != payloads[perm[v]].color for v in range(n)):
            continue
        count += 1
    return count


def oracle_factorial(tree) -> int:
    """Tree factorial as the product of subtree sizes over all vertices."""
    product = 1

    def walk(t) -> int:
        nonlocal product
        size = 1 + sum(walk(c) for c in t.children)
        product *= size
        return size

    walk(tree)
    return product


def oracle_increasing_labellings(tree) -> int:
    """Count labellings 1..n with every child labelled above its parent."""
    _, parent = vertex_table(tree)
    n = len(parent) + 1
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[parent[v]] < perm[v] for v in range(1, n)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Construction and serialization
# ---------------------------------------------------------------------------


DOT = single()
LADDER2 = RootedTree((DOT,))
CHERRY = RootedTree((DOT, DOT))
LADDER3 = RootedTree((LADDER2,))


def test_canonical_child_order():
    a = RootedTree((LADDER2, DOT))
    b = RootedTree((DOT, LADDER2))
    assert a == b
    assert a.serial == "[[[]][]]"


def test_serial_examples():
    assert DOT.serial == "[]"
    assert CHERRY.serial == "[[][]]"
    assert LADDER3.serial == "[[[]]]"
    assert Forest((CHERRY, DOT)).serial == "[[][]] []"
    assert EMPTY_FOREST.serial == "1"


def test_planar_child_order_is_kept():
    d = psingle()
    l2 = PlanarTree((d,))
    assert PlanarTree((l2, d)).serial == "[[[]][]]"
    assert PlanarTree((d, l2)).serial == "[[][[]]]"
    assert PlanarTree((l2, d)) != PlanarTree((d, l2))


def test_color_tags():
    c = RootedTree((), color=2)
    assert c.serial == "[2:]"
    t = RootedTree((c, DOT))
    assert t.serial == "[[2:][]]" or t.serial == "[[][2:]]"
    assert parse_tree(t.serial) == t


def test_forest_product_merges_multisets():
    f = Forest((CHERRY,)) * Forest((DOT, LADDER2))
    assert f == Forest((DOT, LADDER2, CHERRY))
    assert f.order == 6


def test_planar_forest_product_concatenates():
    d = psingle()
    l2 = PlanarTree((d,))
    left = PlanarForest((l2,)) * PlanarForest((d,))
    right = PlanarForest((d,)) * PlanarForest((l2,))
    assert left.serial == "[[]] []"
    assert right.serial == "[] [[]]"
    assert left != right


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["[]", "[[]]", "[[][]]", "[[[]]]", "[[[]][]]", "1", "[] []", "[[][]] [[]] []"],
)
def test_parse_roundtrip(text):
    assert parse_forest(text).serial == text


def test_parse_accepts_adjacent_trees():
    assert parse_forest("[][]").serial == "[] []"
    assert parse_forest("  [[]]   []  ").serial == "[[]] []"


def test_parse_planar():
    w = parse_forest("[[][[]]]", planar=True)
    assert isinstance(w, PlanarForest)
    assert w.word[0].children[1].serial == "[[]]"


@pytest.mark.parametrize("bad", ["[[]", "]", "[]x", "x", "", "[2[]]", "[]]"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_forest(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_forest("[] ]")
    assert err.value.pos == 3


def test_parse_tree_rejects_forest():
    with pytest.raises(ParseError):
        parse_tree("[] []")


# ---------------------------------------------------------------------------
# Counting against the recurrence oracles
# ---------------------------------------------------------------------------


def test_tree_counts_match_recurrence():
    expected = oracle_tree_counts(6)
    assert expected == [1, 1, 2, 4, 9, 20]
    assert [len(enumerate_trees(n)) for n in range(1, 7)] == expected


def test_forest_counts_match_shifted_recurrence():
    # B+ maps forests of order n bijectively onto trees of order n + 1.
    expected = oracle_tree_counts(7)[1:]
    assert [len(enumerate_forests(n)) for n in range(1, 7)] == expected
    assert len(enumerate_forests(0)) == 1


def test_planar_counts_are_catalan():
    assert [len(enumerate_trees(n, planar=True)) for n in range(1, 7)] == [
        catalan(n - 1) for n in range(1, 7)
    ]
    assert [len(enumerate_forests(n, planar=True)) for n in range(0, 7)] == [
        catalan(n) for n in range(0, 7)
    ]


def test_enumeration_is_sorted_and_unique():
    for n in range(1, 6):
        for planar in (False, True):
            serials = [t.serial for t in enumerate_trees(n, planar=planar)]
            assert serials == sorted(serials)
            assert len(set(serials)) == len(serials)


def test_capacity_cap(monkeypatch):
    monkeypatch.setenv("BF_MAX_ORDER", "4")
    with pytest.raises(CapacityError):
        enumerate_trees(5)
    assert len(enumerate_trees(4)) == 4
    monkeypatch.setenv("BF_MAX_ORDER", "not-a-number")
    with pytest.raises(CapacityError):
        enumerate_trees(2)


def test_default_cap_is_eight(monkeypatch):
    monkeypatch.delenv("BF_MAX_ORDER", raising=False)
    with pytest.raises(CapacityError):
        enumerate_trees(9)


# ---------------------------------------------------------------------------
# sigma and the tree factorial against brute force
# ---------------------------------------------------------------------------


def all_trees_up_to(n):
    out = []
    for k in range(1, n + 1):
        out.extend(enumerate_trees(k))
    return out


@pytest.mark.parametrize("tree", all_trees_up_to(6), ids=lambda t: t.serial)
def test_sigma_matches_automorphism_count(tree):
    assert tree_stats(tree)[1] == oracle_automorphisms(tree)


@pytest.mark.parametrize("tree", all_trees_up_to(6), ids=lambda t: t.serial)
def test_factorial_matches_subtree_product(tree):
    assert tree_stats(tree)[2] == oracle_factorial(tree)


@pytest.mark.parametrize("tree", all_trees_up_to(5), ids=lambda t: t.serial)
def test_labelling_identity(tree):
    # Linear extensions of the vertex poset: n! = (count) * factorial.
    n, _, factorial = tree_stats(tree)
    assert oracle_increasing_labellings(tree) * factorial == math.factorial(n)


def test_sigma_with_colors():
    plain = RootedTree((DOT, DOT))
    mixed = RootedTree((DOT, RootedTree((), color=1)))
    assert tree_stats(plain)[1] == 2
    assert tree_stats(mixed)[1] == 1
    assert tree_stats(mixed)[1] == oracle_automorphisms(mixed)


def test_forest_sigma():
    assert forest_sigma(EMPTY_FOREST) == 1
    assert forest_sigma(Forest((DOT, DOT))) == 2
    assert forest_sigma(Forest((DOT, DOT, CHERRY))) == 4
    assert forest_sigma(Forest((CHERRY, CHERRY))) == 8


# ---------------------------------------------------------------------------
# B+ / B- and the Butcher product
# ---------------------------------------------------------------------------


def test_bplus_bminus_roundtrip():
    for n in range(0, 5):
        for forest in enumerate_forests(n):
            assert bminus(bplus(forest)) == forest
        for word in enumerate_forests(n, planar=True):
            assert bminus(bplus(word)) == word


def test_bminus_rejects_forests():
    with pytest.raises(DomainError):
        bminus(Forest((DOT, DOT)))


# The two tree classes, and the two forest classes, share one base each;
# these check that the base keeps the planar and non-planar families apart.


@pytest.mark.parametrize("serial", ["[]", "[[[]][]]", "[1:[2:]]"])
def test_twin_trees_with_one_serial_stay_apart(serial):
    rooted, planar = parse_tree(serial), parse_tree(serial, planar=True)
    assert rooted.serial == planar.serial
    assert rooted != planar and planar != rooted
    table = {rooted: "rooted", planar: "planar"}
    assert len(table) == 2
    assert table[rooted] == "rooted" and table[planar] == "planar"


@pytest.mark.parametrize("serial", ["1", "[]", "[[]] []"])
def test_twin_forests_with_one_serial_stay_apart(serial):
    forest, word = parse_forest(serial), parse_forest(serial, planar=True)
    assert forest.serial == word.serial
    assert forest != word and word != forest
    table = {forest: "forest", word: "word"}
    assert len(table) == 2
    assert table[forest] == "forest" and table[word] == "word"


def test_twin_families_do_not_mix():
    pdot = PlanarTree()
    with pytest.raises(TypeError):
        RootedTree((DOT, pdot))
    with pytest.raises(TypeError):
        PlanarTree((pdot, DOT))
    with pytest.raises(TypeError):
        Forest((DOT, pdot))
    with pytest.raises(TypeError):
        PlanarForest((pdot, DOT))
    with pytest.raises(TypeError):
        Forest((DOT,)) * PlanarForest((pdot,))


def test_equality_and_hashing_are_identity():
    # One object per class and serial, so equality and hashing are the
    # ones of object, computed in C; no class of the family overrides them.
    classes = (_Basis, _Tree, _Forest, RootedTree, PlanarTree, Forest, PlanarForest)
    assert _Basis.__eq__ is object.__eq__ and _Basis.__hash__ is object.__hash__
    for cls in classes:
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            twin = parse_tree(tree.serial, planar=True)
            assert twin.serial == tree.serial and twin != tree and tree != twin
            assert hash(tree) == object.__hash__(tree)
            assert parse_tree(tree.serial) is tree and bplus(bminus(tree)) is tree


def test_planar_interning_keeps_order_and_colour():
    kids = (parse_tree("[[]]", planar=True), psingle(), psingle(2))
    tree = PlanarTree(kids, 1)
    assert tree is PlanarTree(list(kids), 1) is PlanarTree(iter(kids), 1)
    assert PlanarTree._interned[kids, 1] is tree
    assert tree.children == kids and tree.children[0] is PlanarTree(kids[0].children)
    others = (kids[::-1], 1), (kids, 0), (kids, 2)
    for other in itertools.starmap(PlanarTree, others):
        assert other is not tree and other != tree
    word = PlanarForest((tree, psingle()))
    assert word is PlanarForest([PlanarTree(kids, 1), psingle()])
    assert word.word[0] is tree
    assert PlanarForest((psingle(), tree)) is not word
    assert PlanarForest(()) is EMPTY_WORD and PlanarForest._interned[()] is EMPTY_WORD
    # a product of words is the word of the joined letters
    assert PlanarForest((tree,)) * PlanarForest((psingle(),)) is word
    # the non-planar twin keeps its own table and sorts
    twin = RootedTree(project_nonplanar(k) for k in kids[::-1])
    assert twin is RootedTree(project_nonplanar(k) for k in kids)
    assert twin is project_nonplanar(PlanarTree(kids))
    assert Forest(twin.children) is Forest(twin.children[::-1])
    with pytest.raises(TypeError):
        PlanarTree((psingle(), single()))
    with pytest.raises(TypeError):
        PlanarForest((psingle(), single()))


def test_planar_interned_words_survive_pickle_and_deepcopy():
    tree = PlanarTree((parse_tree("[[][2:]]", planar=True), psingle(1)), 2)
    word = PlanarForest((tree, psingle(), tree))
    sizes = len(PlanarTree._interned), len(PlanarForest._interned)
    for x in (tree, word):
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin is x
    assert (len(PlanarTree._interned), len(PlanarForest._interned)) == sizes


def test_pickles_load_in_a_process_with_another_hash_seed():
    # A pickle holds the children and colour, or the members, and loads
    # through the constructor, so it returns this process's own object
    # whatever the hash seed of the process that wrote it.
    serials = ("[[][1:[]]]", "[] [[]]", "[[]] []")
    dump = (
        "import pickle, sys\n"
        "from bflow import parse_forest, parse_tree\n"
        "x = (parse_tree(sys.argv[1]), parse_forest(sys.argv[2]),\n"
        "     parse_forest(sys.argv[3], planar=True))\n"
        "sys.stdout.write(pickle.dumps(x).hex())"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(bflow.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    out = subprocess.run(
        [sys.executable, "-c", dump, *serials], capture_output=True, text=True, env=env, check=True
    ).stdout
    tree, forest, word = pickle.loads(bytes.fromhex(out))
    here = parse_tree(serials[0]), parse_forest(serials[1]), parse_forest(serials[2], planar=True)
    for loaded, own in zip((tree, forest, word), here):
        assert loaded is own and loaded in {own: 1}, own.serial


def test_bplus_and_bminus_stay_in_one_family():
    for n in range(0, 4):
        for forest in enumerate_forests(n):
            assert type(bplus(forest)) is RootedTree
            assert type(bminus(bplus(forest))) is Forest
        for word in enumerate_forests(n, planar=True):
            assert type(bplus(word)) is PlanarTree
            assert type(bminus(bplus(word))) is PlanarForest


def test_butcher_product():
    assert butcher_product(DOT, DOT) == LADDER2
    assert butcher_product(LADDER2, DOT) == RootedTree((LADDER2.children[0], DOT))
    assert butcher_product(DOT, Forest((DOT, DOT))) == RootedTree((DOT, DOT))
    assert butcher_product(DOT, Forest((LADDER2,))) == RootedTree((LADDER2,))


# ---------------------------------------------------------------------------
# Pre-Lie grafting
# ---------------------------------------------------------------------------


def test_prelie_small_cases():
    assert prelie_graft(DOT, DOT) == FormalSum.term(LADDER2)
    assert prelie_graft(DOT, LADDER2) == FormalSum.term(LADDER3) + FormalSum.term(CHERRY)
    got = prelie_graft(LADDER2, LADDER2)
    ladder4 = RootedTree((LADDER3,))
    mixed = RootedTree((LADDER2, DOT))
    assert got == FormalSum.term(ladder4) + FormalSum.term(mixed)


def test_prelie_term_count_is_vertex_count():
    for t1 in all_trees_up_to(3):
        for t2 in all_trees_up_to(3):
            total = sum(c for _, c in prelie_graft(t1, t2))
            assert total == t2.order


def test_prelie_rejects_forests():
    with pytest.raises(DomainError):
        prelie_graft(Forest((DOT,)), DOT)


@pytest.mark.parametrize(
    "t1, t2, t3",
    [
        (a, b, c)
        for a in all_trees_up_to(2)
        for b in all_trees_up_to(2)
        for c in all_trees_up_to(2)
    ],
    ids=lambda t: t.serial,
)
def test_prelie_axiom(t1, t2, t3):
    # The associator (a * b) * c - a * (b * c) is symmetric in a, b.
    def graft_sum(x, t):
        out = FormalSum.zero()
        for basis, coeff in x:
            out = out + coeff * prelie_graft(basis, t)
        return out

    def graft_sum_right(t, x):
        out = FormalSum.zero()
        for basis, coeff in x:
            out = out + coeff * prelie_graft(t, basis)
        return out

    left = graft_sum(prelie_graft(t1, t2), t3) - graft_sum_right(t1, prelie_graft(t2, t3))
    right = graft_sum(prelie_graft(t2, t1), t3) - graft_sum_right(t2, prelie_graft(t1, t3))
    assert left == right


# ---------------------------------------------------------------------------
# Left grafting on planar forests
# ---------------------------------------------------------------------------


PDOT = psingle()
PL2 = PlanarTree((PDOT,))
PL3 = PlanarTree((PL2,))
PCHERRY = PlanarTree((PDOT, PDOT))


def word(*trees) -> PlanarForest:
    return PlanarForest(trees)


def test_left_graft_base_cases():
    assert left_graft(EMPTY_WORD, word(PDOT)) == FormalSum.term(word(PDOT))
    assert left_graft(word(PDOT), EMPTY_WORD) == FormalSum.zero()
    assert left_graft(word(PDOT), word(PDOT)) == FormalSum.term(word(PL2))


def test_left_graft_attaches_leftmost():
    got = left_graft(word(PDOT), word(PL2))
    assert got == FormalSum.term(word(PL3)) + FormalSum.term(word(PCHERRY))
    got2 = left_graft(word(PL2), word(PL2))
    assert got2 == FormalSum.term(word(PlanarTree((PL3,)))) + FormalSum.term(
        word(PlanarTree((PL2, PDOT)))
    )


def test_left_graft_derivation_on_words():
    # A single tree acts as a derivation of concatenation.
    got = left_graft(word(PDOT), word(PDOT, PDOT))
    assert got == FormalSum.term(word(PL2, PDOT)) + FormalSum.term(word(PDOT, PL2))


def all_words_up_to(n):
    out = []
    for k in range(0, n + 1):
        out.extend(enumerate_forests(k, planar=True))
    return out


def test_left_graft_counts_vertices():
    # Grafting one vertex onto a word gives one term per vertex of the word.
    for w in all_words_up_to(4):
        got = left_graft(word(PDOT), w)
        assert sum(c for _, c in got) == w.order


SMALL_WORDS = all_words_up_to(2)
SMALL_TREES = [word(t) for n in (1, 2, 3) for t in enumerate_trees(n, planar=True)]


@pytest.mark.parametrize("f", SMALL_TREES, ids=lambda w: w.serial)
@pytest.mark.parametrize("g", SMALL_WORDS, ids=lambda w: w.serial)
@pytest.mark.parametrize("h", SMALL_WORDS, ids=lambda w: w.serial)
def test_left_graft_composition_axiom(f, g, h):
    # f -> (g -> h) = (fg) -> h + (f -> g) -> h, for f in the span of
    # single trees (the derivation elements; the axiom fails for words).
    left = left_graft(f, left_graft(g, h))
    right = left_graft(concat(f, g), h) + left_graft(left_graft(f, g), h)
    assert left == right


def test_post_lie_bracket_identity():
    # (xy - yx) -> z equals the difference of associators in x and y.
    trees = [PDOT, PL2, PCHERRY]
    for x in trees:
        for y in trees:
            for z in trees:
                wx, wy, wz = word(x), word(y), word(z)
                lhs = left_graft(concat(wx, wy) - concat(wy, wx), wz)
                assoc_xy = left_graft(wx, left_graft(wy, wz)) - left_graft(
                    left_graft(wx, wy), wz
                )
                assoc_yx = left_graft(wy, left_graft(wx, wz)) - left_graft(
                    left_graft(wy, wx), wz
                )
                assert lhs == assoc_xy - assoc_yx


def test_projection_intertwines_grafting():
    # Forgetting planarity turns left grafting of trees into pre-Lie grafting.
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            for t1 in enumerate_trees(n1, planar=True):
                for t2 in enumerate_trees(n2, planar=True):
                    planar = left_graft(word(t1), word(t2))
                    collapsed = project_nonplanar(planar).map_basis(
                        lambda f: f.trees[0]
                    )
                    direct = prelie_graft(
                        project_nonplanar(t1), project_nonplanar(t2)
                    )
                    assert collapsed == direct


# ---------------------------------------------------------------------------
# Shuffle and Grossman-Larson products
# ---------------------------------------------------------------------------


def test_shuffle_of_letters():
    got = shuffle(word(PDOT), word(PDOT))
    assert got == 2 * FormalSum.term(word(PDOT, PDOT))
    got = shuffle(word(PDOT), word(PL2))
    assert got == FormalSum.term(word(PDOT, PL2)) + FormalSum.term(word(PL2, PDOT))


def test_shuffle_unit_and_commutativity():
    for w in all_words_up_to(3):
        assert shuffle(EMPTY_WORD, w) == FormalSum.term(w)
        for v in all_words_up_to(3):
            assert shuffle(w, v) == shuffle(v, w)


def test_shuffle_associativity():
    small = all_words_up_to(2)
    for a in small:
        for b in small:
            for c in small:
                left = shuffle(shuffle(a, b), c)
                right = shuffle(a, shuffle(b, c))
                assert left == right


def test_shuffle_term_count():
    # Shuffling words of lengths p and q yields binomial(p + q, p) terms.
    a = word(PDOT, PL2)
    b = word(PCHERRY, PDOT, PDOT)
    total = sum(c for _, c in shuffle(a, b))
    assert total == math.comb(5, 2)


def test_gl_product_of_letters():
    got = gl_product(word(PDOT), word(PDOT))
    expected = FormalSum.term(word(PDOT, PDOT)) + FormalSum.term(word(PL2))
    assert got == expected


def test_gl_unit():
    for w in all_words_up_to(3):
        assert gl_product(EMPTY_WORD, w) == FormalSum.term(w)
        assert gl_product(w, EMPTY_WORD) == FormalSum.term(w)


@pytest.mark.parametrize("product", [shuffle, concat, left_graft, gl_product])
def test_planar_products_reject_nonplanar_input(product):
    for bad in (DOT, Forest((DOT,))):
        with pytest.raises(DomainError):
            product(bad, word(PDOT))
        with pytest.raises(DomainError):
            product(word(PDOT), bad)


def test_gl_associativity():
    small = all_words_up_to(2)
    for a in small:
        for b in small:
            for c in small:
                left = gl_product(gl_product(a, b), c)
                right = gl_product(a, gl_product(b, c))
                assert left == right


# ---------------------------------------------------------------------------
# Random structure checks
# ---------------------------------------------------------------------------


def planar_trees_strategy(max_order=4):
    pool = []
    for n in range(1, max_order + 1):
        pool.extend(enumerate_trees(n, planar=True))
    return st.sampled_from(pool)


def planar_words_strategy(max_order=4):
    pool = all_words_up_to(max_order)
    return st.sampled_from(pool)


@given(planar_words_strategy())
def test_parse_serialize_roundtrip_random(w):
    assert parse_forest(w.serial, planar=True) == w


@given(planar_trees_strategy(3), planar_words_strategy(3), planar_words_strategy(3))
@settings(max_examples=60)
def test_left_graft_composition_random(t, g, h):
    f = word(t)
    left = left_graft(f, left_graft(g, h))
    right = left_graft(concat(f, g), h) + left_graft(left_graft(f, g), h)
    assert left == right


@given(planar_trees_strategy(4), planar_words_strategy(3), planar_words_strategy(3))
@settings(max_examples=60)
def test_left_graft_derivation_random(t, w1, w2):
    tw = word(t)
    left = left_graft(tw, w1 * w2)
    right = left_graft(tw, w1).map_basis(lambda w: w * w2) + left_graft(
        tw, w2
    ).map_basis(lambda w: w1 * w)
    assert left == right


@given(planar_words_strategy(3), planar_words_strategy(3))
@settings(max_examples=60)
def test_gl_grading_random(a, b):
    for term, _ in gl_product(a, b):
        assert term.order == a.order + b.order


def test_left_graft_grading():
    for a in all_words_up_to(3):
        for b in all_words_up_to(3):
            for term, _ in left_graft(a, b):
                assert term.order == a.order + b.order
