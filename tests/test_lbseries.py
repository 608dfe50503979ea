"""Tests for the planar-forest Hopf algebra and flow representations.

Frozen coproduct and antipode tables are checked against the library,
which builds them by recursion, and against the routes kept here as
independent references: left admissible cuts for the planar coproduct,
the graded recursion over formal sums for its antipode, and the
operator-word replay with a rational inverse for the Faa di Bruno
coproduct. The flow-representation maps are checked against each other
through the stated roundtrips, against the non-planar exact character
under the forgetful projection, and against hand-derived small values.
The substitution law is checked against an independent oracle built from
grafting.
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
from hypothesis import given, settings, strategies as st

from bflow import lbseries
from bflow.algebra import FormalSum, Tensor, render_sum
from bflow.bseries_hopf import exact_gamma
from bflow.errors import CapacityError, DomainError
from bflow.forest_core import (
    EMPTY_WORD,
    PlanarForest,
    PlanarTree,
    _shuffle,
    bplus,
    concat,
    enumerate_forests,
    forest_sigma,
    left_graft,
    parse_forest,
    parse_tree,
    project_nonplanar,
    shuffle,
)
from bflow.lbseries import (
    BellWord,
    DOT_WORD,
    LBCoeff,
    antipode_mkw,
    bell,
    bell_partial,
    convolve_mkw,
    deconcat,
    delta_mkw,
    dot_lb,
    dynkin_apply,
    dynkin_map,
    eta_mkw,
    eulerian_apply,
    eulerian_idempotent,
    exact_flow_lb,
    fdb_coproduct,
    gl_exp,
    kappa,
    lb_substitute,
    lb_substitution_character,
    method_series,
    q_apply,
)


def pword(text: str) -> PlanarForest:
    return parse_forest(text, planar=True)


def words_up_to(n: int) -> list[PlanarForest]:
    out: list[PlanarForest] = []
    for k in range(0, n + 1):
        out.extend(enumerate_forests(k, planar=True))
    return out


def show(tensors: FormalSum) -> str:
    return render_sum(
        tensors, sort_key=lambda t: (-t.left.order, t.left.serial, t.right.serial)
    )


def show_words(x: FormalSum) -> str:
    return render_sum(x, sort_key=lambda w: (w.order, w.serial))


# ---------------------------------------------------------------------------
# Deconcatenation
# ---------------------------------------------------------------------------


def test_deconcat_counts_splits():
    w = pword("[] [[]] []")
    assert sum(1 for _ in deconcat(w)) == 4


def test_deconcat_example():
    assert show(deconcat(pword("[] [[]]"))) == (
        "[] [[]] (x) 1 + [] (x) [[]] + 1 (x) [] [[]]"
    )


def test_deconcat_of_empty_word():
    assert show(deconcat(EMPTY_WORD)) == "1 (x) 1"


# ---------------------------------------------------------------------------
# Pruning coproduct on planar words: frozen table
# ---------------------------------------------------------------------------


MKW_TABLE = [
    ("1", "1 (x) 1"),
    ("[]", "[] (x) 1 + 1 (x) []"),
    ("[] []", "[] [] (x) 1 + [] (x) [] + 1 (x) [] []"),
    ("[[]]", "[[]] (x) 1 + [] (x) [] + 1 (x) [[]]"),
    (
        "[] [[]]",
        "[] [[]] (x) 1 + 2 * [] [] (x) [] + [] (x) [[]] + [] (x) [] [] "
        "+ 1 (x) [] [[]]",
    ),
    (
        "[[]] []",
        "[[]] [] (x) 1 + [[]] (x) [] + [] (x) [] [] + 1 (x) [[]] []",
    ),
    (
        "[[][]]",
        "[[][]] (x) 1 + [] [] (x) [] + [] (x) [[]] + 1 (x) [[][]]",
    ),
    (
        "[[[]]]",
        "[[[]]] (x) 1 + [[]] (x) [] + [] (x) [[]] + 1 (x) [[[]]]",
    ),
]


def tree_cut_structures(tree: PlanarTree) -> list:
    """Left admissible cut structures of a planar tree.

    Each structure is (pruned blocks, remaining tree). A block is the
    word of subtrees removed by one elementary cut (a prefix of some
    vertex's children); blocks from distinct cuts are kept separate so
    the caller can shuffle them. The no-cut structure ((), tree) is
    included; cutting above the root is not.
    """
    kids = tree.children
    out = []
    for i in range(0, len(kids) + 1):
        head = (PlanarForest(kids[:i]),) if i else ()
        per_child = [tree_cut_structures(k) for k in kids[i:]]
        for combo in itertools.product(*per_child):
            blocks = head + tuple(b for bl, _ in combo for b in bl)
            out.append((blocks, PlanarTree([rem for _, rem in combo], tree.color)))
    return out


def multi_shuffle(blocks) -> FormalSum:
    out = FormalSum.term(EMPTY_WORD)
    for block in blocks:
        out = out.map_basis(lambda w: shuffle(w, block))
    return out


def delta_mkw_by_cuts(omega: PlanarForest) -> FormalSum:
    """The planar coproduct from its definition: a prefix of whole trees
    as one block, then a left admissible cut structure of every other
    tree, the blocks shuffled into the left slot."""
    trees = omega.word
    if not trees:
        return FormalSum.term(Tensor(EMPTY_WORD, EMPTY_WORD))
    terms = [(Tensor(omega, EMPTY_WORD), 1)]
    for i in range(0, len(trees)):
        head = (PlanarForest(trees[:i]),) if i else ()
        for combo in itertools.product(*(tree_cut_structures(t) for t in trees[i:])):
            blocks = head + tuple(b for bl, _ in combo for b in bl)
            right = PlanarForest([rem for _, rem in combo])
            terms.extend((Tensor(w, right), c) for w, c in multi_shuffle(blocks))
    return FormalSum(terms)


def random_planar_tree(rng: random.Random, n: int) -> PlanarTree:
    """A seeded planar tree of order n with vertex colours 0-2."""
    kids = []
    rest = n - 1
    while rest:
        k = rng.randint(1, rest)
        kids.append(random_planar_tree(rng, k))
        rest -= k
    return PlanarTree(kids, rng.randint(0, 2))


def random_coloured_words(seed: int, count: int) -> list[PlanarForest]:
    rng = random.Random(seed)
    return [
        PlanarForest(
            [random_planar_tree(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("serial, expected", MKW_TABLE, ids=lambda x: x[:20])
def test_delta_mkw_table(serial, expected):
    assert show(delta_mkw(pword(serial))) == expected


@pytest.mark.parametrize("serial, expected", MKW_TABLE, ids=lambda x: x[:20])
def test_delta_mkw_recursive_table(serial, expected):
    # The frozen table read through the cut enumeration, the second route.
    assert show(delta_mkw_by_cuts(pword(serial))) == expected


def test_delta_mkw_routes_agree_to_order_five():
    for w in words_up_to(5):
        assert delta_mkw(w) == delta_mkw_by_cuts(w)


def test_delta_mkw_matches_the_cut_enumeration():
    # Every word of order <= 7, and coloured words up to order 12: the
    # lifted coproduct must keep the colour of each root it re-attaches.
    for w in words_up_to(7) + random_coloured_words(20261018, 60):
        assert delta_mkw(w) == delta_mkw_by_cuts(w), w


def test_delta_mkw_vertex_grading():
    for w in words_up_to(5):
        for t, _ in delta_mkw(w):
            assert t.left.order + t.right.order == w.order


def test_delta_mkw_counit():
    for w in words_up_to(5):
        left = FormalSum.zero()
        right = FormalSum.zero()
        for t, c in delta_mkw(w):
            if not t.left.word:
                right = right + FormalSum.term(t.right, c)
            if not t.right.word:
                left = left + FormalSum.term(t.left, c)
        assert left == FormalSum.term(w)
        assert right == FormalSum.term(w)


def test_delta_mkw_multiplicative_over_shuffle():
    for u in words_up_to(2):
        for v in words_up_to(2):
            combined = FormalSum.zero()
            for w, c in shuffle(u, v):
                combined = combined + c * delta_mkw(w)
            product = FormalSum.zero()
            for t1, c1 in delta_mkw(u):
                for t2, c2 in delta_mkw(v):
                    for a, ca in shuffle(t1.left, t2.left):
                        for b, cb in shuffle(t1.right, t2.right):
                            product = product + FormalSum.term(
                                Tensor(a, b), c1 * c2 * ca * cb
                            )
            assert combined == product


def triple(delta, w, first_slot: bool) -> dict:
    out: dict = {}
    for t, c in delta(w):
        for s, d in delta(t.left if first_slot else t.right):
            key = (
                (s.left, s.right, t.right) if first_slot else (t.left, s.left, s.right)
            )
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def test_delta_mkw_coassociative():
    for w in words_up_to(5):
        assert triple(delta_mkw, w, True) == triple(delta_mkw, w, False)


def word_pool(max_order: int) -> list[PlanarForest]:
    return [w for w in words_up_to(max_order) if w.word]


@given(st.sampled_from(word_pool(5)))
@settings(max_examples=40)
def test_delta_mkw_routes_agree_random(w):
    assert delta_mkw(w) == delta_mkw_by_cuts(w)


# ---------------------------------------------------------------------------
# Antipode
# ---------------------------------------------------------------------------


ANTIPODE_TABLE = [
    ("1", "1"),
    ("[]", "-1 * []"),
    ("[] []", "[] []"),
    ("[[]]", "-1 * [[]] + 2 * [] []"),
    ("[] [[]]", "[[]] [] + -3 * [] [] []"),
    ("[[]] []", "[] [[]] + -3 * [] [] []"),
    ("[[][]]", "-1 * [[][]] + [[]] [] + [] [[]] + -3 * [] [] []"),
    ("[[[]]]", "-1 * [[[]]] + 2 * [[]] [] + 2 * [] [[]] + -6 * [] [] []"),
]


@pytest.mark.parametrize("serial, expected", ANTIPODE_TABLE, ids=lambda x: x[:20])
def test_antipode_mkw_table(serial, expected):
    out = antipode_mkw(pword(serial))
    assert render_sum(out, sort_key=lambda w: (-w.order, w.serial)) == expected


def antipode_by_recursion(omega: PlanarForest, memo: dict) -> FormalSum:
    """S(omega) = -omega - sum c S(l) sh r over the terms of the cut
    coproduct with both sides nonempty, in formal sums."""
    if not omega.word:
        return FormalSum.term(EMPTY_WORD)
    if omega not in memo:
        terms = [(omega, -1)]
        for t, c in delta_mkw_by_cuts(omega):
            if t.left.word and t.right.word:
                left = antipode_by_recursion(t.left, memo)
                terms.extend((shuffle(w, t.right), -c * a) for w, a in left)
        memo[omega] = FormalSum(terms)
    return memo[omega]


def test_antipode_mkw_matches_the_formal_sum_recursion():
    memo: dict = {}
    for w in words_up_to(6):
        assert antipode_mkw(w) == antipode_by_recursion(w, memo), w


def random_lb_character(rng: random.Random, N: int) -> LBCoeff:
    """A seeded shuffle character: the convolution product of two frozen
    exponentials with random rational tree values (products keep the
    character property and break left-right symmetry)."""

    def exp_of_random() -> LBCoeff:
        values: dict[PlanarForest, Fraction] = {}
        for n in range(1, N + 1):
            for w in enumerate_forests(n, planar=True):
                if len(w.word) == 1:
                    values[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))

        def fn(w: PlanarForest) -> Fraction:
            out = Fraction(1)
            for tree in w.word:
                out *= values.get(PlanarForest((tree,)), Fraction(0))
                if not out:
                    return out
            fact = 1
            for k in range(2, len(w.word) + 1):
                fact *= k
            return out / fact

        return LBCoeff("character", N, fn)

    return convolve_mkw(exp_of_random(), exp_of_random(), N)


def test_antipode_mkw_gives_convolution_inverse():
    rng = random.Random(20250818)
    for _ in range(4):
        alpha = random_lb_character(rng, 4)
        inv = LBCoeff("character", 4, lambda w, a=alpha: a(antipode_mkw(w)))
        conv = convolve_mkw(alpha, inv, 4)
        assert conv(EMPTY_WORD) == 1
        for w in word_pool(4):
            assert conv(w) == 0


# ---------------------------------------------------------------------------
# Convolution and coefficient maps
# ---------------------------------------------------------------------------


def test_convolution_unit_law():
    rng = random.Random(11)
    alpha = random_lb_character(rng, 3)
    for conv in (convolve_mkw(alpha, eta_mkw(3), 3), convolve_mkw(eta_mkw(3), alpha, 3)):
        for w in words_up_to(3):
            assert conv(w) == alpha(w)


def test_convolution_small_orders():
    rng = random.Random(12)
    a = random_lb_character(rng, 2)
    b = random_lb_character(rng, 2)
    conv = convolve_mkw(a, b, 2)
    assert conv(DOT_WORD) == a(DOT_WORD) + b(DOT_WORD)
    ladder = pword("[[]]")
    assert conv(ladder) == a(ladder) + a(DOT_WORD) * b(DOT_WORD) + b(ladder)


def test_convolution_keeps_characters():
    rng = random.Random(13)
    conv = convolve_mkw(random_lb_character(rng, 3), random_lb_character(rng, 3), 3)
    assert conv.kind == "character"
    for u in words_up_to(2):
        for v in words_up_to(1):
            left = conv(shuffle(u, v))
            assert left == conv(u) * conv(v)


def test_convolution_truncation_mismatch():
    with pytest.raises(DomainError):
        convolve_mkw(eta_mkw(2), eta_mkw(4), 3)


def test_coeff_map_capacity():
    alpha = dot_lb(2)
    with pytest.raises(CapacityError):
        alpha(pword("[[[]]]"))


def test_coeff_map_rejects_unknown_kind():
    with pytest.raises(DomainError):
        LBCoeff("weird", 2, lambda w: Fraction(0))


def test_coeff_map_is_linear_on_sums():
    alpha = exact_flow_lb(3)
    combo = FormalSum.term(pword("[[]]"), Fraction(2)) + FormalSum.term(
        pword("[[][]]"), Fraction(-6)
    )
    assert alpha(combo) == 2 * alpha(pword("[[]]")) - 6 * alpha(pword("[[][]]"))


def test_character_table_includes_unit():
    table = eta_mkw(1).table()
    assert table[EMPTY_WORD] == 1
    assert table[DOT_WORD] == 0


# ---------------------------------------------------------------------------
# Bell polynomials
# ---------------------------------------------------------------------------


BELL_TABLE = [
    (0, "1"),
    (1, "d1"),
    (2, "d1.d1 + d2"),
    (3, "d1.d1.d1 + 2 * d1.d2 + d2.d1 + d3"),
    (
        4,
        "d1.d1.d1.d1 + 3 * d1.d1.d2 + 2 * d1.d2.d1 + d2.d1.d1 + 3 * d1.d3 "
        "+ 3 * d2.d2 + d3.d1 + d4",
    ),
]


@pytest.mark.parametrize("n, expected", BELL_TABLE, ids=lambda x: str(x)[:12])
def test_bell_table(n, expected):
    assert render_sum(bell(n), sort_key=lambda w: (-len(w), w.serial)) == expected


def test_bell_partial_four_three():
    out = bell_partial(4, 3)
    assert render_sum(out, sort_key=lambda w: (-len(w), w.serial)) == (
        "3 * d1.d1.d2 + 2 * d1.d2.d1 + d2.d1.d1"
    )


def test_bell_partials_sum_to_bell():
    for n in range(1, 7):
        total = FormalSum.zero()
        for k in range(1, n + 1):
            total = total + bell_partial(n, k)
        assert total == bell(n)


def test_bell_index_errors():
    with pytest.raises(DomainError):
        bell(-1)
    with pytest.raises(DomainError):
        bell_partial(3, 0)
    with pytest.raises(DomainError):
        bell_partial(3, 4)


def test_bell_word_basics():
    w = BellWord((1, 2)) * BellWord((1,))
    assert w.word == (1, 2, 1)
    assert w.grade == 4
    assert w.serial == "d1.d2.d1"
    assert BellWord().serial == "1"
    with pytest.raises(DomainError):
        BellWord((0,))


def test_bell_words_are_interned():
    # one object per letter tuple, however the letters are given, so
    # equality and hashing are identity
    w = BellWord([1, 2])
    assert w is BellWord((1, 2)) is BellWord(iter((1, 2))) is BellWord((1,)) * BellWord((2,))
    assert BellWord() is BellWord(())
    assert pickle.loads(pickle.dumps(w)) is w and copy.deepcopy(w) is w and copy.copy(w) is w
    assert w != BellWord((2, 1)) and len({w, BellWord((1, 2))}) == 1
    assert not hasattr(w, "__dict__") and "__eq__" not in vars(BellWord)
    size = len(BellWord._interned)
    for letters in ((0,), (1, 0), (2, -1)):
        with pytest.raises(DomainError):
            BellWord(letters)
    assert len(BellWord._interned) == size


# ---------------------------------------------------------------------------
# Faa di Bruno coproduct
# ---------------------------------------------------------------------------


def show_fdb(tensors: FormalSum) -> str:
    return render_sum(tensors, sort_key=lambda t: (t.left.serial, t.right.serial))


def test_fdb_displayed_rows():
    assert show_fdb(fdb_coproduct(BellWord((1,)))) == "d1 (x) d1"
    assert show_fdb(fdb_coproduct(BellWord((2,)))) == "d1.d1 (x) d2 + d2 (x) d1"
    assert show_fdb(fdb_coproduct(BellWord((1, 2)))) == (
        "d1.d1.d1 (x) d1.d2 + d1.d2 (x) d1.d1"
    )


def test_fdb_letter_rows_read_off_bell_partials():
    for n in range(1, 7):
        expected = FormalSum.zero()
        for k in range(1, n + 1):
            for w, c in bell_partial(n, k):
                expected = expected + FormalSum.term(Tensor(w, BellWord((k,))), c)
        assert fdb_coproduct(BellWord((n,))) == expected


def bell_words(n: int) -> list[BellWord]:
    out: list[BellWord] = []

    def rec(prefix: list[int], rem: int) -> None:
        if rem == 0:
            out.append(BellWord(prefix))
            return
        for first in range(1, rem + 1):
            rec(prefix + [first], rem - first)

    rec([], n)
    return out


def bell_derive(x: FormalSum) -> FormalSum:
    return FormalSum(
        (BellWord(w.word[:pos] + (w.word[pos] + 1,) + w.word[pos + 1 :]), c)
        for w, c in x
        for pos in range(len(w.word))
    )


def prepend_tensor(x: FormalSum) -> FormalSum:
    return x.map_basis(
        lambda t: Tensor(BellWord((1,) + t.left.word), BellWord((1,) + t.right.word))
    )


def derive_tensor(x: FormalSum) -> FormalSum:
    terms = []
    for t, c in x:
        terms.extend((Tensor(u, t.right), c * a) for u, a in bell_derive(FormalSum.term(t.left)))
        lifted = BellWord((1,) + t.left.word)
        terms.extend((Tensor(lifted, v), c * a) for v, a in bell_derive(FormalSum.term(t.right)))
    return FormalSum(terms)


def invert_rational(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    size = len(matrix)
    aug = [
        row[:] + [Fraction(1 if i == j else 0) for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        aug[col] = [entry / head for entry in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def fdb_by_operator_words(n: int) -> dict[BellWord, FormalSum]:
    """The coproduct of every grade-n word at once: each word is expanded
    over the images P(prepend, derive) d_1 with P ranging over the 2^(n-1)
    operator words, and the same P is replayed on d_1 (x) d_1 with the
    moves prepend -> prepend (x) prepend and derive -> derive (x) id +
    prepend (x) derive; a rational inverse reads off each word."""
    words = bell_words(n)
    index = {w: i for i, w in enumerate(words)}
    columns = [[Fraction(0)] * len(words) for _ in words]
    tensors: list[FormalSum] = []
    for r, ops in enumerate(itertools.product((0, 1), repeat=n - 1)):
        image = FormalSum.term(BellWord((1,)))
        replay = FormalSum.term(Tensor(BellWord((1,)), BellWord((1,))))
        for op in reversed(ops):
            if op == 0:
                image = image.map_basis(lambda w: BellWord((1,) + w.word))
                replay = prepend_tensor(replay)
            else:
                image = bell_derive(image)
                replay = derive_tensor(replay)
        for w, c in image:
            columns[index[w]][r] = c
        tensors.append(replay)
    inverse = invert_rational(columns)
    return {
        w: FormalSum((tensors[r], inverse[r][j]) for r in range(len(words)))
        for w, j in index.items()
    }


def test_fdb_matches_the_operator_word_inverse():
    for n in range(1, 9):
        for w, expected in fdb_by_operator_words(n).items():
            assert fdb_coproduct(w) == expected, w


def test_fdb_lemma_to_grade_six():
    # Delta(B_{n,k}) recombines as sum over l of B_{n,l} (x) B_{l,k}.
    for n in range(1, 7):
        for k in range(1, n + 1):
            lhs = fdb_coproduct(bell_partial(n, k))
            rhs = FormalSum.zero()
            for l in range(k, n + 1):
                for u, a in bell_partial(n, l):
                    for v, b in bell_partial(l, k):
                        rhs = rhs + FormalSum.term(Tensor(u, v), a * b)
            assert lhs == rhs, (n, k)


def test_fdb_coassociative():
    for n in range(1, 6):
        for w in bell_words(n):
            assert triple(fdb_coproduct, w, True) == triple(fdb_coproduct, w, False)


def test_fdb_counit():
    def unital(w: BellWord) -> bool:
        return all(i == 1 for i in w.word)

    for n in range(1, 6):
        for w in bell_words(n):
            left = FormalSum.zero()
            right = FormalSum.zero()
            for t, c in fdb_coproduct(w):
                if unital(t.left):
                    right = right + FormalSum.term(t.right, c)
                if unital(t.right):
                    left = left + FormalSum.term(t.left, c)
            assert left == FormalSum.term(w)
            assert right == FormalSum.term(w)


def test_fdb_bigrading():
    for n in range(1, 6):
        for w in bell_words(n):
            for t, _ in fdb_coproduct(w):
                assert t.left.grade == w.grade
                assert len(t.right) == len(w)
                assert t.right.grade == len(t.left)


def test_fdb_first_deviation_from_termwise_product():
    # The coproduct is not the termwise product of the letter rows; the
    # first difference sits at d3.d1 and is a commutator correction.
    direct = fdb_coproduct(BellWord((3, 1)))
    termwise = FormalSum.zero()
    for t1, c1 in fdb_coproduct(BellWord((3,))):
        for t2, c2 in fdb_coproduct(BellWord((1,))):
            termwise = termwise + FormalSum.term(
                Tensor(t1.left * t2.left, t1.right * t2.right), c1 * c2
            )
    diff = direct - termwise
    assert show_fdb(diff) == "d1.d2.d1 (x) d1.d2 + -1 * d2.d1.d1 (x) d1.d2"
    for grade in range(1, 4):
        for w in bell_words(grade):
            if len(w) > 1:
                parts = [fdb_coproduct(BellWord((i,))) for i in w.word]
                prod = FormalSum.term(Tensor(BellWord(), BellWord()))
                for piece in parts:
                    acc = FormalSum.zero()
                    for t1, c1 in prod:
                        for t2, c2 in piece:
                            acc = acc + FormalSum.term(
                                Tensor(t1.left * t2.left, t1.right * t2.right),
                                c1 * c2,
                            )
                    prod = acc
                assert fdb_coproduct(w) == prod


def test_fdb_on_sums_is_linear():
    x = FormalSum.term(BellWord((2,)), Fraction(3)) - FormalSum.term(BellWord((1, 1)))
    assert fdb_coproduct(x) == 3 * fdb_coproduct(BellWord((2,))) - fdb_coproduct(
        BellWord((1, 1))
    )


def test_coproduct_kernels_stay_integer_and_exact():
    # The recursions add coefficients as ints read with .numerator, off
    # the shuffle multiplicities and the memoised sums; that is exact
    # only while every one of them is an integer.
    words = words_up_to(7)
    for u in words:
        for v in words:
            if u.order + v.order <= 7:
                assert all(c.denominator == 1 for _, c in _shuffle(u, v))
    outs = [delta_mkw(w) for w in words] + [antipode_mkw(w) for w in words_up_to(6)]
    outs += [fdb_coproduct(w) for n in range(0, 9) for w in bell_words(n)]
    memos = [lbseries._delta_mkw, lbseries._antipode_mkw, lbseries._fdb]
    assert all(memo.cache_info().currsize > 150 for memo in memos)
    for out in outs:
        assert all(c.denominator == 1 for _, c in out)
    letters = {t for w in words for t in w.word}
    assert all(type(c) is int for t in letters for _, _, c in lbseries._mkw_lifted(t))
    for _, astar, dynkin, (den, rows) in row_tables(words_up_to(6)):
        assert all(type(c) is int for _, weights in astar for c, _ in weights)
        assert all(type(c) is int for _, c in dynkin)
        assert type(den) is int and all(type(c) is int for c, _ in rows)


def test_the_planar_coproduct_fill_adds_no_fractions(no_fraction_sums):
    # The memos are filled from integer rows: each term's coefficient is
    # built as a Fraction once, and no Fraction is added. The shuffles are
    # read warm, as sums memoised before the fill.
    words, bells = words_up_to(6), [w for n in range(0, 8) for w in bell_words(n)]
    want = [[delta_mkw(w) for w in words], [antipode_mkw(w) for w in words_up_to(5)]]
    want.append([fdb_coproduct(w) for w in bells])
    for memo in (lbseries._delta_mkw, lbseries._antipode_mkw, lbseries._fdb, lbseries._mkw_lifted):
        memo.cache_clear()
    with no_fraction_sums():
        got = [[delta_mkw(w) for w in words], [antipode_mkw(w) for w in words_up_to(5)]]
        got.append([fdb_coproduct(w) for w in bells])
    assert got == want
    assert lbseries._delta_mkw.cache_info().currsize > 100
    assert lbseries._fdb.cache_info().currsize > 100


def row_tables(words) -> list[tuple]:
    """(w, substitution rows, Dynkin rows, Q rows) of each nonempty word."""
    return [
        (w, lbseries._astar_rows(w), lbseries._dynkin_rows(w), lbseries._q_rows(w))
        for w in words
        if w.word
    ]


def interned(x) -> bool:
    """Whether x is the planar tree or word its intern table holds for its
    children and colour, or letters, and so are its trees."""
    if isinstance(x, PlanarTree):
        key = x.children, x.color
        return PlanarTree._interned.get(key) is x and all(map(interned, x.children))
    return PlanarForest._interned.get(x.word) is x and all(map(interned, x.word))


def test_planar_rows_hold_the_interned_words():
    coloured = [w for w in random_coloured_words(41, 40) if w.order <= 7]
    for w in words_up_to(7) + coloured:
        for t, _ in delta_mkw(w):
            assert interned(t.left) and interned(t.right), (w.serial, t.serial)
    for tree in {t for w in words_up_to(7) + coloured for t in w.word}:
        assert interned(tree), tree.serial
        for left, right, _ in lbseries._mkw_lifted(tree):
            assert interned(left) and interned(right), (tree.serial, left.serial, right.serial)
    small = words_up_to(6) + [w for w in coloured if w.order <= 6]
    for w, astar, dynkin, (_, rows) in row_tables(small):
        assert interned(w), w.serial
        for u, weights in astar:
            assert interned(u) and all(interned(r) for _, rests in weights for r in rests), w.serial
        assert all(interned(u) for u, _ in dynkin), w.serial
        assert all(interned(b) for _, blocks in rows for b in blocks), w.serial


# ---------------------------------------------------------------------------
# Eulerian logarithm and the flow exponential
# ---------------------------------------------------------------------------


def test_eulerian_idempotent_kills_shuffles():
    for u in word_pool(2):
        for v in word_pool(2):
            total = FormalSum.zero()
            for w, c in shuffle(u, v):
                total = total + c * eulerian_idempotent(w)
            assert total == FormalSum.zero()


def test_eulerian_needs_characters():
    with pytest.raises(DomainError):
        eulerian_apply(dot_lb(3), 3)
    with pytest.raises(DomainError):
        eulerian_apply(gl_exp(dot_lb(2), 2), 3)


def test_gl_exp_needs_fields():
    with pytest.raises(DomainError):
        gl_exp(eta_mkw(3), 3)


FLOW_TABLE = {
    "[]": Fraction(1),
    "[] []": Fraction(1, 2),
    "[[]]": Fraction(1, 2),
    "[] [] []": Fraction(1, 6),
    "[] [[]]": Fraction(1, 3),
    "[[]] []": Fraction(1, 6),
    "[[][]]": Fraction(1, 6),
    "[[[]]]": Fraction(1, 6),
}


def test_gl_exp_of_the_vertex_is_the_flow_character():
    flow = gl_exp(dot_lb(3), 3)
    assert flow(EMPTY_WORD) == 1
    for serial, value in FLOW_TABLE.items():
        assert flow(pword(serial)) == value


def test_exponential_and_logarithm_are_inverse():
    rng = random.Random(20250817)
    for _ in range(6):
        alpha = random_lb_character(rng, 4)
        back = gl_exp(eulerian_apply(alpha, 4), 4)
        for w in words_up_to(4):
            assert back(w) == alpha(w)


def test_euler_method_backward_error_coefficient():
    # The frozen-exponential character of the single vertex is the
    # exponential Euler map; its logarithm picks up -1/2 on the ladder.
    euler = method_series("exponential_euler", "type1", 2)
    beta = eulerian_apply(euler, 2)
    assert beta(EMPTY_WORD) == 0
    assert beta(DOT_WORD) == 1
    assert beta(pword("[[]]")) == Fraction(-1, 2)


@pytest.mark.parametrize("source", ["flow", 1, 2, 3])
def test_eulerian_apply_matches_the_idempotent_expansion(source):
    # eulerian_apply sums the convolution logarithm, gl_exp the exponential,
    # through one power recursion; their roundtrip would survive a wrong
    # recursion, so the word-by-word idempotent is the independent route.
    if source == "flow":
        alpha = q_apply(exact_flow_lb(5), 5)
    else:
        alpha = random_lb_character(random.Random(source), 5)
    log = eulerian_apply(alpha, 5)
    for w in words_up_to(5):
        assert log(w) == alpha(eulerian_idempotent(w))


def test_character_tables_are_checked_at_construction():
    # alpha([]) alpha([]) = 1 but alpha([] sh []) = alpha(2 [] []) = 10:
    # unchecked, eulerian_apply gave 9/2 on [] [], where the idempotent
    # route gives 0.
    with pytest.raises(DomainError, match="shuffle"):
        LBCoeff.from_table({pword("[]"): 1, pword("[] []"): 5}, 2, kind="character")
    with pytest.raises(DomainError, match="empty word"):
        LBCoeff.from_table({EMPTY_WORD: 2}, 2, kind="character")
    # the same table passes as a plain map, and a true character passes
    LBCoeff.from_table({pword("[]"): 1, pword("[] []"): 5}, 2)
    flow = q_apply(exact_flow_lb(5), 5)
    alpha = LBCoeff.from_table(flow.table(), 5, kind="character")
    log = eulerian_apply(alpha, 5)
    for w in words_up_to(5):
        assert log(w) == alpha(eulerian_idempotent(w))
    # a failure at the top order is found; a one-tree word is no shuffle
    # of nonempty words, so it is free and stays unchecked
    table = dict(flow.table())
    table[pword("[[[[[]]]]]")] += 1
    LBCoeff.from_table(table, 5, kind="character")
    table[pword("[[]] [[[]]]")] += 1
    with pytest.raises(DomainError):
        LBCoeff.from_table(table, 5, kind="character")


def test_validate_checks_the_claimed_kind():
    # from_function takes its kind on trust; validate is the opt-in check.
    values = {pword("[]"): 1, pword("[] []"): 5}
    fn = lambda w: Fraction(1) if not w.word else Fraction(values.get(w, 0))
    claimed = LBCoeff.from_function(fn, 2, kind="character")
    assert eulerian_apply(claimed, 2)(pword("[] []")) == Fraction(9, 2)
    with pytest.raises(DomainError, match="shuffle"):
        claimed.validate()
    # The check runs at the map's own truncation: at order 1 the same
    # values are a character.
    LBCoeff.from_function(fn, 1, kind="character").validate()
    field = LBCoeff.from_function(lambda w: Fraction(values.get(w, 0)), 2, kind="infinitesimal")
    with pytest.raises(DomainError, match="shuffle"):
        field.validate()
    with pytest.raises(DomainError, match="empty word"):
        LBCoeff.from_function(lambda w: Fraction(1), 2, kind="infinitesimal").validate()
    LBCoeff.from_function(lambda w: Fraction(values.get(w, 0)), 2).validate()
    # The package's own maps are what they claim, at N = 6.
    flow = q_apply(exact_flow_lb(6), 6)
    log = eulerian_apply(flow, 6)
    for alpha in (
        flow,
        log,
        dynkin_apply(flow, 6),
        gl_exp(log, 6),
        method_series("lie_implicit_midpoint", "type3", 6),
    ):
        alpha.validate()


def test_idempotent_and_dynkin_map_read_trees_as_words():
    tree = pword("[[][]]").word[0]
    for fn in (eulerian_idempotent, dynkin_map):
        assert fn(tree) == fn(PlanarForest((tree,)))
        assert fn(tree)
        with pytest.raises(DomainError):
            fn(parse_tree("[[][]]"))


# ---------------------------------------------------------------------------
# Dynkin and block-weight maps
# ---------------------------------------------------------------------------


def test_dynkin_map_values():
    assert show_words(dynkin_map(DOT_WORD)) == "[]"
    assert dynkin_map(pword("[] []")) == FormalSum.zero()
    assert show_words(dynkin_map(pword("[[]]"))) == "2 * [[]]"


def test_dynkin_idempotency():
    # D/|.| is a projection: applying it twice changes nothing.
    def apply_once(x: FormalSum) -> FormalSum:
        out = FormalSum.zero()
        for w, c in x:
            out = out + (c * Fraction(1, w.order)) * dynkin_map(w)
        return out

    for w in word_pool(5):
        once = apply_once(FormalSum.term(w))
        assert apply_once(once) == once


def test_kappa_values():
    assert kappa((1, 2)) == Fraction(2, 3)
    assert kappa((2, 1)) == Fraction(1, 3)
    for k in range(1, 6):
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        assert kappa(tuple([1] * k)) == Fraction(1, fact)


def test_q_of_the_vertex_is_the_frozen_exponential():
    q = q_apply(dot_lb(4), 4)
    expected = {
        "1": Fraction(1),
        "[]": Fraction(1),
        "[] []": Fraction(1, 2),
        "[] [] []": Fraction(1, 6),
        "[] [] [] []": Fraction(1, 24),
        "[[]]": Fraction(0),
        "[] [[]]": Fraction(0),
    }
    for serial, value in expected.items():
        assert q(pword(serial)) == value


def test_dynkin_and_q_are_inverse():
    rng = random.Random(20250816)
    for _ in range(6):
        alpha = random_lb_character(rng, 4)
        back = q_apply(dynkin_apply(alpha, 4), 4)
        for w in words_up_to(4):
            assert back(w) == alpha(w)


def test_q_then_dynkin_on_tree_supported_fields():
    gamma = exact_flow_lb(4)
    back = dynkin_apply(q_apply(gamma, 4), 4)
    for w in words_up_to(4):
        assert back(w) == gamma(w)


# ---------------------------------------------------------------------------
# The exact flow
# ---------------------------------------------------------------------------


EXACT_FLOW_TABLE = {
    "[]": Fraction(1),
    "[[]]": Fraction(1, 2),
    "[[][]]": Fraction(1, 6),
    "[[[]]]": Fraction(1, 6),
    "[[][][]]": Fraction(1, 24),
    "[[][[]]]": Fraction(1, 12),
    "[[[]][]]": Fraction(1, 24),
    "[[[][]]]": Fraction(1, 24),
    "[[[[]]]]": Fraction(1, 24),
}


def test_exact_flow_table():
    gamma = exact_flow_lb(4)
    for serial, value in EXACT_FLOW_TABLE.items():
        assert gamma(pword(serial)) == value


def test_exact_flow_is_tree_supported():
    gamma = exact_flow_lb(4)
    for w in words_up_to(4):
        if len(w.word) != 1:
            assert gamma(w) == 0


def test_exact_flow_routes_agree():
    gamma = exact_flow_lb(4)
    flow = gl_exp(dot_lb(4), 4)
    lie = dynkin_apply(flow, 4)
    for w in words_up_to(4):
        assert lie(w) == gamma(w)
    q = q_apply(gamma, 4)
    for w in words_up_to(4):
        assert q(w) == flow(w)


def test_exact_flow_projects_to_the_nonplanar_character():
    flow = gl_exp(dot_lb(4), 4)
    gamma_bck = exact_gamma(4)
    buckets: dict = {}
    for w in words_up_to(4):
        f = project_nonplanar(w)
        buckets[f] = buckets.get(f, Fraction(0)) + flow(w)
    for f, total in buckets.items():
        assert total == gamma_bck(f) / forest_sigma(f)


def test_exact_flow_eulerian_form_is_the_vertex():
    beta = eulerian_apply(gl_exp(dot_lb(4), 4), 4)
    for w in words_up_to(4):
        assert beta(w) == (1 if w == DOT_WORD else 0)


def test_exact_flow_needs_positive_order():
    with pytest.raises(DomainError):
        exact_flow_lb(0)


# ---------------------------------------------------------------------------
# Method series
# ---------------------------------------------------------------------------


def test_exponential_euler_series():
    type1 = method_series("exponential_euler", "type1", 3)
    values = {
        "1": Fraction(1),
        "[]": Fraction(1),
        "[] []": Fraction(1, 2),
        "[] [] []": Fraction(1, 6),
        "[[]]": Fraction(0),
        "[[][]]": Fraction(0),
    }
    for serial, value in values.items():
        assert type1(pword(serial)) == value
    type3 = method_series("exponential_euler", "type3", 3)
    for w in words_up_to(3):
        assert type3(w) == (1 if w == DOT_WORD else 0)


MIDPOINT_SIGMA = {
    "[]": Fraction(1),
    "[[]]": Fraction(1, 2),
    "[[][]]": Fraction(1, 8),
    "[[[]]]": Fraction(1, 4),
}


def test_midpoint_stage_series():
    sigma = method_series("lie_implicit_midpoint", "type1", 3)
    assert sigma.kind == "infinitesimal"
    for serial, value in MIDPOINT_SIGMA.items():
        assert sigma(pword(serial)) == value
    for w in words_up_to(3):
        if len(w.word) != 1:
            assert sigma(w) == 0


def test_midpoint_stage_fixed_point_via_grafting():
    """The stage series solves sigma = sum_j (sigma^j -> dot) / (2^j j!)
    where the power is a concatenation power and the arrow grafts the
    whole word onto the vertex (an independent code path from B+)."""
    N = 4
    sigma = method_series("lie_implicit_midpoint", "type1", N)
    sigma_sum = FormalSum.zero()
    for w, c in sigma.table().items():
        if c:
            sigma_sum = sigma_sum + FormalSum.term(w, c)

    total = FormalSum.zero()
    power = FormalSum.term(EMPTY_WORD)
    fact = 1
    for j in range(0, N):
        if j:
            fact *= j
            power = sum(
                (
                    (ca * cb) * FormalSum.term(a * b)
                    for a, ca in power
                    for b, cb in sigma_sum
                    if a.order + b.order < N
                ),
                FormalSum.zero(),
            )
        scale = Fraction(1, 2**j * fact)
        for w, c in power:
            total = total + (scale * c) * left_graft(w, DOT_WORD)
    total = total.filter(lambda w: w.order <= N)
    assert total == sigma_sum


def _sigma_midpoint_reference(N: int) -> dict[PlanarForest, Fraction]:
    """The midpoint stage series as it was solved before, grade by grade
    through the concatenation powers of the truncated sigma, layer by
    layer: sigma = sum over j of B+(sigma^j) / (2^j j!)."""
    values: dict[PlanarForest, Fraction] = {}
    for n in range(1, N + 1):
        # concatenation powers of the truncated sigma, grade n - 1 part
        total: dict[PlanarForest, Fraction] = {}
        layer = {EMPTY_WORD: Fraction(1)}
        fact = 1
        for j in range(0, n):
            if j:
                fact *= j
                new_layer: dict[PlanarForest, Fraction] = {}
                for w, c in layer.items():
                    for t, v in values.items():
                        u = w * t
                        if u.order <= n - 1:
                            new_layer[u] = new_layer.get(u, Fraction(0)) + c * v
                layer = new_layer
            scale = Fraction(1, 2**j * fact)
            for w, c in layer.items():
                if w.order == n - 1:
                    target = PlanarForest((PlanarTree(w.word),))
                    total[target] = total.get(target, Fraction(0)) + scale * c
        values.update(total)
    return values


def test_midpoint_stage_closed_form_matches_the_power_layers():
    # the closed form, the concatenation exponential of sigma/2 on the
    # word under the root, against the layer-by-layer solve
    for N in range(1, 9):
        assert lbseries._sigma_midpoint(N) == _sigma_midpoint_reference(N), N
    assert len(_sigma_midpoint_reference(8)) == sum(
        len(enumerate_forests(n, planar=True)) for n in range(8)
    )


def test_midpoint_lie_form():
    type3 = method_series("lie_implicit_midpoint", "type3", 3)
    assert type3.kind == "infinitesimal"
    values = {
        "[]": Fraction(1),
        "[[]]": Fraction(1, 2),
        "[] []": Fraction(0),
        "[] [[]]": Fraction(-1, 12),
        "[[]] []": Fraction(1, 12),
        "[[][]]": Fraction(1, 8),
        "[[[]]]": Fraction(1, 4),
        "[] [] []": Fraction(0),
    }
    for serial, value in values.items():
        assert type3(pword(serial)) == value


def test_midpoint_matches_exact_flow_to_order_two():
    type3 = method_series("lie_implicit_midpoint", "type3", 2)
    gamma = exact_flow_lb(2)
    for w in words_up_to(2):
        assert type3(w) == gamma(w)


def test_method_series_rejects_unknown_names():
    with pytest.raises(DomainError):
        method_series("leapfrog", "type1", 2)
    with pytest.raises(DomainError):
        method_series("exponential_euler", "type2", 2)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def astar_reference(alpha, omega: PlanarForest, memo: dict) -> FormalSum:
    """The image of omega under substitution by alpha, with alpha's
    values applied at every step, in a memo that belongs to one alpha.

    Over the splits omega = w1 w2 (w2 nonempty) and the terms
    c pruned (x) rest of Delta(w2) whose right word has as many trees as
    w2: c alpha(rest) times A(w1) concatenated with B+ of A(pruned)."""
    if not omega.word:
        return FormalSum.term(EMPTY_WORD)
    if omega in memo:
        return memo[omega]
    terms = []
    parts = omega.word
    for i in range(len(parts)):
        w1 = PlanarForest(parts[:i])
        w2 = PlanarForest(parts[i:])
        left = astar_reference(alpha, w1, memo)
        for t, c in delta_mkw(w2):
            pruned, rest = t.left, t.right
            if len(rest.word) != len(w2.word):
                continue
            weight = alpha(rest)
            if weight:
                grafted = astar_reference(alpha, pruned, memo).map_basis(
                    lambda u: PlanarForest((bplus(u),))
                )
                terms.append((concat(left, grafted), c * weight))
    out = memo[omega] = FormalSum(terms)
    return out


ASTAR_ALPHA = {
    "[]": Fraction(2),
    "[[]]": Fraction(3),
    "[] [[]]": Fraction(5),
    "[[]] []": Fraction(-5),
    "[[][]]": Fraction(7),
    "[[[]]]": Fraction(11),
}

ASTAR_TABLE = [
    ("1", "1"),
    ("[]", "2 * []"),
    ("[] []", "4 * [] []"),
    ("[[]]", "3 * [] + 4 * [[]]"),
    ("[] [[]]", "5 * [] + 6 * [] [] + 8 * [] [[]]"),
    ("[[]] []", "-5 * [] + 6 * [] [] + 8 * [[]] []"),
]


@pytest.mark.parametrize("serial, expected", ASTAR_TABLE, ids=lambda x: x[:20])
def test_substitution_character_table(serial, expected):
    alpha = LBCoeff.from_table(
        {pword(k): v for k, v in ASTAR_ALPHA.items()}, 4, kind="infinitesimal"
    )
    out = lb_substitution_character(alpha, pword(serial))
    assert show_words(out) == expected


def random_lb_field(rng: random.Random, N: int) -> LBCoeff:
    values = {}
    for n in range(1, N + 1):
        for w in enumerate_forests(n, planar=True):
            if len(w.word) == 1:
                values[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LBCoeff.from_table(values, N, kind="infinitesimal")


def graft_sum(x: FormalSum, target: FormalSum, cap: int) -> FormalSum:
    out = FormalSum.zero()
    for u, cu in x:
        for v, cv in target:
            if u.order + v.order <= cap:
                out = out + (cu * cv) * left_graft(u, v)
    return out


def astar_oracle(alpha: LBCoeff, omega: PlanarForest, N: int) -> FormalSum:
    """Transpose route: push every word through the multiplicative
    extension of tau -> (image of the branches) grafted onto the full
    field, then read off the omega coefficients."""
    field = FormalSum.zero()
    for n in range(1, N + 1):
        for w in enumerate_forests(n, planar=True):
            if len(w.word) == 1 and alpha(w):
                field = field + FormalSum.term(w, alpha(w))

    memo: dict[PlanarForest, FormalSum] = {EMPTY_WORD: FormalSum.term(EMPTY_WORD)}

    def push(w: PlanarForest) -> FormalSum:
        if w in memo:
            return memo[w]
        head, rest = w.word[0], PlanarForest(w.word[1:])
        branches = push(PlanarForest(head.children))
        head_image = graft_sum(branches, field, N)
        out = FormalSum.zero()
        for u, cu in head_image:
            for v, cv in push(rest):
                if u.order + v.order <= N:
                    out = out + FormalSum.term(u * v, cu * cv)
        memo[w] = out
        return out

    out = FormalSum.zero()
    for source in words_up_to(omega.order):
        coeff = push(source).coeff(omega)
        if coeff:
            out = out + FormalSum.term(source, coeff)
    return out


def seeded_word_map(seed: str, N: int) -> LBCoeff:
    """A plain map with seeded values on every nonempty word, coloured
    ones too, a sixth of them 0, and 0 on the empty word."""

    def value(w: PlanarForest) -> Fraction:
        if not w.word:
            return Fraction(0)
        rng = random.Random(f"{seed}-{w.serial}")
        return Fraction(rng.choice((-3, -2, -1, 0, 1, 2)), rng.randint(1, 4))

    return LBCoeff.from_function(value, N)


def test_substitution_matches_the_per_map_reference():
    # The rows are built once per word with the alpha values left
    # symbolic; the reference applies them at every step of its own
    # recursion, in a memo per map.
    N = 6
    coloured = [w for w in random_coloured_words(61, 60) if w.order <= N]
    words = words_up_to(N) + coloured
    assert any(c.color for w in coloured for c in w.word)
    beta = seeded_word_map("beta", N)
    alphas = {
        "dot": dot_lb(N),
        "midpoint": method_series("lie_implicit_midpoint", "type3", N),
        "plain": seeded_word_map("alpha", N),
    }
    assert any(alphas["plain"](w) and len(w.word) > 1 for w in words)
    for name, alpha in alphas.items():
        memo: dict = {}
        substituted = lb_substitute(alpha, beta, N)
        for w in words:
            image = astar_reference(alpha, w, memo)
            assert lb_substitution_character(alpha, w) == image, (name, w.serial)
            want = sum((c * beta(u) for u, c in image), Fraction(0))
            assert substituted(w) == want, (name, w.serial)


def test_a_new_map_pays_only_its_sums(monkeypatch):
    # The substitution, Dynkin and Q structure of a word is shared by
    # every map: once the tables of one round are built, the same tables
    # from new maps build no word or tree, expand no Dynkin map, shuffle
    # or block splitting, and read no coproduct.
    N = 6
    ms_values = method_series("lie_implicit_midpoint", "type3", N).table()
    flow_values = q_apply(exact_flow_lb(N), N).table()

    def tables():
        dot = dot_lb(N)
        ms = LBCoeff("infinitesimal", N, ms_values.__getitem__)
        flow = LBCoeff("character", N, flow_values.__getitem__)
        return (
            lb_substitute(dot, ms, N).table(),
            lb_substitute(ms, dot, N).table(),
            dynkin_apply(flow, N).table(),
            q_apply(ms, N).table(),
        )

    calls: collections.Counter = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in (PlanarForest, PlanarTree):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    for name in ("dynkin_map", "_compositions", "_shuffle", "delta_mkw"):
        monkeypatch.setattr(lbseries, name, counting(name, getattr(lbseries, name)))
    PlanarForest(), PlanarTree()
    assert calls == {"PlanarForest": 1, "PlanarTree": 1}
    first = tables()
    calls.clear()
    assert tables() == first
    assert not calls, dict(calls)
    assert first[0] == first[1] == ms_values


def _table_digest(coeff: LBCoeff) -> str:
    text = "".join(f"{w.serial}\t{v}\n" for w, v in coeff.table().items())
    return hashlib.sha256(text.encode()).hexdigest()


def test_substitution_tables_are_pinned():
    # sha256 of the word tables as printed when every image was re-grafted
    # per map; the vertex is the identity for substitution on both sides
    ms = method_series("lie_implicit_midpoint", "type3", 6)
    dot = dot_lb(6)
    identity = "f1bbd530fbfd6b96d62a11ec4011fa12fe4de41403d0f01b6632598cfeb982fe"
    assert _table_digest(ms) == identity
    assert _table_digest(lb_substitute(dot, ms, 6)) == identity
    assert _table_digest(lb_substitute(ms, dot, 6)) == identity
    flow = q_apply(exact_flow_lb(6), 6)
    assert _table_digest(lb_substitute(ms, flow, 6)) == (
        "8528c5d586ec972eb6c1d970d54bca3ec5db1cea2388edbeefea8bc1241b0634"
    )


def test_substitution_character_matches_grafting_oracle():
    rng = random.Random(20250815)
    alpha = random_lb_field(rng, 4)
    for w in words_up_to(4):
        assert lb_substitution_character(alpha, w) == astar_oracle(alpha, w, 4)


def test_substitute_identity_field():
    rng = random.Random(21)
    beta = random_lb_character(rng, 3)
    out = lb_substitute(dot_lb(3), beta, 3)
    for w in words_up_to(3):
        assert out(w) == beta(w)


def test_substitute_respects_convolution():
    rng = random.Random(22)
    alpha = random_lb_field(rng, 3)
    b1 = random_lb_character(rng, 3)
    b2 = random_lb_character(rng, 3)
    left = lb_substitute(alpha, convolve_mkw(b1, b2, 3), 3)
    right = convolve_mkw(
        lb_substitute(alpha, b1, 3), lb_substitute(alpha, b2, 3), 3
    )
    for w in words_up_to(3):
        assert left(w) == right(w)


def test_substitute_keeps_characters():
    rng = random.Random(23)
    alpha = random_lb_field(rng, 4)
    beta = random_lb_character(rng, 4)
    out = lb_substitute(alpha, beta, 3)
    assert out.kind == "character"
    for u in word_pool(2):
        for v in word_pool(1):
            assert out(shuffle(u, v)) == out(u) * out(v)


def test_substitute_into_exact_flow_gives_backward_error_inverse():
    # Substituting the exact-flow Lie form into the frozen exponential of
    # the vertex recovers the flow of the substituted field: checked on
    # the identity gamma = exact series of the vertex itself.
    gamma = exact_flow_lb(3)
    flow = gl_exp(dot_lb(3), 3)
    substituted = lb_substitute(gamma, flow, 3)
    direct = gl_exp(gamma, 3)
    for w in words_up_to(3):
        assert substituted(w) == direct(w)


def test_substitute_rejects_non_fields():
    rng = random.Random(24)
    beta = random_lb_character(rng, 3)
    with pytest.raises(DomainError):
        lb_substitute(beta, beta, 3)


def test_substitute_truncation_guard():
    with pytest.raises(DomainError):
        lb_substitute(dot_lb(4), eta_mkw(2), 3)
