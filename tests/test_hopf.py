"""Tests for the convolution calculus shared by the two Hopf algebras.

Every convolution-type value (``convolve``, the exp/log
``convolution_series``, ``substitute_b``, ``solve_modified``, ``q_apply``
and the pairing in ``lb_substitute``) is one ``exact_sum``: integer
numerators over one common denominator. The reference here is the
per-term formula, each term a product of Fractions added as a Fraction.
The two are compared on seeded maps of every kind, on trees and forests
of the pruning algebra and on planar words, with values that mix coprime
denominators, integers and zeros, so that a wrong common denominator, a
wrong padding or a dropped term shows.

The exp/log series fills every power of a forest in one integer pass
over its coproduct. Its reference is the kernel it replaced, kept here:
the rows of the coproduct collected once, then one ``exact_sum`` per
power. The coefficient maps read their memo before anything else; the
tests at the end check that what only the miss path does (the order
check, reading a planar tree as its one-letter word, the kind rule on
products) still happens with the memo full. The module-wide memos are
cached functions, and the last test empties every one of them.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bflow import bseries_hopf, forest_core, hopf, lbseries
from bflow.algebra import FormalSum, Tensor
from bflow.bseries_hopf import (
    BCoeff,
    antipode_bck,
    builtin_tableau,
    delta_bck,
    delta_cefm,
    exact_gamma,
    exp_bck,
    log_bck,
    rk_character,
    solve_modified,
    substitute_b,
)
from bflow.errors import CapacityError, DomainError
from bflow.forest_core import (
    EMPTY_FOREST,
    Forest,
    PlanarForest,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
)
from bflow.hopf import (
    Coeff,
    convolution_exp,
    convolution_log,
    convolution_series,
    convolve,
    exact_sum,
)
from bflow.lbseries import (
    EMPTY_WORD,
    BellWord,
    LBCoeff,
    antipode_mkw,
    delta_mkw,
    eulerian_apply,
    exact_flow_lb,
    fdb_coproduct,
    gl_exp,
    method_series,
    kappa,
    lb_substitute,
    q_apply,
)

from test_lbseries import astar_reference, bell_words

N = 5
VALUES = [
    Fraction(1, 7),
    Fraction(11, 13),
    Fraction(1, 97),
    Fraction(-5, 2),
    Fraction(3),
    Fraction(-1),
    Fraction(0),
    Fraction(0),
]
DOT = parse_tree("[]")
TREES = [t for n in range(1, N + 1) for t in enumerate_trees(n)]
FORESTS = [f for n in range(N + 1) for f in enumerate_forests(n)]
WORDS = [w for n in range(N + 1) for w in enumerate_forests(n, planar=True)]


# ---------------------------------------------------------------------------
# Seeded maps of every kind
# ---------------------------------------------------------------------------


def _draw(rng: random.Random, basis: list) -> dict:
    return {x: rng.choice(VALUES) for x in basis}


def bck_map(rng: random.Random, kind: str, unit: int = 0) -> BCoeff:
    """A character or infinitesimal map from tree values, or a plain map
    from forest values with ``unit`` on the empty forest."""
    if kind == "plain":
        values = _draw(rng, FORESTS)
        values[EMPTY_FOREST] = Fraction(unit)
        return BCoeff.plain(values, N)
    return getattr(BCoeff, kind)(_draw(rng, TREES), N)


def mkw_map(rng: random.Random, kind: str, unit: int = 0) -> LBCoeff:
    """Word values with ``unit`` on the empty word, claimed to be ``kind``.
    The kind is not checked: the convolution formulas read values only."""
    values = _draw(rng, WORDS)
    values[EMPTY_WORD] = Fraction(unit)
    return LBCoeff.from_function(values.__getitem__, N, kind=kind)


# (family, kind): the maps to draw and the basis to compare the results on
CASES = [
    ("bck", "character", FORESTS),
    ("bck", "infinitesimal", FORESTS),
    ("bck", "plain", FORESTS),
    ("mkw", "character", WORDS),
    ("mkw", "infinitesimal", WORDS),
    ("mkw", "plain", WORDS),
]
CASE_IDS = [f"{family}-{kind}" for family, kind, _ in CASES]


def draw_map(rng: random.Random, family: str, kind: str, unit: int = 0):
    return (bck_map if family == "bck" else mkw_map)(rng, kind, unit)


# ---------------------------------------------------------------------------
# The per-term Fraction formulas
# ---------------------------------------------------------------------------


def ref_convolve(alpha, beta, x) -> Fraction:
    total = Fraction(0)
    for t, c in type(alpha).coproduct(x):
        total += c * alpha(t.left) * beta(t.right)
    return total


def ref_series(x, coeffs: list[Fraction], w) -> Fraction:
    """sum_k coeffs[k] x^{*k}(w), x read as 0 on the empty forest, each
    power by its own recursion x^{*k} = x^{*(k-1)} * x."""
    coproduct = type(x).coproduct
    memo: dict = {}

    def power(k: int, u) -> Fraction:
        if k == 0:
            return Fraction(0 if u.order else 1)
        if not u.order:
            return Fraction(0)
        if k == 1:
            return x(u)
        if (k, u) not in memo:
            total = Fraction(0)
            for t, c in coproduct(u):
                if t.right.order:
                    total += c * power(k - 1, t.left) * x(t.right)
            memo[k, u] = total
        return memo[k, u]

    total = Fraction(0)
    for k, a in enumerate(coeffs):
        total += a * power(k, w)
    return total


def ref_q_apply(gamma: LBCoeff, w) -> Fraction:
    """sum over the splittings of w into nonempty blocks of kappa of the
    block grades times the product of gamma over the blocks."""
    parts = w.word
    if not parts:
        return Fraction(1)
    total = Fraction(0)
    for cuts in itertools.product((False, True), repeat=len(parts) - 1):
        blocks, start = [], 0
        for i, cut in enumerate(cuts, 1):
            if cut:
                blocks.append(PlanarForest(parts[start:i]))
                start = i
        blocks.append(PlanarForest(parts[start:]))
        term = kappa(tuple(b.order for b in blocks))
        for b in blocks:
            term *= gamma(b)
        total += term
    return total


def ref_substitute(alpha: BCoeff, beta: BCoeff, x) -> Fraction:
    total = Fraction(0)
    for t, c in delta_cefm(x):
        term = c
        for tree in t.left.trees:
            term *= alpha.tree_value(tree)
        total += term * beta(t.right)
    return total


def ref_lb_substitute(alpha: LBCoeff, beta: LBCoeff, w) -> Fraction:
    """beta paired term by term with the image of w under alpha, the
    image from the per-map recursion kept in test_lbseries."""
    total = Fraction(0)
    for u, c in astar_reference(alpha, w, {}):
        total += c * beta(u)
    return total


def ref_solve(alpha: BCoeff, mode: str, n_max: int) -> dict:
    gamma = exact_gamma(n_max)
    other = gamma if mode == "backward_error" else alpha
    target = alpha if mode == "backward_error" else gamma
    values: dict = {}
    for n in range(1, n_max + 1):
        for tree in enumerate_trees(n):
            total = Fraction(0)
            for pair, c in delta_cefm(tree):
                if pair.right == Forest((DOT,)):
                    continue
                term = c
                for t in pair.left.trees:
                    term *= values[t]
                total += term * other.tree_value(pair.right.trees[0])
            values[tree] = (target.tree_value(tree) - total) / other.tree_value(DOT)
    return values


# ---------------------------------------------------------------------------
# exact_sum
# ---------------------------------------------------------------------------


FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.lists(FRACTIONS, max_size=5).map(tuple)), max_size=8))
def test_exact_sum_is_the_sum_of_products(terms):
    want = Fraction(0)
    for c, factors in terms:
        term = Fraction(c)
        for f in factors:
            term *= f
        want += term
    got = exact_sum(terms)
    assert type(got) is Fraction and got == want


def test_exact_sum_small_cases():
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    assert exact_sum([]) == 0
    assert exact_sum([(5, ())]) == 5
    assert exact_sum([(1, (third,)), (1, (seventh,))]) == Fraction(10, 21)
    # products of different lengths are padded to one scale
    assert exact_sum([(2, (third, seventh)), (-1, (third,)), (4, ())]) == Fraction(79, 21)
    assert exact_sum([(1, (Fraction(1, 97), Fraction(0)))]) == 0
    # the result is reduced
    assert exact_sum([(3, (Fraction(1, 6),))]) == Fraction(1, 2)
    assert exact_sum([(3, (Fraction(1, 6),))]).denominator == 2
    # a generator is read once
    assert exact_sum((1, (f,)) for f in (third, seventh)) == Fraction(10, 21)


# ---------------------------------------------------------------------------
# The kernel against the per-term formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,kind,basis", CASES, ids=CASE_IDS)
def test_convolve_matches_the_fraction_formula(family, kind, basis):
    rng = random.Random(f"convolve-{family}-{kind}")
    for _ in range(3):
        alpha = draw_map(rng, family, kind, unit=1 if kind == "character" else rng.choice((0, 1, 3)))
        beta = draw_map(rng, family, kind, unit=1 if kind == "character" else rng.choice((0, 1, 3)))
        conv = convolve(alpha, beta, N)
        assert conv.kind == ("character" if kind == "character" else "plain")
        for x in basis:
            assert conv(x) == ref_convolve(alpha, beta, x), x.serial


@pytest.mark.parametrize("family,kind,basis", CASES, ids=CASE_IDS)
def test_convolution_series_matches_the_fraction_formula(family, kind, basis):
    rng = random.Random(f"series-{family}-{kind}")
    x = draw_map(rng, family, kind, unit=1 if kind == "character" else 0)
    coeffs = [rng.choice(VALUES) for _ in range(N + 1)]
    series = convolution_series(x, coeffs, "plain", N)
    for w in basis:
        assert series(w) == ref_series(x, coeffs, w), w.serial


@pytest.mark.parametrize("family", ["bck", "mkw"])
def test_convolution_log_and_exp_match_the_fraction_formula(family):
    rng = random.Random(f"log-exp-{family}")
    basis = FORESTS if family == "bck" else WORDS
    log_coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, N + 1)]
    exp_coeffs = [Fraction(1)]
    for k in range(1, N + 1):
        exp_coeffs.append(exp_coeffs[-1] / k)
    for _ in range(2):
        alpha = draw_map(rng, family, "character", unit=1)
        log = convolution_log(alpha, N)
        assert log.kind == "infinitesimal"
        field = draw_map(rng, family, "infinitesimal" if family == "bck" else "plain")
        exp = convolution_exp(field, N)
        assert exp.kind == "character"
        for w in basis:
            if family == "mkw" or len(w.trees) <= 1:
                assert log(w) == ref_series(alpha, log_coeffs, w), w.serial
            else:
                # a BCK infinitesimal map is 0 on products by its kind rule
                assert log(w) == 0, w.serial
            if family == "mkw" or not w.order:
                assert exp(w) == ref_series(field, exp_coeffs, w), w.serial
        if family == "bck":
            # a character is extended from its tree values
            for w in FORESTS:
                want = Fraction(1)
                for t in w.trees:
                    want *= ref_series(field, exp_coeffs, Forest((t,)))
                assert exp(w) == want, w.serial


@pytest.mark.parametrize("kind", ["character", "infinitesimal", "plain"])
def test_substitute_b_matches_the_fraction_formula(kind):
    rng = random.Random(f"substitute-{kind}")
    for _ in range(3):
        alpha = bck_map(rng, "infinitesimal")
        beta = bck_map(rng, kind, unit=1 if kind == "character" else rng.choice((0, 1, 3)))
        out = substitute_b(alpha, beta, N)
        assert out.kind == kind
        basis = FORESTS if kind == "plain" else [EMPTY_FOREST] + [Forest((t,)) for t in TREES]
        for x in basis:
            want = beta(x) if not x.order else ref_substitute(alpha, beta, x)
            assert out(x) == want, x.serial


@pytest.mark.parametrize("mode", ["backward_error", "modifying_integrator"])
def test_solve_modified_matches_the_fraction_formula(mode):
    rng = random.Random(f"solve-{mode}")
    methods = [rk_character(builtin_tableau(name), N) for name in ("rk4", "implicit_midpoint")]
    for _ in range(3):
        values = _draw(rng, TREES)
        values[DOT] = Fraction(1)
        methods.append(BCoeff.character(values, N))
    for alpha in methods:
        beta = solve_modified(alpha, mode, N)
        assert beta.kind == "infinitesimal"
        want = ref_solve(alpha, mode, N)
        for tree in TREES:
            assert beta(tree) == want[tree], tree.serial


@pytest.mark.parametrize("kind", ["character", "infinitesimal", "plain"])
def test_lb_substitute_matches_the_fraction_formula(kind):
    rng = random.Random(f"lb_substitute-{kind}")
    for field_kind in ("infinitesimal", "plain"):
        alpha = mkw_map(rng, field_kind)
        beta = mkw_map(rng, kind, unit=1 if kind == "character" else rng.choice((0, 1, 3)))
        out = lb_substitute(alpha, beta, N)
        assert out.kind == kind
        for w in WORDS:
            assert out(w) == ref_lb_substitute(alpha, beta, w), w.serial


def test_q_apply_matches_the_fraction_formula():
    rng = random.Random("q_apply")
    for _ in range(3):
        gamma = mkw_map(rng, "infinitesimal")
        flow = q_apply(gamma, N)
        for w in WORDS:
            assert flow(w) == ref_q_apply(gamma, w), w.serial


def test_the_kernel_adds_no_fractions(monkeypatch, no_fraction_sums):
    # Every sum runs on integer numerators: with the inputs' values and
    # the coproducts built beforehand, evaluating the consumers adds no
    # Fraction.
    rk4 = rk_character(builtin_tableau("rk4"), 6)
    gamma = exact_gamma(6)
    trees = [t for n in range(1, 7) for t in enumerate_trees(n)]
    forests = [f for n in range(7) for f in enumerate_forests(n)]
    for t in trees:
        rk4.tree_value(t), gamma.tree_value(t)
    pruning = {x: delta_bck(x) for x in trees + forests}
    contraction = {t: delta_cefm(t) for t in trees}
    words = [w for n in range(6) for w in enumerate_forests(n, planar=True)]
    field = LBCoeff.from_table({w: VALUES[k % len(VALUES)] for k, w in enumerate(words[1:])}, 5)
    for w in words:
        field(w), delta_mkw(w)
    monkeypatch.setattr(BCoeff, "coproduct", staticmethod(pruning.__getitem__))
    monkeypatch.setattr(bseries_hopf, "delta_cefm", contraction.__getitem__)
    with no_fraction_sums():
        composed = convolve(rk4, gamma, 6)
        log = log_bck(rk4, 6)
        exp = exp_bck(log, 6)
        back = solve_modified(rk4, "backward_error", 6)
        mod = solve_modified(rk4, "modifying_integrator", 6)
        recovered = substitute_b(back, gamma, 6)
        planar, flow = gl_exp(field, 5), q_apply(field, 5)
        for t in trees:
            composed(t), exp(t), recovered(t), substitute_b(mod, rk4, 6)(t)
        for w in words:
            planar(w), flow(w)
    for t in trees:
        assert exp(t) == rk4(t) == recovered(t)


# ---------------------------------------------------------------------------
# The one-pass exp/log kernel against the per-power series
# ---------------------------------------------------------------------------


def series_reference(x: Coeff, coeffs: list[Fraction], kind: str, N: int) -> Coeff:
    """The exp/log series as it was summed before the one-pass kernel:
    the rows (c, x(right), powers of left) of Delta(w) are collected
    once, then each power is its own ``exact_sum`` over them."""
    coproduct, value, as_forest = type(x).coproduct, x._kind_value, x.basis._of
    memo: dict = {}

    def powers(w) -> list[Fraction]:
        out = memo.get(w)
        if out is None:
            rows = []
            for t, c in coproduct(w):
                if t.left.order and t.right.order:
                    f = value(t.right)
                    if f is not None:
                        rows.append((c.numerator, f, powers(t.left)))
            out = [x._value(w)] + [
                exact_sum((c, (f, p[k - 1])) for c, f, p in rows if k <= len(p))
                for k in range(1, w.order)
            ]
            memo[w] = out
        return out

    def fn(w) -> Fraction:
        if not w.order:
            return coeffs[0]
        return exact_sum((1, (a, p)) for a, p in zip(coeffs[1:], powers(as_forest(w))))

    return type(x)(kind, N, fn)


def log_coeffs(n: int) -> list[Fraction]:
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n + 1)]


def exp_coeffs(n: int) -> list[Fraction]:
    return [Fraction(1, math.factorial(k)) for k in range(n + 1)]


def shuffle_character(rng: random.Random, n: int) -> LBCoeff:
    """rho(t1 ... tk) = a(t1) ... a(tk) / k!, a shuffle character, with
    letter values a drawn from VALUES, zeros among them."""
    letters = {t: rng.choice(VALUES) for m in range(1, n + 1) for t in enumerate_trees(m, planar=True)}

    def rho(w):
        out = Fraction(1)
        for k, t in enumerate(w.word, start=1):
            out *= letters[t] / k
        return out

    return LBCoeff.from_function(rho, n, kind="character")


def test_planar_exp_and_log_match_the_per_power_series():
    # every planar word of order <= 6
    rng = random.Random("planar-series")
    characters = [q_apply(exact_flow_lb(6), 6)] + [shuffle_character(rng, 6) for _ in range(3)]
    for alpha in characters:
        log = eulerian_apply(alpha, 6)
        want_log = series_reference(alpha, log_coeffs(6), "infinitesimal", 6).table()
        assert log.table() == want_log
        back = gl_exp(log, 6)
        want_back = series_reference(log, exp_coeffs(6), "character", 6).table()
        assert back.table() == want_back == alpha.table()
        assert len(want_log) == 197
    # the seeded characters have zero letters, so zero rows and zero powers
    assert all(0 in c.table().values() for c in characters[1:])


def test_bck_exp_and_log_match_the_per_power_series():
    # every forest of order <= 7
    rng = random.Random("bck-series")
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    characters = [rk_character(builtin_tableau("rk4"), 7)]
    characters += [BCoeff.character(_draw(rng, trees), 7) for _ in range(2)]
    for alpha in characters:
        log = log_bck(alpha, 7)
        want_log = series_reference(alpha, log_coeffs(7), "infinitesimal", 7).table()
        assert log.table() == want_log
        assert len(want_log) == 200
        field = BCoeff.infinitesimal(_draw(rng, trees), 7)
        for beta in (log, field):
            want = series_reference(beta, exp_coeffs(7), "character", 7).table()
            assert exp_bck(beta, 7).table() == want
        assert exp_bck(log, 7).table() == alpha.table()


def test_zero_rows_leave_the_left_powers_unread():
    # x is 0 on every right side of Delta(w), so no row of Delta(w)
    # contributes and the powers of the left sides are never needed
    w = parse_forest("[[]] [] [[][]]", planar=True)
    read = []

    def value(u):
        read.append(u)
        return Fraction(1) if u is w else Fraction(0)

    x = LBCoeff.from_function(value, 6, kind="plain")
    exp = gl_exp(x, 6)
    assert exp(w) == 1
    lefts = {t.left for t, _ in delta_mkw(w) if t.left.order and t.right.order}
    rights = {t.right for t, _ in delta_mkw(w) if t.left.order and t.right.order}
    assert lefts - rights, "every left side is also a right side: the check has no teeth"
    assert set(read) <= {EMPTY_WORD, w} | rights


def test_the_series_builds_one_fraction_per_value(monkeypatch):
    # The powers are integer pairs: with the input's values computed
    # beforehand, every Fraction ``hopf`` builds is a value the series
    # maps return, one per value they compute, and the tables are the
    # ones the per-power series gives.
    built = []

    class Counted(Fraction):
        __slots__ = ()

        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    alpha = q_apply(exact_flow_lb(6), 6)
    rk4 = rk_character(builtin_tableau("rk4"), 7)
    alpha.table(), rk4.table()
    for f in enumerate_forests(7):
        rk4(f)
    # the maps are built first: their series coefficients are no values
    log = eulerian_apply(alpha, 6)
    back = gl_exp(log, 6)
    field = log_bck(rk4, 7)
    with monkeypatch.context() as m:
        m.setattr(hopf, "Fraction", Counted)
        planar = back.table()
        planar_built = len(built)
        pruning = field.table()
    assert 0 < planar_built <= len(log._cache) + len(back._cache)
    assert 0 < len(built) - planar_built <= len(field._cache)
    assert planar == alpha.table()
    assert planar == series_reference(log, exp_coeffs(6), "character", 6).table()
    assert pruning == series_reference(rk4, log_coeffs(7), "infinitesimal", 7).table()
    assert len(planar) == 197 and len(pruning) == 200


def test_a_series_map_dies_with_its_last_reference():
    # the memo of powers is in no reference cycle, so dropping the maps
    # frees it at once and leaves nothing to the cyclic garbage collector
    alpha = q_apply(exact_flow_lb(5), 5)
    rk4 = rk_character(builtin_tableau("rk4"), 5)
    alpha.table(), rk4.table()
    gl_exp(eulerian_apply(alpha, 5), 5).table(), exp_bck(log_bck(rk4, 5), 5).table()
    gc.collect()
    gc.disable()
    try:
        log = eulerian_apply(alpha, 5)
        back = gl_exp(log, 5)
        field = log_bck(rk4, 5)
        again = exp_bck(field, 5)
        assert back.table() == alpha.table()
        assert all(again(t) == rk4(t) for t in TREES)
        del log, back, field, again
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_character_gives_the_empty_forest_its_unit_at_once(monkeypatch):
    # 1 right after the memo miss: no type test, no kind or order check,
    # and nothing stored
    alpha = rk_character(builtin_tableau("rk4"), 4)
    monkeypatch.setattr(bseries_hopf, "RootedTree", None)
    monkeypatch.setattr(bseries_hopf, "Forest", None)
    assert alpha._kind_value(EMPTY_FOREST) == 1
    assert alpha(EMPTY_FOREST) == 1
    assert EMPTY_FOREST not in alpha._cache


# ---------------------------------------------------------------------------
# Memo-first lookups
# ---------------------------------------------------------------------------


def test_memo_first_lookups_keep_the_miss_path():
    # the planar maps: full memo, then the order check and the trees
    flow = q_apply(exact_flow_lb(4), 4)
    table = flow.table()
    deep = parse_tree("[[[[[]]]]]", planar=True)
    for probe in (deep, PlanarForest((deep,)), parse_forest("[[]] [[]] []", planar=True)):
        with pytest.raises(CapacityError, match="truncated at order 4, asked for order 5"):
            flow(probe)
        with pytest.raises(CapacityError, match="truncated at order 4, asked for order 5"):
            flow._kind_value(probe)
    fresh = q_apply(exact_flow_lb(4), 4)
    for n in range(1, 5):
        for t in enumerate_trees(n, planar=True):
            word = PlanarForest((t,))
            # asked as a tree first on the fresh map, after its word on the full one
            assert fresh(t) == flow(t) == table[word]
            assert fresh._kind_value(t) == flow._kind_value(t) == table[word]
            assert t not in fresh._cache
    with pytest.raises(DomainError, match="cannot evaluate coefficients on list"):
        flow([deep])

    # the pruning maps: the order check, and the kind rule on products
    gamma = exact_gamma(3)
    gamma.table()
    four = parse_tree("[[[[]]]]")
    for probe in (parse_tree("[[][][]]"), Forest((four,)), parse_forest("[[]] [[]]")):
        with pytest.raises(CapacityError, match="truncated at order 3, asked for order 4"):
            gamma(probe)
    with pytest.raises(CapacityError, match="truncated at order 3, asked for order 4"):
        gamma.tree_value(parse_tree("[[][][]]"))
    trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
    field = BCoeff.infinitesimal({t: Fraction(n + 2, 3) for n, t in enumerate(trees)}, 3)
    field.table()
    for f in enumerate_forests(3):
        if len(f.trees) > 1:
            assert field._kind_value(f) is None and field(f) == 0, f.serial
        else:
            assert field._kind_value(f) == field(f.trees[0]), f.serial
    assert field._kind_value(EMPTY_FOREST) is None and field(EMPTY_FOREST) == 0
    with pytest.raises(DomainError, match="cannot evaluate coefficients on list"):
        field([DOT])


def test_a_character_stores_its_forest_values():
    # The first lookup of a forest stores the product of its tree values
    # in the character's memo; later lookups read it and call fn no more.
    calls = []

    def fn(tree):
        calls.append(tree)
        return Fraction(tree.order + 2, 3 * len(tree.children) + 5)

    alpha = BCoeff.character(fn, 4)
    forest = parse_forest("[[]] [] []")
    trees = forest.trees
    want = fn(trees[0]) * fn(trees[1]) * fn(trees[2])
    calls.clear()
    assert alpha._kind_value(forest) == want
    assert alpha._cache[forest] == want
    assert sorted(t.serial for t in calls) == ["[[]]", "[]"]
    calls.clear()
    assert alpha._kind_value(forest) == want and alpha(forest) == want
    assert alpha._kind_value(Forest((trees[0],))) == alpha(trees[0])
    assert not calls
    # the empty forest gives 1 and is not stored
    assert alpha._kind_value(EMPTY_FOREST) == 1 and alpha(EMPTY_FOREST) == 1
    assert EMPTY_FOREST not in alpha._cache
    # nothing beyond N is stored
    for big in (parse_forest("[[]] [[]] []"), parse_forest("[[[[]]]] []")):
        with pytest.raises(CapacityError, match="truncated at order 4, asked for order 5"):
            alpha._kind_value(big)
        assert big not in alpha._cache
    assert max(x.order for x in alpha._cache) == 4
    assert not calls
    # an infinitesimal map stores nothing for a forest
    field = BCoeff.infinitesimal(fn, 4)
    assert field._kind_value(forest) is None and forest not in field._cache
    plain = BCoeff.plain({Forest((DOT,)): 2, EMPTY_FOREST: 3}, 3)
    assert plain.tree_value(DOT) == plain(DOT) == 2 and plain(EMPTY_FOREST) == 3
    assert plain(Forest((DOT, DOT))) == 0


def test_a_fraction_from_fn_is_stored_as_it_is():
    value = Fraction(5, 7)
    words = LBCoeff.from_function(lambda w: value, 3)
    forests = BCoeff.plain(lambda f: value, 3)
    assert words(EMPTY_WORD) is value and forests(EMPTY_FOREST) is value
    ints = LBCoeff.from_function(lambda w: 2, 3)
    assert type(ints(EMPTY_WORD)) is Fraction and ints(EMPTY_WORD) == 2


def formal_sum_cases() -> list:
    """(map, sum, the sum of its terms added one by one) for both
    families, each sum with a basis element on which the map is 0."""
    rk4 = rk_character(builtin_tableau("rk4"), 5)
    zero_tree = next(t for n in range(1, 6) for t in enumerate_trees(n) if rk4(t) == 0)
    tree_sum = FormalSum(
        [(zero_tree, Fraction(3)), (parse_forest("[] [[]]"), Fraction(-2, 7)), (DOT, Fraction(5, 3))]
    )
    rng = random.Random("formal-sum")
    word_map = mkw_map(rng, "plain", unit=1)
    zero_word = next(w for w in WORDS if word_map(w) == 0)
    word_sum = FormalSum(
        [(zero_word, Fraction(4)), (WORDS[3], Fraction(-1, 6)), (EMPTY_WORD, Fraction(2, 9))]
    )
    cases = []
    for m, x in ((rk4, tree_sum), (word_map, word_sum)):
        want = Fraction(0)
        for basis, c in x:
            want += c * m(basis)
        cases.append((m, x, want))
    return cases


def test_a_formal_sum_is_one_exact_sum(no_fraction_sums):
    cases = formal_sum_cases()
    with no_fraction_sums():
        for m, x, want in cases:
            got = m(x)
            assert type(got) is Fraction and got == want


def test_a_formal_sum_is_never_hashed(monkeypatch):
    # a sum is never a memo key; hashing one would hash every term
    cases = formal_sum_cases()
    assert {type(m) for m, _, _ in cases} == {BCoeff, LBCoeff}

    def refuse(self):
        raise AssertionError("a FormalSum was hashed")

    monkeypatch.setattr(FormalSum, "__hash__", refuse)
    for m, x, want in cases:
        assert m(x) == want


# ---------------------------------------------------------------------------
# Roundtrips, pinned tables and errors
# ---------------------------------------------------------------------------


def test_exp_bck_inverts_log_bck_at_order_eight():
    rk4 = rk_character(builtin_tableau("rk4"), 8)
    back = exp_bck(log_bck(rk4, 8), 8)
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            assert back(tree) == rk4(tree), tree.serial


def _table_digest(coeff) -> str:
    text = "".join(f"{w.serial}\t{v}\n" for w, v in coeff.table().items())
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the word tables as printed by the per-term Fraction sums
# that the kernel replaced.
PINNED_TABLES = [
    (
        lambda: eulerian_apply(q_apply(exact_flow_lb(6), 6), 6),
        "d29ced4e71a7bd86ea228fefaacb1deb81aac11ac5d39e3efb54fb07803312a4",
    ),
    (
        lambda: gl_exp(method_series("lie_implicit_midpoint", "type1", 6), 6),
        "bf5ba00dd2b46b6515a705a3840049e35fd0e6bf23b8f738a0ce8b13a46e240a",
    ),
]


@pytest.mark.parametrize("build,digest", PINNED_TABLES, ids=["eulerian_of_q", "gl_exp_midpoint"])
def test_planar_series_tables_are_pinned(build, digest):
    assert _table_digest(build()) == digest


def test_errors_are_unchanged():
    gamma3 = exact_gamma(3)
    cherry_pair = Forest((parse_tree("[[]]"), parse_tree("[[]]")))
    with pytest.raises(CapacityError, match="truncated at order 3, asked for order 4"):
        gamma3(cherry_pair)
    with pytest.raises(CapacityError, match="truncated at order 3, asked for order 4"):
        convolve(gamma3, gamma3, 3)(cherry_pair)
    with pytest.raises(CapacityError, match="truncated at order 3, asked for order 4"):
        log_bck(gamma3, 3)(parse_tree("[[[[]]]]"))
    with pytest.raises(CapacityError, match="truncated at order 3, asked for order 4"):
        substitute_b(solve_modified(gamma3, "backward_error", 3), gamma3, 3)(parse_tree("[[][][]]"))
    with pytest.raises(DomainError, match=r"convolution to order 4 needs both maps at that order \(got 3 and 5\)"):
        convolve(gamma3, exact_gamma(5), 4)
    with pytest.raises(DomainError, match="defined for characters"):
        convolution_log(BCoeff.infinitesimal({}, 3), 3)
    with pytest.raises(DomainError, match=r"beta\(1\) must be 0"):
        convolution_exp(gamma3, 3)
    with pytest.raises(DomainError, match=r"alpha\(1\) must be 0"):
        substitute_b(gamma3, gamma3, 3)
    with pytest.raises(DomainError, match=r"substitution to order 4 needs both maps"):
        substitute_b(BCoeff.infinitesimal({}, 3), exact_gamma(5), 4)
    with pytest.raises(DomainError, match=r"consistent"):
        solve_modified(BCoeff.character({}, 3), "backward_error", 3)
    with pytest.raises(DomainError, match="unknown mode"):
        solve_modified(gamma3, "sideways", 3)


def _interned(x) -> bool:
    """Whether x is the object its class's intern table holds for it, and
    so are its trees, down to the leaves; a tensor, whether both sides
    are."""
    if isinstance(x, Tensor):
        return _interned(x.left) and _interned(x.right)
    if isinstance(x, BellWord):
        return BellWord._interned.get(x.word) is x
    if hasattr(x, "children"):
        key = x.children, x.color
        return type(x)._interned.get(key) is x and all(map(_interned, x.children))
    return type(x)._interned.get(x._members) is x and all(map(_interned, x._members))


def test_clearing_every_cache_is_safe():
    """A memo may be emptied at any time, an intern table never. With
    every cached function of the exact engine cleared, the coproducts and
    antipodes come out equal, over the same interned trees, words and
    Bell words as before."""
    caches = {
        id(f): f
        for module in (forest_core, hopf, bseries_hopf, lbseries)
        for f in vars(module).values()
        if hasattr(f, "cache_clear")
    }
    assert {bseries_hopf._cefm_parts, lbseries._delta_mkw, lbseries._fdb} <= set(caches.values())

    def compute():
        trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
        words = [w for n in range(7) for w in enumerate_forests(n, planar=True)]
        bells = [w for n in range(8) for w in bell_words(n)]
        sums = [f(t) for f in (delta_bck, delta_cefm, antipode_bck) for t in trees]
        sums += [f(w) for f in (delta_mkw, antipode_mkw) for w in words]
        sums += [fdb_coproduct(w) for w in bells]
        return trees + words + bells, sums

    basis, want = compute()
    for f in caches.values():
        f.cache_clear()
        assert f.cache_info().currsize == 0
    again, got = compute()
    assert all(x is y for x, y in zip(basis, again, strict=True))
    assert got == want
    assert all(_interned(x) for s in got for x, _ in s)


def test_the_cache_registry_reports_and_clears_every_memo():
    """``bflow.caches`` lists the cached functions of the four layers once
    each, reads their counts, and clears them without touching an intern
    table: a recomputation gives equal sums over the same objects."""
    from bflow import caches

    walked = {
        id(f)
        for module in (forest_core, hopf, bseries_hopf, lbseries)
        for f in vars(module).values()
        if hasattr(f, "cache_clear")
    }
    listed = caches._cached_functions()
    assert {id(f) for f in listed.values()} == walked and len(listed) == len(walked)
    assert listed["bflow.bseries_hopf._join"] is bseries_hopf._join
    assert listed["bflow.forest_core.tree_stats"] is forest_core.tree_stats

    def compute():
        trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
        words = [w for n in range(6) for w in enumerate_forests(n, planar=True)]
        sums = [f(t) for f in (delta_bck, delta_cefm, antipode_bck) for t in trees]
        sums += [f(w) for f in (delta_mkw, antipode_mkw) for w in words]
        log = log_bck(rk_character(builtin_tableau("rk4"), 7), 7)
        return trees + words, sums, [log(t) for t in trees]

    tables = (forest_core.RootedTree, Forest, forest_core.PlanarTree, PlanarForest, BellWord)
    basis, want, values = compute()
    sizes = [len(cls._interned) for cls in tables]
    before = caches.stats()
    assert set(before) == set(listed)
    assert all(set(s) == {"entries", "hits", "misses"} for s in before.values())
    trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
    assert before["bflow.bseries_hopf._cefm_parts"]["entries"] >= len(trees)
    assert before["bflow.bseries_hopf._join"]["hits"] > 0

    caches.clear()
    assert all(s == {"entries": 0, "hits": 0, "misses": 0} for s in caches.stats().values())
    assert [len(cls._interned) for cls in tables] == sizes
    again, got, values_again = compute()
    assert all(x is y for x, y in zip(basis, again, strict=True))
    assert got == want and values_again == values
    assert all(_interned(x) for s in got for x, _ in s)
    assert [len(cls._interned) for cls in tables] == sizes
    assert caches.stats()["bflow.bseries_hopf._join"]["misses"] > 0
