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
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bflow import bseries_hopf
from bflow.bseries_hopf import (
    BCoeff,
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
    parse_tree,
)
from bflow.hopf import convolution_exp, convolution_log, convolution_series, convolve, exact_sum
from bflow.lbseries import (
    EMPTY_WORD,
    LBCoeff,
    delta_mkw,
    eulerian_apply,
    exact_flow_lb,
    gl_exp,
    method_series,
    kappa,
    lb_substitute,
    q_apply,
)

from test_lbseries import astar_reference

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
