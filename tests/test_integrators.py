"""Tests for exact B-series evaluation, the brute-force Taylor oracle,
and the Lie group steppers.

The oracle side is verified against the algebraic layer (elementary
weights, composition via convolution, backward error), elementary
differentials against a hand-transcribed index-notation evaluator and a
sympy expansion of the derivative recursion, and
the steppers against classical reductions, conserved quantities, and
measured convergence slopes.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from scipy.linalg import expm

from bflow import bseries_hopf, integrators, steppers
from bflow.bseries_hopf import (
    BUILTIN_TABLEAUS,
    BCoeff,
    RKTableau,
    builtin_tableau,
    convolve_bck,
    elementary_weights,
    exact_gamma,
    order_of,
    order_report,
    rk_character,
    solve_modified,
    substitute_b,
)
from bflow.errors import ConvergenceError, DomainError
from bflow.forest_core import enumerate_trees, parse_tree, tree_stats
from bflow.integrators import (
    PolyVectorField,
    bell_frechet_word,
    composed_taylor_oracle,
    elementary_differential,
    eval_bseries,
    modified_field,
    rk_taylor_oracle,
)
from bflow.steppers import (
    GroupAction,
    LGProblem,
    _hat,
    _rodrigues,
    affine_element,
    convergence_order,
    dexpinv,
    integrate,
    lg_step,
    make_action,
    make_stepper,
    rigid_body_problem,
    rk_step,
    toda_problem,
)
from bflow.lbseries import BellWord
from bflow.poly import Poly

DOT = parse_tree("[]")
L2 = parse_tree("[[]]")
CHERRY = parse_tree("[[][]]")
L3 = parse_tree("[[[]]]")
BUSH4 = parse_tree("[[][][]]")
T4B = parse_tree("[[][[]]]")

EULER = builtin_tableau("euler")
EMID = builtin_tableau("explicit_midpoint")
IMID = builtin_tableau("implicit_midpoint")
RK4 = builtin_tableau("rk4")


def cubic_2d() -> PolyVectorField:
    """A generic dense cubic field on the plane, exact coefficients."""
    return PolyVectorField.from_strings(
        [
            "y0**3/2 - 2*y0*y1 + 3*y1**2 - y1 + 2",
            "y0**2*y1 - y1**3/3 + y0 - 5/7",
        ]
    )


def quadratic_1d() -> PolyVectorField:
    return PolyVectorField.from_strings(["y0**2"])


def parametric_2d() -> PolyVectorField:
    return PolyVectorField(["b*y0**2 + a*y1", "a*y0"], ["y0", "y1"], params=["b", "a"])


def _fraction(value) -> Fraction:
    r = sympy.Rational(value)
    return Fraction(int(r.p), int(r.q))


# ---------------------------------------------------------------------------
# Polynomial vector fields
# ---------------------------------------------------------------------------


class TestPolyVectorField:
    def test_from_strings_roundtrip(self):
        F = cubic_2d()
        assert F.n == 2
        assert [str(s) for s in F.syms] == ["y0", "y1"]

    def test_rejects_wrong_symbol_count(self):
        with pytest.raises(DomainError):
            PolyVectorField(["y0 + y1"], sympy.symbols("y0:2"))

    def test_rejects_stray_symbols(self):
        y0, z = sympy.symbols("y0 z")
        with pytest.raises(DomainError):
            PolyVectorField([y0 + z], (y0,))

    def test_rejects_non_polynomial(self):
        with pytest.raises(DomainError):
            PolyVectorField.from_strings(["sin(y0)"])

    def test_rejects_unparsable(self):
        with pytest.raises(DomainError):
            PolyVectorField.from_strings(["y0 +* 2"])

    def test_callable_matches_exact_evaluation(self):
        F = cubic_2d()
        fn = F.as_callable()
        y = [Fraction(1, 3), Fraction(-2, 5)]
        exact = elementary_differential(DOT, F, y)
        approx = fn(np.array([float(v) for v in y]))
        assert np.allclose(approx, [float(v) for v in exact], rtol=1e-14)

    @pytest.mark.parametrize(
        "texts, term",
        [(["1e400*y0"], "y0"), (["y1", "-3*10**500*y0**2*y1"], "y0**2*y1"), (["y0", "1e309"], "1")],
    )
    def test_coefficient_beyond_float_range_does_not_compile(self, texts, term):
        with pytest.raises(DomainError, match=f"coefficient of {re.escape(term)},.*float range"):
            PolyVectorField.from_strings(texts).as_callable()

    def test_parametric_field_does_not_compile(self):
        h = sympy.Symbol("h")
        y0 = sympy.Symbol("y0")
        F = PolyVectorField([h * y0], (y0,), params=(h,))
        with pytest.raises(DomainError):
            F.as_callable()


# ---------------------------------------------------------------------------
# Elementary differentials
# ---------------------------------------------------------------------------
#
# Two sympy oracles stand apart from the package's one route, which
# contracts derivative tensors at a point. The first transcribes the
# classical index expressions one tree at a time, with the contraction
# loops written out by hand. The second expands F(t) as a sympy
# polynomial by the derivative recursion, to be evaluated at a point
# afterwards.


def _partial(F: PolyVectorField, i: int, *idx: int):
    e = sympy.sympify(F.exprs[i])
    for j in idx:
        e = sympy.diff(e, sympy.Symbol(F.syms[j]))
    return e


def _index_formula(F: PolyVectorField, tree) -> list:
    n = F.n
    rng = range(n)
    f = lambda i: sympy.sympify(F.exprs[i])
    if tree == DOT:
        return [f(i) for i in rng]
    if tree == L2:
        return [sum(_partial(F, i, j) * f(j) for j in rng) for i in rng]
    if tree == CHERRY:
        return [
            sum(_partial(F, i, j, k) * f(j) * f(k) for j in rng for k in rng)
            for i in rng
        ]
    if tree == L3:
        return [
            sum(_partial(F, i, j) * _partial(F, j, k) * f(k) for j in rng for k in rng)
            for i in rng
        ]
    if tree == BUSH4:
        return [
            sum(
                _partial(F, i, j, k, l) * f(j) * f(k) * f(l)
                for j in rng
                for k in rng
                for l in rng
            )
            for i in rng
        ]
    if tree == T4B:
        return [
            sum(
                _partial(F, i, j, k) * f(j) * _partial(F, k, l) * f(l)
                for j in rng
                for k in rng
                for l in rng
            )
            for i in rng
        ]
    raise AssertionError(f"no hand formula for {tree}")


def _sympy_expansion(F: PolyVectorField, tree, memo: dict) -> list:
    """F(tree) as expanded sympy polynomials in the state symbols:
    F(B+(t1..tm))^i = sum over j1..jm of f^i_{j1..jm} F(t1)^{j1} ... F(tm)^{jm}."""
    if tree not in memo:
        children = [_sympy_expansion(F, c, memo) for c in tree.children]
        memo[tree] = [
            sympy.expand(
                sum(
                    _partial(F, i, *js) * sympy.Mul(*(ch[j] for ch, j in zip(children, js)))
                    for js in itertools.product(range(F.n), repeat=len(children))
                )
            )
            for i in range(F.n)
        ]
    return memo[tree]


class TestElementaryDifferential:
    @pytest.mark.parametrize("tree", [DOT, L2, CHERRY, L3, BUSH4, T4B])
    def test_matches_index_notation_on_cubic_field(self, tree):
        F = cubic_2d()
        got = elementary_differential(tree, F, F.syms)
        want = _index_formula(F, tree)
        for g, w in zip(got, want):
            assert sympy.expand(sympy.sympify(g) - w) == 0

    def test_single_vertex_is_the_field(self):
        F = cubic_2d()
        y = [Fraction(2), Fraction(-1, 2)]
        vals = elementary_differential(DOT, F, y)
        assert vals == [Fraction(37, 4), Fraction(-113, 168)]

    def test_ladder_on_linear_field_is_matrix_power(self):
        F = PolyVectorField.from_strings(["2*y0 + y1", "-y0 + 3*y1"])
        y = [Fraction(1), Fraction(1)]
        a = np.array([[2, 1], [-1, 3]], dtype=object)
        want = list(a @ a @ np.array([1, 1], dtype=object))
        assert elementary_differential(L2, F, y) == [Fraction(v) for v in want]

    def test_cherry_on_square_field(self):
        F = quadratic_1d()
        assert elementary_differential(CHERRY, F, [Fraction(1)]) == [Fraction(2)]

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            elementary_differential(DOT, quadratic_1d(), [1, 2])

    def test_symbolic_point_prints_in_the_fields_variable_order(self):
        # the field's names (state, then parameters) come before the point's
        F = parametric_2d()
        assert [str(v) for v in elementary_differential(DOT, F, ["z0", "z1"])] == [
            "b*z0**2 + a*z1",
            "a*z0",
        ]
        assert str(elementary_differential(L2, F, ["z1", "y0"])[1]) == "y0*a**2 + b*a*z1**2"

    @pytest.mark.parametrize(
        "field, points",
        [
            (quadratic_1d, ([Fraction(3, 7)], [Fraction(-5, 2)])),
            (cubic_2d, ([Fraction(1, 3), Fraction(-2, 5)], [Fraction(-7, 4), Fraction(3)])),
        ],
    )
    def test_point_values_equal_symbolic_substitution(self, field, points):
        """Contracting derivative tensors at y gives the sympy expansion
        of the differential with y substituted, exactly, on every tree of
        order at most 5."""
        F = field()
        memo: dict = {}
        for y in points:
            subs = {
                sympy.Symbol(s): sympy.Rational(v.numerator, v.denominator)
                for s, v in zip(F.syms, y)
            }
            for n in range(1, 6):
                for tree in enumerate_trees(n):
                    want = [_fraction(e.subs(subs)) for e in _sympy_expansion(F, tree, memo)]
                    assert elementary_differential(tree, F, y) == want, tree


# ---------------------------------------------------------------------------
# Series evaluation and modified fields
# ---------------------------------------------------------------------------


class TestEvalBseries:
    def test_unit_only_series_is_identity(self):
        alpha = BCoeff.character(lambda t: Fraction(0), 3)
        F = cubic_2d()
        y = [Fraction(1, 7), Fraction(3)]
        assert eval_bseries(alpha, F, y, Fraction(1, 2), 3) == y

    def test_exponential_partial_sum(self):
        F = PolyVectorField.from_strings(["y0"])
        out = eval_bseries(exact_gamma(5), F, [Fraction(1)], Fraction(1), 5)
        assert out == [Fraction(163, 60)]

    def test_euler_character_is_one_field_step(self):
        alpha = rk_character(EULER, 4)
        F = cubic_2d()
        y = [Fraction(1, 2), Fraction(-1, 3)]
        h = Fraction(1, 10)
        fy = elementary_differential(DOT, F, y)
        want = [a + h * b for a, b in zip(y, fy)]
        assert eval_bseries(alpha, F, y, h, 4) == want

    def test_truncation_guard(self):
        with pytest.raises(DomainError):
            eval_bseries(exact_gamma(3), quadratic_1d(), [Fraction(1)], Fraction(1), 4)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            eval_bseries(exact_gamma(3), cubic_2d(), [Fraction(1)], Fraction(1), 3)

    def test_rational_point_skips_symbolic_expansion(self, monkeypatch):
        """A rational point and h on a parameter-free field stay in
        Fractions: no polynomial is multiplied, and the value is the
        symbolic-h result with h substituted."""
        F = cubic_2d()
        y = [Fraction(1, 2), Fraction(-1, 3)]
        h = sympy.Symbol("h")
        symbolic = eval_bseries(exact_gamma(5), F, y, h, 5)

        def refuse(*args):
            raise AssertionError("rational evaluation multiplied a polynomial")

        for name in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(Poly, name, refuse)
        point = eval_bseries(exact_gamma(5), F, y, Fraction(1, 10), 5)
        monkeypatch.undo()
        assert point == [
            _fraction(sympy.sympify(v).subs(h, sympy.Rational(1, 10))) for v in symbolic
        ]


class TestModifiedField:
    def test_needs_an_infinitesimal(self):
        with pytest.raises(DomainError):
            modified_field(rk_character(EULER, 3), quadratic_1d(), Fraction(1, 10), 3)

    def test_substitution_law_as_series_in_h(self):
        """Substituting coefficients then evaluating agrees with evaluating
        through the modified field, order by order in a symbolic h; on the
        parametric field, identically in its parameters."""
        h = sympy.Symbol("h")
        N = 4
        beta = solve_modified(rk_character(EULER, N), "backward_error", N)
        gamma = exact_gamma(N)
        cases = [
            (quadratic_1d(), [Fraction(1, 2)]),
            (cubic_2d(), [Fraction(1, 2), Fraction(-1, 3)]),
            (parametric_2d(), [Fraction(2, 3), Fraction(-3, 4)]),
        ]
        for F, y in cases:
            lhs = eval_bseries(substitute_b(beta, gamma, N), F, y, h, N)
            Fmod = modified_field(beta, F, h, N)
            rhs = eval_bseries(gamma, Fmod, y, h, N)
            for a, b in zip(lhs, rhs):
                diff = sympy.expand(sympy.sympify(a) - sympy.sympify(b))
                for k in range(N + 1):
                    assert diff.coeff(h, k) == 0, (F.exprs, k)

    def test_parameters_keep_declaration_order(self):
        """The field's own parameters come first, in the order declared,
        then those of h; the same under any hash seed."""
        probe = (
            "from bflow.bseries_hopf import builtin_tableau, rk_character, solve_modified\n"
            "from bflow.integrators import PolyVectorField, modified_field\n"
            "beta = solve_modified(rk_character(builtin_tableau('euler'), 3), 'backward_error', 3)\n"
            "F = PolyVectorField(['b*y0**2 + a*y1', 'a*y0'], ['y0', 'y1'], params=['b', 'a'])\n"
            "G = modified_field(beta, F, 'h', 3)\n"
            "print(G.params)\n"
            "print(G.exprs)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(integrators.__file__)))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                env=dict(env, PYTHONHASHSEED=seed),
            ).stdout
            for seed in ("0", "1", "2")
        ]
        assert outputs[0].splitlines()[0] == "('b', 'a', 'h')"
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_a_field_contracts_its_differentials_once(self, monkeypatch):
        """The differentials at the state variables depend on neither h nor
        beta, so repeated modified fields of one field contract them once;
        every result prints as the one built from a fresh copy."""
        calls = []
        contract = integrators._differentials

        def counting(field, y):
            calls.append(field)
            return contract(field, y)

        monkeypatch.setattr(integrators, "_differentials", counting)
        betas = [
            solve_modified(rk_character(builtin_tableau(name), 4), "backward_error", 4)
            for name in ("euler", "rk4", "implicit_midpoint")
        ]
        for make in (cubic_2d, parametric_2d):
            F = make()
            for beta in betas:
                for h in (Fraction(1, 10), "h"):
                    got = modified_field(beta, F, h, 4)
                    want = modified_field(beta, make(), h, 4)
                    assert [str(e) for e in got.exprs] == [str(e) for e in want.exprs]
                    assert got.params == want.params and got.syms == want.syms
            assert calls.count(F) == 1

    def test_backward_error_defect_shrinks_like_h5(self):
        beta = solve_modified(rk_character(EULER, 4), "backward_error", 4)
        F = quadratic_1d()
        defects = []
        for h in (Fraction(1, 10), Fraction(1, 20)):
            Fmod = modified_field(beta, F, h, 4)
            flow = eval_bseries(exact_gamma(8), Fmod, [Fraction(1)], h, 8)[0]
            defects.append(abs(flow - (1 + h)))
        assert defects[0] / defects[1] >= 28


# ---------------------------------------------------------------------------
# The Taylor oracle
# ---------------------------------------------------------------------------


class TestTaylorOracle:
    @pytest.mark.parametrize("name", ["euler", "explicit_midpoint", "implicit_midpoint", "rk4"])
    def test_matches_elementary_weights(self, name):
        tab = builtin_tableau(name)
        oracle = rk_taylor_oracle(tab, 4)
        for n in range(1, 5):
            for tree in enumerate_trees(n):
                assert oracle.tree_value(tree) == elementary_weights(tab, tree), (
                    name,
                    tree,
                )

    def test_euler_supports_only_the_single_vertex(self):
        oracle = rk_taylor_oracle(EULER, 4)
        assert oracle.tree_value(DOT) == 1
        for n in range(2, 5):
            assert all(oracle.tree_value(t) == 0 for t in enumerate_trees(n))

    def test_explicit_midpoint_ladder_weight(self):
        assert rk_taylor_oracle(EMID, 2).tree_value(L2) == Fraction(1, 2)

    def test_rk4_is_exact_through_order_four(self):
        oracle = rk_taylor_oracle(RK4, 4)
        gamma = exact_gamma(4)
        for n in range(1, 5):
            for tree in enumerate_trees(n):
                assert oracle.tree_value(tree) == gamma.tree_value(tree)

    def test_rk4_fails_at_order_five(self):
        oracle = rk_taylor_oracle(RK4, 5)
        gamma = exact_gamma(5)
        bad = [t for t in enumerate_trees(5) if oracle.tree_value(t) != gamma.tree_value(t)]
        assert bad
        order, witness = order_report(oracle, 5)
        assert order == 4
        assert witness is not None and witness.order == 5

    def test_oracle_cap(self):
        with pytest.raises(DomainError):
            rk_taylor_oracle(RK4, 6)

    @pytest.mark.parametrize(
        "first,second",
        [(EULER, EULER), (EULER, EMID), (IMID, EULER)],
    )
    def test_composition_matches_convolution(self, first, second):
        composed = composed_taylor_oracle(first, second, 4)
        expected = convolve_bck(rk_character(first, 4), rk_character(second, 4), 4)
        for n in range(1, 5):
            for tree in enumerate_trees(n):
                assert composed.tree_value(tree) == expected.tree_value(tree)


# ---------------------------------------------------------------------------
# Classical stepping
# ---------------------------------------------------------------------------


class TestRkStep:
    def test_euler_linear(self):
        out = rk_step(EULER, lambda y: y, np.array([1.0]), 0.5)
        assert out[0] == pytest.approx(1.5, abs=1e-15)

    def test_implicit_midpoint_closed_form(self):
        out = rk_step(IMID, lambda y: -y, np.array([1.0]), 1.0)
        assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_explicit_midpoint_two_stage_sweep(self):
        out = rk_step(EMID, lambda y: y, np.array([1.0]), 1.0)
        assert out[0] == pytest.approx(2.5, abs=1e-15)

    @pytest.mark.parametrize("tab, calls", [(EULER, 1), (EMID, 2), (RK4, 4)])
    def test_explicit_step_calls_f_once_per_stage(self, tab, calls):
        seen = []

        def f(y):
            seen.append(y.copy())
            return -y

        rk_step(tab, f, np.array([1.0]), 0.1)
        assert len(seen) == calls

    def test_implicit_step_evaluates_the_start_once(self):
        # A two-stage DIRK: the stage guess f(y) is one call, then each
        # sweep calls f once per stage, never at y itself.
        dirk = RKTableau(
            [[Fraction(1, 4), 0], [Fraction(1, 2), Fraction(1, 4)]], [Fraction(1, 2)] * 2
        )
        seen = []

        def f(y):
            seen.append(float(y[0]))
            return -y

        rk_step(dirk, f, np.array([1.0]), 0.1)
        assert seen.count(1.0) == 1
        assert len(seen) > 1 and (len(seen) - 1) % 2 == 0

    def test_accepts_polynomial_fields(self):
        F = quadratic_1d()
        out = rk_step(EULER, F, np.array([2.0]), 0.25)
        assert out[0] == pytest.approx(3.0, abs=1e-15)

    def test_divergent_fixed_point_reports_residual(self):
        with pytest.raises(DomainError, match="residual"):
            rk_step(IMID, lambda y: -100.0 * y, np.array([1.0]), 1.0)

    def test_stages_leaving_the_floats_do_not_converge(self):
        # y*y overflows: the stages go to inf and their differences to nan,
        # which must not pass for a converged shift. The Lie group solvers
        # start from zero, so they meet the nan through y0^2 - y1^2 = inf - inf
        # on the 2-D field; on the 1-D one their first sweep is inf, against
        # a scale of inf, which must not pass either.
        def field(y):
            return np.array([y[0] * y[0] - y[1] * y[1], y[0] * y[1]])

        blowup = LGProblem(make_action("translation", 2), lambda t, y: field(y), [1e200, 1e200])
        square = LGProblem(make_action("translation", 1), lambda t, y: y * y, [1e200])
        solves = [
            ("implicit stage iteration", lambda: rk_step(IMID, lambda y: y * y, [1e200], 1.0)),
            ("lie_midpoint", lambda: lg_step("lie_midpoint", blowup, 0.0, blowup.y0, 1.0)),
            ("rkmk stages", lambda: lg_step("rkmk", blowup, 0.0, blowup.y0, 1.0, m=1, tableau=IMID)),
            ("lie_midpoint", lambda: lg_step("lie_midpoint", square, 0.0, square.y0, 1.0)),
            ("rkmk stages", lambda: lg_step("rkmk", square, 0.0, square.y0, 1.0, m=1, tableau=IMID)),
        ]
        for label, solve in solves:
            with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc:
                solve()
            assert label in str(exc.value)
            assert np.isnan(exc.value.residual)

    def test_stages_leaving_the_floats_stop_at_the_first_nan_shift(self):
        # y*y from 1e200: the stages are inf after one call of f and inf - inf
        # is nan after the next, so each solve raises after two calls, not
        # after its 100 sweeps
        calls = []

        def square(y):
            calls.append(1)
            return y * y

        problem = LGProblem(make_action("translation", 1), lambda t, y: square(y), [1e200])
        solves = {
            "implicit stage iteration": lambda: rk_step(IMID, square, [1e200], 1.0),
            "lie_midpoint": lambda: lg_step("lie_midpoint", problem, 0.0, problem.y0, 1.0),
            "rkmk stages": lambda: lg_step("rkmk", problem, 0.0, problem.y0, 1.0, m=1, tableau=IMID),
        }
        for label, solve in solves.items():
            calls.clear()
            with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc:
                solve()
            assert str(exc.value) == f"{label}: fixed point stalled (residual nan)"
            assert np.isnan(exc.value.residual)
            assert len(calls) == 2, label


def _stiff_decay() -> LGProblem:
    # y' = -100 y at h = 1: every stage fixed point below diverges
    return LGProblem(make_action("translation", 1), lambda t, y: -100.0 * y, np.array([1.0]))


STALLING_SOLVES = {
    "rk_step": lambda: rk_step(IMID, lambda y: -100.0 * y, np.array([1.0]), 1.0),
    "lie_midpoint": lambda: lg_step("lie_midpoint", _stiff_decay(), 0.0, np.array([1.0]), 1.0),
    "rkmk": lambda: lg_step("rkmk", _stiff_decay(), 0.0, np.array([1.0]), 1.0, m=1, tableau=IMID),
}


@pytest.mark.parametrize("solve", STALLING_SOLVES.values(), ids=STALLING_SOLVES.keys())
def test_stalled_fixed_point_raises_convergence_error(solve):
    with pytest.raises(ConvergenceError) as exc:
        solve()
    assert exc.value.residual is not None
    assert exc.value.residual > 1e-14


def _sup_cases():
    rng = np.random.default_rng(41)
    yield from (np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0, 3)), np.array([-0.0]))
    yield from (np.full((3, 3), -0.0), np.array([np.inf]), np.array([-np.inf, 2.0]))
    yield from (np.array([np.inf, -np.inf]), np.array([-np.inf, np.inf, 1.0]))
    for shape in ((1,), (2,), (3,), (3, 3), (2, 3, 3)):
        for _ in range(5):
            yield rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300)
        for fill in (1e3, -1e3, np.inf, -np.inf):
            base = rng.normal(size=shape)
            base.flat[0] = fill  # a nan behind it is one Python's max drops
            for k in range(base.size):
                for nan in (np.nan, -np.nan):
                    x = base.copy()
                    x.flat[k] = nan
                    yield x


def _seeded_partner(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An array of x's shape: finite entries over 600 decades, some entries
    copied from x (a zero shift, or inf - inf) and some +-inf, nan or -0.0."""
    old = rng.normal(size=x.shape) * 10.0 ** rng.integers(-300, 300)
    for k in range(old.size):
        pick = rng.integers(8)
        if pick < 2:
            old.flat[k] = x.flat[k]
        elif pick < 6:
            old.flat[k] = (np.inf, -np.inf, np.nan, -0.0)[pick - 2]
    return old


def test_residual_is_the_numpy_sup_norm():
    # same bits, the sign of a zero included; every nan reads nan, and a
    # nan in new makes the scale max(1.0, nan) = 1.0
    rng = np.random.default_rng(59)
    pairs = [
        # shapes that broadcast; the last two have the same size, and the
        # last broadcasts to 3x3
        (np.array([2.0]), np.array([1.0, -3.0])),
        (np.float64(-1.5), np.array([0.5, 2.0, -4.0])),
        (np.arange(3.0).reshape(3, 1), np.array([0.5, -1.0, 4.0])),
    ]
    for x in _sup_cases():
        partner = _seeded_partner(x, rng)
        pairs.extend(((x, np.zeros_like(x)), (x, partner), (partner, x)))
    for new, old in pairs:
        with np.errstate(invalid="ignore"):
            got = steppers._residual(new, old)
            shift = float(np.abs(new - old).max(initial=0.0))
        want = (shift, max(1.0, float(np.abs(new).max(initial=0.0))))
        assert repr(got) == repr(want), (new, old)


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


def _action_samples(action: GroupAction, rng: np.random.Generator):
    """A state and an algebra element of the right shapes."""
    if action.kind == "rotation_s2":
        return rng.normal(size=3), rng.normal(size=3)
    if action.kind == "isospectral":
        y = rng.normal(size=(action.n, action.n))
        v = rng.normal(size=(action.n, action.n))
        return y + y.T, v - v.T
    if action.kind == "affine":
        v = rng.normal(size=(action.n, action.n))
        b = rng.normal(size=action.n)
        return rng.normal(size=action.n), affine_element(v, b)
    if action.kind == "translation":
        return rng.normal(size=action.n), rng.normal(size=action.n)
    raise AssertionError(action.kind)


ACTIONS = [
    make_action("rotation_s2", 3),
    make_action("isospectral", 3),
    make_action("affine", 2),
    make_action("translation", 3),
]


class TestGroupActions:
    @pytest.mark.parametrize("action", ACTIONS, ids=lambda a: a.kind)
    def test_identity_at_zero(self, action):
        rng = np.random.default_rng(7)
        y, _ = _action_samples(action, rng)
        assert np.allclose(action.act(action.exp(action.zero()), y), y, atol=1e-14)

    @pytest.mark.parametrize("action", ACTIONS, ids=lambda a: a.kind)
    def test_inf_act_is_the_derivative_of_the_action(self, action):
        rng = np.random.default_rng(11)
        for _ in range(5):
            y, v = _action_samples(action, rng)
            eps = 1e-6
            plus = action.act(action.exp(eps * v), y)
            minus = action.act(action.exp(-eps * v), y)
            numeric = (plus - minus) / (2 * eps)
            assert np.allclose(numeric, action.inf_act(v, y), atol=1e-6)

    @pytest.mark.parametrize("action", ACTIONS, ids=lambda a: a.kind)
    def test_bracket_is_antisymmetric(self, action):
        rng = np.random.default_rng(13)
        _, u = _action_samples(action, rng)
        _, v = _action_samples(action, rng)
        assert np.allclose(action.bracket(u, v), -action.bracket(v, u), atol=1e-12)

    def test_rotation_alias_and_orthogonality(self):
        action = make_action("rotation", 3)
        assert action.kind == "rotation_s2"
        rng = np.random.default_rng(3)
        y, v = _action_samples(action, rng)
        moved = action.act(action.exp(v), y)
        assert np.linalg.norm(moved) == pytest.approx(np.linalg.norm(y), abs=1e-13)

    def test_isospectral_conjugation_preserves_spectrum(self):
        action = make_action("isospectral", 3)
        rng = np.random.default_rng(5)
        y, v = _action_samples(action, rng)
        moved = action.act(action.exp(v), y)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(moved)), np.sort(np.linalg.eigvalsh(y)), atol=1e-12
        )

    def test_affine_embedding_shape(self):
        x = affine_element([[1.0, 2.0], [3.0, 4.0]], [5.0, 6.0])
        assert x.shape == (3, 3)
        assert np.allclose(x[2], [0.0, 0.0, 0.0])
        assert np.allclose(x[:2, 2], [5.0, 6.0])

    def test_translation_is_flat(self):
        action = make_action("translation", 4)
        v = np.arange(4.0)
        assert np.allclose(action.exp(v), v)
        assert np.allclose(action.bracket(v, v + 1), np.zeros(4))

    @pytest.mark.parametrize(
        "kind,n",
        [("rotation_s2", 2), ("isospectral", 1), ("affine", 0), ("translation", 0), ("nope", 3)],
    )
    def test_rejects_bad_requests(self, kind, n):
        with pytest.raises(DomainError):
            make_action(kind, n)


class TestSo3Kernels:
    """The closed-form so(3) exponentials against scipy's expm."""

    # 9e-4 is the largest angle the series branch (t < 1e-3) takes
    @pytest.mark.parametrize("theta", [0.0, 1e-9, 1e-5, 9e-4, 1e-3, 1.0, np.pi, 3.0])
    def test_rodrigues_equals_expm(self, theta):
        rng = np.random.default_rng(31)
        for _ in range(5):
            axis = rng.normal(size=3)
            v = theta * axis / np.linalg.norm(axis)
            assert np.max(np.abs(_rodrigues(v) - expm(_hat(v)))) <= 1e-14

    def test_isospectral_3x3_exp_equals_expm_on_skew_inputs(self):
        exp = make_action("isospectral", 3).exp
        rng = np.random.default_rng(37)
        # rotation angles up to 3, where expm itself is good to about 3e-15
        for theta in (0.0, 1e-9, 1e-4, 0.1, 1.0, 3.0):
            for _ in range(5):
                w = rng.normal(size=(3, 3))
                V = w - w.T
                V *= theta / np.linalg.norm([V[2, 1], V[0, 2], V[1, 0]])
                assert np.max(np.abs(exp(V) - expm(V))) <= 1e-14


class TestDexpinv:
    def test_first_three_truncations(self):
        rng = np.random.default_rng(17)
        u = rng.normal(size=(3, 3))
        k = rng.normal(size=(3, 3))
        br = lambda a, b: a @ b - b @ a
        assert np.allclose(dexpinv(u, k, 1), k)
        assert np.allclose(dexpinv(u, k, 2), k - br(u, k) / 2)
        assert np.allclose(dexpinv(u, k, 3), k - br(u, k) / 2 + br(u, br(u, k)) / 12)

    def test_vanishing_bernoulli_term(self):
        rng = np.random.default_rng(19)
        u = rng.normal(size=(3, 3))
        k = rng.normal(size=(3, 3))
        assert np.allclose(dexpinv(u, k, 4), dexpinv(u, k, 3))

    def test_vector_bracket(self):
        u = np.array([0.3, -0.2, 0.5])
        k = np.array([1.0, 0.4, -0.7])
        got = dexpinv(u, k, 2, bracket=np.cross)
        assert np.allclose(got, k - np.cross(u, k) / 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mutating_the_result_leaves_k_unchanged(self, m):
        rng = np.random.default_rng(47)
        vector = make_action("rotation_s2", 3).bracket
        for shape, bracket in (((3, 3), None), ((3,), vector)):
            u, k = rng.normal(size=shape), rng.normal(size=shape)
            before = k.copy()
            out = dexpinv(u, k, m, bracket)
            out += 1.0
            assert np.array_equal(k, before)

    def test_truncation_bounds(self):
        z = np.zeros((2, 2))
        with pytest.raises(DomainError):
            dexpinv(z, z, 0)
        with pytest.raises(DomainError):
            dexpinv(z, z, 11)


# ---------------------------------------------------------------------------
# Lie group steppers
# ---------------------------------------------------------------------------


class TestLgStepBasics:
    def test_lie_euler_constant_field_is_one_rotation(self):
        action = make_action("rotation_s2", 3)
        v = np.array([0.2, -0.4, 0.1])
        p = LGProblem(action, lambda t, y: v, np.array([1.0, 0.0, 0.0]))
        y1 = lg_step("lie_euler", p, 0.0, p.y0, 0.3)
        assert np.allclose(y1, action.act(action.exp(0.3 * v), p.y0), atol=1e-15)
        assert abs(np.linalg.norm(y1) - 1.0) <= 1e-14

    def test_unknown_method(self):
        p = rigid_body_problem()
        with pytest.raises(DomainError):
            lg_step("leapfrog", p, 0.0, p.y0, 0.1)

    def test_rejects_nonpositive_step(self):
        p = rigid_body_problem()
        with pytest.raises(DomainError):
            lg_step("lie_euler", p, 0.0, p.y0, 0.0)

    @pytest.mark.parametrize(
        "h,message",
        [
            (-math.inf, "step size must be positive"),
            (math.nan, "step size must be finite, got nan"),
            (math.inf, "step size must be finite, got inf"),
        ],
        ids=["minus_inf", "nan", "inf"],
    )
    def test_every_float_entry_refuses_a_step_size_off_the_positive_floats(self, h, message):
        p = rigid_body_problem()
        for call in (
            lambda: lg_step("lie_euler", p, 0.0, p.y0, h),
            lambda: integrate("lie_euler", p, h, 2),
            lambda: convergence_order("lie_euler", p, 1.0, [0.1, h, 0.025]),
        ):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()

    @pytest.mark.parametrize(
        "t_end,message",
        [
            (0.0, "t_end must be positive"),
            (-1.0, "t_end must be positive"),
            (math.nan, "t_end must be finite, got nan"),
            (math.inf, "t_end must be finite, got inf"),
        ],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_convergence_order_refuses_an_end_time_off_the_positive_floats(self, t_end, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            convergence_order("lie_euler", rigid_body_problem(), t_end, [0.1, 0.05, 0.025])

    def test_convergence_order_refuses_a_step_too_small_to_count(self):
        # t_end / 5e-324 is inf, which no whole number of steps equals
        with pytest.raises(DomainError, match="^t_end is not a whole number of steps of 5e-324$"):
            convergence_order("lie_euler", rigid_body_problem(), 1.0, [5e-324, 0.05, 0.025])

    def test_rkmk_needs_a_tableau(self):
        p = rigid_body_problem()
        with pytest.raises(DomainError):
            lg_step("rkmk", p, 0.0, p.y0, 0.1)

    def test_rkmk_default_truncation_matches_explicit_m(self):
        p = rigid_body_problem()
        by_name = lg_step("rkmk:rk4", p, 0.0, p.y0, 0.2)
        by_parts = lg_step("rkmk", p, 0.0, p.y0, 0.2, m=3, tableau=RK4)
        assert np.array_equal(by_name, by_parts)

    def test_rkmk_resolves_its_truncation_once_per_run(self, monkeypatch):
        # A builtin tableau carries its classical order; a tableau without
        # one has its order found once per run, not once per step.
        calls = []

        def counting(*args):
            calls.append(args)
            return rk_character(*args)

        # make_stepper imports the name from bseries_hopf when it resolves rkmk
        monkeypatch.setattr(bseries_hopf, "rk_character", counting)
        p = rigid_body_problem()
        integrate("rkmk:rk4", p, 0.01, 50)
        assert not calls
        user = RKTableau(RK4.a, RK4.b, name="user rk4")
        assert user.order is None
        want = integrate("rkmk:rk4", p, 0.01, 50)[-1]
        assert np.array_equal(integrate("rkmk", p, 0.01, 50, tableau=user)[-1], want)
        assert len(calls) == 1
        calls.clear()
        convergence_order("rkmk", p, 1.0, [0.2, 0.1, 0.05], tableau=user)
        assert len(calls) == 1

    def test_builtin_orders_are_the_order_conditions(self):
        for tab in BUILTIN_TABLEAUS.values():
            assert tab.order == order_of(rk_character(tab, 5), 5), tab.name
        assert [BUILTIN_TABLEAUS[name].order for name in sorted(BUILTIN_TABLEAUS)] == [1, 2, 2, 4]

    def test_rkmk_builds_without_the_hopf_layer(self):
        probe = (
            "import sys\n"
            "from bflow.steppers import integrate, rigid_body_problem\n"
            "integrate('rkmk:rk4', rigid_body_problem(), 0.1, 2)\n"
            "print(*sorted(m for m in sys.modules if m.startswith('bflow.')))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(integrators.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        loaded = done.stdout.split()
        assert "bflow.tableaus" in loaded
        assert not {"bflow.bseries_hopf", "bflow.hopf"} & set(loaded), loaded

    def test_stepper_is_the_one_step_map_of_lg_step(self):
        p = rigid_body_problem()
        step = make_stepper("cf4", p.action)
        assert np.array_equal(step(p.f, 0.1, p.y0, 0.2), lg_step("cf4", p, 0.1, p.y0, 0.2))

    def test_integrate_returns_initial_state_first(self):
        p = rigid_body_problem()
        traj = integrate("lie_euler", p, 0.05, 10)
        assert len(traj) == 11
        assert np.array_equal(traj[0], p.y0)
        with pytest.raises(DomainError):
            integrate("lie_euler", p, 0.05, 0)


class TestTranslationReduction:
    """On the translation action every stepper collapses to its classical
    counterpart, exp being the identity and the bracket zero."""

    PAIRS = [
        ("lie_euler", EULER),
        ("lie_midpoint", IMID),
        ("lie_rk4", RK4),
        ("cf4", RK4),
        ("rkmk:rk4", RK4),
        ("rkmk:explicit_midpoint", EMID),
    ]

    @pytest.mark.parametrize("method,tableau", PAIRS, ids=[m for m, _ in PAIRS])
    def test_matches_classical_step(self, method, tableau):
        action = make_action("translation", 3)
        F = PolyVectorField.from_strings(
            ["y1*y2 - y0", "y0**2 + 2*y1", "y2 - y0*y1 + 1"]
        )
        fn = F.as_callable()
        p = LGProblem(action, lambda t, y: fn(y), np.zeros(3))
        rng = np.random.default_rng(23)
        for _ in range(100):
            y = rng.normal(size=3)
            h = float(rng.uniform(0.01, 0.3))
            tab = tableau
            kwargs = {}
            if method.startswith("rkmk:"):
                kwargs["m"] = 1
            got = lg_step(method, LGProblem(action, lambda t, z: fn(z), y), 0.0, y, h, **kwargs)
            want = rk_step(tab, fn, y, h)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-13), method

    def test_affine_with_zero_matrix_part_reduces_too(self):
        action = make_action("affine", 3)
        F = PolyVectorField.from_strings(["y1 - y0**2", "y0*y2", "1 - y1"])
        fn = F.as_callable()

        def f(t, y):
            return affine_element(np.zeros((3, 3)), fn(y))

        y = np.array([0.4, -0.2, 0.9])
        got = lg_step("lie_rk4", LGProblem(action, f, y), 0.0, y, 0.17)
        want = rk_step(RK4, fn, y, 0.17)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


class TestConservation:
    def test_rotation_methods_preserve_the_norm(self):
        p = rigid_body_problem()
        for method in ("lie_euler", "lie_midpoint", "lie_rk4", "cf4", "rkmk:rk4"):
            traj = integrate(method, p, 0.01, 1000)
            drift = max(abs(np.linalg.norm(y) - 1.0) for y in traj)
            assert drift <= 1e-12, (method, drift)

    def test_isospectral_methods_preserve_eigenvalues(self):
        p = toda_problem()
        target = np.sort(np.linalg.eigvalsh(p.y0))
        for method in ("lie_euler", "lie_rk4"):
            traj = integrate(method, p, 0.01, 1000)
            drift = max(
                float(np.max(np.abs(np.sort(np.linalg.eigvalsh(y)) - target)))
                for y in traj
            )
            assert drift <= 1e-10, (method, drift)


def _reference_routes() -> dict:
    """The stock problems through np.cross, scipy's expm and the triangle
    slices, the routes the closed-form kernels replace."""
    rb, toda = rigid_body_problem(), toda_problem()
    rotation = GroupAction(
        "rotation_s2", 3, 3,
        bracket=np.cross,
        exp=lambda v: expm(_hat(v)),
        act=lambda g, y: g @ y,
        inf_act=np.cross,
        zero=np.zeros(3),
    )
    conjugation = GroupAction(
        "isospectral", 3, 3,
        bracket=lambda u, v: u @ v - v @ u,
        exp=expm,
        act=lambda g, y: g @ y @ g.T,
        inf_act=lambda v, y: v @ y - y @ v,
        zero=np.zeros((3, 3)),
    )
    return {
        "rigid_body": (rb, LGProblem(rotation, rb.f, rb.y0)),
        "toda": (
            toda,
            LGProblem(conjugation, lambda t, y: np.triu(y, 1) - np.tril(y, -1), toda.y0),
        ),
    }


@pytest.mark.parametrize("name", ["rigid_body", "toda"])
def test_trajectories_match_the_reference_routes(name):
    problem, reference = _reference_routes()[name]
    for method in ("lie_euler", "lie_midpoint", "lie_rk4", "cf4", "rkmk:rk4"):
        got = np.array(integrate(method, problem, 0.01, 1000))
        want = np.array(integrate(method, reference, 0.01, 1000))
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert rel <= 1e-13, (method, rel)


# The float kernels in their numpy-heavy form, kept verbatim as the
# reference for the scalar rewrite. Both call the same BLAS for the matrix
# products, so the trajectories must agree bit for bit on any machine.


def _rodrigues_reference(v) -> np.ndarray:
    x, y, z = map(float, v)
    t2 = x * x + y * y + z * z
    theta = math.sqrt(t2)
    if theta < 1e-3:
        a = 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0)
        half = 1.0 - t2 / 24.0 * (1.0 - t2 / 80.0)
    else:
        a = math.sin(theta) / theta
        half = math.sin(0.5 * theta) / (0.5 * theta)
    b = 0.5 * half * half
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return np.array(
        [
            [1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y],
            [bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x],
            [bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y)],
        ]
    )


def _so3_exp_reference(V) -> np.ndarray:
    (_, v01, v02), (v10, _, v12), (v20, v21, _) = np.asarray(V, dtype=float).tolist()
    return _rodrigues_reference((0.5 * (v21 - v12), 0.5 * (v02 - v20), 0.5 * (v10 - v01)))


def _cross_reference(u, v) -> np.ndarray:
    u0, u1, u2 = map(float, u)
    v0, v1, v2 = map(float, v)
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def _masked_toda_field(n: int):
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    lower = upper.T

    def f(t, y):
        return np.where(upper, y, 0.0) - np.where(lower, y, 0.0)

    return f


_BERNOULLI = tuple(Fraction(b) for b in (1, "-1/2", "1/6", 0, "-1/30", 0, "1/42", 0, "-1/30", 0))


def _dexpinv_reference(U, K, m: int, bracket=None):
    if m < 1:
        raise DomainError("dexpinv needs at least one term")
    if m > len(_BERNOULLI):
        raise DomainError(f"dexpinv truncation capped at {len(_BERNOULLI)} terms")
    if bracket is None:
        bracket = lambda u, v: u @ v - v @ u
    U = np.asarray(U, dtype=float)
    term = np.asarray(K, dtype=float)
    acc = term.copy()
    fact = 1
    for k in range(1, m):
        fact *= k
        term = bracket(U, term)
        coeff = _BERNOULLI[k]
        if coeff:
            acc = acc + (float(coeff) / fact) * term
    return acc


def _fixed_point_reference(update, start, tol: float, label: str):
    value = start
    for _ in range(100):
        new = update(value)
        shift = float(np.abs(new - value).max(initial=0.0))
        scale = max(1.0, float(np.abs(new).max(initial=0.0)))
        value = new
        if shift <= tol * scale:
            return value
    raise ConvergenceError(f"{label}: fixed point stalled", shift)


def test_dexpinv_matches_the_fraction_weights_bit_for_bit():
    # large U, so that the last terms of a long truncation reach the result
    rng = np.random.default_rng(53)
    vector = make_action("rotation_s2", 3).bracket
    for m in range(1, 11):
        for shape, bracket in (((3, 3), None), ((3,), vector)):
            for scale in (0.1, 1.0, 3.0):
                u, k = scale * rng.normal(size=shape), rng.normal(size=shape)
                assert np.array_equal(dexpinv(u, k, m, bracket), _dexpinv_reference(u, k, m, bracket))


def _kernel_vectors(rng) -> list[np.ndarray]:
    """3-vectors for the so(3) kernels: the zero vector and its signed
    forms, |v| spread from 1e-9 to 10 with some entries -0.0, and |v| a
    few ulps either side of the Rodrigues branch point 1e-3."""
    out = [np.zeros(3), np.array([-0.0, 0.0, -0.0]), np.array([-0.0, -0.0, -0.0])]
    for _ in range(400):
        v = rng.normal(size=3)
        v *= 10.0 ** rng.uniform(-9, 1) / np.linalg.norm(v)
        v[rng.random(3) < 0.2] = -0.0
        out.append(v)
    below = above = 1e-3
    for _ in range(8):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
        unit = rng.normal(size=3)
        unit[rng.integers(3)] = -0.0
        unit /= np.linalg.norm(unit)
        out.extend(theta * unit for theta in (below, 1e-3, above))
    return out


def _theta(v) -> float:
    # |v| as the Rodrigues kernel computes it
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


def test_the_so3_kernels_and_the_toda_field_match_their_references_byte_for_byte():
    # both Rodrigues branches: theta < 1e-3 runs in every lie_midpoint and
    # rkmk step (the exponential of the zero start) and late in the Toda
    # runs, whose off-diagonal entries decay
    rng = np.random.default_rng(67)
    vectors = _kernel_vectors(rng)
    thetas = [_theta(v) for v in vectors]
    assert any(1e-3 - 1e-15 < theta < 1e-3 for theta in thetas)
    assert any(1e-3 <= theta < 1e-3 + 1e-15 for theta in thetas)
    toda, masked = toda_problem().f, _masked_toda_field(3)
    for v in vectors:
        u = vectors[rng.integers(len(vectors))]
        # a 3x3 matrix whose skew part has hat-vector v, with a symmetric
        # part of either sign and some entries -0.0
        S = rng.normal(size=(3, 3))
        V = _hat(v) + 1e-3 * rng.normal() * (S + S.T)
        V[rng.random((3, 3)) < 0.2] = -0.0
        for got, want in (
            (steppers._rodrigues(v), _rodrigues_reference(v)),
            (steppers._so3_exp(V), _so3_exp_reference(V)),
            (steppers._so3_exp(_hat(v)), _so3_exp_reference(_hat(v))),
            (steppers._cross(u, v), _cross_reference(u, v)),
            (toda(0.0, V), masked(0.0, V)),
        ):
            assert got.shape == want.shape and got.dtype == want.dtype, v
            assert got.tobytes() == want.tobytes(), v


# make_action and the commutator with their products written as ``@``,
# verbatim, as the reference for ``ndarray.dot``: both make the same BLAS
# call, so the results must agree bit for bit. The kernels are read from
# ``steppers`` when an action is built, so an action built while the
# reference kernels above are patched in holds those.


def _commutator_reference(u, v):
    return u @ v - v @ u


def _make_action_reference(kind: str, n: int) -> GroupAction:
    if kind == "rotation":
        kind = "rotation_s2"
    if kind == "rotation_s2":
        return GroupAction(
            kind,
            3,
            3,
            bracket=steppers._cross,
            exp=steppers._rodrigues,
            act=lambda g, y: g @ y,
            inf_act=steppers._cross,
            zero=np.zeros(3),
        )
    if kind == "isospectral":
        return GroupAction(
            kind,
            n,
            n * (n - 1) // 2,
            bracket=_commutator_reference,
            exp=steppers._so3_exp if n == 3 else steppers._expm,
            act=lambda g, y: g @ y @ g.T,
            inf_act=lambda v, y: v @ y - y @ v,
            zero=np.zeros((n, n)),
        )
    if kind == "affine":

        def act(g, y):
            return g[:n, :n] @ y + g[:n, n]

        return GroupAction(
            kind,
            n,
            n * n + n,
            bracket=_commutator_reference,
            exp=steppers._expm,
            act=act,
            inf_act=lambda v, y: v[:n, :n] @ y + v[:n, n],
            zero=np.zeros((n + 1, n + 1)),
        )
    if kind == "translation":
        return GroupAction(
            kind,
            n,
            n,
            bracket=lambda u, v: np.zeros(n),
            exp=lambda v: v,
            act=lambda g, y: y + g,
            inf_act=lambda v, y: v,
            zero=np.zeros(n),
        )
    raise AssertionError(kind)


KERNEL_ACTIONS = [
    ("rotation_s2", 3),
    ("isospectral", 2),
    ("isospectral", 3),
    ("isospectral", 4),
    ("isospectral", 6),
    ("affine", 1),
    ("affine", 2),
    ("affine", 3),
    ("translation", 2),
]


@pytest.mark.parametrize("kind,n", KERNEL_ACTIONS)
def test_action_products_match_the_matmul_forms_bit_for_bit(kind, n):
    action, reference = make_action(kind, n), _make_action_reference(kind, n)
    rng = np.random.default_rng(61)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-3, 1)
        y, u = _action_samples(action, rng)
        _, v = _action_samples(action, rng)
        u, v = scale * u, scale * v
        g = action.exp(u)
        for got, want in (
            (action.act(g, y), reference.act(g, y)),
            (action.inf_act(u, y), reference.inf_act(u, y)),
            (action.bracket(u, v), reference.bracket(u, v)),
            (dexpinv(u, v, 4, action.bracket), dexpinv(u, v, 4, reference.bracket)),
        ):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (kind, n)


REFERENCE_KERNELS = {
    "_rodrigues": _rodrigues_reference,
    "_so3_exp": _so3_exp_reference,
    "_cross": _cross_reference,
    "_dexpinv": _dexpinv_reference,
    "_fixed_point": _fixed_point_reference,
    "_commutator": _commutator_reference,
    "make_action": _make_action_reference,
}


def _time_dependent_rotation() -> LGProblem:
    def f(t, y):
        return np.array([np.sin(t) + y[0] * y[1], np.cos(t) - 0.3 * y[2], y[2] ** 2 + 0.2])

    return LGProblem(steppers.make_action("rotation_s2", 3), f, np.array([0.6, 0.0, 0.8]))


def _toda_4() -> LGProblem:
    # n != 3: the masked field and scipy's expm
    return toda_problem(
        [[1.0, 1.0, 0.0, 0.0], [1.0, 2.0, 1.0, 0.0], [0.0, 1.0, 3.0, 1.0], [0.0, 0.0, 1.0, 4.0]]
    )


def _cli_affine() -> LGProblem:
    # the stock problem of ``bflow integrate --action affine``
    V = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.array([1.0, 0.0])
    return LGProblem(
        steppers.make_action("affine", 2), lambda t, y: affine_element(V, b), np.array([1.0, 0.0])
    )


def _damped_translation() -> LGProblem:
    fn = PolyVectorField.from_strings(["y1", "-y0 - y1/2 - y0**3/4"]).as_callable()
    return LGProblem(steppers.make_action("translation", 2), lambda t, y: fn(y), [1.0, 0.5])


BITWISE_PROBLEMS = {
    "rigid_body": rigid_body_problem,
    "toda": toda_problem,
    "time_dependent_rotation": _time_dependent_rotation,
    "toda_4": _toda_4,
    "cli_affine": _cli_affine,
    "damped_translation": _damped_translation,
}


@pytest.mark.parametrize("name", BITWISE_PROBLEMS)
def test_trajectories_match_the_reference_kernels_bit_for_bit(name, monkeypatch):
    methods = ("lie_euler", "lie_midpoint", "lie_rk4", "cf4", "rkmk:rk4", "rkmk:implicit_midpoint")
    # at h = 0.01 the rounding of the quadratic Rodrigues terms is mostly
    # absorbed by the linear ones; the long steps show it
    runs = [(method, h, steps) for method in methods for h, steps in ((0.01, 1000), (0.3, 100))]
    problem = BITWISE_PROBLEMS[name]()
    got = {run: np.array(integrate(run[0], problem, run[1], run[2])) for run in runs}
    for attr, kernel in REFERENCE_KERNELS.items():
        monkeypatch.setattr(steppers, attr, kernel)
    # built after the patch, so its action holds the reference kernels
    reference = BITWISE_PROBLEMS[name]()
    if name == "toda":
        reference = LGProblem(reference.action, _masked_toda_field(3), reference.y0)
        assert reference.action.exp is _so3_exp_reference
    elif reference.action.kind == "rotation_s2":
        assert reference.action.exp is _rodrigues_reference
        assert reference.action.bracket is _cross_reference
    if reference.action.kind in ("isospectral", "affine"):
        assert reference.action.bracket is _commutator_reference
    for run in runs:
        want = np.array(integrate(run[0], reference, run[1], run[2]))
        assert np.isfinite(want).all(), run
        assert np.array_equal(got[run], want), run


# ``rk_step`` and the classical trajectory loop of ``bflow integrate`` as
# they were written before classical tableaus became methods of
# ``make_stepper``, verbatim: the reference for the one stage solver and
# the one trajectory loop.


def _rk_step_reference(tableau: RKTableau, field, y, h: float, solver_tol: float = 1e-14):
    y = np.asarray(y, dtype=float)
    s = tableau.s
    a, b, _ = tableau.floats
    if tableau.is_explicit:
        K = []
        for i in range(s):
            yi = y.copy()
            for j in range(i):
                if a[i][j]:
                    yi = yi + (h * a[i][j]) * K[j]
            K.append(np.asarray(field(yi), dtype=float))
    else:

        def update(stacked):
            new = []
            for i in range(s):
                yi = y.copy()
                for j in range(s):
                    if a[i][j]:
                        yi = yi + (h * a[i][j]) * stacked[j]
                new.append(np.asarray(field(yi), dtype=float))
            return np.stack(new)

        start = np.stack([np.asarray(field(y), dtype=float)] * s)
        K = steppers._fixed_point(update, start, solver_tol, "implicit stage iteration")
    out = y.copy()
    for j in range(s):
        if b[j]:
            out = out + (h * b[j]) * K[j]
    return out


def _classical_loop_reference(tab, problem, h, steps):
    field = problem.f
    y = problem.y0.copy()
    out = [y]
    t = 0.0
    for _ in range(steps):
        y = _rk_step_reference(tab, lambda z: field(t, z), y, h)
        t += h
        out.append(y)
    return out


DIRK = RKTableau([[Fraction(1, 4), 0], [Fraction(1, 2), Fraction(1, 4)]], [Fraction(1, 2)] * 2)


@pytest.mark.parametrize("method", [*BUILTIN_TABLEAUS, "custom"])
def test_classical_trajectories_match_the_hand_loop_bit_for_bit(method):
    # a builtin name runs its own tableau; custom runs the tableau given
    problem = _damped_translation()
    tab = BUILTIN_TABLEAUS.get(method, DIRK)
    tableau = DIRK if method == "custom" else None
    for h, steps in ((0.01, 500), (0.3, 60)):
        got = np.array(integrate(method, problem, h, steps, tableau=tableau))
        want = np.array(_classical_loop_reference(tab, problem, h, steps))
        assert np.isfinite(want).all(), (method, h)
        assert np.array_equal(got, want), (method, h)
        field = lambda z: problem.f(0.0, z)
        for y in got[::50]:
            assert np.array_equal(rk_step(tab, field, y, h), _rk_step_reference(tab, field, y, h))


# The cf4 step and ``_rkmk_stepper`` as they were written before cf4 reused
# its half-step point and rkmk read its tableau's nonzero coefficients from
# precomputed pairs, and the lie_euler, lie_midpoint and lie_rk4 steps as
# they were written before the steppers held their constants as float64 0-d
# arrays and bound the action's callables once, verbatim: Python-float
# constants, and A.exp, A.act and A.bracket looked up on every call. The
# reference for all five, bit for bit.


def _lie_euler_reference(A: GroupAction):
    def step(f, t, y, h):
        return A.act(A.exp(h * f(t, y)), y)

    return step


def _lie_midpoint_reference(A: GroupAction):
    def step(f, t, y, h):
        K = steppers._fixed_point(
            lambda K: h * f(t + h / 2.0, A.act(A.exp(K / 2.0), y)),
            A.zero(),
            steppers._TOL,
            "lie_midpoint",
        )
        return A.act(A.exp(K), y)

    return step


def _lie_rk4_reference(A: GroupAction):
    def step(f, t, y, h):
        # Two commutators in total: one correcting the third stage, one
        # correcting the update exponent.
        K1 = h * f(t, y)
        K2 = h * f(t + h / 2.0, A.act(A.exp(K1 / 2.0), y))
        K3 = h * f(t + h / 2.0, A.act(A.exp(K2 / 2.0 - A.bracket(K1, K2) / 8.0), y))
        K4 = h * f(t + h, A.act(A.exp(K3), y))
        U = K1 / 6.0 + K2 / 3.0 + K3 / 3.0 + K4 / 6.0 - A.bracket(K1, K4) / 12.0
        return A.act(A.exp(U), y)

    return step


def _cf4_reference(A: GroupAction):
    def step(f, t, y, h):
        # Exponentials are applied in the order written: the half step of
        # K1 reaches the fourth stage point first, and the update applies
        # its first exponential before its second.
        K1 = h * f(t, y)
        K2 = h * f(t + h / 2.0, A.act(A.exp(K1 / 2.0), y))
        K3 = h * f(t + h / 2.0, A.act(A.exp(K2 / 2.0), y))
        K4 = h * f(t + h, A.act(A.exp(K3 - K1 / 2.0), A.act(A.exp(K1 / 2.0), y)))
        first = A.act(A.exp(K1 / 4.0 + K2 / 6.0 + K3 / 6.0 - K4 / 12.0), y)
        return A.act(A.exp(K2 / 6.0 + K3 / 6.0 + K4 / 4.0 - K1 / 12.0), first)

    return step


def _rkmk_stepper_reference(tableau: RKTableau, A: GroupAction, m: int):
    s = tableau.s
    a, b, c = tableau.floats
    explicit = tableau.is_explicit
    # no step writes into an algebra element, so every sum starts from one zero
    zero = A.zero()

    def step(f, t, y, h):
        def stage(i, K):
            U = zero
            for j in range(s):
                if a[i][j]:
                    U = U + a[i][j] * K[j]
            return dexpinv(U, h * f(t + c[i] * h, A.act(A.exp(U), y)), m, A.bracket)

        K = steppers._stages(s, explicit, stage, zero, "rkmk stages")
        U = zero
        for j in range(s):
            if b[j]:
                U = U + b[j] * K[j]
        return A.act(A.exp(U), y)

    return step


STEPPER_REFERENCE_PROBLEMS = {
    "rigid_body": rigid_body_problem,
    # a negative zero in the state, whose sign bit the steps must keep alike
    "rigid_body_negative_zero": lambda: rigid_body_problem(y0=(0.8, 0.6, -0.0)),
    "toda": toda_problem,
    "toda_4": _toda_4,
    "affine": _cli_affine,
    "time_dependent_rotation": _time_dependent_rotation,
}

# Kutta's 3/8 rule: stages that sum two and three terms
RULE_38 = RKTableau(
    [[0, 0, 0, 0], [Fraction(1, 3), 0, 0, 0], [Fraction(-1, 3), 1, 0, 0], [1, -1, 1, 0]],
    [Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)],
)

# rkmk on each tableau shape: explicit with a zero a_ij (rk4), a zero b_j
# (explicit_midpoint), one stage and m = 1 (euler), implicit (implicit
# midpoint, and the two-stage DIRK above), stages of several terms, and a
# truncation given
RKMK_REFERENCE_RUNS = (
    ("rkmk:rk4", None, None),
    ("rkmk:explicit_midpoint", None, None),
    ("rkmk:euler", None, None),
    ("rkmk:implicit_midpoint", None, None),
    ("rkmk:rk4", None, 6),
    ("rkmk", RULE_38, 3),
    ("rkmk", DIRK, 2),
)


@pytest.mark.parametrize("name", STEPPER_REFERENCE_PROBLEMS)
def test_cf4_and_rkmk_match_their_reference_steppers_bit_for_bit(name):
    problem = STEPPER_REFERENCE_PROBLEMS[name]()
    A = problem.action
    for h, steps in ((0.01, 200), (0.3, 50)):
        runs = [
            (method, integrate(method, problem, h, steps), reference(A))
            for method, reference in (
                ("lie_euler", _lie_euler_reference),
                ("lie_midpoint", _lie_midpoint_reference),
                ("lie_rk4", _lie_rk4_reference),
                ("cf4", _cf4_reference),
            )
        ]
        for method, tableau, m in RKMK_REFERENCE_RUNS:
            if tableau is None:
                tableau = builtin_tableau(method.split(":")[1])
                got = integrate(method, problem, h, steps, m=m)
                m = m or max(1, tableau.order - 1)
            else:
                got = integrate(method, problem, h, steps, m=m, tableau=tableau)
            runs.append((f"{method}:{m}", got, _rkmk_stepper_reference(tableau, A, m)))
        for label, got, reference in runs:
            got = np.array(got)
            want = np.array(list(steppers._states(reference, problem, h, steps)))
            assert np.isfinite(want).all(), (label, h)
            assert np.array_equal(got, want), (label, h)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (label, h)
    if name == "rigid_body_negative_zero":
        assert np.signbit(problem.y0[2])


def test_cf4_takes_five_exponentials_per_step():
    # the fourth stage point starts from the second one, not from a second
    # exponential of K1 / 2
    calls = []
    base = rigid_body_problem()
    a = base.action

    def exp(v):
        calls.append(v)
        return a.exp(v)

    action = GroupAction(a.kind, a.n, a.algebra_dim, a.bracket, exp, a.act, a.inf_act, a.zero())
    problem = LGProblem(action, base.f, base.y0)
    got = integrate("cf4", problem, 0.1, 4)
    assert len(calls) == 5 * 4
    assert np.array_equal(np.array(got), np.array(integrate("cf4", base, 0.1, 4)))


def test_rkmk_checks_its_truncation_when_built():
    A = make_action("rotation_s2", 3)
    for m, message in ((0, "at least one term"), (11, "capped at 10 terms")):
        with pytest.raises(DomainError, match=message):
            make_stepper("rkmk:rk4", A, m=m)


@pytest.mark.parametrize(
    "method,order",
    [("euler", 1), ("explicit_midpoint", 2), ("implicit_midpoint", 2), ("rk4", 4), ("custom", 2)],
)
def test_classical_stages_read_the_stage_times(method, order):
    # y' = cos(t) + y/5: stage i must read f at t + c_i h, or every
    # method falls to order 1
    def f(t, y):
        return np.cos(t) + y / 5.0

    def exact(t):
        # y(0) = 0: y = (25 sin t - 5 cos t + 5 e^(t/5)) / 26
        return [(25.0 * math.sin(t) - 5.0 * math.cos(t) + 5.0 * math.exp(t / 5.0)) / 26.0]

    problem = LGProblem(make_action("translation", 1), f, [0.0], reference=exact)
    tableau = DIRK if method == "custom" else None
    slope, _ = convergence_order(method, problem, 1.0, [0.2, 0.1, 0.05, 0.025], tableau=tableau)
    assert abs(slope - order) <= 0.2, (method, slope)


def test_classical_methods_run_on_the_translation_action_only():
    with pytest.raises(DomainError, match="^classical methods integrate the translation action only$"):
        make_stepper("rk4", make_action("rotation_s2", 3))
    with pytest.raises(DomainError, match="translation action only"):
        make_stepper("custom", make_action("isospectral", 3), tableau=DIRK)


def test_custom_without_a_tableau_is_an_unknown_method():
    want = "unknown method 'custom'; choose lie_euler, lie_midpoint, lie_rk4, cf4 or rkmk:<tableau>"
    with pytest.raises(DomainError) as exc:
        make_stepper("custom", make_action("translation", 2))
    assert str(exc.value) == want


@pytest.mark.parametrize("method", steppers._LIE_METHODS)
def test_a_fixed_lie_method_refuses_a_tableau_and_m(method):
    # it has no tableau and no dexpinv truncation, so either option would be dropped
    action = make_action("rotation", 3)
    want = f"^{method} takes neither a tableau nor m; rkmk:<tableau> takes both$"
    for kwargs in ({"m": 3}, {"tableau": RK4}, {"m": 3, "tableau": RK4}):
        with pytest.raises(DomainError, match=want):
            make_stepper(method, action, **kwargs)
    problem = rigid_body_problem()
    with pytest.raises(DomainError, match=want):
        lg_step(method, problem, 0.0, problem.y0, 0.1, m=3)
    with pytest.raises(DomainError, match=want):
        integrate(method, problem, 0.1, 2, tableau=RK4)
    with pytest.raises(DomainError, match=want):
        convergence_order(method, problem, 1.0, [0.2, 0.1, 0.05], m=3)
    make_stepper(method, action)


def test_a_classical_method_refuses_m():
    action = make_action("translation", 2)
    for method, tableau in (("rk4", None), ("custom", DIRK)):
        with pytest.raises(DomainError, match=f"^the classical method {method} takes no m;"):
            make_stepper(method, action, tableau=tableau, m=3)
    # a builtin name refuses a tableau it would drop, with or without m;
    # custom and rkmk still take one
    for m in (None, 3):
        with pytest.raises(DomainError, match="^the classical method rk4 takes no tableau; custom does$"):
            make_stepper("rk4", action, tableau=DIRK, m=m)
    make_stepper("custom", action, tableau=DIRK)
    make_stepper("rkmk", make_action("rotation", 3), tableau=RK4, m=3)


def test_the_steppers_take_no_tolerance_or_start_time():
    import inspect

    for fn in (make_stepper, lg_step, rk_step, integrate, convergence_order, steppers._states):
        assert not {"tol", "solver_tol", "t0"} & set(inspect.signature(fn).parameters), fn


def test_the_float_names_read_through_integrators_are_the_steppers():
    # every public name defined in the float layer, and nothing else
    defined = {
        name
        for name, value in vars(steppers).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == steppers.__name__
    }
    assert set(integrators._STEPPERS) == defined
    for name in integrators._STEPPERS:
        assert getattr(integrators, name) is getattr(steppers, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_stepper'"):
        integrators.no_such_stepper


class TestConvergence:
    def test_first_and_second_order_methods(self):
        p = rigid_body_problem()
        hs = [0.2, 0.1, 0.05, 0.025]
        slope, rows = convergence_order("lie_euler", p, 1.0, hs)
        assert abs(slope - 1.0) <= 0.15
        assert rows[0][2] is None and len(rows) == 4
        slope, _ = convergence_order("lie_midpoint", p, 1.0, hs)
        assert abs(slope - 2.0) <= 0.15

    def test_fourth_order_methods(self):
        p = rigid_body_problem()
        hs = [0.2, 0.1, 0.05, 0.025]
        for method in ("lie_rk4", "cf4", "rkmk:rk4"):
            slope, _ = convergence_order(method, p, 1.0, hs)
            assert abs(slope - 4.0) <= 0.2, (method, slope)

    def test_lie_rk4_on_a_time_dependent_field(self):
        action = make_action("rotation_s2", 3)

        def f(t, y):
            return np.array(
                [np.sin(t) + y[0] * y[1], np.cos(t) - 0.3 * y[2], y[2] ** 2 + 0.2]
            )

        p = LGProblem(action, f, np.array([0.6, 0.0, 0.8]))
        slope, _ = convergence_order("lie_rk4", p, 1.0, [0.2, 0.1, 0.05, 0.025])
        assert abs(slope - 4.0) <= 0.2

    def test_needs_three_step_sizes(self):
        p = rigid_body_problem()
        with pytest.raises(DomainError):
            convergence_order("lie_euler", p, 1.0, [0.1, 0.05])

    def test_step_sizes_must_divide_the_interval(self):
        p = rigid_body_problem()
        with pytest.raises(DomainError):
            convergence_order("lie_euler", p, 1.0, [0.2, 0.1, 0.3])

    def test_reference_callback_is_used(self):
        action = make_action("rotation_s2", 3)
        v = np.array([0.3, 0.1, -0.2])
        y0 = np.array([1.0, 0.0, 0.0])
        p = LGProblem(
            action,
            lambda t, y: v,
            y0,
            reference=lambda t: action.act(action.exp(t * v), y0),
        )
        _, rows = convergence_order("lie_euler", p, 1.0, [0.2, 0.1, 0.05])
        # constant field: lie_euler is exact, so every error is float noise
        assert all(err <= 1e-13 for _, err, _ in rows)


class TestStockProblems:
    def test_rigid_body_field(self):
        p = rigid_body_problem()
        v = p.f(0.0, np.array([1.0, 2.0, 4.0]))
        assert np.allclose(v, [1.0, 1.0, 1.0])
        assert np.linalg.norm(p.y0) == pytest.approx(1.0, abs=1e-15)

    def test_toda_field_is_skew(self):
        p = toda_problem()
        v = p.f(0.0, p.y0)
        assert np.allclose(v, -v.T)
        assert np.allclose(p.y0, p.y0.T)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_toda_field_is_the_triangle_difference_bit_for_bit(self, n, monkeypatch):
        # n = 3 is scalar code, the other sizes the masks: both must give
        # np.triu(y, 1) - np.tril(y, -1) to the bit, signed zeros and nan
        # payloads included
        specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.25])
        rng = np.random.default_rng(43)
        f = toda_problem(np.eye(n)).f
        calls = []
        where = np.where
        for _ in range(200):
            y = rng.choice(specials, size=(n, n))
            want = np.triu(y, 1) - np.tril(y, -1)
            with monkeypatch.context() as patch:
                patch.setattr(np, "where", lambda *args: calls.append(1) or where(*args))
                got = f(0.0, y)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), y
        assert len(calls) == (0 if n == 3 else 400)

    def test_bell_word_bookkeeping(self):
        assert bell_frechet_word(BellWord(())) == "1"
        assert bell_frechet_word(BellWord((1, 2, 1))) == "F^(0).F^(1).F^(0)"
