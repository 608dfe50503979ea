"""Runge-Kutta steppers, group actions, and Lie group integrators in floats.

The floating-point half of the package: the classical and Lie group
steppers, the group actions they run on, a convergence-order harness
and two stock problems, all in 64-bit floats. The exact half, which
analyses these methods (elementary differentials, series evaluation,
modified fields and the Taylor oracle), is ``bflow.integrators``. It
imports neither numpy nor this module; it re-exports the public names
defined here, and loads this module when one of them is first read.

Algebra elements are numpy arrays: vectors for the rotation and
translation actions, matrices for the isospectral action and for the
affine action in its homogeneous embedding.

``make_stepper`` resolves a Lie group method once, with its tableau's
float coefficients and its dexpinv truncation, and returns the one-step
map that ``integrate`` and ``convergence_order`` apply at every step. The
so(3) kernels (Rodrigues, for the rotation and 3x3 isospectral actions,
and the cross product), the 3x3 Toda field and the fixed-point residual
are scalar code on Python floats, bit-identical to their numpy forms:
elementwise float operations may leave numpy, matrix products may not.
Every matrix product of the actions and of the commutator goes through
``ndarray.dot``, which makes the BLAS call that ``@`` makes with less
dispatch, and is never a Python sum: BLAS sums in its own order, so a
product written out in Python changes the last bits.

The B-series layer loads only for an ``rkmk`` method, which resolves its
tableau and default truncation there. scipy loads with the first
exponential of an isospectral action with n != 3 or of an affine action;
the other steppers need neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

if TYPE_CHECKING:
    from .bseries_hopf import RKTableau


# ---------------------------------------------------------------------------
# Classical Runge-Kutta stepping (floats)
# ---------------------------------------------------------------------------


def rk_step(tableau: RKTableau, field, y, h: float, solver_tol: float = 1e-14):
    """One Runge-Kutta step. Explicit tableaus sweep the stages in order,
    one call of f per stage; implicit ones start every stage at f(y),
    evaluated once, and iterate the stage fixed point to solver_tol
    (scaled by the stage magnitude) through ``_fixed_point``, which raises
    ConvergenceError after 100 iterations, or at the first sweep whose
    shift is nan, when the stages have left the floats."""
    from .integrators import PolyVectorField  # the exact layer, not loaded with this module

    f = field.as_callable() if isinstance(field, PolyVectorField) else field
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
            K.append(np.asarray(f(yi), dtype=float))
    else:

        def update(stacked):
            new = []
            for i in range(s):
                yi = y.copy()
                for j in range(s):
                    if a[i][j]:
                        yi = yi + (h * a[i][j]) * stacked[j]
                new.append(np.asarray(f(yi), dtype=float))
            return np.stack(new)

        start = np.stack([np.asarray(f(y), dtype=float)] * s)
        K = _fixed_point(update, start, solver_tol, "implicit stage iteration")
    out = y.copy()
    for j in range(s):
        if b[j]:
            out = out + (h * b[j]) * K[j]
    return out


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


def _hat(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def _rodrigues(v) -> np.ndarray:
    """Closed-form exponential of the skew matrix of a 3-vector array."""
    return _rodrigues_xyz(*v.tolist())


def _rodrigues_xyz(x: float, y: float, z: float) -> np.ndarray:
    """I + sin(t)/t V + (1 - cos t)/t^2 V^2 for the skew matrix V of
    v = (x, y, z), with t = |v|, the second weight taken as
    (sin(t/2)/(t/2))^2 / 2, which stays accurate as t -> 0."""
    t2 = x * x + y * y + z * z
    theta = math.sqrt(t2)
    if theta < 1e-3:
        # sin(u)/u = 1 - u^2/6 + u^4/120 - ...; the first omitted term is
        # below 1e-22 here
        a = 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0)
        half = 1.0 - t2 / 24.0 * (1.0 - t2 / 80.0)
    else:
        a = math.sin(theta) / theta
        half = math.sin(0.5 * theta) / (0.5 * theta)
    b = 0.5 * half * half
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return np.array(
        (
            1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y,
            bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x,
            bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y),
        )
    ).reshape(3, 3)


def _cross(u, v) -> np.ndarray:
    """u x v for 3-vectors; np.cross spends tens of microseconds on
    argument handling at this size."""
    u0, u1, u2 = u.tolist()
    v0, v1, v2 = v.tolist()
    return np.array((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0))


def _so3_exp(V) -> np.ndarray:
    """Exponential of a 3x3 element of so(3): Rodrigues on the hat-vector
    of its skew part."""
    (_, v01, v02), (v10, _, v12), (v20, v21, _) = V.tolist()
    return _rodrigues_xyz(0.5 * (v21 - v12), 0.5 * (v02 - v20), 0.5 * (v10 - v01))


def _expm(X) -> np.ndarray:
    from scipy.linalg import expm

    return expm(X)


class GroupAction:
    """A Lie group acting on a state space, reduced to callables.

    ``bracket``, ``exp``, ``act`` and ``inf_act`` operate on numpy
    arrays; ``zero()`` makes the algebra's zero element. The stock actions
    of ``make_action`` form their matrix products with ``ndarray.dot``,
    the BLAS call of ``@``, never as Python sums. The invariants (exp of
    zero acts as the identity; inf_act is the derivative of the action
    along exp) are checked by the test suite via finite differences.
    """

    __slots__ = ("kind", "n", "algebra_dim", "bracket", "exp", "act", "inf_act", "_zero")

    def __init__(self, kind, n, algebra_dim, bracket, exp, act, inf_act, zero):
        self.kind = kind
        self.n = n
        self.algebra_dim = algebra_dim
        self.bracket = bracket
        self.exp = exp
        self.act = act
        self.inf_act = inf_act
        self._zero = np.asarray(zero, dtype=float)

    def zero(self) -> np.ndarray:
        return self._zero.copy()

    def __repr__(self) -> str:
        return f"GroupAction(kind={self.kind!r}, n={self.n})"


def _commutator(u, v):
    return u.dot(v) - v.dot(u)


def make_action(kind: str, n: int) -> GroupAction:
    """Build one of the supported actions.

    rotation_s2: SO(3) on R^3 by matrix-vector product; algebra elements
    are 3-vectors (hat map implied), the exponential is the Rodrigues
    formula and the bracket is the cross product, both in closed form.
    isospectral: SO(n) on matrices by conjugation Q y Q^T; algebra
    elements are skew n x n matrices. For n = 3 the exponential is
    Rodrigues on the hat-vector of the argument's skew part, otherwise
    scipy's expm. affine: matrices of the homogeneous (n+1) x (n+1)
    embedding acting on R^n, with scipy's expm. translation: R^n on
    itself; exp is the identity and the bracket vanishes, so every method
    collapses to its classical counterpart. scipy is imported by the
    first exponential that needs it.
    """
    if kind == "rotation":
        kind = "rotation_s2"
    if kind == "rotation_s2":
        if n != 3:
            raise DomainError("the rotation action lives on R^3")
        return GroupAction(
            kind,
            3,
            3,
            bracket=_cross,
            exp=_rodrigues,
            act=np.ndarray.dot,
            inf_act=_cross,
            zero=np.zeros(3),
        )
    if kind == "isospectral":
        if n < 2:
            raise DomainError("isospectral action needs n >= 2")
        return GroupAction(
            kind,
            n,
            n * (n - 1) // 2,
            bracket=_commutator,
            exp=_so3_exp if n == 3 else _expm,
            act=lambda g, y: g.dot(y).dot(g.T),
            inf_act=_commutator,
            zero=np.zeros((n, n)),
        )
    if kind == "affine":
        if n < 1:
            raise DomainError("affine action needs n >= 1")

        def act(g, y):
            return g[:n, :n].dot(y) + g[:n, n]

        return GroupAction(
            kind,
            n,
            n * n + n,
            bracket=_commutator,
            exp=_expm,
            act=act,
            inf_act=act,
            zero=np.zeros((n + 1, n + 1)),
        )
    if kind == "translation":
        if n < 1:
            raise DomainError("translation action needs n >= 1")
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
    raise DomainError(
        f"unsupported action {kind!r}; choose rotation_s2, isospectral, "
        "affine or translation"
    )


def affine_element(V, b) -> np.ndarray:
    """Embed the pair (V, b) as the homogeneous algebra matrix."""
    V = np.asarray(V, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(b)
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = V
    out[:n, n] = b
    return out


class LGProblem:
    """An initial value problem written through a group action.

    ``f(t, y)`` returns an algebra element; the equation is
    y' = inf_act(f(t, y), y). ``reference`` may supply a high-accuracy
    solution callback t -> state for the convergence harness.
    """

    __slots__ = ("action", "f", "y0", "reference")

    def __init__(self, action: GroupAction, f, y0, reference=None):
        self.action = action
        self.f = f
        self.y0 = np.asarray(y0, dtype=float)
        self.reference = reference


# ---------------------------------------------------------------------------
# dexpinv and the Lie group steppers
# ---------------------------------------------------------------------------

# B_k/k! for the Bernoulli numbers B_0..B_9: the float weights of the terms
# of dexpinv, the same floats as float(B_k) / k! from the Fractions
_DEXPINV_WEIGHTS = tuple(
    float(Fraction(b)) / math.factorial(k)
    for k, b in enumerate((1, "-1/2", "1/6", 0, "-1/30", 0, "1/42", 0, "-1/30", 0))
)


def dexpinv(U, K, m: int, bracket=None):
    """Truncation of the inverse right-trivialized tangent of exp: the
    first m terms of sum_k B_k/k! ad_U^k(K). The default bracket is the
    matrix commutator; vector-shaped algebras pass their own. The result
    is a new array, never K itself."""
    if m < 1:
        raise DomainError("dexpinv needs at least one term")
    if m > len(_DEXPINV_WEIGHTS):
        raise DomainError(f"dexpinv truncation capped at {len(_DEXPINV_WEIGHTS)} terms")
    if bracket is None:
        bracket = _commutator
    U = np.asarray(U, dtype=float)
    acc = term = np.asarray(K, dtype=float)
    if m == 1:
        return acc.copy()
    # B_1 is nonzero, so the first term replaces acc by a new array
    for k in range(1, m):
        term = bracket(U, term)
        if _DEXPINV_WEIGHTS[k]:
            acc = acc + _DEXPINV_WEIGHTS[k] * term
    return acc


def _residual(new, old) -> tuple[float, float]:
    """The shift and the scale of one fixed-point sweep from old to new,
    np.abs(new - old).max(initial=0.0) and
    max(1.0, np.abs(new).max(initial=0.0)), read off the entries in scalar
    code. The shift is 0.0 when there are none and nan when one of
    new - old is nan; the scale is 1.0 when an entry of new is nan, as
    Python's max makes it. A nan makes a sum nan; Python's max alone drops
    one that follows a larger value."""
    diffs = (new - old).ravel().tolist()
    values = new.ravel().tolist()
    total = sum(diffs)
    if diffs and total == total:
        # no nan in new - old, so none in new, which it broadcasts
        return max(0.0, max(diffs), -min(diffs)), max(1.0, max(values), -min(values))
    if any(d != d for d in diffs):
        shift = math.nan
    else:
        shift = max(0.0, max(diffs, default=0.0), -min(diffs, default=0.0))
    if any(v != v for v in values):
        return shift, 1.0
    return shift, max(1.0, max(values, default=0.0), -min(values, default=0.0))


def _fixed_point(update, start, tol: float, label: str):
    value = start
    for _ in range(100):
        new = update(value)
        shift, scale = _residual(new, value)
        value = new
        # A nan shift comes from a nan stage, which stays nan under any
        # arithmetic field, or from an entry infinite in two sweeps running:
        # the stages have left the floats, so stop at once. A stage that
        # overflowed makes the bound inf, which any other shift would meet:
        # an infinite scale is never converged.
        if shift != shift:
            break
        if shift <= tol * scale and scale != math.inf:
            return value
    raise ConvergenceError(f"{label}: fixed point stalled", shift)


def _rkmk_stepper(tableau: RKTableau, A: GroupAction, m: int, tol: float):
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

        if explicit:
            K = []
            for i in range(s):
                K.append(stage(i, K))
        else:

            def update(stacked):
                K = list(stacked)
                return np.stack([stage(i, K) for i in range(s)])

            K = list(_fixed_point(update, np.stack([zero] * s), tol, "rkmk stages"))
        U = zero
        for j in range(s):
            if b[j]:
                U = U + b[j] * K[j]
        return A.act(A.exp(U), y)

    return step


def make_stepper(method: str, action: GroupAction, tableau=None, m=None, tol: float = 1e-14):
    """Build the one-step map ``step(f, t, y, h)`` of a Lie group method
    on ``action``, for the equation y' = inf_act(f(t, y), y).

    Methods: lie_euler, lie_midpoint (fixed point, tol scaled, max 100
    iterations), lie_rk4 (the two-commutator version), cf4 (the
    commutator-free two-exponential update), and rkmk:<tableau name>
    (any tableau through dexpinv; pass ``tableau`` to override the name
    lookup and ``m`` to override the truncation, which defaults to the
    classical order of the tableau minus one). The method, the tableau's
    float coefficients and the truncation are resolved here, once; each
    step calls f and the action's exp, act and bracket.
    """
    A = action
    if method == "lie_euler":

        def step(f, t, y, h):
            return A.act(A.exp(h * f(t, y)), y)

    elif method == "lie_midpoint":

        def step(f, t, y, h):
            K = _fixed_point(
                lambda K: h * f(t + h / 2.0, A.act(A.exp(K / 2.0), y)),
                A.zero(),
                tol,
                "lie_midpoint",
            )
            return A.act(A.exp(K), y)

    elif method == "lie_rk4":

        def step(f, t, y, h):
            # Two commutators in total: one correcting the third stage, one
            # correcting the update exponent.
            K1 = h * f(t, y)
            K2 = h * f(t + h / 2.0, A.act(A.exp(K1 / 2.0), y))
            K3 = h * f(t + h / 2.0, A.act(A.exp(K2 / 2.0 - A.bracket(K1, K2) / 8.0), y))
            K4 = h * f(t + h, A.act(A.exp(K3), y))
            U = K1 / 6.0 + K2 / 3.0 + K3 / 3.0 + K4 / 6.0 - A.bracket(K1, K4) / 12.0
            return A.act(A.exp(U), y)

    elif method == "cf4":

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

    elif method == "rkmk" or method.startswith("rkmk:"):
        from .bseries_hopf import builtin_tableau, order_of, rk_character

        if tableau is None:
            if ":" not in method:
                raise DomainError("rkmk needs a tableau: use rkmk:<name>")
            tableau = builtin_tableau(method.split(":", 1)[1])
        if m is None:
            m = max(1, order_of(rk_character(tableau, 5), 5) - 1)
        return _rkmk_stepper(tableau, A, m, tol)
    else:
        raise DomainError(
            f"unknown method {method!r}; choose lie_euler, lie_midpoint, lie_rk4, "
            "cf4 or rkmk:<tableau>"
        )
    return step


def lg_step(method: str, problem: LGProblem, t, y, h, m=None, tableau=None, tol=1e-14):
    """Advance one step of a Lie group method (see ``make_stepper`` for
    the methods and options). The stepper is built afresh on each call;
    ``integrate`` builds it once per run."""
    if h <= 0:
        raise DomainError("step size must be positive")
    step = make_stepper(method, problem.action, tableau=tableau, m=m, tol=tol)
    return step(problem.f, t, np.asarray(y, dtype=float), h)


def _states(step, problem: LGProblem, h: float, steps: int, t0: float = 0.0):
    """The problem's initial state, then the state after each step."""
    f = problem.f
    y = problem.y0.copy()
    yield y
    t = t0
    for _ in range(steps):
        y = step(f, t, y, h)
        t += h
        yield y


def _final_state(step, problem: LGProblem, h: float, steps: int) -> np.ndarray:
    for y in _states(step, problem, h, steps):
        pass
    return y


def integrate(
    method: str,
    problem: LGProblem,
    h: float,
    steps: int,
    t0: float = 0.0,
    m=None,
    tableau=None,
) -> list[np.ndarray]:
    """Run ``steps`` steps from the problem's initial state; returns the
    trajectory including the initial state (steps + 1 entries)."""
    if steps < 1:
        raise DomainError("need at least one step")
    if h <= 0:
        raise DomainError("step size must be positive")
    step = make_stepper(method, problem.action, tableau=tableau, m=m)
    return list(_states(step, problem, h, steps, t0))


def convergence_order(
    method: str,
    problem: LGProblem,
    t_end: float,
    h_list: Sequence[float],
    m=None,
    tableau=None,
):
    """Measure the convergence order of a method on a problem.

    For each h (t_end must be an integer number of steps), the end state
    is compared against the problem's reference callback, or against the
    same method run at h/64 when no reference is given. Returns the
    least-squares slope of log error against log h together with the rows
    (h, error, pairwise slope or None).
    """
    if len(h_list) < 3:
        raise DomainError("order measurement needs at least three step sizes")
    runs = []
    for h in h_list:
        if h <= 0:
            raise DomainError("step size must be positive")
        raw = t_end / h
        steps = round(raw)
        if steps < 1 or abs(raw - steps) > 1e-9:
            raise DomainError(f"t_end is not a whole number of steps of {h}")
        runs.append((h, steps))
    step = make_stepper(method, problem.action, tableau=tableau, m=m)
    errors = []
    for h, steps in runs:
        yT = _final_state(step, problem, h, steps)
        if problem.reference is not None:
            ref = np.asarray(problem.reference(t_end), dtype=float)
        else:
            ref = _final_state(step, problem, h / 64.0, steps * 64)
        err = float(np.linalg.norm(yT - ref))
        errors.append(max(err, np.finfo(float).tiny))
    logs_h = np.log(np.asarray(h_list, dtype=float))
    logs_e = np.log(np.asarray(errors))
    slope = float(np.polyfit(logs_h, logs_e, 1)[0])
    rows = []
    for i, (h, err) in enumerate(zip(h_list, errors)):
        if i == 0:
            rows.append((float(h), err, None))
        else:
            pair = float((logs_e[i - 1] - logs_e[i]) / (logs_h[i - 1] - logs_h[i]))
            rows.append((float(h), err, pair))
    return slope, rows


# ---------------------------------------------------------------------------
# Stock test problems
# ---------------------------------------------------------------------------


def rigid_body_problem(inertia=(1.0, 2.0, 4.0), y0=(0.8, 0.6, 0.0)) -> LGProblem:
    """Free rigid body as a rotation problem: y' = v(y) x y with
    v(y) = y / inertia componentwise. Norm of y is conserved."""
    action = make_action("rotation_s2", 3)
    moments = np.asarray(inertia, dtype=float)

    def f(t, y):
        return np.asarray(y, dtype=float) / moments

    return LGProblem(action, f, y0)


def toda_problem(y0=None) -> LGProblem:
    """Toda-style isospectral flow: f(y) is the skew part y_+ - y_- built
    from the strict triangles of y. Eigenvalues of y are conserved."""
    if y0 is None:
        y0 = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]
    y0 = np.asarray(y0, dtype=float)
    n = y0.shape[0]
    action = make_action("isospectral", n)
    if n == 3:

        def f(t, y):
            # the masked difference below, entry by entry in its float ops
            # (x - 0.0 above the diagonal, 0.0 - x below): the same bits
            (_, y01, y02), (y10, _, y12), (y20, y21, _) = y.tolist()
            return np.array(
                (0.0, y01 - 0.0, y02 - 0.0, 0.0 - y10, 0.0, y12 - 0.0, 0.0 - y20, 0.0 - y21, 0.0)
            ).reshape(3, 3)

    else:
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        lower = upper.T

        def f(t, y):
            # np.triu(y, 1) - np.tril(y, -1), with the masks built once
            return np.where(upper, y, 0.0) - np.where(lower, y, 0.0)

    return LGProblem(action, f, y0)
