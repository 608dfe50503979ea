"""lie_steppers: fixed-step Lie group trajectories from seeded initial states.

Seeded inputs: K unit vectors for the free rigid body (rotation action,
Rodrigues exp) and K symmetric tridiagonal 3x3 matrices for Toda
(isospectral action, matrix expm). Every method runs STEPS steps of size H
from every state; the pass ends with one convergence_order sweep.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import refs

K = 3
H = 0.01
STEPS = 100
METHODS = ("lie_euler", "lie_midpoint", "lie_rk4", "cf4", "rkmk:rk4")
CONV_H = (0.1, 0.05, 0.025)  # at t_end = 1 the slope is within 0.12 of 4 on seeds 1-60
CONV_SLOPE = 4.0  # lie_rk4
INERTIA = np.array([1.0, 2.0, 4.0])
# Final-state tolerance against the RK4 reference at H = 0.01, T = 1: about
# ten times the largest error seen over seeds 1-20, by method order.
TOL = {
    "rigid_body": {"lie_euler": 5e-3, "lie_midpoint": 1e-5, "lie_rk4": 1e-10, "cf4": 1e-10, "rkmk:rk4": 1e-10},
    "toda": {"lie_euler": 1e-1, "lie_midpoint": 1e-3, "lie_rk4": 2e-7, "cf4": 2e-7, "rkmk:rk4": 2e-7},
}
PROBLEMS = ("rigid_body", "toda")
SEED_MASK = (1 << 64) - 1  # numpy seeds must be non-negative; others pass unchanged


def metric_name(method: str) -> str:
    return method.replace(":", "_")


class _Counter:
    """Wraps a callable the benchmark passes to the package and counts calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def seeded_states(seed: int):
    rng = np.random.default_rng(seed & SEED_MASK)
    rb = []
    for _ in range(K):
        v = rng.normal(size=3)
        rb.append(v / np.linalg.norm(v))
    toda = []
    for _ in range(K):
        d = np.sort(rng.uniform(1.0, 4.0, size=3))
        e = rng.uniform(0.5, 1.5, size=2)
        toda.append(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    return rb, toda


def setup(seed: int, tr) -> dict:
    from bflow import integrators as it

    rb_states, toda_states = seeded_states(seed)
    problems = {
        "rigid_body": [it.rigid_body_problem(y0=y) for y in rb_states],
        "toda": [it.toda_problem(y0=y) for y in toda_states],
    }
    counted, counters = {}, {}
    if tr.enabled:
        # Count f and exp calls through wrappers the benchmark itself passes
        # in; traced passes use these problems, untraced ones the plain ones.
        for name, plist in problems.items():
            a = plist[0].action
            f = _Counter(plist[0].f)
            exp = _Counter(a.exp)
            action = it.GroupAction(a.kind, a.n, a.algebra_dim, a.bracket, exp, a.act, a.inf_act, a.zero())
            counted[name] = [it.LGProblem(action, f, p.y0) for p in plist]
            counters[name] = (f, exp)
    return {
        "it": it,
        "problems": problems,
        "counted": counted,
        "counters": counters,
        "states": (rb_states, toda_states),
        "seed": seed,
    }


def run_pass(inp: dict, tr) -> dict:
    it = inp["it"]
    out: dict = {}
    problems = inp["counted"] if tr.enabled else inp["problems"]
    for name in PROBLEMS:
        for method in METHODS:
            with tr.span(f"integrators.integrate.{name}.{metric_name(method)}"):
                out[(name, method)] = [it.integrate(method, p, H, STEPS) for p in problems[name]]
            if tr.enabled:
                f, exp = inp["counters"][name]
                tr.count(f"f.{name}.{method}", f.calls)
                tr.count(f"exp.{name}.{method}", exp.calls)
                f.calls = exp.calls = 0
    with tr.span("integrators.convergence_order"):
        slope, rows = it.convergence_order("lie_rk4", problems["rigid_body"][0], 1.0, CONV_H)
    out["convergence_order"] = (slope, rows)
    return out


def op_name(key) -> str:
    return key if isinstance(key, str) else f"{key[0]}.{metric_name(key[1])}"


def render(out: dict, tr, algebra) -> dict[str, str]:
    texts = {}
    for key, value in out.items():
        if key == "convergence_order":
            texts[key] = repr(value)
        else:
            texts[op_name(key)] = "\n".join(" ".join(repr(float(x)) for x in traj[-1].ravel()) for traj in value)
    return texts


def extract(out: dict) -> dict:
    plain = {}
    for key, value in out.items():
        if key == "convergence_order":
            plain[key] = value[0]
        else:
            plain[op_name(key)] = [np.array(y) for y in value]
    return plain


def layer_metrics(tr) -> dict:
    """Per-step cost and call counts of every (problem, method) pair, from
    the cold pass."""
    selfs = tr.self_times("pass.cold")
    counts = tr.counts
    out = {}
    for name in PROBLEMS:
        for method in METHODS:
            m = metric_name(method)
            out[f"integrators.step_us.{name}.{m}"] = (
                selfs[f"integrators.integrate.{name}.{m}"] / (K * STEPS) * 1e6
            )
            out[f"integrators.f_evals_per_step.{name}.{m}"] = counts[f"f.{name}.{method}"] / (K * STEPS)
            out[f"integrators.exp_calls_per_step.{name}.{m}"] = counts[f"exp.{name}.{method}"] / (K * STEPS)
    out["integrators.convergence_order.cold_s"] = selfs["integrators.convergence_order"]
    return out


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _rigid_rhs(y):
    return np.cross(y / INERTIA, y)


def _toda_rhs(y):
    b = np.triu(y, 1) - np.tril(y, -1)
    return b @ y - y @ b


def references(inp) -> dict:
    """Final states of a numpy RK4 run at a 100x finer step, all states at
    once. Cached per seed under bench/out, so only a run's first round pays."""
    path = Path(__file__).resolve().parent / "out" / f"ref-{inp['seed']}-{K}-{STEPS}-{H}.npz"
    if path.is_file():
        with np.load(path) as data:
            return {name: data[name] for name in PROBLEMS}
    rb, toda = inp["states"]
    fine = STEPS * 100
    out = {
        "rigid_body": refs.rk4_reference(_rigid_rhs, np.array(rb), H / 100, fine),
        "toda": refs.rk4_reference(_toda_rhs, np.array(toda), H / 100, fine),
    }
    path.parent.mkdir(exist_ok=True)
    np.savez(path, **out)
    return out


def _drift(name, traj):
    if name == "rigid_body":
        norms = np.linalg.norm(np.array(traj), axis=1)
        return float(np.max(np.abs(norms - norms[0])))
    eigs = np.linalg.eigvalsh(np.array(traj))
    return float(np.max(np.abs(eigs - eigs[0])))


def _make_check(name, method):
    limit = 1e-12 if name == "rigid_body" else 1e-10

    def check(p, inp):
        trajs = p[op_name((name, method))]
        ref = inp["_refs"][name]
        for k, traj in enumerate(trajs):
            drift = _drift(name, traj)
            if drift > limit:
                return f"invariant drift {drift:.3e} over {limit:.0e} from state {k}"
            err = float(np.max(np.abs(traj[-1] - ref[k])))
            if err > TOL[name][method]:
                return f"final state {k} off the RK4 reference by {err:.3e} (tolerance {TOL[name][method]:.0e})"
        return None

    return check


def check_convergence(p, inp):
    slope = p["convergence_order"]
    if abs(slope - CONV_SLOPE) > 0.2:
        return f"lie_rk4 slope {slope:.3f}, nominal {CONV_SLOPE}"
    return None


CHECKS = {op_name((n, m)): _make_check(n, m) for n in PROBLEMS for m in METHODS}
CHECKS["convergence_order"] = check_convergence


def prepare_checks(inp) -> None:
    inp["_refs"] = references(inp)


def _perturb_state(p, op):
    p[op][-1][-1].flat[0] += 0.5


PERTURB = {op: (lambda p, op=op: _perturb_state(p, op)) for op in CHECKS if op != "convergence_order"}
PERTURB["convergence_order"] = lambda p: p.__setitem__("convergence_order", p["convergence_order"] - 0.3)
