"""bseries_order8: Runge-Kutta analysis on non-planar forests.

Seeded inputs: a random consistent explicit 4-stage rational tableau (its
character, order report and composition with rk4) and the starting value of
the Euler backward-error check. Fixed inputs: rk4 (also solve_modified in
both modes and substitute_b back, at order 6), implicit midpoint, Euler, and
the field y0**2. Tables run over all trees of order <= 8.
"""

from __future__ import annotations

import random
from fractions import Fraction

import harness as hn
import refs

N = 8  # the default order cap
N_SOLVE = 6  # solve_modified / substitute_b
H_LIST = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40))
EVAL_N = 5
CHUNK = 25  # trees per span of the antipode and contraction tables


def seeded_tableau(rng: random.Random):
    dens = (1, 2, 3, 4, 6)
    s = 4
    a = [[Fraction(0)] * s for _ in range(s)]
    for i in range(1, s):
        for j in range(i):
            a[i][j] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 4)), rng.choice(dens))
    b = [Fraction(rng.randint(1, 4), rng.choice(dens)) for _ in range(s - 1)]
    b.append(1 - sum(b))
    return a, b


def setup(seed: int, tr) -> dict:
    from bflow import bseries_hopf, forest_core, integrators

    rng = random.Random(seed)
    a, b = seeded_tableau(rng)
    return {
        "fc": forest_core,
        "bh": bseries_hopf,
        "it": integrators,
        "rk4": bseries_hopf.builtin_tableau("rk4"),
        "rand": bseries_hopf.RKTableau(a, b, name="seeded"),
        "rand_ab": (a, b),
        "mid": bseries_hopf.builtin_tableau("implicit_midpoint"),
        "euler": bseries_hopf.builtin_tableau("euler"),
        "field": integrators.PolyVectorField.from_strings(["y0**2"]),
        "y0": Fraction(rng.randint(5, 15), 10),
    }


def _tree_table(alpha, trees):
    return [(t.serial, alpha.tree_value(t)) for t in trees]


def run_pass(inp: dict, tr) -> dict:
    fc, bh, it = inp["fc"], inp["bh"], inp["it"]
    out: dict = {}
    with tr.span("forest_core.enumerate"):
        levels = [fc.enumerate_trees(n) for n in range(1, N + 1)]
        forests = [f for n in range(0, N + 1) for f in fc.enumerate_forests(n)]
    trees = [t for level in levels for t in level]
    out["enumerate"] = ([[t.serial for t in level] for level in levels], [f.serial for f in forests])

    with tr.span("bseries_hopf.delta_bck"):
        out["delta_bck"] = [(t, bh.delta_bck(t)) for t in trees]
    # The two long tables run in chunks, one span each, so that the speed
    # probes bracket about a fifth of a second of work at a time.
    out["antipode_bck"], out["delta_cefm"] = [], []
    for k in range(0, len(trees), CHUNK):
        with tr.span("bseries_hopf.antipode_bck"):
            out["antipode_bck"] += [(t, bh.antipode_bck(t)) for t in trees[k : k + CHUNK]]
    for k in range(0, len(trees), CHUNK):
        with tr.span("bseries_hopf.delta_cefm"):
            out["delta_cefm"] += [(t, bh.delta_cefm(t)) for t in trees[k : k + CHUNK]]

    with tr.span("bseries_hopf.rk_character"):
        rk4 = bh.rk_character(inp["rk4"], N)
        rand = bh.rk_character(inp["rand"], N)
        out["rk_character"] = (_tree_table(rk4, trees), _tree_table(rand, trees))
    with tr.span("bseries_hopf.order_report"):
        reports = [bh.order_report(rk4, N), bh.order_report(rand, N)]
    out["order_report"] = [(k, None if w is None else w.serial) for k, w in reports]
    with tr.span("bseries_hopf.convolve_bck"):
        out["convolve_bck"] = (
            _tree_table(bh.convolve_bck(rk4, rk4, N), trees),
            _tree_table(bh.convolve_bck(rand, rk4, N), trees),
        )

    low = [t for t in trees if t.order <= N_SOLVE]
    with tr.span("bseries_hopf.solve_modified"):
        be = bh.solve_modified(rk4, "backward_error", N_SOLVE)
        mi = bh.solve_modified(rk4, "modifying_integrator", N_SOLVE)
        out["solve_modified"] = (_tree_table(be, low), _tree_table(mi, low))
    with tr.span("bseries_hopf.substitute_b"):
        out["substitute_b"] = (
            _tree_table(bh.substitute_b(be, bh.exact_gamma(N_SOLVE), N_SOLVE), low),
            _tree_table(bh.substitute_b(mi, rk4, N_SOLVE), low),
        )
    with tr.span("bseries_hopf.check_geometric"):
        mid = bh.rk_character(inp["mid"], N)
        violations = bh.check_geometric(mid, "symplectic_method", N)
    out["check_geometric"] = [(t1.serial, t2.serial) for t1, t2 in violations]

    with tr.span("bseries_hopf.solve_modified"):
        beta = bh.solve_modified(bh.rk_character(inp["euler"], 4), "backward_error", 4)
    y0 = inp["y0"]
    defects = []
    for h in H_LIST:
        with tr.span("integrators.modified_field"):
            fmod = it.modified_field(beta, inp["field"], h, 4)
        with tr.span("integrators.eval_bseries"):
            flow = it.eval_bseries(bh.exact_gamma(EVAL_N), fmod, [y0], h, EVAL_N)[0]
        defects.append(abs(flow - (y0 + h * y0 * y0)))
    out["euler_defect"] = defects
    return out


def render(out: dict, tr, algebra) -> dict[str, str]:
    """Canonical text of every output, keyed by operation."""
    texts: dict[str, str] = {}
    with tr.span("algebra.render_sum"):
        sums = {
            "delta_bck": [(f.serial, algebra.render_sum(d, hn.tensor_key)) for f, d in out["delta_bck"]],
            "antipode_bck": [(t.serial, algebra.render_sum(s, hn.basis_key)) for t, s in out["antipode_bck"]],
            "delta_cefm": [(t.serial, algebra.render_sum(d, hn.tensor_key)) for t, d in out["delta_cefm"]],
        }
    for op, rows in sums.items():
        texts[op] = hn.table_text(rows)
    tr.count("algebra.terms", sum(len(x[1]) for op in sums for x in out[op]))
    trees, forests = out["enumerate"]
    texts["enumerate"] = "\n".join(" ".join(level) for level in trees) + "\n" + " ".join(forests)
    for op in ("rk_character", "convolve_bck", "solve_modified", "substitute_b"):
        texts[op] = "\n\n".join(hn.table_text(t) for t in out[op])
    texts["order_report"] = repr(out["order_report"])
    texts["check_geometric"] = repr(out["check_geometric"])
    texts["euler_defect"] = " ".join(str(d) for d in out["euler_defect"])
    return texts


def extract(out: dict) -> dict:
    """Plain data (serials, Fractions) for the checkers."""
    plain = dict(out)
    plain["delta_bck"] = {f.serial: hn.tensor_terms(d) for f, d in out["delta_bck"]}
    plain["antipode_bck"] = {t.serial: hn.basis_terms(s) for t, s in out["antipode_bck"]}
    plain["delta_cefm"] = {t.serial: hn.tensor_terms(d) for t, d in out["delta_cefm"]}
    for op in ("rk_character", "convolve_bck", "solve_modified", "substitute_b"):
        plain[op] = [dict(t) for t in out[op]]
    plain["order_report"] = list(out["order_report"])
    plain["euler_defect"] = list(out["euler_defect"])
    return plain


# ---------------------------------------------------------------------------
# Checkers: each returns None when the output is right, else a message.
# ---------------------------------------------------------------------------

RK4_AB = (
    [[0, 0, 0, 0], [Fraction(1, 2), 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0]],
    [Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)],
)


def _forest_order(serial: str) -> int:
    return sum(refs.order(t) for t in refs.parse_word(serial))


def check_enumerate(p, inp):
    trees, forests = p["enumerate"]
    counts = tuple(len(level) for level in trees)
    if counts != refs.A000081[:N]:
        return f"trees per order {counts}, want {refs.A000081[:N]}"
    by_order = [0] * (N + 1)
    for s in forests:
        by_order[_forest_order(s)] += 1
    # forests of order n are as many as the trees of order n + 1
    if by_order != list(refs.A000081[: N + 1]):
        return f"forests per order {by_order}, want {list(refs.A000081[: N + 1])}"
    for level in trees:
        if len(set(level)) != len(level):
            return "duplicate trees"
    return None


def check_delta_bck(p, inp):
    for serial, terms in p["delta_bck"].items():
        want = 1
        for t in refs.parse_word(serial):
            want *= refs.cut_count(t) + 1
        got = sum(c for _, _, c in terms)
        if got != want:
            return f"coefficients of delta_bck({serial}) sum to {got}, want {want}"
        total = _forest_order(serial)
        for l, r, _ in terms:
            if _forest_order(l) + _forest_order(r) != total:
                return f"delta_bck({serial}) has ungraded term {l} (x) {r}"
    return None


def _fmul(x: dict, y: dict) -> dict:
    out: dict = {}
    for f1, c1 in x.items():
        for f2, c2 in y.items():
            key = tuple(sorted(f1 + f2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def check_antipode_bck(p, inp):
    tree_s = {s: {tuple(refs.words_of(f)): c for f, c in terms} for s, terms in p["antipode_bck"].items()}

    def s_of(forest_serial):
        out = {(): 1}
        for t in refs.words_of(forest_serial):
            out = _fmul(out, tree_s[t])
        return out

    for serial in tree_s:
        total: dict = {}
        for l, r, c in p["delta_bck"][serial]:
            for key, v in _fmul(s_of(l), {tuple(refs.words_of(r)): c}).items():
                total[key] = total.get(key, 0) + v
        if any(total.values()):
            return f"m(S (x) id) delta_bck({serial}) != 0"
    return None


def check_delta_cefm(p, inp):
    for serial, terms in p["delta_cefm"].items():
        n = refs.order(refs.parse_tree(serial))
        got = sum(c for _, _, c in terms)
        if got != 2 ** (n - 1):
            return f"coefficients of delta_cefm({serial}) sum to {got}, want {2 ** (n - 1)}"
        for l, _, _ in terms:
            if _forest_order(l) != n:
                return f"delta_cefm({serial}) left part {l} is not spanning"
    return None


def _weights(ab, serials):
    a, b = ab
    memo: dict = {}
    return {s: refs.elementary_weight(a, b, refs.parse_tree(s), memo) for s in serials}


def check_rk_character(p, inp):
    for table, ab in zip(p["rk_character"], (RK4_AB, inp["rand_ab"])):
        if table != _weights(ab, table):
            return "elementary weights differ from the recursion"
    return None


def check_order_report(p, inp):
    levels = [sorted(level) for level in p["enumerate"][0]]
    for got, ab in zip(p["order_report"], (RK4_AB, inp["rand_ab"])):
        want = refs.classical_order(ab[0], ab[1], levels)
        if tuple(got) != want:
            return f"order_report {got}, want {want}"
    return None


def check_convolve_bck(p, inp):
    for table, first in zip(p["convolve_bck"], (RK4_AB, inp["rand_ab"])):
        ab = refs.compose_tableaus(first[0], first[1], *RK4_AB)
        if table != _weights(ab, table):
            return "composition differs from the composed tableau's weights"
    return None


def check_solve_modified(p, inp):
    be, mi = p["solve_modified"]
    for s, v in be.items():
        n = refs.order(refs.parse_tree(s))
        want = 1 if s == "[]" else 0
        if n <= 4 and v != want:
            return f"rk4 backward-error field is {v} on {s}, want {want}"
    # An order-4 method is modified first at order 5: there the modifying
    # field is minus the backward-error field.
    for s, v in mi.items():
        n = refs.order(refs.parse_tree(s))
        want = 1 if s == "[]" else (-be[s] if n == 5 else 0 if n <= 4 else v)
        if v != want:
            return f"rk4 modifying field is {v} on {s}, want {want}"
    return None


def check_substitute_b(p, inp):
    method, flow = p["substitute_b"]
    if method != _weights(RK4_AB, method):
        return "substituting the backward-error field does not give the method"
    for s, v in flow.items():
        if v != Fraction(1, refs.factorial(refs.parse_tree(s))):
            return f"substituting the modifying field gives {v} on {s}, not 1/t!"
    return None


def check_geometric(p, inp):
    if p["check_geometric"]:
        return f"implicit midpoint reported non-symplectic at {p['check_geometric'][0]}"
    return None


def check_euler_defect(p, inp):
    d = p["euler_defect"]
    if not all(d) or d[0] / d[1] < 28 or d[1] / d[2] < 28:
        return f"defect ratios {[float(d[i] / d[i + 1]) for i in range(2) if d[i + 1]]} below 28"
    return None


CHECKS = {
    "enumerate": check_enumerate,
    "delta_bck": check_delta_bck,
    "antipode_bck": check_antipode_bck,
    "delta_cefm": check_delta_cefm,
    "rk_character": check_rk_character,
    "order_report": check_order_report,
    "convolve_bck": check_convolve_bck,
    "solve_modified": check_solve_modified,
    "substitute_b": check_substitute_b,
    "check_geometric": check_geometric,
    "euler_defect": check_euler_defect,
}


def _bump_term(terms: dict):
    key = next(iter(terms))
    l, r, c = terms[key][0]
    terms[key][0] = (l, r, c + 1)


def _bump_table(table: dict, serial: str = "[[]]"):
    table[serial] += 1


def _perturb_enumerate(p):
    trees, forests = p["enumerate"]
    p["enumerate"] = (trees[:-1] + [trees[-1][:-1]], forests)


def _perturb_antipode(p):
    key = next(iter(p["antipode_bck"]))
    f, c = p["antipode_bck"][key][0]
    p["antipode_bck"][key][0] = (f, c + 1)


PERTURB = {
    "enumerate": _perturb_enumerate,
    "delta_bck": lambda p: _bump_term(p["delta_bck"]),
    "antipode_bck": _perturb_antipode,
    "delta_cefm": lambda p: _bump_term(p["delta_cefm"]),
    "rk_character": lambda p: _bump_table(p["rk_character"][1]),
    "order_report": lambda p: p["order_report"].__setitem__(0, (3, "[[[[]]]]")),
    "convolve_bck": lambda p: _bump_table(p["convolve_bck"][0], "[[[[[]]]]]"),
    "solve_modified": lambda p: _bump_table(p["solve_modified"][1], "[[][]]"),
    "substitute_b": lambda p: _bump_table(p["substitute_b"][1], "[[[]][]]"),
    "check_geometric": lambda p: p["check_geometric"].append(("[]", "[]")),
    "euler_defect": lambda p: p["euler_defect"].__setitem__(2, p["euler_defect"][1] / 20),
}
