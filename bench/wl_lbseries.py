"""lbseries_order6: Lie-Butcher computations on planar forests.

Seeded input: a random shuffle character, rho(t1 ... tk) = a(t1) ... a(tk) / k!
with random nonzero rational letter values a on the planar trees of order
<= 6 (nonzero, so that the work of a pass does not depend on the seed). The
trees are listed by refs, not by bflow, so that the cold pass is the first
to fill bflow's enumeration tables.
"""

from __future__ import annotations

import random
from fractions import Fraction

import harness as hn
import refs

N = 6
N_DELTA = 7
N_BELL = 7


def setup(seed: int, tr) -> dict:
    from bflow import forest_core, lbseries

    rng = random.Random(seed)
    letters = {}
    for n in range(1, N + 1):
        for serial in refs.planar_tree_serials(n):
            letters[serial] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))

    def rho(w):
        out = Fraction(1)
        for k, t in enumerate(w.word, start=1):
            out *= letters[t.serial] / k
        return out

    return {
        "fc": forest_core,
        "lb": lbseries,
        "letters": letters,
        "rho": lbseries.LBCoeff.from_function(rho, N, kind="character"),
        "bell_words": [
            lbseries.BellWord(c) for n in range(1, N_BELL + 1) for c in refs.compositions(n)
        ],
    }


def run_pass(inp: dict, tr) -> dict:
    fc, lb = inp["fc"], inp["lb"]
    out: dict = {}
    with tr.span("forest_core.enumerate"):
        words = [fc.enumerate_forests(n, planar=True) for n in range(0, N_DELTA + 1)]
        ptrees = [fc.enumerate_trees(n, planar=True) for n in range(1, N_DELTA + 1)]
    out["enumerate"] = ([[w.serial for w in level] for level in words], [[t.serial for t in level] for level in ptrees])
    nonempty = [w for level in words[1:] for w in level]

    with tr.span("lbseries.delta_mkw"):
        out["delta_mkw"] = [(w, lb.delta_mkw(w)) for w in nonempty]
    with tr.span("lbseries.antipode_mkw"):
        out["antipode_mkw"] = [(w, lb.antipode_mkw(w)) for w in nonempty if w.order <= N]

    with tr.span("lbseries.exact_flow_lb"):
        ef = lb.exact_flow_lb(N)
        ef_t = ef.table()
    conv = {}
    for name, alpha in (("flow", None), ("rho", inp["rho"])):
        with tr.span("lbseries.q_apply"):
            if alpha is None:
                alpha = lb.q_apply(ef, N)
            char_t = alpha.table()
        with tr.span("lbseries.eulerian_apply"):
            log = lb.eulerian_apply(alpha, N)
            log_t = log.table()
        with tr.span("lbseries.gl_exp"):
            back_t = lb.gl_exp(log, N).table()
        with tr.span("lbseries.dynkin_apply"):
            lie = lb.dynkin_apply(alpha, N)
            lie_t = lie.table()
        with tr.span("lbseries.q_apply"):
            q_t = lb.q_apply(lie, N).table()
        conv[name] = (char_t, log_t, back_t, lie_t, q_t)
    out["exact_flow_lb"] = (ef_t, conv["flow"][0])
    out["eulerian_gl_exp"] = {k: v[:3] for k, v in conv.items()}
    out["dynkin_q"] = {k: (v[0], v[3], v[4]) for k, v in conv.items()}
    with tr.span("lbseries.q_apply"):
        out["q_apply_dot"] = lb.q_apply(lb.dot_lb(N), N).table()

    with tr.span("lbseries.method_series"):
        ms = lb.method_series("lie_implicit_midpoint", "type3", N)
        ms_t = ms.table()
    out["method_series"] = (ms_t, ef_t)
    with tr.span("lbseries.lb_substitute"):
        dot = lb.dot_lb(N)
        out["lb_substitute"] = (
            ms_t,
            lb.lb_substitute(dot, ms, N).table(),
            lb.lb_substitute(ms, dot, N).table(),
        )

    with tr.span("lbseries.bell"):
        out["bell"] = [lb.bell(n) for n in range(0, N_BELL + 1)]
    with tr.span("lbseries.fdb_coproduct"):
        out["fdb_coproduct"] = [(w, lb.fdb_coproduct(w)) for w in inp["bell_words"]]
    return out


def _tables_text(*tables) -> str:
    return "\n\n".join(
        hn.table_text(sorted(((w.serial, v) for w, v in t.items()), key=lambda r: (len(r[0]), r[0])))
        for t in tables
    )


def render(out: dict, tr, algebra) -> dict[str, str]:
    texts: dict[str, str] = {}
    with tr.span("algebra.render_sum"):
        sums = {
            "delta_mkw": [(w.serial, algebra.render_sum(d, hn.tensor_key)) for w, d in out["delta_mkw"]],
            "antipode_mkw": [(w.serial, algebra.render_sum(s, hn.basis_key)) for w, s in out["antipode_mkw"]],
            "bell": [(str(n), algebra.render_sum(b, lambda x: x.serial)) for n, b in enumerate(out["bell"])],
            "fdb_coproduct": [(w.serial, algebra.render_sum(d, hn.bell_tensor_key)) for w, d in out["fdb_coproduct"]],
        }
    for op, rows in sums.items():
        texts[op] = hn.table_text(rows)
    terms = sum(len(d) for op in ("delta_mkw", "antipode_mkw", "fdb_coproduct") for _, d in out[op])
    tr.count("algebra.terms", terms + sum(len(b) for b in out["bell"]))
    words, ptrees = out["enumerate"]
    texts["enumerate"] = "\n".join(" ".join(level) for level in words + ptrees)
    texts["exact_flow_lb"] = _tables_text(*out["exact_flow_lb"])
    texts["eulerian_gl_exp"] = _tables_text(*out["eulerian_gl_exp"]["flow"], *out["eulerian_gl_exp"]["rho"])
    texts["dynkin_q"] = _tables_text(*out["dynkin_q"]["flow"], *out["dynkin_q"]["rho"])
    texts["q_apply_dot"] = _tables_text(out["q_apply_dot"])
    texts["method_series"] = _tables_text(out["method_series"][0])
    texts["lb_substitute"] = _tables_text(*out["lb_substitute"][1:])
    return texts


def _plain_table(t: dict) -> dict:
    return {w.serial: v for w, v in t.items()}


def extract(out: dict) -> dict:
    plain = dict(out)
    plain["delta_mkw"] = {w.serial: hn.tensor_terms(d) for w, d in out["delta_mkw"]}
    plain["antipode_mkw"] = {w.serial: hn.basis_terms(s) for w, s in out["antipode_mkw"]}
    plain["exact_flow_lb"] = tuple(_plain_table(t) for t in out["exact_flow_lb"])
    for op in ("eulerian_gl_exp", "dynkin_q"):
        plain[op] = {k: tuple(_plain_table(t) for t in v) for k, v in out[op].items()}
    plain["q_apply_dot"] = _plain_table(out["q_apply_dot"])
    plain["method_series"] = tuple(_plain_table(t) for t in out["method_series"])
    plain["lb_substitute"] = tuple(_plain_table(t) for t in out["lb_substitute"])
    plain["bell"] = [{b.word: c for b, c in s} for s in out["bell"]]
    plain["fdb_coproduct"] = {w.word: [(t.left.word, t.right.word, c) for t, c in d] for w, d in out["fdb_coproduct"]}
    return plain


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _word_order(serial: str) -> int:
    return sum(refs.order(t) for t in refs.parse_word(serial))


def check_enumerate(p, inp):
    words, ptrees = p["enumerate"]
    got = [len(level) for level in words]
    want = [refs.catalan(n) for n in range(N_DELTA + 1)]
    if got != want:
        return f"planar words per order {got}, want Catalan {want}"
    got = [len(level) for level in ptrees]
    want = [refs.catalan(n - 1) for n in range(1, N_DELTA + 1)]
    if got != want:
        return f"planar trees per order {got}, want {want}"
    return None


def mkw_terms_differ(terms, word: tuple) -> str | None:
    """Compares (left serial, right serial, coefficient) terms with the
    benchmark's own MKW coproduct of ``word``; returns the first difference."""
    got: dict = {}
    for l, r, c in terms:
        _tensor_add(got, (refs.words_of(l), refs.words_of(r)), c)
    got = {k: c for k, c in got.items() if c}
    want = refs.mkw_coproduct(word)
    if got == want:
        return None
    key = min(set(got) | set(want), key=lambda k: (got.get(k) == want.get(k), k))
    return f"coefficient {got.get(key, 0)} of {' '.join(key[0]) or '1'} (x) {' '.join(key[1]) or '1'}, want {want.get(key, 0)}"


def check_delta_mkw(p, inp):
    for serial, terms in p["delta_mkw"].items():
        diff = mkw_terms_differ(terms, refs.words_of(serial))
        if diff:
            return f"delta_mkw({serial}): {diff}"
    return None


def check_antipode_mkw(p, inp):
    s_of = {"1": [("1", 1)]}
    s_of.update(p["antipode_mkw"])
    for serial in p["antipode_mkw"]:
        total: dict = {}
        for l, r, c in p["delta_mkw"][serial]:
            for u, cu in s_of[l]:
                for w, m in refs.shuffle(refs.words_of(u), refs.words_of(r)).items():
                    total[w] = total.get(w, 0) + c * cu * m
        if any(total.values()):
            return f"shuffle(S (x) id) delta_mkw({serial}) != 0"
    return None


def check_exact_flow_lb(p, inp):
    ef, phi = p["exact_flow_lb"]
    for serial, v in ef.items():
        if v and len(refs.words_of(serial)) != 1:
            return f"exact_flow_lb is {v} on the word {serial}, not on a single tree"
    # the flow character solves y(h) = y0 + int f(y): phi(B+(w)) = phi(w) / (|w| + 1)
    for serial, v in phi.items():
        trees = refs.words_of(serial)
        if len(trees) == 1:
            inner = trees[0][1:-1].strip() or "1"
            want = phi[" ".join(refs.words_of(inner)) or "1"] / _word_order(serial)
            if v != want:
                return f"flow character is {v} on {serial}, want {want}"
    return None


def check_roundtrip(p, op):
    for name, (char, _, back) in p[op].items():
        if char != back:
            bad = next(s for s in char if char[s] != back.get(s))
            return f"{op} round trip on {name} differs at {bad}"
    return None


def check_eulerian_gl_exp(p, inp):
    for name, (_, log, _) in p["eulerian_gl_exp"].items():
        if log.get("1", 0) != 0:
            return f"eulerian_apply({name}) is not a field"
    return check_roundtrip(p, "eulerian_gl_exp")


def check_dynkin_q(p, inp):
    return check_roundtrip(p, "dynkin_q")


def check_q_apply_dot(p, inp):
    for serial, v in p["q_apply_dot"].items():
        trees = refs.words_of(serial)
        k = len(trees)
        want = Fraction(1)
        if all(t == "[]" for t in trees):
            for i in range(2, k + 1):
                want /= i
        else:
            want = Fraction(0)
        if v != want:
            return f"q_apply(dot) is {v} on {serial}, want {want}"
    return None


def check_method_series(p, inp):
    ms, ef = p["method_series"]
    for serial in ms:
        if _word_order(serial) <= 2 and ms[serial] != ef[serial]:
            return f"implicit midpoint Lie series {ms[serial]} on {serial}, exact flow {ef[serial]}"
    return None


def check_lb_substitute(p, inp):
    ms, dot_into_ms, ms_into_dot = p["lb_substitute"]
    if dot_into_ms != ms:
        return "substituting the single vertex into a series changed it"
    if ms_into_dot != ms:
        return "substituting a field into the single vertex did not return the field"
    return None


def check_bell(p, inp):
    for n, poly in enumerate(p["bell"]):
        words = 2 ** (n - 1) if n else 1
        if sum(poly.values()) != refs.bell_number(n) or len(poly) != words:
            return f"bell({n}) has {len(poly)} words summing to {sum(poly.values())}"
    if p["bell"] != refs.bell_polynomials(N_BELL):
        return "bell differs from the d_1 B_n + D(B_n) recursion"
    return None


def _tensor_add(acc: dict, key, c) -> None:
    acc[key] = acc.get(key, 0) + c


def check_fdb_coproduct(p, inp):
    delta = dict(p["fdb_coproduct"])
    delta[()] = [((), (), 1)]
    bells = refs.bell_polynomials(N_BELL)
    for n in range(1, N_BELL + 1):
        want = {(w, (len(w),)): c for w, c in bells[n].items()}
        got = {(l, r): c for l, r, c in delta[(n,)]}
        if got != want:
            return f"Delta(d{n}) != sum_k B_(n,k) (x) d_k"
    for w, terms in p["fdb_coproduct"].items():
        lhs: dict = {}
        rhs: dict = {}
        for l, r, c in terms:
            for a, b, c2 in delta[l]:
                _tensor_add(lhs, (a, b, r), c * c2)
            for a, b, c2 in delta[r]:
                _tensor_add(rhs, (l, a, b), c * c2)
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            return f"fdb_coproduct is not coassociative at {w}"
    return None


CHECKS = {
    "enumerate": check_enumerate,
    "delta_mkw": check_delta_mkw,
    "antipode_mkw": check_antipode_mkw,
    "exact_flow_lb": check_exact_flow_lb,
    "eulerian_gl_exp": check_eulerian_gl_exp,
    "dynkin_q": check_dynkin_q,
    "q_apply_dot": check_q_apply_dot,
    "method_series": check_method_series,
    "lb_substitute": check_lb_substitute,
    "bell": check_bell,
    "fdb_coproduct": check_fdb_coproduct,
}


def _bump_terms(table: dict, key, idx: int = 0):
    terms = table[key]
    *rest, c = terms[idx]
    terms[idx] = (*rest, c + 1)


def _bump_interior(table: dict, key):
    """Bumps the first term with a non-empty word on both sides."""
    idx = next(i for i, (l, r, _) in enumerate(table[key]) if l != "1" and r != "1")
    _bump_terms(table, key, idx)


def _bump_map(table: dict, serial: str):
    table[serial] = table.get(serial, 0) + 1


PERTURB = {
    "enumerate": lambda p: p["enumerate"][0][5].pop(),
    "delta_mkw": lambda p: _bump_interior(p["delta_mkw"], "[[]] []"),
    "antipode_mkw": lambda p: _bump_terms(p["antipode_mkw"], "[[][]]"),
    "exact_flow_lb": lambda p: _bump_map(p["exact_flow_lb"][1], "[[][]]"),
    "eulerian_gl_exp": lambda p: _bump_map(p["eulerian_gl_exp"]["rho"][2], "[] [[]]"),
    "dynkin_q": lambda p: _bump_map(p["dynkin_q"]["flow"][2], "[[[]]]"),
    "q_apply_dot": lambda p: _bump_map(p["q_apply_dot"], "[] [] []"),
    "method_series": lambda p: _bump_map(p["method_series"][0], "[[]]"),
    "lb_substitute": lambda p: _bump_map(p["lb_substitute"][2], "[[]] []"),
    "bell": lambda p: p["bell"][4].__setitem__((1, 3), p["bell"][4][(1, 3)] + 1),
    "fdb_coproduct": lambda p: _bump_terms(p["fdb_coproduct"], (3, 1), 2),
}
