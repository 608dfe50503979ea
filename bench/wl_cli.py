"""cli_session: a fixed script of bflow invocations.

Seeded inputs: the tableau file (a random consistent explicit 4-stage
rational tableau), the order-6 planar word given to ``coproduct mkw``, and
the rigid-body starting vector of ``integrate`` and ``converge``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import refs
import wl_bseries
import wl_lbseries
import wl_steppers

RK4_AB = wl_bseries.RK4_AB
TREES_N = 8
BCK_TABLE = 5
FDB_TABLE = 5
ORDER_N = 6
SERIES_N = 5
ROT_H, ROT_STEPS = 0.01, 100
ISO_H, ISO_STEPS = 0.01, 100
TODA_Y0 = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])  # the CLI's stock problem


def _random_word(rng: random.Random, n: int) -> str:
    if n == 0:
        return ""
    k = rng.randint(1, n)
    return "[" + _random_word(rng, k - 1) + "]" + _random_word(rng, n - k)


def inputs(seed: int) -> dict:
    rng = random.Random(seed)
    a, b = wl_bseries.seeded_tableau(rng)
    word = _random_word(rng, 6)
    v = np.random.default_rng(seed & wl_steppers.SEED_MASK).normal(size=3)
    return {"ab": (a, b), "word": word, "y0": v / np.linalg.norm(v)}


def tableau_text(ab) -> str:
    a, b = ab
    rows = [str(len(b))] + [" ".join(str(x) for x in row) for row in a] + [" ".join(str(x) for x in b)]
    return "\n".join(rows) + "\n"


def script(inp: dict, tableau_path: str) -> list[tuple[str, list[str]]]:
    # --y0=... because argparse reads a value starting with "-" as an option
    y0 = ",".join(repr(float(x)) for x in inp["y0"])
    return [
        ("trees", ["trees", "-N", str(TREES_N)]),
        ("coproduct_bck", ["coproduct", "bck", "--table", str(BCK_TABLE)]),
        ("coproduct_mkw", ["coproduct", "mkw", inp["word"]]),
        ("coproduct_fdb", ["coproduct", "fdb", "--table", str(FDB_TABLE)]),
        ("order", ["order", "--tableau", tableau_path, "-N", str(ORDER_N)]),
        ("modified", ["modified", "--builtin", "rk4", "--mode", "backward_error", "-N", str(ORDER_N)]),
        ("compose", ["compose", "--tableau-first", tableau_path, "--second", "rk4", "-N", str(ORDER_N)]),
        ("series", ["series", "--method", "lie_implicit_midpoint", "--rep", "type3", "-N", str(SERIES_N)]),
        ("geometric", ["geometric", "--builtin", "implicit_midpoint", "--kind", "symplectic", "-N", str(ORDER_N)]),
        ("integrate_rotation", [
            "integrate", "--method", "lie_rk4", "--action", "rotation", "--h", str(ROT_H),
            "--steps", str(ROT_STEPS), f"--y0={y0}", "--check-invariant", "norm",
        ]),
        ("integrate_isospectral", [
            "integrate", "--method", "cf4", "--action", "isospectral", "--h", str(ISO_H),
            "--steps", str(ISO_STEPS), "--check-invariant", "spectrum",
        ]),
        ("converge", [
            "converge", "--method", "lie_rk4", "--action", "rotation", "--h", ",".join(map(str, wl_steppers.CONV_H)),
            "--t-end", "1.0", f"--y0={y0}",
        ]),
    ]


# ---------------------------------------------------------------------------
# Checkers on stdout. Each takes the dict {name: stdout} and the inputs.
# ---------------------------------------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines() if line]


def _terms(render: str) -> list[tuple[Fraction, str, str]]:
    out = []
    for term in render.split(" + "):
        coeff, _, body = term.rpartition(" * ")
        left, _, right = body.partition(" (x) ")
        out.append((Fraction(coeff) if coeff else Fraction(1), left, right))
    return out


def check_trees(p, inp):
    rows = _rows(p["trees"])
    counts = [0] * TREES_N
    for serial, n, sigma, fact in rows:
        t = refs.parse_tree(serial)
        if (int(n), int(sigma), int(fact)) != (refs.order(t), refs.symmetry(t), refs.factorial(t)):
            return f"wrong statistics for {serial}"
        counts[int(n) - 1] += 1
    if tuple(counts) != refs.A000081[:TREES_N]:
        return f"trees per order {counts}"
    if [r[0] for r in rows] != [s for n in range(1, TREES_N + 1) for s in refs.nonplanar_serials(n)]:
        return "trees are not listed in canonical order"
    return None


def check_coproduct_bck(p, inp):
    rows = _rows(p["coproduct_bck"])
    if len(rows) != sum(len(refs.nonplanar_forests(n)) for n in range(1, BCK_TABLE + 1)):
        return f"{len(rows)} rows in the bck table"
    for serial, render in rows:
        want = 1
        for t in refs.parse_word(serial):
            want *= refs.cut_count(t) + 1
        if sum(c for c, _, _ in _terms(render)) != want:
            return f"coefficients of bck({serial}) do not sum to {want}"
    return None


def check_coproduct_mkw(p, inp):
    terms = [(l, r, c) for c, l, r in _terms(p["coproduct_mkw"].strip())]
    diff = wl_lbseries.mkw_terms_differ(terms, refs.words_of(inp["word"]))
    return f"mkw coproduct of {inp['word']}: {diff}" if diff else None


def _bell_word(serial: str) -> tuple:
    return () if serial == "1" else tuple(int(x[1:]) for x in serial.split("."))


def check_coproduct_fdb(p, inp):
    delta = {}
    for serial, render in _rows(p["coproduct_fdb"]):
        delta[_bell_word(serial)] = [(c, _bell_word(l), _bell_word(r)) for c, l, r in _terms(render)]
    if len(delta) != 2**FDB_TABLE:
        return f"{len(delta)} Bell words up to grade {FDB_TABLE}"
    bells = refs.bell_polynomials(FDB_TABLE)
    for n in range(1, FDB_TABLE + 1):
        if {(l, r): c for c, l, r in delta[(n,)]} != {(w, (len(w),)): c for w, c in bells[n].items()}:
            return f"Delta(d{n}) != sum_k B_(n,k) (x) d_k"
    for w, terms in delta.items():
        lhs: dict = {}
        rhs: dict = {}
        for c, l, r in terms:
            for c2, a, b in delta[l]:
                lhs[(a, b, r)] = lhs.get((a, b, r), 0) + c * c2
            for c2, a, b in delta[r]:
                rhs[(l, a, b)] = rhs.get((l, a, b), 0) + c * c2
        if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
            return f"fdb coproduct is not coassociative at {w}"
    return None


def _levels(n_max: int) -> list[list[str]]:
    return [list(refs.nonplanar_serials(n)) for n in range(1, n_max + 1)]


def check_order(p, inp):
    a, b = inp["ab"]
    order, witness = refs.classical_order(a, b, _levels(ORDER_N))
    lines = p["order"].splitlines()
    if lines[0] != f"order: {order}":
        return f"{lines[0]!r}, want order {order}"
    if witness is None:
        return None if lines[1].startswith("no violations") else "a violation is reported where none exists"
    t = refs.parse_tree(witness)
    want = f"first violation: {witness} (weight {refs.elementary_weight(a, b, t)}, exact flow {Fraction(1, refs.factorial(t))})"
    return None if lines[1] == want else f"{lines[1]!r}, want {want!r}"


def check_modified(p, inp):
    rows = _rows(p["modified"])
    if rows[0] != ["[]", "1"]:
        return f"rk4 backward-error field starts with {rows[0]}"
    for serial, value in rows[1:]:
        if refs.order(refs.parse_tree(serial)) <= 4:
            return f"rk4 backward-error field is {value} on {serial}"
    return None


def check_compose(p, inp):
    a, b = refs.compose_tableaus(*inp["ab"], *RK4_AB)
    got = dict(_rows(p["compose"]))
    if got.pop("1", None) != "1":
        return "composition is not 1 on the empty forest"
    for level in _levels(ORDER_N):
        for s in level:
            want = refs.elementary_weight(a, b, refs.parse_tree(s))
            if Fraction(got.get(s, "0")) != want:
                return f"composition is {got.get(s, '0')} on {s}, want {want}"
    return None


# The Lie form of the exact flow through order 2: the flow is 1 on [], 1/2 on
# [[]] and on [] [], and its logarithm removes the square of the [] term.
EXACT_LIE_2 = {"[]": Fraction(1), "[[]]": Fraction(1, 2), "[] []": Fraction(0)}


def check_series(p, inp):
    got = {s: Fraction(v) for s, v in _rows(p["series"])}
    for serial, want in EXACT_LIE_2.items():
        if got.get(serial, Fraction(0)) != want:
            return f"implicit midpoint Lie series {got.get(serial)} on {serial}, exact flow {want}"
    return None


def check_geometric(p, inp):
    return None if p["geometric"] == "OK\n" else f"implicit midpoint reported {p['geometric']!r}"


def _csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def check_integrate_rotation(p, inp):
    data = _csv(p["integrate_rotation"])
    if len(data) != ROT_STEPS or np.max(data[:, -1]) > 1e-12:
        return f"norm drift {np.max(data[:, -1]):.3e} over 1e-12"
    ref = refs.rk4_reference(wl_steppers._rigid_rhs, inp["y0"], ROT_H / 100, ROT_STEPS * 100)
    err = float(np.max(np.abs(data[-1, 2:5] - ref)))
    return None if err <= wl_steppers.TOL["rigid_body"]["lie_rk4"] else f"final state off the RK4 reference by {err:.3e}"


def check_integrate_isospectral(p, inp):
    data = _csv(p["integrate_isospectral"])
    if len(data) != ISO_STEPS or np.max(data[:, -1]) > 1e-10:
        return f"eigenvalue drift {np.max(data[:, -1]):.3e} over 1e-10"
    ref = refs.rk4_reference(wl_steppers._toda_rhs, TODA_Y0, ISO_H / 100, ISO_STEPS * 100)
    err = float(np.max(np.abs(data[-1, 2:11] - ref.ravel())))
    return None if err <= wl_steppers.TOL["toda"]["cf4"] else f"final state off the RK4 reference by {err:.3e}"


def check_converge(p, inp):
    last = p["converge"].splitlines()[-1]
    slope = float(last.rpartition(":")[2])
    return None if abs(slope - 4.0) <= 0.2 else f"lie_rk4 slope {slope}, nominal 4"


CHECKS = {
    "trees": check_trees,
    "coproduct_bck": check_coproduct_bck,
    "coproduct_mkw": check_coproduct_mkw,
    "coproduct_fdb": check_coproduct_fdb,
    "order": check_order,
    "modified": check_modified,
    "compose": check_compose,
    "series": check_series,
    "geometric": check_geometric,
    "integrate_rotation": check_integrate_rotation,
    "integrate_isospectral": check_integrate_isospectral,
    "converge": check_converge,
}


def _replace_line(p, name, idx, fn):
    lines = p[name].split("\n")
    lines[idx] = fn(lines[idx])
    p[name] = "\n".join(lines)


def _bump_last_field(line: str) -> str:
    head, _, last = line.rpartition("\t")
    return f"{head}\t{Fraction(last) + 1}"


def _bump_csv(line: str, col: int) -> str:
    cells = line.split(",")
    cells[col] = repr(float(cells[col]) + 0.5)
    return ",".join(cells)


def _bump_first_coeff(render_line: str) -> str:
    head, _, render = render_line.rpartition("\t")
    terms = render.split(" + ")
    coeff, sep, body = terms[0].rpartition(" * ")
    terms[0] = f"{Fraction(coeff or 1) + 1} * {body if sep else terms[0]}"
    return f"{head}\t{' + '.join(terms)}" if head else " + ".join(terms)


PERTURB = {
    "trees": lambda p: _replace_line(p, "trees", 5, lambda l: l[:-1] + str(int(l[-1]) + 1)),
    "coproduct_bck": lambda p: _replace_line(p, "coproduct_bck", 4, _bump_first_coeff),
    "coproduct_mkw": lambda p: _replace_line(p, "coproduct_mkw", 0, _bump_first_coeff),
    "coproduct_fdb": lambda p: _replace_line(p, "coproduct_fdb", 3, _bump_first_coeff),
    "order": lambda p: _replace_line(p, "order", 0, lambda l: "order: 7"),
    "modified": lambda p: _replace_line(p, "modified", 0, _bump_last_field),
    "compose": lambda p: _replace_line(p, "compose", 3, _bump_last_field),
    "series": lambda p: _replace_line(p, "series", 1, _bump_last_field),
    "geometric": lambda p: p.__setitem__("geometric", "violation: [] | []\n"),
    "integrate_rotation": lambda p: _replace_line(p, "integrate_rotation", ROT_STEPS, lambda l: _bump_csv(l, 2)),
    "integrate_isospectral": lambda p: _replace_line(p, "integrate_isospectral", ISO_STEPS, lambda l: _bump_csv(l, 2)),
    "converge": lambda p: _replace_line(p, "converge", -2, lambda l: "# least-squares slope: 3.7"),
}


# ---------------------------------------------------------------------------
# The in-process half of a round, run by bench/worker.py
# ---------------------------------------------------------------------------


def tableau_path(seed: int) -> str:
    return f"bench/out/tableau-{seed}.txt"


def worker_round(seed: int, trace: bool, setup_only: bool, first_probe: float) -> dict | None:
    """Set-up (a fresh ``import bflow.cli`` and the tableau file), then the
    script's argument lists passed to ``bflow.cli.main`` in process, after
    one untimed pass of them, with stdout captured: harness.WARM_PASSES passes, and
    when traced as many untraced ones among them (harness.warm_plan)."""
    import contextlib
    import gc
    import io
    import os

    import harness
    from bflow import cli

    inp = inputs(seed)
    path = tableau_path(seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tableau_text(inp["ab"]))
    harness.announce_ready(first_probe)
    if setup_only:
        return None
    steps = script(inp, path)
    # One untimed pass of the script, as the cold pass of the exact
    # workloads: the calls that follow find every table full.
    with contextlib.redirect_stdout(io.StringIO()):
        for _, argv in steps:
            cli.main(argv)
    times = {True: [], False: []}
    raw_times = {True: [], False: []}
    call_times = {True: [], False: []}  # rescaled time of each call, per pass
    texts, codes = {}, {}

    def call(argv, buf):
        with contextlib.redirect_stdout(buf):
            return cli.main(argv)

    for traced in harness.warm_plan(trace):
        gc.collect()
        tr = harness.Tracer(traced)
        scaled_calls, raw_total = [], 0.0
        for name, argv in steps:
            buf = io.StringIO()
            with tr.span(f"cli.{name}"):
                codes[name], raw, scaled = harness.probed(lambda: call(argv, buf))
            scaled_calls.append(scaled)
            raw_total += raw
            texts[name] = buf.getvalue()
        times[traced].append(sum(scaled_calls))
        raw_times[traced].append(raw_total)
        call_times[traced].append(scaled_calls)
    result = {
        "warm_s": times[trace],
        "warm_calls_s": call_times[trace],
        "raw_warm_s": raw_times[trace],
        "codes": codes,
        "checksums": {name: harness.sha256(t) for name, t in sorted(texts.items())},
    }
    if trace:
        result["untraced_warm_s"] = times[False]
        result["overhead_pct"] = harness.overhead_pct(call_times[True], call_times[False])
    return result
