"""Checker self-test: every checker must accept the program's output and
reject the same output with one coefficient or state perturbed.

Usage, from the root of a source checkout:

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

Prints one line per checker and exits with 1 if any checker accepts a
perturbed output or rejects a clean one.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(Path.cwd() / "src"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import harness  # noqa: E402
import wl_bseries  # noqa: E402
import wl_cli  # noqa: E402
import wl_lbseries  # noqa: E402
import wl_steppers  # noqa: E402

EXACT = {"bseries_order8": wl_bseries, "lbseries_order6": wl_lbseries, "lie_steppers": wl_steppers}


def exact_outputs(mod, seed: int):
    from bflow import algebra

    tr = harness.Tracer(False)
    inp = mod.setup(seed, tr)
    out = mod.run_pass(inp, tr)
    mod.render(out, tr, algebra)
    if hasattr(mod, "prepare_checks"):
        mod.prepare_checks(inp)
    return mod.extract(out), inp


def cli_outputs(seed: int):
    from bflow import cli

    inp = wl_cli.inputs(seed)
    path = wl_cli.tableau_path(seed)
    Path(path).parent.mkdir(exist_ok=True)
    Path(path).write_text(wl_cli.tableau_text(inp["ab"]), encoding="utf-8")
    plain = {}
    for name, argv in wl_cli.script(inp, path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"bflow {' '.join(argv)} exited with {code}")
        plain[name] = buf.getvalue()
    return plain, inp


def selftest(name: str, checks: dict, perturb: dict, plain, inp) -> int:
    bad = 0
    for op, fn in checks.items():
        clean = fn(plain, inp)
        broken = copy.deepcopy(plain)
        perturb[op](broken)
        caught = fn(broken, inp)
        ok = clean is None and caught is not None
        bad += not ok
        verdict = "ok" if ok else "FAIL"
        detail = f"clean output rejected: {clean}" if clean else f"perturbed: {caught}"
        print(f"{verdict:4s} {name}.{op}: {detail}")
    return bad


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=[*EXACT, "cli_session"])
    args = p.parse_args()
    bad = 0
    for name in args.workload or [*EXACT, "cli_session"]:
        if name == "cli_session":
            plain, inp = cli_outputs(args.seed)
            bad += selftest(name, wl_cli.CHECKS, wl_cli.PERTURB, plain, inp)
        else:
            mod = EXACT[name]
            plain, inp = exact_outputs(mod, args.seed)
            bad += selftest(name, mod.CHECKS, mod.PERTURB, plain, inp)
    print(f"{bad} checker(s) failed the self-test")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
