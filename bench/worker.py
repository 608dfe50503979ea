"""One round of a workload in a fresh interpreter.

Usage: python3 bench/worker.py --workload NAME --seed N [--trace 0|1]
       [--setup-only] [--check]

The worker takes a speed probe, builds the workload's inputs, takes a
second probe and prints ``READY`` with both probe times (the parent
timestamps that line: it ends the set-up), runs one cold pass and
harness.WARM_PASSES warm passes, checks the cold outputs when given
--check, and prints one JSON line with the timings, the checksums of every
pass's outputs and, when traced, per-layer figures, spans and the tracer's
overhead. A traced worker runs as many untraced warm passes as traced ones,
in the order traced, untraced, untraced, traced, ...; the overhead compares
the two kinds, so drift between processes does not enter it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import time

import harness

MODULES = {
    "bseries_order8": "wl_bseries",
    "lbseries_order6": "wl_lbseries",
    "lie_steppers": "wl_steppers",
}


def pass_plan(trace: bool) -> list[tuple[str, bool]]:
    """(label, traced) of every pass of a worker."""
    return [("cold", trace)] + [("warm", t) for t in harness.warm_plan(trace)]


def exact_round(name: str, seed: int, trace: bool, setup_only: bool, check: bool,
                first_probe: float) -> dict | None:
    mod = importlib.import_module(MODULES[name])
    inp = mod.setup(seed, harness.Tracer(trace))
    from bflow import algebra

    harness.announce_ready(first_probe)
    if setup_only:
        return None
    plan = pass_plan(trace)
    passes = []
    for label, traced in plan:
        gc.collect()  # each pass pays for the collections its own objects cause
        tr = harness.Tracer(traced, probe=harness.reference_loop)
        t0 = time.perf_counter()
        with tr.span("pass." + label):
            out = mod.run_pass(inp, tr)
            texts = mod.render(out, tr, algebra)
        passes.append((tr.scaled(time.perf_counter() - t0), tr, texts))
        if label == "cold":
            cold_out = out
        del out

    failures = {}
    if check:
        if hasattr(mod, "prepare_checks"):
            mod.prepare_checks(inp)
        failures = harness.run_checks(mod.CHECKS, mod.extract(cold_out), inp)
    # warm_s: the warm passes traced like the worker (untraced ones of a
    # traced worker go to untraced_warm_s)
    warm = [p for p, (label, traced) in zip(passes, plan) if label == "warm" and traced == trace]
    result = {
        "cold_s": passes[0][0][1],
        "warm_s": [p[0][1] for p in warm],
        "raw_cold_s": passes[0][0][0],
        "raw_warm_s": [p[0][0] for p in warm],
        "probe_s": [statistics.median(p[1].probes) for p in passes],
        "failures": failures,
        "checksums": [{op: harness.sha256(t) for op, t in sorted(p[2].items())} for p in passes],
    }
    if trace:
        untraced = [p for p, (_, traced) in zip(passes, plan) if not traced]
        result["untraced_warm_s"] = [p[0][1] for p in untraced]
        result["overhead_pct"] = harness.overhead_pct([p[1].op_scaled for p in warm],
                                                      [p[1].op_scaled for p in untraced])
        result["layers"] = layer_figures(mod, passes)
        result["spans"] = {label: p[1].spans for label, p in zip(["cold", "warm"], passes)}
    return result


def layer_figures(mod, passes) -> dict:
    cold_tr = passes[0][1]
    if hasattr(mod, "layer_metrics"):
        return mod.layer_metrics(cold_tr)
    out = {}
    for label, (_, tr, _) in zip(["cold", "warm"], passes):
        for span, t in tr.self_times("pass." + label).items():
            if not span.startswith("pass."):
                out[f"{span}.{label}_s"] = t
    out.update(cold_tr.counts)
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--check", action="store_true", help="check the cold outputs")
    args = p.parse_args()
    first_probe = harness.reference_loop()
    if args.workload == "cli_session":
        import wl_cli

        result = wl_cli.worker_round(args.seed, bool(args.trace), args.setup_only, first_probe)
    else:
        result = exact_round(args.workload, args.seed, bool(args.trace), args.setup_only, args.check,
                             first_probe)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
