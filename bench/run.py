"""Benchmark entry point: runs one workload for a fixed time and prints its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bseries_order8, lbseries_order6, lie_steppers, cli_session.

A run is a sequence of rounds, one worker process at a time. Each round
starts a fresh interpreter (bench/worker.py) whose set-up is timed from
spawn to its READY line, then times one cold pass (empty memo tables) and
warm passes (tables full) and checks every output against independent
computations. cli_session rounds also run the bflow script in fresh
processes. Rounds repeat while the next one fits in --seconds; the run
reports medians over rounds.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). A report with checksums of every exact output,
per-round figures and, when traced, the spans goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

# BLAS and OpenMP pools are pinned to one thread in every process the
# benchmark starts (and in this one, before numpy loads).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

WORKLOADS = ("bseries_order8", "lbseries_order6", "lie_steppers", "cli_session")
MIN_SETUP_SAMPLES = 5  # 11 when a set-up takes under half a second
WORKER_TIMEOUT_S = 150.0
# The console script's entry, bracketed by two speed probes whose times go
# to the file named by BENCH_PROBE_FILE (stdout stays the CLI's own).
CLI_ENTRY = """import os, sys
sys.path.insert(0, os.environ["BENCH_DIR"])
import harness
first = harness.reference_loop()
from bflow.cli import main
code = main()
last = harness.reference_loop()
with open(os.environ["BENCH_PROBE_FILE"], "w", encoding="utf-8") as fh:
    fh.write(f"{first!r} {last!r}")
sys.exit(code)
"""
PROBE_FILE = BENCH / "out" / "cli-probes.txt"


class BenchError(Exception):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    env["BENCH_DIR"] = str(BENCH)
    env["BENCH_PROBE_FILE"] = str(PROBE_FILE)
    env.pop("BF_MAX_ORDER", None)
    return env


def spawn(cmd: list[str], env: dict, cwd: Path, deadline: float) -> dict:
    """Run a child to its end; returns its stdout lines, exit code, wall time,
    its peak RSS and, if it printed a READY line, the set-up time (to that
    line, the child's two probes left out and rescaled by them) and its raw
    wall time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=cwd)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    buf, lines, ready, ready_raw = b"", [], None, None
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"timed out: {cmd[1:4]}")
            if not sel.select(left):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if ready is None and line.startswith(b"READY "):
                    ready_raw = time.perf_counter() - t0
                    first, last = (float(x) for x in line.split()[1:])
                    ready = harness.rescale(ready_raw - first - last, first, last)
                lines.append(line)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        sel.close()
        proc.stdout.close()
    if buf:
        lines.append(buf)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "lines": lines,
        "code": proc.returncode,
        "wall": time.perf_counter() - t0,
        "ready": ready,
        "ready_raw": ready_raw,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def worker_cmd(name: str, seed: int, trace: bool, setup_only: bool = False, check: bool = False) -> list[str]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--trace", str(int(trace))]
    return cmd + (["--setup-only"] if setup_only else []) + (["--check"] if check else [])


def run_worker(name, seed, trace, root, env, setup_only=False, check=False) -> tuple[dict, dict | None]:
    cmd = worker_cmd(name, seed, trace, setup_only, check)
    res = spawn(cmd, env, root, time.perf_counter() + WORKER_TIMEOUT_S)
    if res["code"] != 0 or res["ready"] is None:
        raise BenchError(f"worker for {name} exited with {res['code']}")
    if setup_only:
        return res, None
    return res, json.loads(res["lines"][-1])


def exact_round(name, seed, trace, root, env, first: dict | None) -> dict:
    """One fresh worker. The first round of a run checks its cold outputs
    against the independent computations; every other pass of the run must
    reproduce those outputs exactly (same sha256), or its operation fails."""
    res, data = run_worker(name, seed, trace, root, env, check=first is None)
    sums = data["checksums"]
    reference = sums[0] if first is None else first["checksums"]
    checked = data["failures"] if first is None else first["checked_failures"]
    failures = dict(data["failures"])
    for k, pass_sums in enumerate(sums):
        if first is None and k == 0:
            continue
        for op, digest in pass_sums.items():
            if digest != reference.get(op):
                failures[f"{op}#pass{k}"] = "output differs from the checked cold output"
            elif op in checked:
                failures[f"{op}#pass{k}"] = checked[op]
    return {
        "setup_samples": [res["ready"]],
        "raw_setup_s": [res["ready_raw"]],
        "cold_s": data["cold_s"],
        "warm_s": data["warm_s"],
        "rss_mb": res["rss_mb"],
        "probe_s": data["probe_s"],
        "raw_cold_s": data["raw_cold_s"],
        "raw_warm_s": data["raw_warm_s"],
        "attempted": len(reference) * len(sums),
        "failures": failures,
        "checked_failures": checked,
        "checksums": reference,
        "overhead_pct": data.get("overhead_pct"),
        "layers": data.get("layers", {}),
        "spans": data.get("spans"),
    }


def cli_round(seed, trace, root, env) -> dict:
    """Worker A (set-up and in-process warm passes), the script in fresh
    processes with set-up probes after its first and second thirds, then
    worker B: the samples of every metric are spread over the round. Each
    fresh-process invocation is rescaled by the probes it takes itself: a
    probe in this process may run on the other CPU and does not track it."""
    import wl_cli

    res_a, data_a = run_worker("cli_session", seed, trace, root, env)
    setups, raw_setups = [res_a["ready"]], [res_a["ready_raw"]]
    inp = wl_cli.inputs(seed)
    tr = harness.Tracer(trace)
    stdout, cold, raw_cold, rss, codes = {}, {}, {}, [], {}
    with tr.span("pass.cold"):
        for i, (name, argv) in enumerate(wl_cli.script(inp, wl_cli.tableau_path(seed))):
            if i in (4, 8):
                probe, _ = run_worker("cli_session", seed, False, root, env, setup_only=True)
                setups.append(probe["ready"])
                raw_setups.append(probe["ready_raw"])
            PROBE_FILE.unlink(missing_ok=True)
            with tr.span(f"cli.{name}"):
                child = spawn([sys.executable, "-c", CLI_ENTRY, *argv], env, root,
                              time.perf_counter() + WORKER_TIMEOUT_S)
            raw_cold[name] = cold[name] = child["wall"]
            if PROBE_FILE.is_file():  # absent when the call raised
                first, last = (float(x) for x in PROBE_FILE.read_text().split())
                cold[name] = harness.rescale(child["wall"] - first - last, first, last)
            rss.append(child["rss_mb"])
            codes[name] = child["code"]
            stdout[name] = b"".join(line + b"\n" for line in child["lines"]).decode()
    res_b, data_b = run_worker("cli_session", seed, False, root, env)
    setups.append(res_b["ready"])
    raw_setups.append(res_b["ready_raw"])
    failures = {name: f"exit code {code}" for name, code in codes.items() if code != 0}
    runnable = {name: fn for name, fn in wl_cli.CHECKS.items() if name not in failures}
    failures.update(harness.run_checks(runnable, stdout, inp))
    checksums = {name: harness.sha256(text) for name, text in sorted(stdout.items())}
    for tag, data in (("A", data_a), ("B", data_b)):
        for name in wl_cli.CHECKS:
            if data["codes"].get(name) != 0 or data["checksums"].get(name) != checksums[name]:
                failures[f"{name}#warm{tag}"] = "in-process stdout differs from the fresh-process one"
    warm = data_a["warm_s"] + data_b["warm_s"]
    raw_warm = data_a["raw_warm_s"] + data_b["raw_warm_s"]
    layers = {f"cli.{name}_s": t for name, t in raw_cold.items()}
    layers["cli.import_s"] = statistics.median(setups)
    layers["cli.stdout_bytes"] = sum(len(t.encode()) for t in stdout.values())
    return {
        "setup_samples": setups,
        "raw_setup_s": raw_setups,
        "cold_s": sum(cold.values()),
        "warm_s": warm,
        "warm_calls_s": data_a["warm_calls_s"] + data_b["warm_calls_s"],
        "raw_cold_s": sum(raw_cold.values()),
        "raw_warm_s": raw_warm,
        "rss_mb": max(rss),
        "attempted": len(wl_cli.CHECKS) * 3,  # fresh processes, worker A, worker B
        "failures": failures,
        "checked_failures": failures,
        "checksums": checksums,
        "overhead_pct": data_a.get("overhead_pct"),
        "layers": layers,
        "spans": {"cold": tr.spans} if trace else None,
    }


def per_layer_units() -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bflow" / "__init__.py").is_file():
        print("error: no bflow sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    env = worker_env(root)
    (BENCH / "out").mkdir(exist_ok=True)

    start = time.perf_counter()
    deadline = start + args.seconds
    rounds, setups = [], []
    setup_est = 0.0
    traced = bool(args.trace)
    try:
        while True:
            t0 = time.perf_counter()
            if args.workload == "cli_session":
                r = cli_round(args.seed, traced, root, env)
            else:
                r = exact_round(args.workload, args.seed, traced, root, env, rounds[0] if rounds else None)
            rounds.append(r)
            setups.extend(r["setup_samples"])
            setup_est = max(setup_est, max(r["setup_samples"]) + 0.2)
            took = time.perf_counter() - t0
            want_setups = 11 if setup_est < 0.5 else MIN_SETUP_SAMPLES
            probes = max(0, want_setups - len(setups) - 1) * setup_est
            # Start another round if at least half of it fits.
            if time.perf_counter() + took / 2 + probes > deadline:
                break
        while len(setups) < want_setups and time.perf_counter() <= deadline + setup_est:
            res, _ = run_worker(args.workload, args.seed, False, root, env, setup_only=True)
            setups.append(res["ready"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failures = [(i, op, msg) for i, r in enumerate(rounds) for op, msg in sorted(r["failures"].items())]
    for i, op, msg in failures:
        print(f"FAILED round {i} {op}: {msg}", file=sys.stderr)
    if args.workload == "cli_session":
        # The sum over the script's calls of each call's median over the
        # run's warm passes: one slow call in one pass does not move it.
        passes = [p for r in rounds for p in r["warm_calls_s"]]
        warm = sum(statistics.median(call) for call in zip(*passes))
    else:
        warm = statistics.median(w for r in rounds for w in r["warm_s"])
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_s": (statistics.median(r["cold_s"] for r in rounds), "s"),
        "warm_s": (warm, "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
            "nproc": os.cpu_count(),
            "blas_threads": THREAD_ENV,
            "pythonhashseed": env["PYTHONHASHSEED"],
        },
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
        "setup_samples": setups,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "checksums": rounds[0]["checksums"],
    }
    if args.trace:
        metrics = trace_metrics(rounds)
        spans = {i: r["spans"] for i, r in enumerate(rounds) if r["spans"]}
        report["per_layer"] = {k: v[0] for k, v in metrics.items()}
        trace_path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(spans))
    else:
        metrics = e2e
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BENCH / "out" / f"report-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def trace_metrics(rounds: list[dict]) -> dict:
    """Every per-layer metric: medians over the rounds. A layer the
    workload never enters reads 0. The overhead is each traced worker's
    traced against its untraced warm passes."""
    out = {}
    for name, unit in per_layer_units().items():
        out[name] = (statistics.median(r["layers"].get(name, 0.0) for r in rounds), unit)
    out["trace.overhead_pct"] = (statistics.median(r["overhead_pct"] for r in rounds), "%")
    return out


if __name__ == "__main__":
    sys.exit(main())
