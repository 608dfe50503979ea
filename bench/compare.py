"""Compare two benchmark reports, or regenerate a report from another tree.

    python3 bench/compare.py diff OLD.json NEW.json
    python3 bench/compare.py regen --src DIR --workload NAME --seed N --out FILE

``diff`` lists every exact output whose sha256 changed, appeared or
vanished, and the change of each end-to-end metric. It informs and never
fails on a difference: a change that corrects a coefficient is reported,
not rejected. ``regen`` runs one round of this benchmark against the
sources under DIR/src (for example a ``git archive`` of another commit)
and writes that tree's report to FILE.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def diff(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        print(f"note: comparing {old['workload']}/seed {old['seed']} with {new['workload']}/seed {new['seed']}")
    a, b = old["checksums"], new["checksums"]
    changed = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    for k in changed:
        print(f"changed  {k}")
    for k in sorted(a.keys() - b.keys()):
        print(f"removed  {k}")
    for k in sorted(b.keys() - a.keys()):
        print(f"added    {k}")
    same = len(a.keys() & b.keys()) - len(changed)
    print(f"{same} output(s) unchanged, {len(changed)} changed")
    for name, v in old.get("end_to_end", {}).items():
        w = new.get("end_to_end", {}).get(name)
        if w is not None and v:
            print(f"{name:12s} {v:12.4f} -> {w:12.4f}  ({100.0 * (w - v) / v:+.1f}%)")
    return 0


def regen(src: str, workload: str, seed: int, out: str) -> int:
    root = Path(src).resolve()
    report = BENCH / "out" / f"report-{workload}-seed{seed}-trace0.json"
    saved = report.read_bytes() if report.is_file() else None  # this tree's own report
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    proc = subprocess.run(cmd, cwd=root, check=False)
    try:
        if proc.returncode != 0:
            print(f"error: benchmark run under {root} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        shutil.copyfile(report, out)
    finally:
        if saved is not None:
            report.write_bytes(saved)
    print(f"wrote {out}")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("diff")
    d.add_argument("old")
    d.add_argument("new")
    r = sub.add_parser("regen")
    r.add_argument("--src", required=True, help="root of a source tree holding src/bflow")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out", required=True)
    args = p.parse_args()
    if args.cmd == "diff":
        return diff(args.old, args.new)
    return regen(args.src, args.workload, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
