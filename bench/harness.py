"""Spans, timing and checksum helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import statistics
import time
from fractions import Fraction

_NULL = contextlib.nullcontext()

# Warm passes per worker; a traced worker runs as many untraced ones too.
WARM_PASSES = 2


def warm_plan(trace: bool) -> list[bool]:
    """Whether each warm pass of a worker is traced. A traced worker pairs
    every traced pass with an untraced one, in the order T U U T T U ...,
    so that a steady drift within the worker cancels in the overhead."""
    if not trace:
        return [False] * WARM_PASSES
    return [t for k in range(WARM_PASSES) for t in ((True, False) if k % 2 == 0 else (False, True))]


class Tracer:
    """Records spans (name, start, end, parent) around the benchmark's calls.

    With ``probe`` set, every span directly under the pass root (one
    operation of the pass) is bracketed by two calls of the probe, and the
    operation's time is also accumulated rescaled by them (see ``scaled``).
    Disabled and without a probe, ``span`` hands back a shared null context.
    """

    def __init__(self, enabled: bool, probe=None):
        self.enabled = enabled
        self.probe = probe
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._depth = 0
        self.counts: dict[str, int] = {}
        self.probes: list[float] = []
        self.op_time = 0.0
        self.op_scaled: list[float] = []  # rescaled time of each operation

    def span(self, name: str):
        if not self.enabled and self.probe is None:
            return _NULL
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        probed = self.probe is not None and self._depth == 1
        before = self.probe() if probed else 0.0
        record = None
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(len(self.spans))
            record = [name, 0.0, 0.0, parent]
            self.spans.append(record)
        self._depth += 1
        t0 = time.perf_counter()
        if record:
            record[1] = t0
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._depth -= 1
            if record:
                record[2] = t1
                self._stack.pop()
            if probed:
                after = self.probe()
                self.probes += [before, after]
                self.op_time += t1 - t0
                self.op_scaled.append(rescale(t1 - t0, before, after))

    def scaled(self, wall: float) -> tuple[float, float]:
        """(raw, scaled) time of a pass that took ``wall`` seconds: raw
        leaves out the probes; scaled rescales each operation by the probes
        around it, and the rest by their median, to PROBE_NOMINAL_S."""
        if not self.probes:
            return wall, wall
        raw = wall - sum(self.probes)
        rest = raw - self.op_time
        return raw, sum(self.op_scaled) + rest * speed_factor(statistics.median(self.probes))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self, root: str) -> dict[str, float]:
        """Self time per span name below (and including) the last span named
        ``root``: its duration minus the time its child spans cover."""
        start = max(i for i, s in enumerate(self.spans) if s[0] == root)
        inside = {start}
        child_time: dict[int, float] = {}
        for i in range(start + 1, len(self.spans)):
            name, t0, t1, parent = self.spans[i]
            if parent in inside:
                inside.add(i)
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out: dict[str, float] = {}
        for i in inside:
            name, t0, t1, _ = self.spans[i]
            out[name] = out.get(name, 0.0) + (t1 - t0) - child_time.get(i, 0.0)
        return out


# What reference_loop takes at the usual speed of the 2-CPU container the
# reference figures in bench/README.md come from.
PROBE_NOMINAL_S = 0.010
# A stretch's time follows the probe's only in part: system calls, page
# faults and memory traffic do not slow down with a pure-Python loop. Over
# ten runs per workload in each of several phases (bench/README.md), times
# scaled by the probe ratio to this power spread least; the full ratio
# over-corrected the fresh-process CLI calls.
RESCALE_EXPONENT = 0.75


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python computation (rationals, tuples,
    dicts, strings); a probe of the CPU's current speed. The garbage
    collector is off while it runs, so a collection that the measured
    program's heap calls for falls in the program's own time, not here."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        table: dict = {}
        for k in range(1, 2000):
            total += Fraction(k % 7 + 1, k % 97 + 1)
            key = (k % 300, str(k % 41))
            table[key] = table.get(key, 0) + k
        "".join(f"{a}{b}" for a, b in sorted(table))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def announce_ready(first_probe: float) -> None:
    """Print the READY line that ends a timed set-up, with the probe taken
    when the process started and one taken now."""
    print(f"READY {first_probe!r} {reference_loop()!r}", flush=True)


def speed_factor(probe_s: float) -> float:
    """What a time measured while a probe takes probe_s is multiplied by."""
    return (PROBE_NOMINAL_S / probe_s) ** RESCALE_EXPONENT


def rescale(seconds: float, before: float, after: float) -> float:
    """A time taken between two probes, at the speed where a probe takes
    PROBE_NOMINAL_S."""
    return seconds * speed_factor((before + after) / 2.0)


def probed(fn):
    """Call fn between two probes; returns (result, raw s, rescaled s)."""
    before = reference_loop()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, rescale(raw, before, reference_loop())


def overhead_pct(traced: list[list[float]], untraced: list[list[float]]) -> float:
    """The tracer's overhead in one worker: the median, over the operations
    of paired traced and untraced passes of the same work, of traced over
    untraced rescaled time, less 1, in %. A median of per-operation ratios
    shows a cost of a few percent, which pass totals drown in noise."""
    ratios = [t / u for tp, up in zip(traced, untraced) for t, u in zip(tp, up, strict=True)]
    return 100.0 * (statistics.median(ratios) - 1.0)


def run_checks(checks: dict, plain, inp) -> dict[str, str]:
    """Run every checker; returns {operation: message} for those that reject
    their output. A checker that cannot read the output rejects it."""
    failures = {}
    for op, fn in checks.items():
        try:
            msg = fn(plain, inp)
        except Exception as exc:
            msg = f"checker raised {exc!r}"
        if msg:
            failures[op] = msg
    return failures


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tensor_key(t):
    return (-t.left.order, t.left.serial, t.right.serial)


def basis_key(b):
    return (b.order, b.serial)


def bell_tensor_key(t):
    return (t.left.serial, t.right.serial)


def table_text(pairs) -> str:
    """Canonical rendering of a coefficient table: ``serial<TAB>value``."""
    return "\n".join(f"{serial}\t{value}" for serial, value in pairs)


def tensor_terms(fs) -> list[tuple[str, str, object]]:
    """(left serial, right serial, coefficient) for every term of a tensor sum."""
    return [(t.left.serial, t.right.serial, c) for t, c in fs]


def basis_terms(fs) -> list[tuple[str, object]]:
    return [(b.serial, c) for b, c in fs]
