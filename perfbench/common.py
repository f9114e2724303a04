"""Shared pieces of the workloads: the op loop, statistics, checks."""

from __future__ import annotations

import math
import os
import sys
import time
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from spans import ROOT, NullRecorder, Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
#: Run artifacts (span dumps, server logs); listed in the root .gitignore.
OUT_DIR = os.path.join(CHECKOUT, ".perfbench")

#: An op slower than this counts as a timeout, hence a failure.
OP_TIMEOUT_S = 20.0

#: The usual reporting percentiles, tried from the top; the benchmark
#: reports the highest with at least :data:`TAIL_MIN_BEYOND` samples beyond
#: it at the workload's fixed op count.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

#: Slices of the timed clock that ``ops_per_s`` takes its median over.
RATE_WINDOWS = 5


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Outcome:
    """One op: its row, wall time, whether it ran traced, its failure
    message (None if it gave a correct answer), its payload and when it
    ended on the run's timed clock."""

    __slots__ = ("row", "seconds", "traced", "error", "payload", "end")

    def __init__(self, row: str, seconds: float, traced: bool,
                 error: Optional[str], payload: object, end: float = 0.0):
        self.row = row
        self.seconds = seconds
        self.traced = traced
        self.error = error
        self.payload = payload
        self.end = end


class SerialWorkload:
    """A single-threaded workload: ``prepare`` builds op *i*'s input
    outside the clock, ``execute`` is the timed op, and ``after`` checks
    the result and counts the layer work of traced ops, outside the
    clock."""

    def prepare(self, i: int):
        raise NotImplementedError

    def row(self, item) -> str:
        raise NotImplementedError

    def execute(self, rec, item):
        raise NotImplementedError

    def after(self, item, result, traced: bool) -> Optional[str]:
        return None

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer counts over the traced ops, by metric name."""
        return {}


def drive_serial(wl: SerialWorkload, typed: Tuple[type, ...],
                 seconds: Optional[float] = None,
                 count: Optional[int] = None,
                 recorder: Optional[Recorder] = None) -> List[Outcome]:
    """Run ops until *seconds* of op wall time or *count* inputs.  With a
    *recorder*, every input runs twice, traced and untraced in alternating
    order, so the two halves see the same inputs."""
    null = NullRecorder()
    outcomes: List[Outcome] = []
    timed, i = 0.0, 0
    while (count is None or i < count) and (seconds is None
                                             or timed < seconds):
        item = wl.prepare(i)
        modes = (False,) if recorder is None else (
            (True, False) if i % 2 == 0 else (False, True))
        for traced in modes:
            outcome = _run_op(wl, item, typed,
                              recorder if traced else null, traced)
            timed += outcome.seconds
            outcome.end = timed
            outcomes.append(outcome)
        i += 1
    return outcomes


def _run_op(wl: SerialWorkload, item, typed: Tuple[type, ...], rec,
            traced: bool) -> Outcome:
    error = None
    result = None
    start = time.perf_counter()
    try:
        with rec.span(ROOT):
            result = wl.execute(rec, item)
    except typed as exc:  # a typed rejection is an answer
        result = exc
    except Exception as exc:  # noqa: BLE001 - counted, reported
        error = f"untyped {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None and elapsed > OP_TIMEOUT_S:
        error = f"timeout: {elapsed:.1f}s"
    if error is None:
        try:
            error = wl.after(item, result, traced)
        except Exception as exc:  # noqa: BLE001 - a broken answer
            error = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(wl.row(item), elapsed, traced, error, None)


# ---------------------------------------------------------------------------
# statistics

def nearest_rank(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(fixed_count: int) -> float:
    for pct in TAIL_LADDER:
        if fixed_count * (1 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def windowed_rate(outcomes: Sequence[Outcome], total: float) -> float:
    """Median over :data:`RATE_WINDOWS` equal slices of the timed clock of
    the ops completed per second in each slice: a burst of interference
    or one pathological op moves one slice, not the reported rate."""
    width = total / RATE_WINDOWS
    counts = [0] * RATE_WINDOWS
    for o in outcomes:
        counts[min(int(o.end / width), RATE_WINDOWS - 1)] += 1
    return median(c / width for c in counts)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def row_geomean_ms(outcomes: Sequence[Outcome]) -> float:
    by_row: Dict[str, List[float]] = {}
    for o in outcomes:
        by_row.setdefault(o.row, []).append(o.seconds)
    return geomean([median(v) * 1e3 for v in by_row.values()])


def proc_status_kb(pid: object, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# reference checks

def same_arrays(a: Dict, b: Dict) -> Optional[str]:
    from repro.runtime.arrays import Array

    for name in sorted(set(a) | set(b)):
        x = a.get(name, Array(0, name))
        y = b.get(name, Array(0, name))
        if x != y:
            return (f"array {name!r} differs (max abs diff "
                    f"{x.max_abs_difference(y)})")
    return None


def interpreter_equivalent(original, transformed, arrays,
                           symbols) -> Optional[str]:
    """None if *transformed* computes *original*'s arrays under the
    reference interpreter, else the difference."""
    from repro.runtime.interpreter import Interpreter

    base = Interpreter(original, symbols=symbols).run(arrays)
    got = Interpreter(transformed, symbols=symbols).run(arrays)
    return same_arrays(base.arrays, got.arrays)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
