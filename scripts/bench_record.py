#!/usr/bin/env python
"""Record one commit's ``perfbench`` figures in ``BENCH_<workload>.json``.

Runs ``perfbench/run.py`` once per seed untraced and once traced, reads
the JSON object each run prints as its last line, and appends one record
to ``BENCH_<workload>.json`` at the repo root::

    python scripts/bench_record.py --workload execute --seeds 21,22,23

Every run lasts the ``run_seconds`` that ``BENCHMARK.json`` fixes.  A
record holds the commit (git HEAD), the seeds, the median, q1 and q3 over
the seeds of every ``end_to_end`` metric ``BENCHMARK.json`` declares,
every per-seed value, and every ``per_layer`` metric it declares (busy
times, counts and shares, zeros included) from one traced run on the
first seed.

``--baseline DIR`` measures a second checkout too (a ``git archive`` of
the parent, say): one pair of runs per seed, alternating which side runs
first, so load drifts hit both alike.  The baseline's record is appended
before this checkout's; ``--baseline-commit`` names its commit when the
copy has no ``.git``.
Exit 1 if any run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def run_perfbench(checkout: str, workload: str, seed: int, seconds: float,
                  trace: int) -> Dict[str, float]:
    """Metric name -> value from one ``perfbench/run.py`` run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} gave "
                           f"{result['failed']} wrong answers")
    return {name: m["value"] for name, m in result["metrics"].items()}


def commit_of(checkout: str) -> Optional[str]:
    """HEAD of *checkout*, suffixed ``-dirty`` when ``src/`` has
    uncommitted changes (the figures then belong to no commit)."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if head.returncode != 0:
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                            cwd=checkout, capture_output=True, text=True)
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def benchmark() -> Tuple[float, List[str], List[str]]:
    """The run length ``BENCHMARK.json`` fixes for every workload, and
    the names of its end-to-end and of its per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return (float(doc["run_seconds"]),
            [metric["name"] for metric in doc["end_to_end"]],
            [metric["name"] for metric in doc.get("per_layer", ())])


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def record(commit: Optional[str], workload: str, seeds: List[int],
           seconds: float, names: List[str], layers: List[str],
           runs: List[Dict[str, float]], traced: Dict[str, float]) -> Dict:
    return {
        "commit": commit,
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "summary": {name: quartiles([r[name] for r in runs])
                    for name in names},
        "runs": [{"seed": s, **{name: round(r[name], 4)
                                for name in names}}
                 for s, r in zip(seeds, runs)],
        "traced": {"seed": seeds[0],
                   **{name: round(traced[name], 4)
                      for name in sorted(layers) if name in traced}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile", "search", "execute", "serve"))
    parser.add_argument("--seeds", required=True,
                        help="comma-separated perfbench seeds, one "
                             "untraced run each")
    parser.add_argument("--baseline", default=None,
                        help="a second checkout, measured alternately")
    parser.add_argument("--baseline-commit", default=None,
                        help="the baseline's commit (default: its git HEAD)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds, names, layers = benchmark()
    sides = [(args.baseline, args.baseline_commit)] if args.baseline else []
    sides.append((ROOT, None))
    runs: List[List[Dict[str, float]]] = [[] for _ in sides]
    try:
        for pair, seed in enumerate(seeds):
            # Alternate which side runs first, so neither always runs on
            # the warmer or the quieter machine.
            order = range(len(sides))
            for k in (order if pair % 2 == 0 else reversed(order)):
                checkout = sides[k][0]
                runs[k].append(run_perfbench(checkout, args.workload, seed,
                                             seconds, 0))
                print(f"{checkout} seed {seed}: ops_per_s "
                      f"{runs[k][-1]['ops_per_s']:.1f}", file=sys.stderr)
        traced = [run_perfbench(checkout, args.workload, seeds[0],
                                seconds, 1) for checkout, _ in sides]
    except RuntimeError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    doc = {"workload": args.workload, "records": []}
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    for k, (checkout, commit) in enumerate(sides):
        doc["records"].append(record(commit or commit_of(checkout),
                                     args.workload, seeds, seconds,
                                     names, layers, runs[k], traced[k]))
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for rec in doc["records"][-len(sides):]:
        s = rec["summary"]["ops_per_s"]
        print(f"{rec['commit']}: ops_per_s median {s['median']:.1f} "
              f"(q1 {s['q1']:.1f}, q3 {s['q3']:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
