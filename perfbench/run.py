"""The repo benchmark: four workloads timed end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0

Workloads (see ``LAYERS.md`` for why each exists and which layer metric
should move which end-to-end metric):

* ``compile`` - parse -> analyze -> legality -> apply on distinct nests;
* ``search``  - parse -> analyze -> brute-force search -> apply winner;
* ``execute`` - compiled and vectorized engine runs of fixed kernels;
* ``serve``   - two closed-loop clients against ``repro serve --tcp``.

``--trace 0`` times the workload with the layer timers off and reports
the end-to-end metrics; ``--trace 1`` runs a fixed op count, half of it
with the layer timers on (each input twice, with and without timers, or
for ``serve`` alternating blocks of requests), and reports the per-layer
metrics and the tracing overhead.  Every op's output is checked outside
the timed region; a wrong answer makes the run exit 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Details, host facts
and (traced runs) the span dump go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (CHECKOUT, OUT_DIR, SRC, child_env,  # noqa: E402
                    drive_serial, log, nearest_rank, proc_status_kb,
                    row_geomean_ms, tail_percentile, windowed_rate)
from spans import LAYER_SUM_TOLERANCE, NullRecorder, Recorder  # noqa: E402

sys.path.insert(0, SRC)

WORKLOADS = ("compile", "search", "execute", "serve")

#: Ops per second each workload completed on a 2-core x86-64 container
#: when the benchmark was defined.  ``NOMINAL * seconds`` is the fixed op
#: count: traced runs execute exactly that many ops, and it fixes which
#: tail percentile ``latency_tail_ms`` reports, so both stay comparable
#: across commits whatever their speed.
NOMINAL_OPS_PER_S = {"compile": 29, "search": 22, "execute": 100,
                     "serve": 490}

#: Set-up is measured this many times per run, each in a fresh process
#: from its start to the moment it could issue the first timed op.
SETUP_PROBES = 3

#: A traced run stops early once its ops have taken this many times
#: ``--seconds`` of wall time, so a much slower commit still reports its
#: per-layer figures (over fewer ops; ``traced_ops`` says how many).
TRACE_BUDGET_FACTOR = 3

#: A run that has not finished by ``WATCHDOG_BASE_S + WATCHDOG_PER_S *
#: seconds`` is stopped (exit 3): 175 s at 15 s runs.  The base covers
#: set-up, warm-up and the checks, the multiple the timed or traced ops.
WATCHDOG_BASE_S = 100.0
WATCHDOG_PER_S = 5.0


#: End-to-end metric -> unit, the same on every workload.
END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "ok_share": "share", "setup_s": "s",
              "peak_rss_mb": "MB", "run_ms_geomean": "ms"}


def fixed_count(workload: str, seconds: float) -> int:
    return max(1, round(NOMINAL_OPS_PER_S[workload] * seconds))


def build(workload: str, seed: int, seconds: float, setup_rec):
    """Everything before the first timed op: imports, inputs, engines,
    the spawned server."""
    state = _build(workload, seed, seconds, setup_rec)
    # The inputs and engines held for the whole run stay out of the cyclic
    # collector's way, so its pauses in the timed ops do not grow with the
    # benchmark's own bookkeeping.
    gc.collect()
    gc.freeze()
    return state


def _build(workload: str, seed: int, seconds: float, setup_rec):
    if workload == "compile":
        from wl_compile import Compile
        return Compile(seed)
    if workload == "search":
        from wl_search import Search
        return Search(seed)
    if workload == "execute":
        from wl_execute import Execute
        return Execute(seed, setup_rec)
    from wl_serve import Serve
    return Serve(seed, 4 * fixed_count(workload, seconds) + 1000)


def probe(args) -> int:
    state = build(args.workload, args.seed, args.seconds, NullRecorder())
    print("ready", flush=True)
    if args.workload == "serve":
        state.server.close()
    return 0


def measure_setup(args, details):
    """Median of :data:`SETUP_PROBES` fresh-process set-ups, in seconds."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # Its own session, so the watchdog can stop it with its server.
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=CHECKOUT, env=child_env(), stdout=subprocess.PIPE,
            text=True, start_new_session=True)
        details["probe"] = proc
        line = proc.stdout.readline().strip()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        del details["probe"]
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return median(times), times


def host_facts(args):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def drive(workload, state, seconds=None, count=None, recorder=None):
    """(outcomes, timed wall seconds): ops until *seconds* of op wall time
    or *count* ops, whichever comes first."""
    from repro.util.errors import ReproError

    if workload == "serve":
        return state.run(seconds, count, recorder)
    outcomes = drive_serial(state, (ReproError,), seconds=seconds,
                            count=count, recorder=recorder)
    return outcomes, sum(o.seconds for o in outcomes)


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end(args, details):
    setup_s, probes = measure_setup(args, details)
    details["setup_probes_s"] = probes
    state = build(args.workload, args.seed, args.seconds, NullRecorder())
    details["server"] = getattr(state, "server", None)
    outcomes, wall = drive(args.workload, state, seconds=args.seconds)
    if args.workload == "serve":
        state.finish()
        state.check(outcomes)
        rss_mb = state.peak_rss_mb
        details["service.repeat_share"] = state.repeat_share(outcomes)
    else:
        rss_mb = proc_status_kb("self", "VmHWM") / 1024.0
    if args.workload == "execute":
        details["runtime.vectorized.fallback_share"] = state.fallback_share()
    latencies = [o.seconds for o in outcomes]
    pct = tail_percentile(fixed_count(args.workload, args.seconds))
    tail = nearest_rank(latencies, pct)
    failed = sum(1 for o in outcomes if o.error)
    details.update({
        "ops": len(outcomes), "timed_s": wall, "tail_percentile": pct,
        "tail_samples_beyond": sum(1 for v in latencies if v > tail),
        "failed_share": failed / len(outcomes),
        "failures": [o.error for o in outcomes if o.error][:20]})
    values = {
        "ops_per_s": windowed_rate(outcomes, wall),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "ok_share": 1.0 - failed / len(outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "run_ms_geomean": row_geomean_ms(outcomes),
    }
    return outcomes, {name: (values[name], unit)
                      for name, unit in END_TO_END.items()}


#: Per-layer busy time: span name -> metric name.
BUSY = {
    "ir.parse": "ir.parse.busy_s",
    "deps.analysis": "deps.analysis.busy_s",
    "core.legality": "core.legality.busy_s",
    "core.legality_cache": "core.legality_cache.busy_s",
    "optimize.search": "optimize.search.busy_s",
    "optimize.score": "optimize.score.busy_s",
    "core.codegen": "core.codegen.busy_s",
    "runtime.compiled": "runtime.compiled.busy_s",
    "runtime.vectorized": "runtime.vectorized.busy_s",
    "bench.op": "bench.other_s",
}
#: Per-layer call counts: span name -> metric name.
CALLS = {
    "ir.parse": "ir.parse.calls",
    "deps.analysis": "deps.analysis.calls",
    "core.legality": "core.legality.calls",
    "core.codegen": "core.codegen.calls",
}
SERVICE_OPS = ("parse", "analyze", "legality", "apply", "run", "search")

#: Every per-layer metric, (name, unit, better), printed by every traced
#: run (0 where the workload does not reach the layer).  BENCHMARK.json
#: lists the same metrics.
PER_LAYER = (
    [(name, "s", "lower") for name in BUSY.values()]
    + [("ir.parse.calls", "count", "higher"),
       ("deps.analysis.calls", "count", "higher"),
       ("deps.analysis.deps_out", "count", "lower"),
       ("core.legality.calls", "count", "higher"),
       ("core.legality.legal_share", "share", "higher"),
       ("core.legality_cache.hit_ratio", "share", "higher"),
       ("optimize.search.explored", "count", "lower"),
       ("optimize.search.exact_verdicts", "count", "lower"),
       ("optimize.search.pruned", "count", "higher"),
       ("core.codegen.calls", "count", "higher"),
       ("core.codegen.errors", "count", "lower"),
       ("core.codegen.loops_out", "count", "lower"),
       ("runtime.construct.busy_s", "s", "lower"),
       ("runtime.iterations_per_s", "1/s", "higher"),
       ("runtime.vectorized.fallback_share", "share", "lower")]
    + [(f"service.{op}.{what}", unit, better) for op in SERVICE_OPS
       for what, unit, better in (("p50_ms", "ms", "lower"),
                                  ("calls", "count", "higher"))]
    + [("service.server_cpu_s", "s", "lower"),
       ("service.memo_hit_ratio", "share", "higher"),
       ("service.backpressure", "count", "lower"),
       ("service.repeat_share", "share", "higher"),
       ("bench.trace_overhead", "share", "lower"),
       ("bench.layer_sum_error", "share", "lower")])


def traced(args, details):
    setup_rec, rec = Recorder(), Recorder()
    state = build(args.workload, args.seed, args.seconds, setup_rec)
    details["server"] = getattr(state, "server", None)
    count = fixed_count(args.workload, args.seconds)
    if args.workload != "serve":
        count = math.ceil(count / 2)  # each input runs traced and not
    outcomes, _wall = drive(args.workload, state,
                            seconds=TRACE_BUDGET_FACTOR * args.seconds,
                            count=count, recorder=rec)
    values = {name: len(rec.durations(span)) for span, name in CALLS.items()}
    if args.workload == "serve":
        state.finish()
        state.check(outcomes)
        caches = state.stats["caches"]
        hits = caches["parse"]["hits"] + caches["analysis"]["hits"]
        lookups = hits + caches["parse"]["misses"] + \
            caches["analysis"]["misses"]
        values.update({
            "service.server_cpu_s": state.cpu_s,
            "service.memo_hit_ratio": hits / lookups if lookups else 0.0,
            "service.backpressure": state.stats["queue"]["backpressure"],
            "service.repeat_share": state.repeat_share(outcomes)})
        for op in SERVICE_OPS:
            spans = rec.durations("service." + op)
            values[f"service.{op}.calls"] = len(spans)
            values[f"service.{op}.p50_ms"] = (median(spans) * 1e3
                                              if spans else 0.0)
    else:
        values.update(state.layer_counts())
    busy = rec.layer_self()
    values.update({name: busy.get(span, 0.0) for span, name in BUSY.items()})
    values["runtime.construct.busy_s"] = setup_rec.layer_self().get(
        "runtime.construct", 0.0)
    if args.workload == "execute":
        run_s = (values["runtime.compiled.busy_s"]
                 + values["runtime.vectorized.busy_s"])
        values["runtime.iterations_per_s"] = state.counts["iterations"] / run_s

    def rate(flag):
        ops = [o.seconds for o in outcomes if o.traced is flag]
        return len(ops) / sum(ops)

    values["bench.trace_overhead"] = 1.0 - rate(True) / rate(False)
    values["bench.layer_sum_error"] = rec.layer_sum_error(
        sum(o.seconds for o in outcomes if o.traced))
    details.update({"ops": len(outcomes),
                    "traced_ops": sum(1 for o in outcomes if o.traced),
                    "layer_sum_tolerance": LAYER_SUM_TOLERANCE,
                    "failures": [o.error for o in outcomes
                                 if o.error][:20]})
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.dump(os.path.join(
        OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    if values["bench.layer_sum_error"] > LAYER_SUM_TOLERANCE:
        raise RuntimeError(
            f"layer self times do not add up to op wall time: relative "
            f"error {values['bench.layer_sum_error']:.3g} > "
            f"{LAYER_SUM_TOLERANCE:g}")
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit, _better in PER_LAYER}
    return outcomes, metrics


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"perfbench: no program sources at {SRC}; run from the root "
            f"of a checkout")
        return 2
    if args.setup_probe:
        return probe(args)
    details = {"host": host_facts(args)}
    limit = WATCHDOG_BASE_S + WATCHDOG_PER_S * args.seconds
    watchdog = threading.Timer(limit, _expire, args=(details, limit))
    watchdog.daemon = True
    watchdog.start()
    try:
        if args.trace:
            outcomes, metrics = traced(args, details)
        else:
            outcomes, metrics = end_to_end(args, details)
    finally:
        watchdog.cancel()
        _stop_children(details)
    failed = sum(1 for o in outcomes if o.error)
    for message in details.get("failures", []):
        log(f"perfbench: FAILED {message}")
    result = {"correct": failed == 0, "attempted": len(outcomes),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    details["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    print("host " + json.dumps(details["host"], sort_keys=True))
    for key in ("tail_percentile", "tail_samples_beyond", "failed_share",
                "service.repeat_share", "runtime.vectorized.fallback_share",
                "traced_ops", "layer_sum_tolerance"):
        if key in details:
            print(f"{key} {details[key]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def _stop_children(details) -> None:
    """Kill a set-up probe (with its session) or the server still running
    after an error; a clean run has already shut both down."""
    probe_proc = details.pop("probe", None)
    if probe_proc is not None and probe_proc.poll() is None:
        os.killpg(probe_proc.pid, signal.SIGKILL)
        probe_proc.wait()
    server = details.pop("server", None)
    if server is not None and server.proc.poll() is None:
        server.kill()
        server.proc.wait()


def _expire(details, limit: float) -> None:
    log(f"perfbench: run exceeded {limit:.0f}s; stopping")
    _stop_children(details)
    os._exit(3)


if __name__ == "__main__":
    sys.exit(main())
