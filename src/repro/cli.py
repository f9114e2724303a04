"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``show FILE``
    Parse and pretty-print a loop nest; ``--deps`` adds the analyzed
    dependence vectors, ``--bounds`` the LB/UB/STEP matrices.

``analyze FILE [--level gcd|banerjee|fm]``
    Print the dependence-vector set at the chosen test-ladder tier.

``legality FILE --steps SPEC``
    Run the unified legality test for a transformation sequence.

``transform FILE --steps SPEC [--force] [--emit loop|c|python] [--trace]``
    Generate code for the sequence (``--force`` skips the dependence
    half of the legality test); ``--trace`` prints the Figure-7-style
    per-stage dependence/loop tables.

``run FILE [--steps SPEC] [--engine interpreter|compiled|vectorized]``
    Execute a nest (optionally transformed first) under the chosen
    engine and print iterations + wall clock as JSON; the vectorized
    engine additionally reports its lowering plan and fallback
    reasons.  ``search`` takes the same ``--engine`` for its
    ``--scorer time`` mode, ``profile`` for its run section, and
    ``serve`` as the default engine of service ``run`` requests.

``profile FILE [--steps SPEC] [--search] [--size N]``
    Run the full pipeline — dependence analysis, beam search (and/or the
    given sequence), code generation, compiled execution, cache
    simulation — with observability on, and print one machine-readable
    JSON document: per-phase profile, metrics snapshot, search and cache
    summaries.

``serve [--stdio | --tcp --host H --port P] ...``
    Run the long-lived transformation service: newline-delimited JSON
    requests over stdio or TCP against warm caches, answered in-process
    (see :mod:`repro.service` and the Service section of
    ``docs/API.md``).  ``--supervise`` (TCP only) adds a crash/hang
    supervisor with warm-state restore; ``--chaos SPEC`` arms fault
    injection (:mod:`repro.resilience`).

``client SCRIPT [--connect HOST:PORT] [--retries N]``
    Replay an NDJSON request script against a service — a spawned
    stdio server by default, or a running TCP server with
    ``--connect``.  ``--retries N`` retries transport failures and
    retryable errors with idempotency keys (exactly-once execution).
    With ``--trace-json`` each request roots a distributed trace; the
    exported file is the stitched cross-process span tree
    (:mod:`repro.obs.distributed`).

``stats --connect HOST:PORT [--watch]``
    Fetch a running service's (or fleet's) ``telemetry`` snapshot and
    print it as JSON — against a fleet this is the merged fleet-wide
    document: per-worker counters summed, gauges tagged per worker,
    latency histograms merged with p50/p95/p99 estimates.

``fuzz --cases N --seed S [--matrix core,search,service,fleet,chaos]``
    Run the generative differential fuzzer (:mod:`repro.fuzz`): seeded
    random nests and transformation sequences cross-checked across
    engines, search strategies, job counts, the service, the fleet and
    chaos injection.  Failures auto-shrink to minimal repros;
    ``--corpus DIR`` banks them as regression artifacts, ``--replay``
    re-runs the existing bank instead of generating.

Every command additionally accepts ``--profile`` (print the per-phase
span table to stderr when done) and ``--trace-json PATH`` (export the
span stream — stitched across processes when remote spans were
collected — as JSON lines) — both install the :mod:`repro.obs`
tracer for the duration of the command — plus ``--jobs N`` and
``--candidate-timeout S``, which tune parallel candidate scoring
where the command searches (``search``, ``profile``) and are
accepted-but-inert elsewhere so wrapper scripts can pass one uniform
flag set.  ``serve`` and ``client`` take them as that inert set too: a
service ``search`` request sets its own budget with its
``candidate_timeout`` param.

Exit codes: ``0`` success; ``1`` operation failed (illegal sequence,
failed service request); ``2`` bad input or usage (parse/spec errors,
malformed arguments).

The ``SPEC`` mini-language is a semicolon-separated list of step
builders, evaluated left to right against the current nest depth::

    interchange(1,2); block(1,3,16); parallelize(1)
    skew(2,1); interchange(1,2)
    permute(3,1,2); coalesce(1,2)
    unimodular([[1,1],[1,0]])
    reverse(2); interleave(1,2,4,4); wavefront()

Loop numbers are 1-based, outermost first, as in the paper.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.core import BoundsMatrix, Transformation
from repro.core.bounds_matrix import LB, STEP, UB
from repro.core.spec import parse_steps
from repro.deps.analysis import LEVELS, analyze
from repro.ir import parse_nest
from repro.ir.emit import emit_c
from repro.options import ENGINE_NAMES, MODEL_NAMES
from repro.util.errors import ReproError


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _read_nest(path: str, sink_imperfect: bool = False):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    if sink_imperfect:
        from repro.ir import parse_imperfect, sink
        return sink(parse_imperfect(text))
    return parse_nest(text)


def cmd_show(args) -> int:
    nest = _read_nest(args.file, args.sink)
    print(nest.pretty())
    if args.deps:
        print(f"\ndependence vectors: {analyze(nest, level=args.level)}")
    if args.bounds:
        bm = BoundsMatrix.of_nest(nest)
        for which in (LB, UB, STEP):
            print(f"\n{which} =")
            print(bm.pretty(which))
        print()
        print(bm.pretty_types())
    return 0


def cmd_analyze(args) -> int:
    nest = _read_nest(args.file, args.sink)
    print(analyze(nest, level=args.level))
    return 0


def cmd_legality(args) -> int:
    nest = _read_nest(args.file, args.sink)
    T = parse_steps(args.steps, nest.depth)
    deps = analyze(nest, level=args.level)
    report = T.legality(nest, deps)
    print(f"sequence: {T.signature()}")
    print(f"dependence vectors: {deps}")
    print(f"legal: {report.legal}")
    if not report.legal:
        print(f"reason: {report.reason}")
    return 0 if report.legal else 1


def cmd_transform(args) -> int:
    nest = _read_nest(args.file, args.sink)
    T = parse_steps(args.steps, nest.depth)
    deps = analyze(nest, level=args.level)
    if args.trace:
        dep_trace = T.dep_set_trace(deps, nest)
        # Only the stages that fold print; the legality test below
        # names the step that does not.
        loop_trace, _error = T.folded_loop_trace(nest)
        names = ["START"] + [s.kernel_name for s in T.steps]
        for name, d, loops in zip(names, dep_trace, loop_trace):
            print(f"-- {name}: D = {d}")
            for lp in loops:
                print(f"     {lp.header()}")
        print()
    if args.force:
        out = T.apply(nest, check=False)
    else:
        report = T.legality(nest, deps)
        if not report.legal:
            print(f"ILLEGAL: {report.reason}", file=sys.stderr)
            return 1
        out = T.apply(nest, deps)
    if args.emit == "c":
        print(emit_c(out))
    elif args.emit == "python":
        from repro.runtime.compiled import emit_python
        print(emit_python(out), end="")
    elif args.emit == "pretty":
        from repro.ir.pretty_temps import pretty_with_temps
        print(pretty_with_temps(out))
    else:
        print(out.pretty())
    return 0


def cmd_run(args) -> int:
    """Execute a nest (optionally transformed first) under the chosen
    engine and print a JSON summary: iteration count, wall-clock, and —
    for the vectorized engine — the lowering plan and fallback reasons.
    """
    import time as time_mod

    from repro.runtime import resolve_engine

    nest = _read_nest(args.file, args.sink)
    sequence = None
    if args.steps:
        transformation = parse_steps(args.steps, nest.depth)
        sequence = transformation.signature()
        if args.force:
            nest = transformation.apply(nest, check=False)
        else:
            deps = analyze(nest, level=args.level)
            report = transformation.legality(nest, deps)
            if not report.legal:
                print(f"error: illegal sequence: {report.reason}",
                      file=sys.stderr)
                return 1
            nest = transformation.apply(nest, deps)
    symbols = {name: args.size for name in sorted(nest.invariants())}
    engine_cls = resolve_engine(args.engine)
    engine = engine_cls(nest, symbols=symbols)
    start = time_mod.perf_counter()
    result = engine.run({})
    wall = time_mod.perf_counter() - start
    doc = {
        "input": {"file": args.file, "level": args.level,
                  "size": args.size, "steps": args.steps},
        "engine": args.engine,
        "sequence": sequence,
        "depth": nest.depth,
        "iterations": result.body_count,
        "wall_s": round(wall, 6),
    }
    if args.engine == "vectorized":
        doc["vectorized"] = engine.describe()
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_search(args) -> int:
    """Beam-search a transformation sequence and print a JSON summary.

    ``--jobs N`` shards candidate scoring across N forked worker
    processes (legality is decided in this process either way); results
    are guaranteed identical to ``--jobs 1`` (the ``parallel`` block in
    the output records the worker accounting).
    ``--scorer time`` replaces the static parallelism score with
    measured wall clock under ``--engine``.
    """
    from repro.optimize.model import resolve_model
    from repro.optimize.search import (
        SearchConfig,
        make_time_score,
        parallelism_score,
        search,
    )

    nest = _read_nest(args.file, args.sink)
    deps = analyze(nest, level=args.level)
    if args.scorer == "time":
        symbols = {name: args.size for name in sorted(nest.invariants())}
        score = make_time_score({}, symbols, engine=args.engine)
    else:
        score = parallelism_score
    model = resolve_model(args.model) if args.model else None
    config = SearchConfig(score=score, depth=args.depth, beam=args.beam,
                          jobs=args.jobs,
                          candidate_timeout=args.candidate_timeout,
                          prune=args.prune, speculate=args.speculate,
                          model=model)
    result = search(nest, deps, config=config)
    winner = result.transformation
    doc = {
        "input": {"file": args.file, "level": args.level,
                  "depth": args.depth, "beam": args.beam,
                  "jobs": args.jobs, "scorer": args.scorer,
                  "prune": args.prune, "speculate": args.speculate,
                  "model": args.model,
                  "engine": (args.engine if args.scorer == "time"
                             else None)},
        "winner": winner.signature() if winner else None,
        "spec": winner.to_spec() if winner is not None else None,
        "score": result.score if result.score != float("-inf") else None,
        "explored": result.explored,
        "legal": result.legal_count,
        "timeouts": result.timeouts,
        "pruned": result.pruned,
        "prune_reasons": result.prune_reasons,
        "speculated": result.speculated,
        "evicted": result.evicted,
        "exact_verdicts": result.exact_verdicts,
        "cache_stats": result.cache_stats,
        "parallel": result.parallel,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_profile(args) -> int:
    """Profile the whole pipeline on one nest and print a JSON document.

    The tracer is already installed by :func:`main` (the ``profile``
    command always runs observed), so every instrumented layer — the
    dependence analyzer, the beam search and its legality cache, the
    compiled engine, the cache simulator — reports into the same span
    stream and metrics registry that this command renders.
    """
    from repro.cache.simulator import Layout, simulate_trace
    from repro.core.legality_cache import LegalityCache
    from repro.optimize.model import resolve_model
    from repro.optimize.search import SearchConfig, search
    from repro.runtime.compiled import run_compiled

    nest = _read_nest(args.file, args.sink)
    symbols = {name: args.size for name in sorted(nest.invariants())}
    deps = analyze(nest, level=args.level)

    doc_search = None
    winner = None
    if not args.no_search:
        model = resolve_model(args.model) if args.model else None
        config = SearchConfig(depth=args.depth, beam=args.beam,
                              jobs=args.jobs,
                              candidate_timeout=args.candidate_timeout,
                              prune=args.prune,
                              speculate=args.speculate, model=model)
        result = search(nest, deps, config=config)
        winner = result.transformation
        doc_search = {
            "winner": winner.signature() if winner else None,
            "score": (result.score
                      if result.score != float("-inf") else None),
            "explored": result.explored,
            "legal": result.legal_count,
            "pruned": result.pruned,
            "speculated": result.speculated,
            "evicted": result.evicted,
            "exact_verdicts": result.exact_verdicts,
            "cache_stats": result.cache_stats,
            "parallel": result.parallel,
        }

    if args.steps:
        chosen = parse_steps(args.steps, nest.depth)
    else:
        chosen = winner or Transformation.identity(nest.depth)
    report = LegalityCache().legality(chosen, nest, deps)

    doc_run = {"sequence": chosen.signature(), "legal": report.legal,
               "engine": args.engine}
    doc_cachesim = None
    try:
        out = chosen.apply(nest, deps) if report.legal else nest
        if not report.legal:
            doc_run["note"] = ("sequence illegal; profiled the original "
                               "nest instead")
        # Wall clock under the selected engine (the address trace below
        # always comes from the compiled engine — the vectorized one
        # does not trace).
        import time as time_mod

        from repro.runtime import resolve_engine

        timed_engine = resolve_engine(args.engine)(out, symbols=symbols)
        start = time_mod.perf_counter()
        timed_engine.run({})
        doc_run["wall_s"] = round(time_mod.perf_counter() - start, 6)
        if args.engine == "vectorized":
            doc_run["vectorized"] = timed_engine.describe()
        result = run_compiled(out, {}, symbols=symbols,
                              trace_addresses=True)
        doc_run["iterations"] = result.body_count
        doc_run["accesses"] = len(result.address_trace)
        if result.address_trace:
            # Extents observed in the trace are exact for the layout.
            extents = {}
            for name, index, _kind in result.address_trace:
                dims = extents.setdefault(name,
                                          [[ix, ix] for ix in index])
                for d, ix in enumerate(index):
                    if ix < dims[d][0]:
                        dims[d][0] = ix
                    if ix > dims[d][1]:
                        dims[d][1] = ix
            layout = Layout()
            for name in sorted(extents):
                layout.register(name, [tuple(e) for e in extents[name]])
            stats = simulate_trace(result.address_trace, layout)
            doc_cachesim = {
                "accesses": stats.accesses,
                "misses": stats.misses,
                "miss_rate": round(stats.miss_rate, 6),
            }
    except ReproError as exc:
        doc_run["error"] = str(exc)

    doc = obs.profile_document()
    doc["input"] = {"file": args.file, "level": args.level,
                    "size": args.size}
    doc["search"] = doc_search
    doc["run"] = doc_run
    doc["cachesim"] = doc_cachesim
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


#: The ``serve`` options that build the service's defaults: argparse
#: dest -> :class:`~repro.service.TransformationService` keyword.
_SERVE_DEFAULTS = {"queue_max": "queue_max", "batch_max": "batch_max",
                   "cache_max_entries": "cache_max_entries",
                   "engine": "default_engine", "prune": "default_prune",
                   "speculate": "default_speculate",
                   "model": "default_model"}


def _child_serve_options(args) -> list:
    """The serve options a ``--supervise`` child or a fleet worker
    inherits from this command line: the service defaults, as flags."""
    options = []
    for dest in _SERVE_DEFAULTS:
        value = getattr(args, dest)
        flag = "--" + dest.replace("_", "-")
        if value is True:
            options.append(flag)
        elif value is not None and value is not False:
            options += [flag, str(value)]
    return options


def cmd_serve(args) -> int:
    """Run the long-lived transformation service until drained.

    The server keeps warm state (legality cache, compiled-nest cache,
    parse/analysis memos) across the whole session and answers every
    request in-process; see :mod:`repro.service`.  It exits cleanly on
    SIGTERM, SIGINT, stdin EOF (stdio mode) or a ``shutdown`` request.

    ``--supervise`` (TCP only) runs the server as a supervised child:
    crashes and hangs restart it with backoff, warm state survives via
    the checkpoint file, and a crash loop trips a circuit breaker.
    ``--chaos SPEC`` arms fault injection (in the supervised child via
    the ``REPRO_CHAOS`` environment).  ``--fleet N`` (TCP only) fronts
    N supervised workers behind the one port, routing requests by
    content-hash affinity and failing over dead workers' hash ranges
    to the survivors; see :mod:`repro.fleet`.
    """
    from repro.resilience import chaos
    from repro.service.child import free_port, serve_child_argv

    if args.fleet:
        if not args.tcp:
            print("error: --fleet requires --tcp (N workers behind one "
                  "socket)", file=sys.stderr)
            return 2
        if args.supervise:
            print("error: --fleet supervises every worker already; "
                  "drop --supervise", file=sys.stderr)
            return 2
        from repro.fleet import FleetError, FleetFrontEnd, FleetRouter
        from repro.service import serve_tcp

        port = args.port or free_port(args.host)
        directory = args.fleet_dir or f".repro-fleet-{port}"
        worker_args = _child_serve_options(args)
        if args.chaos:
            worker_args += ["--chaos", args.chaos,
                            "--chaos-seed", str(args.chaos_seed)]
            if args.chaos_state:
                worker_args += ["--chaos-state", args.chaos_state]
        router = FleetRouter(
            args.fleet, directory=directory,
            hang_timeout=args.hang_timeout,
            max_restarts=args.max_restarts,
            restart_window=args.restart_window,
            checkpoint_every=args.checkpoint_every,
            request_timeout=args.request_timeout,
            extra_args=worker_args)
        print(f"repro serve: starting fleet of {args.fleet} worker(s) "
              f"in {directory}", file=sys.stderr, flush=True)
        try:
            router.start()
        except FleetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        frontend = FleetFrontEnd(router, queue_max=args.queue_max)
        serve_tcp(frontend, host=args.host, port=port)
        print(f"repro serve: fleet drained ({frontend.drain_reason}); "
              f"{frontend.counters['answered']} answered, "
              f"{router.counters['failovers']} failover(s)",
              file=sys.stderr)
        return 0

    if args.supervise:
        if not args.tcp:
            print("error: --supervise requires --tcp (clients reconnect "
                  "across restarts; stdio pipes cannot)", file=sys.stderr)
            return 2
        from repro.resilience.supervisor import Supervisor

        port = args.port or free_port(args.host)
        heartbeat = args.heartbeat_file or f".repro-serve-{port}.hb"
        checkpoint = args.checkpoint or heartbeat + ".ckpt"
        if args.chaos:
            os.environ[chaos.ENV_SPEC] = args.chaos
            os.environ[chaos.ENV_SEED] = str(args.chaos_seed)
            # Firing counts must survive restarts, else every crash
            # rule is a crash loop.
            os.environ[chaos.ENV_STATE] = (args.chaos_state
                                           or heartbeat + ".chaos")
        supervisor = Supervisor(
            serve_child_argv(args.host, port, heartbeat, checkpoint,
                             hang_timeout=args.hang_timeout,
                             checkpoint_every=args.checkpoint_every,
                             request_timeout=args.request_timeout,
                             options=_child_serve_options(args)),
            heartbeat_file=heartbeat,
            hang_timeout=args.hang_timeout,
            max_restarts=args.max_restarts,
            restart_window=args.restart_window,
            report_path=args.report)
        supervisor.install_signal_handlers()
        print(f"repro serve: supervising on {args.host}:{port} "
              f"(heartbeat {heartbeat}, checkpoint {checkpoint})",
              file=sys.stderr, flush=True)
        code = supervisor.run()
        print(f"repro serve: supervision ended after "
              f"{len(supervisor.restarts)} restart(s)", file=sys.stderr)
        return code

    if args.chaos:
        chaos.arm(chaos.ChaosPlan.from_spec(
            args.chaos, seed=args.chaos_seed,
            state_path=args.chaos_state))
    else:
        chaos.arm_from_env()
    from repro.service import TransformationService, serve_stdio, serve_tcp

    service = TransformationService(
        request_timeout=args.request_timeout,
        heartbeat_file=args.heartbeat_file,
        hang_grace=max(args.hang_timeout / 2.0, 0.2),
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        **{kw: getattr(args, dest) for dest, kw in _SERVE_DEFAULTS.items()})
    if args.tcp:
        serve_tcp(service, host=args.host, port=args.port)
    else:
        serve_stdio(service)
    print(f"repro serve: drained ({service.drain_reason}); "
          f"{service.counters['completed']} requests served",
          file=sys.stderr)
    return 0


def _traced_replay(client, requests) -> list:
    """Replay with distributed tracing: each request roots its own
    trace (``client.request`` span), sends the context on the wire, and
    folds the spans shipped back on the response into the collector —
    :func:`main` then exports the stitched cross-process tree."""
    from repro.obs import distributed as dist
    from repro.resilience.retry import RetryingClient

    responses = []
    for req in requests:
        op = req["op"]
        with dist.start_trace("client.request", op=op):
            ctx = dist.current_context()
            if isinstance(client, RetryingClient):
                response = client.request_raw(
                    op, req.get("params"), req_id=req.get("id"),
                    trace=ctx)
            else:
                rid = client.send(op, req.get("params"),
                                  req_id=req.get("id"), trace=ctx)
                response = client.recv(rid)
        if isinstance(response, dict):
            spans = response.pop("spans", None)
            dropped = response.pop("spans_dropped", 0)
            if spans or dropped:
                dist.get_collector().add(spans, dropped)
        responses.append(response)
    return responses


def cmd_client(args) -> int:
    """Replay an NDJSON request script and print the raw responses.

    Exit code 0 when every response is ``ok``, 1 when any request
    failed, 2 on a malformed script.
    """
    from repro.service import ServiceClient

    text = (sys.stdin.read() if args.script == "-"
            else Path(args.script).read_text())
    requests = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            req = json.loads(line)
        except ValueError as exc:
            print(f"error: script line {lineno}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(req, dict) or "op" not in req:
            print(f"error: script line {lineno}: each request needs "
                  f"an 'op'", file=sys.stderr)
            return 2
        requests.append(req)

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            print(f"error: --connect expects HOST:PORT, got "
                  f"{args.connect!r}", file=sys.stderr)
            return 2
        shutdown = args.shutdown
        if args.retries:
            from repro.resilience.retry import RetryPolicy, RetryingClient
            client = RetryingClient.tcp(
                host, int(port),
                policy=RetryPolicy(attempts=args.retries + 1),
                attempt_timeout=args.attempt_timeout)
        else:
            client = ServiceClient.connect(host, int(port))
    else:
        shutdown = True
        if args.retries:
            from repro.resilience.retry import RetryPolicy, RetryingClient
            client = RetryingClient.spawn(
                policy=RetryPolicy(attempts=args.retries + 1),
                attempt_timeout=args.attempt_timeout)
        else:
            client = ServiceClient.spawn()
    try:
        if obs.enabled():
            responses = _traced_replay(client, requests)
        else:
            responses = client.replay(requests)
    finally:
        client.close(shutdown=shutdown)
    for response in responses:
        print(json.dumps(response, sort_keys=True))
    return 0 if all(r.get("ok") for r in responses) else 1


def cmd_stats(args) -> int:
    """Fetch a live service's ``telemetry`` snapshot and print JSON.

    Against a fleet front end the router answers with the merged
    fleet-wide document (``router`` / ``workers`` / ``merged``
    sections); against a single server, with that process's own
    snapshot.  ``--watch`` polls until interrupted, reconnecting each
    cycle so supervised restarts don't end the watch.
    """
    import time as time_mod

    from repro.service import ServiceClient
    from repro.service.protocol import ServiceError

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: --connect expects HOST:PORT, got "
              f"{args.connect!r}", file=sys.stderr)
        return 2
    while True:
        try:
            client = ServiceClient.connect(host, int(port))
            try:
                doc = client.request("telemetry")
            finally:
                client.close(shutdown=False)
        except (ServiceError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(doc, indent=2, sort_keys=True), flush=True)
        if not args.watch:
            return 0
        time_mod.sleep(args.interval)


def cmd_fuzz(args) -> int:
    """Run the generative differential fuzzer, or replay the corpus.

    Prints one JSON report document to stdout (and, with ``--json``,
    to a file — what ``make fuzz-smoke`` publishes as the CI
    artifact).  Exit code 0 means zero divergences/crashes/hangs; 1
    means the run surfaced at least one failure (each shrunk, and
    banked when ``--corpus`` is given).
    """
    from repro.fuzz import run_fuzz
    from repro.fuzz.corpus import list_artifacts, replay_artifact
    from repro.fuzz.harness import MATRIX_DIMS

    if args.replay:
        artifacts = list_artifacts(args.corpus)
        failures = []
        for path in artifacts:
            outcome = replay_artifact(path)
            if outcome.failed:
                failures.append({"artifact": str(path),
                                 "status": outcome.status,
                                 "oracle": outcome.oracle,
                                 "detail": outcome.detail})
        doc = {"replayed": len(artifacts),
               "failures": failures}
        text = json.dumps(doc, indent=2, sort_keys=True)
        print(text, flush=True)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return 1 if failures else 0

    matrix = [d.strip() for d in args.matrix.split(",") if d.strip()]
    for dim in matrix:
        if dim not in MATRIX_DIMS:
            print(f"error: unknown matrix dimension {dim!r} (choose "
                  f"from {', '.join(MATRIX_DIMS)})", file=sys.stderr)
            return 2

    def progress(report):
        print(f"fuzz: {report.summary()}", file=sys.stderr, flush=True)

    report = run_fuzz(args.cases, args.seed, matrix=matrix,
                      start=args.start, shrink=not args.no_shrink,
                      corpus=args.corpus,
                      time_limit=args.time_limit,
                      progress=progress if not args.quiet else None)
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    print(text, flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"fuzz: {report.summary()}", file=sys.stderr)
    return 1 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Iteration-reordering loop transformations "
                    "(Sarkar & Thekkath, PLDI 1992)",
        epilog="exit codes: 0 success; 1 operation failed (illegal "
               "sequence, failed service request); 2 bad input or usage "
               "(parse/spec errors, malformed arguments)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_observe(p):
        p.add_argument("--profile", action="store_true",
                       help="run with the tracer on and print the "
                            "per-phase profile table to stderr")
        p.add_argument("--trace-json", metavar="PATH", default=None,
                       help="run with the tracer on and export the span "
                            "stream to PATH as JSON lines")

    def add_parallel(p):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for candidate scoring in "
                            "search and profile (1 = serial; results "
                            "are identical either way; inert elsewhere)")
        p.add_argument("--candidate-timeout", dest="candidate_timeout",
                       type=float, default=None, metavar="SECONDS",
                       help="wall-clock budget per candidate scoring "
                            "in search and profile; overrunning "
                            "candidates score -inf")

    def add_model_guided(p):
        p.add_argument("--prune", action="store_true", default=False,
                       help="discard candidate steps by algebraic "
                            "pruning rules before legality runs")
        p.add_argument("--no-prune", dest="prune", action="store_false",
                       help="disable pruning (the default)")
        p.add_argument("--speculate", action="store_true", default=False,
                       help="admit model-favored candidates on the "
                            "cheap dependence verdict alone, deferring "
                            "exact legality to the beam frontier")
        p.add_argument("--model", choices=MODEL_NAMES, default=None,
                       help="cost model for --speculate (default: a "
                            "fresh static model per search)")

    def add_engine(p, default, what):
        p.add_argument("--engine", choices=ENGINE_NAMES, default=default,
                       help=f"{what} (default {default}; vectorized "
                            "needs NumPy)")

    def add_common(p):
        p.add_argument("file", help="loop nest file ('-' for stdin)")
        p.add_argument("--level", choices=LEVELS,
                       default="fm", help="dependence test ladder depth")
        p.add_argument("--sink", action="store_true",
                       help="accept an imperfect nest and sink it into a "
                            "guarded perfect nest first")
        add_observe(p)
        add_parallel(p)

    p_show = sub.add_parser("show", help="parse and pretty-print a nest")
    add_common(p_show)
    p_show.add_argument("--deps", action="store_true",
                        help="also print analyzed dependence vectors")
    p_show.add_argument("--bounds", action="store_true",
                        help="also print the LB/UB/STEP matrices")
    p_show.set_defaults(func=cmd_show)

    p_an = sub.add_parser("analyze", help="print the dependence set")
    add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_leg = sub.add_parser("legality", help="test a sequence's legality")
    add_common(p_leg)
    p_leg.add_argument("--steps", required=True, help="step specification")
    p_leg.set_defaults(func=cmd_legality)

    p_tr = sub.add_parser("transform", help="generate transformed code")
    add_common(p_tr)
    p_tr.add_argument("--steps", required=True, help="step specification")
    p_tr.add_argument("--force", action="store_true",
                      help="skip the dependence-vector legality test")
    p_tr.add_argument("--emit", choices=["loop", "c", "python", "pretty"],
                      default="loop",
                      help="output language ('pretty' extracts Figure-7 "
                           "style tmp* scalars)")
    p_tr.add_argument("--trace", action="store_true",
                      help="print per-stage dependence/loop tables")
    p_tr.set_defaults(func=cmd_transform)

    p_run = sub.add_parser(
        "run", help="execute a nest under a chosen engine")
    add_common(p_run)
    p_run.add_argument("--steps", default=None,
                       help="transform with this step sequence first")
    p_run.add_argument("--force", action="store_true",
                       help="skip the dependence-vector legality test")
    p_run.add_argument("--size", type=int, default=12,
                       help="value bound to every symbolic invariant "
                            "(default 12)")
    add_engine(p_run, "compiled", "execution engine")
    p_run.set_defaults(func=cmd_run)

    p_se = sub.add_parser(
        "search", help="beam-search a transformation sequence")
    add_common(p_se)
    p_se.add_argument("--depth", type=int, default=2,
                      help="beam search depth (default 2)")
    p_se.add_argument("--beam", type=int, default=8,
                      help="beam width (default 8)")
    p_se.add_argument("--scorer", choices=["parallelism", "time"],
                      default="parallelism",
                      help="candidate score: static parallelism "
                           "(default) or measured wall clock")
    add_engine(p_se, "vectorized", "engine timed by --scorer time")
    p_se.add_argument("--size", type=int, default=12,
                      help="value bound to every symbolic invariant "
                           "for --scorer time (default 12)")
    add_model_guided(p_se)
    p_se.set_defaults(func=cmd_search)

    p_prof = sub.add_parser(
        "profile",
        help="profile the search/legality/execution pipeline as JSON")
    add_common(p_prof)
    p_prof.add_argument("--steps", default=None,
                        help="also profile this specific step sequence "
                             "(default: the search winner)")
    p_prof.add_argument("--no-search", action="store_true",
                        help="skip the beam search phase")
    p_prof.add_argument("--depth", type=int, default=2,
                        help="beam search depth (default 2)")
    p_prof.add_argument("--beam", type=int, default=8,
                        help="beam width (default 8)")
    p_prof.add_argument("--size", type=int, default=12,
                        help="value bound to every symbolic invariant "
                             "for the execution phases (default 12)")
    add_engine(p_prof, "compiled", "engine timed for the run section; "
               "the cache simulation always traces the compiled engine")
    add_model_guided(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_srv = sub.add_parser(
        "serve",
        help="run the long-lived transformation service (NDJSON over "
             "stdio or TCP)")
    mode = p_srv.add_mutually_exclusive_group()
    mode.add_argument("--stdio", action="store_true", default=True,
                      help="serve over stdin/stdout (default)")
    mode.add_argument("--tcp", action="store_true",
                      help="serve over a TCP socket instead of stdio")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address for --tcp (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=0,
                       help="port for --tcp (default 0 = ephemeral; the "
                            "bound port is announced on stderr)")
    p_srv.add_argument("--queue-max", dest="queue_max", type=int,
                       default=64, metavar="N",
                       help="admission queue bound; requests beyond it "
                            "get a typed backpressure error (default 64)")
    p_srv.add_argument("--batch-max", dest="batch_max", type=int,
                       default=8, metavar="N",
                       help="max requests drained per processing cycle "
                            "(default 8)")
    p_srv.add_argument("--request-timeout", dest="request_timeout",
                       type=float, default=None, metavar="SECONDS",
                       help="per-request wall-clock budget; overruns get "
                            "a typed timeout error")
    add_engine(p_srv, "compiled",
               "default engine for run requests that do not name one")
    p_srv.add_argument("--cache-max-entries", dest="cache_max_entries",
                       type=int, default=4096, metavar="N",
                       help="bound on the warm legality cache (LRU "
                            "eviction; default 4096)")
    p_srv.add_argument("--supervise", action="store_true",
                       help="with --tcp: run the server as a supervised "
                            "child, restarting on crash or hang with "
                            "backoff and warm-state restore")
    p_srv.add_argument("--fleet", type=int, default=0, metavar="N",
                       help="with --tcp: front a fleet of N supervised "
                            "workers behind this port, routing by "
                            "content-hash affinity with failover")
    p_srv.add_argument("--fleet-dir", dest="fleet_dir", metavar="PATH",
                       default=None,
                       help="directory for the fleet's heartbeat/"
                            "checkpoint/report files (default "
                            ".repro-fleet-PORT)")
    p_srv.add_argument("--heartbeat-file", dest="heartbeat_file",
                       metavar="PATH", default=None,
                       help="liveness file the server touches while its "
                            "loop is healthy (chosen automatically under "
                            "--supervise)")
    p_srv.add_argument("--hang-timeout", dest="hang_timeout", type=float,
                       default=10.0, metavar="SECONDS",
                       help="stale-heartbeat threshold before the "
                            "supervisor kills a hung child (default 10)")
    p_srv.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="warm-state checkpoint file: restored at "
                            "startup, rewritten periodically (chosen "
                            "automatically under --supervise)")
    p_srv.add_argument("--checkpoint-every", dest="checkpoint_every",
                       type=int, default=25, metavar="N",
                       help="checkpoint after every N processed requests "
                            "(default 25)")
    p_srv.add_argument("--max-restarts", dest="max_restarts", type=int,
                       default=5, metavar="N",
                       help="circuit breaker: give up after N restarts "
                            "inside the restart window (default 5)")
    p_srv.add_argument("--restart-window", dest="restart_window",
                       type=float, default=60.0, metavar="SECONDS",
                       help="window for the restart circuit breaker "
                            "(default 60)")
    p_srv.add_argument("--report", metavar="PATH", default=None,
                       help="write the supervisor's JSON restart report "
                            "to PATH")
    p_srv.add_argument("--chaos", metavar="SPEC", default=None,
                       help="arm fault injection, e.g. "
                            "'service.dispatch:crash:1,legality:error:2' "
                            "(see repro.resilience.chaos)")
    p_srv.add_argument("--chaos-seed", dest="chaos_seed", type=int,
                       default=0, metavar="N",
                       help="seed for probabilistic chaos rules "
                            "(default 0)")
    p_srv.add_argument("--chaos-state", dest="chaos_state",
                       metavar="PATH", default=None,
                       help="persist chaos firing counts across "
                            "supervised restarts (chosen automatically "
                            "under --supervise)")
    add_observe(p_srv)
    add_parallel(p_srv)
    add_model_guided(p_srv)
    p_srv.set_defaults(func=cmd_serve)

    p_cl = sub.add_parser(
        "client",
        help="replay an NDJSON request script against a service")
    p_cl.add_argument("script",
                      help="request script, one {\"op\", \"params\"} "
                           "object per line ('-' for stdin)")
    p_cl.add_argument("--connect", metavar="HOST:PORT", default=None,
                      help="use a running TCP server instead of spawning "
                           "a stdio server")
    p_cl.add_argument("--shutdown", action="store_true",
                      help="with --connect: ask the server to drain and "
                           "stop after the replay")
    p_cl.add_argument("--retries", type=int, default=0, metavar="N",
                      help="retry each request up to N times on "
                           "transport failures and retryable errors, "
                           "with idempotency keys so nothing re-executes "
                           "(default 0 = fail fast)")
    p_cl.add_argument("--attempt-timeout", dest="attempt_timeout",
                      type=float, default=None, metavar="SECONDS",
                      help="with --retries: per-attempt response "
                           "timeout; a hung server becomes a retried "
                           "transport failure")
    add_observe(p_cl)
    add_parallel(p_cl)
    p_cl.set_defaults(func=cmd_client)

    p_st = sub.add_parser(
        "stats",
        help="fetch a running service's (or fleet's) telemetry "
             "snapshot as JSON")
    p_st.add_argument("--connect", metavar="HOST:PORT", required=True,
                      help="address of the running server or fleet "
                           "front end")
    p_st.add_argument("--watch", action="store_true",
                      help="poll repeatedly instead of one shot")
    p_st.add_argument("--interval", type=float, default=2.0,
                      metavar="SECONDS",
                      help="polling interval for --watch (default 2)")
    p_st.set_defaults(func=cmd_stats)

    p_fz = sub.add_parser(
        "fuzz",
        help="run the generative differential fuzzer (or replay the "
             "regression corpus)")
    p_fz.add_argument("--cases", type=int, default=500, metavar="N",
                      help="number of generated cases (default 500)")
    p_fz.add_argument("--seed", type=int, default=0, metavar="S",
                      help="generator seed; the whole run is a pure "
                           "function of (seed, case ids)")
    p_fz.add_argument("--start", type=int, default=0, metavar="K",
                      help="first case id (resume or shard a long run)")
    p_fz.add_argument("--matrix", default="core,search",
                      metavar="DIMS",
                      help="comma-separated oracle dimensions: core "
                           "(always on), search, service, fleet, chaos "
                           "(default core,search)")
    p_fz.add_argument("--corpus", metavar="DIR", default=None,
                      help="bank shrunk failure artifacts in DIR (also "
                           "the bank --replay reads; default for "
                           "--replay: tests/corpus/fuzz or "
                           "$REPRO_FUZZ_CORPUS)")
    p_fz.add_argument("--replay", action="store_true",
                      help="replay every artifact in the corpus bank "
                           "instead of generating cases")
    p_fz.add_argument("--no-shrink", dest="no_shrink",
                      action="store_true",
                      help="report failures raw, without auto-shrinking")
    p_fz.add_argument("--time-limit", dest="time_limit", type=float,
                      default=10.0, metavar="SECONDS",
                      help="per-oracle hang budget (default 10)")
    p_fz.add_argument("--json", metavar="PATH", default=None,
                      help="also write the JSON report to PATH")
    p_fz.add_argument("--quiet", action="store_true",
                      help="suppress periodic progress lines on stderr")
    add_observe(p_fz)
    p_fz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    profiling = getattr(args, "profile", False)
    trace_path = getattr(args, "trace_json", None)
    observe = (profiling or trace_path is not None or
               args.command == "profile")
    tracer = obs.enable() if observe else None
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            if trace_path is not None:
                from repro.obs import distributed as dist
                if len(dist.get_collector()):
                    # Remote spans were shipped back to this process:
                    # export the stitched cross-process tree.
                    dist.export_stitched(trace_path, tracer)
                else:
                    tracer.export_jsonl(trace_path)
            if profiling:
                print(obs.profile_table(tracer), file=sys.stderr)
            obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
