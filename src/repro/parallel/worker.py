"""Worker-side protocol for sharded parallel beam search.

Wire forms
----------

A template step travels as ``(n, spec, names)`` — its step-language
spelling plus the two pieces ``to_spec()`` omits: the nest depth the
step expects and the ``names`` tuple of a renaming Unimodular.  A
candidate transformation travels as ``(input_depth, step_wires)``.
The naming mirrors the templates' serialization protocol:
``step_to_spec``/``step_from_spec`` and ``candidate_to_spec``/
``candidate_from_spec``.  Rebuilding goes through
:func:`repro.core.spec.step_from_spec` **without** peephole
reduction, mirroring how the search composes candidates
(``base.then(step, reduce=False)``); :func:`step_roundtrips` verifies
that the rebuilt step has the same legality-cache content key as the
original, so a worker scores the very sequence the parent tested.

Messages (all picklable tuples, tagged by their first element):

``("result", wid, idx, value, timed_out)``
    One candidate's score: the raw value (``None`` when timed out) and
    whether the scoring call overran ``candidate_timeout``.  Legality
    is not the worker's business: the parent tests every candidate
    before it ships the ones that pass.

``("error", wid, idx, payload)``
    The scoring function raised: the exception crosses back to the
    parent (pickled when possible) and is re-raised there, exactly as a
    serial search would have propagated it.

``("done", wid)``
    Shard finished; the worker exits after flushing the queue.

``("spans", wid, records, dropped)``
    Only when the parent passed a distributed-tracing context: the
    worker's completed span subtree (``pool.worker`` + per-candidate
    ``pool.candidate`` spans) in wire form, shipped for stitching into
    the parent's trace (see :mod:`repro.obs.distributed`).
"""

from __future__ import annotations

import pickle
import signal
import threading
import time
import traceback
from typing import Callable, List, Optional, Tuple

from repro.core import spec as spec_mod
from repro.core.legality_cache import template_key
from repro.core.sequence import Transformation
from repro.core.template import Template
from repro.resilience import chaos as _chaos
from repro.util.errors import ReproError


class ScoreTimeout(Exception):
    """Internal: a candidate evaluation overran its wall-clock budget.

    ``token`` identifies which :func:`call_with_timeout` frame armed the
    timer that fired, so nested budgets attribute timeouts to the right
    frame instead of the innermost one swallowing them all.
    """

    def __init__(self, token: object = None):
        super().__init__("wall-clock budget exceeded")
        self.token = token


class WorkerError(ReproError):
    """A worker raised an exception that could not be pickled back;
    carries the worker-side type, message and traceback as text."""


# -- step/candidate wire forms ---------------------------------------------

def step_to_spec(step: Template) -> Tuple:
    """``(n, spec, names)`` — raises NotImplementedError for templates
    with no step-language spelling (those cannot be shipped)."""
    return (step.n, step.to_spec(), getattr(step, "names", None))


def step_from_spec(wire: Tuple) -> Template:
    n, spec, names = wire
    return spec_mod.step_from_spec(spec, n, names=names)


def step_roundtrips(step: Template) -> bool:
    """True iff the wire form rebuilds a step with the same cache
    content key, i.e. shipping it to a worker is indistinguishable from
    evaluating in-process."""
    try:
        rebuilt = step_from_spec(step_to_spec(step))
    except Exception:
        return False
    return template_key(rebuilt) == template_key(step)


def candidate_to_spec(candidate: Transformation) -> Tuple:
    return (candidate.input_depth,
            tuple(step_to_spec(s) for s in candidate.steps))


def candidate_from_spec(wire: Tuple) -> Transformation:
    n, step_wires = wire
    return Transformation([step_from_spec(w) for w in step_wires], n=n)


# -- per-candidate wall-clock budget ---------------------------------------

def call_with_timeout(fn: Callable[[], object],
                      seconds: Optional[float]) -> Tuple[object, bool]:
    """Run ``fn()`` under a wall-clock budget; return ``(value,
    timed_out)`` with ``value`` meaningless when ``timed_out``.

    Uses ``SIGALRM``/``setitimer``, so the budget only applies on the
    main thread of a process (which both the search caller and worker
    processes normally are); elsewhere, or with no budget, the call
    simply runs to completion.

    **Nesting.**  Budgets nest correctly: the call saves the previous
    ``SIGALRM`` handler *and* the remaining time of any already-armed
    itimer, arms ``min(seconds, remaining)``, and on exit re-arms the
    outer timer with whatever of its budget is left (firing it promptly
    when the inner call consumed it all).  A server request budget
    around a per-candidate budget therefore cannot be cancelled by the
    inner timer's cleanup — the regression that motivated this was an
    inner ``setitimer(0)`` silently disarming the outer budget.  Each
    frame tags its :class:`ScoreTimeout` with a unique token; a timeout
    belonging to an outer frame is re-delivered under the restored
    outer handler rather than swallowed here.
    """
    if not seconds or seconds <= 0 or \
            threading.current_thread() is not threading.main_thread():
        return fn(), False

    token = object()

    def _alarm(signum, frame):
        raise ScoreTimeout(token)

    prev_handler = signal.getsignal(signal.SIGALRM)
    outer_remaining, _interval = signal.getitimer(signal.ITIMER_REAL)
    outer_deadline = (time.monotonic() + outer_remaining
                      if outer_remaining > 0 else None)
    budget = (seconds if outer_deadline is None
              else min(seconds, outer_remaining))
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return fn(), False
    except ScoreTimeout as exc:
        if exc.token is not token:
            raise  # an outer frame's timeout unwinding through us
        # Our timer fired.  Either our own budget was the binding one
        # (a genuine inner timeout), or the outer frame's remaining
        # time was shorter and we armed that instead — in which case
        # the finally below re-arms the outer timer with ~no time
        # left, so the outer budget still fires, under its own
        # handler, immediately after we return.
        return None, True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, prev_handler)
        if outer_deadline is not None:
            signal.setitimer(signal.ITIMER_REAL,
                             max(outer_deadline - time.monotonic(), 1e-6))


# -- exception transport ----------------------------------------------------

def exception_to_wire(exc: BaseException) -> Tuple:
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)  # some exceptions pickle but fail to rebuild
        return ("pickle", payload)
    except Exception:
        return ("text", type(exc).__name__, str(exc),
                traceback.format_exc())


def exception_from_wire(wire: Tuple) -> BaseException:
    if wire[0] == "pickle":
        return pickle.loads(wire[1])
    _, type_name, message, tb = wire
    return WorkerError(
        f"{type_name}: {message}\n--- worker traceback ---\n{tb}")


# -- the worker loop --------------------------------------------------------

def score_wire(wire: Tuple, fold, kind: str, index: int, nest, deps,
               score, timeout: Optional[float]) -> Tuple:
    """Score one candidate: ``(value, timed_out)``.  *fold* is the fold
    memo the parent's legality test left on the candidate (its final
    headers, and the dependence set of an exact verdict) or None; the
    rebuilt candidate takes it over, so the scorer neither folds the
    sequence again nor re-tests it in ``apply``."""
    candidate = candidate_from_spec(wire)
    if fold is not None:
        candidate._remember_fold(*fold)

    def scored():
        _chaos.maybe_hang(kind, index)
        return score(candidate, nest, deps)

    value, timed_out = call_with_timeout(scored, timeout)
    return (None if timed_out else value), timed_out


def worker_main(worker_id: int, kind: str, shard: List[Tuple],
                nest, deps, score, timeout: Optional[float],
                out_queue, trace_ctx: Optional[dict] = None) -> None:
    """Entry point of a forked scoring worker.

    *shard* is a list of ``(index, candidate_wire, fold)`` tasks in
    serial candidate order, every candidate already legal for *nest*
    and *deps* (see :func:`score_wire`).  *trace_ctx* (only
    passed when the parent is tracing) joins this worker's spans to the
    parent's distributed trace: the fork-inherited tracer is replaced by
    a fresh one — a fresh process tag, so span ids cannot collide with
    the parent's — and the completed subtree ships back on the queue.
    """
    root_sp = None
    tracer = None
    if trace_ctx is not None:
        from repro.obs import distributed as _dist
        from repro.obs import trace as _trace
        if _trace.enabled():
            tracer = _trace.install(_trace.Tracer())
            root_cm = _dist.adopt(trace_ctx, "pool.worker",
                                  wid=worker_id, kind=kind,
                                  candidates=len(shard))
            root_sp = root_cm.__enter__()
    try:
        for index, wire, fold in shard:
            _chaos.maybe_crash(kind, index)
            try:
                # error-kind chaos rides the exception transport back to
                # the parent (like any worker-side raise); crash/hang
                # kinds exercise the pool's requeue and stall paths.
                _chaos.inject("pool.worker")
                if tracer is not None:
                    with tracer.span("pool.candidate", index=index):
                        value, timed_out = score_wire(
                            wire, fold, kind, index, nest, deps, score,
                            timeout)
                else:
                    value, timed_out = score_wire(
                        wire, fold, kind, index, nest, deps, score, timeout)
            except Exception as exc:
                out_queue.put(
                    ("error", worker_id, index, exception_to_wire(exc)))
                break  # a serial search would have aborted here too
            out_queue.put(("result", worker_id, index, value, timed_out))
        if root_sp is not None:
            from repro.obs import distributed as _dist
            root_cm.__exit__(None, None, None)
            records, dropped = _dist.ship(tracer, root_sp, trace_ctx)
            out_queue.put(("spans", worker_id, records, dropped))
        out_queue.put(("done", worker_id))
    finally:
        # Flush the feeder thread before the process exits, else the
        # tail of the queue can be lost on fast exits.
        out_queue.close()
        out_queue.join_thread()
