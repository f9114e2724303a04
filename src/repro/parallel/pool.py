"""The sharded process pool behind ``search(..., jobs=N)``.

Lifecycle: one :class:`ShardedPool` per search call, living exactly as
long as that call.  The search decides every candidate's legality
itself, in the parent; each level's legal candidates are then
round-robin sharded over ``jobs`` workers forked fresh for that level,
which only score them (fork inherits the nest, dependence set and
scoring closure — nothing but results ever needs to be pickled *into*
a worker).  Scores stream back over a queue; the caller folds them
into the beam in serial candidate order.

Robustness contract:

* a worker that dies silently (crash, OOM kill) is detected by
  liveness polling; its unfinished candidates are requeued **once**
  onto a single fresh worker;
* a second failure — or a stalled pool (no message for
  ``stall_timeout`` seconds while results are owed) — degrades the
  pool: remaining candidates of the level, and all later levels of the
  call, are evaluated in-process by the caller.  Degradation is
  recorded in :attr:`stats`;
* a worker exception (the scoring function raised) is transported back
  and re-raised in the parent, as a serial search would have done.

The pool is also *conservatively unavailable* — it degrades immediately
at construction — when ``fork`` is unsupported or when a menu step does
not survive the spec round-trip; ``search`` then silently scores
in-process, keeping ``jobs`` an optimization knob rather than a
compatibility constraint.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sequence import Transformation
from repro.core.template import Template
from repro.obs import distributed as _dist
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.parallel import worker as worker_mod

#: Grace period between observing a worker's death and declaring its
#: unfinished candidates failed, so queue messages the dying process
#: already flushed can still drain.
_DEATH_GRACE = 0.25
_POLL = 0.05


class ShardedPool:
    """Shards beam-search candidate scoring across forked workers."""

    def __init__(self, nest, deps, score, jobs: int,
                 candidate_timeout: Optional[float] = None,
                 stall_timeout: Optional[float] = None,
                 menu: Optional[Sequence[Template]] = None):
        self.nest = nest
        self.deps = deps
        self.score = score
        self.jobs = max(1, int(jobs))
        self.candidate_timeout = candidate_timeout
        if stall_timeout is None and candidate_timeout:
            # With a per-candidate budget, prolonged silence means a
            # worker is stuck somewhere the budget cannot reach.
            stall_timeout = max(10.0, 5.0 * candidate_timeout)
        self.stall_timeout = stall_timeout
        self.degraded = False
        self.degrade_reason: Optional[str] = None
        self._ctx = None
        self.stats: Dict[str, object] = {
            "jobs": self.jobs,
            "levels": 0,
            "dispatched": 0,
            "parent_evals": 0,
            "timeouts": 0,
            "crashes": 0,
            "requeues": 0,
            "fallbacks": 0,
            "per_worker": {},
        }
        reason = self._availability(menu)
        if reason is not None:
            self._degrade(reason)

    # -- availability / degradation ----------------------------------------

    def _availability(self, menu) -> Optional[str]:
        if self.jobs < 2:
            return "jobs < 2"
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:
            return "fork start method unavailable on this platform"
        if menu is not None:
            for step in menu:
                if not worker_mod.step_roundtrips(step):
                    return (f"menu step {step.signature()} does not "
                            f"survive the spec round-trip")
        return None

    def _degrade(self, reason: str) -> None:
        self.degraded = True
        self.degrade_reason = reason
        self.stats["fallbacks"] = int(self.stats["fallbacks"]) + 1
        self.stats["fallback_reason"] = reason
        if _obs.enabled():
            get_metrics().counter("search.parallel.fallbacks").inc()

    # -- per-level evaluation ----------------------------------------------

    def score_level(self, level: int,
                    candidates: Sequence[Tuple[int, Transformation]]
                    ) -> Dict[int, Tuple[object, bool]]:
        """Score a level's legal ``(index, candidate)`` pairs in workers;
        returns ``index -> (value, timed_out)`` for the subset that
        workers completed.  The caller scores any missing index
        in-process (and folds *all* indices in serial order)."""
        if self.degraded or not candidates:
            return {}
        tasks = [(idx, worker_mod.candidate_to_spec(c), c._fold)
                 for idx, c in candidates]
        workers = min(self.jobs, len(tasks))
        shards = [tasks[w::workers] for w in range(workers)]
        self.stats["levels"] = int(self.stats["levels"]) + 1
        with _obs.span("search.shard", level=level,
                       candidates=len(tasks), workers=workers) as sp:
            # Derived inside the span so forked children parent their
            # shipped subtrees under this shard's span.
            trace_ctx = _dist.current_context()
            outcomes, failed = self._run(shards, "primary", trace_ctx)
            if failed and not self.degraded:
                self.stats["requeues"] = int(self.stats["requeues"]) + 1
                if _obs.enabled():
                    get_metrics().counter("search.parallel.requeues").inc()
                retried, failed_again = self._run([failed], "requeue",
                                                  trace_ctx)
                outcomes.update(retried)
                if failed_again:
                    self._degrade("worker failed twice on the same shard")
            sp.tag(completed=len(outcomes))
        self.stats["dispatched"] = (int(self.stats["dispatched"]) +
                                    len(outcomes))
        timed_out = sum(1 for _, late in outcomes.values() if late)
        if timed_out:
            self.stats["timeouts"] = int(self.stats["timeouts"]) + timed_out
            if _obs.enabled():
                get_metrics().counter(
                    "search.parallel.timeouts").inc(timed_out)
        return outcomes

    def _run(self, shards: List[List[Tuple]], kind: str,
             trace_ctx: Optional[dict] = None,
             ) -> Tuple[Dict[int, Tuple[object, bool]], List[Tuple]]:
        """Run one worker generation; returns completed scores plus the
        tasks of workers that died owing results.  Re-raises, in the
        parent, any exception a worker reported."""
        ctx = self._ctx
        out_queue = ctx.Queue()
        procs: List = []
        owed: Dict[int, Dict[int, Tuple]] = {}
        for wid, shard in enumerate(shards):
            owed[wid] = {task[0]: task for task in shard}
            proc = ctx.Process(
                target=worker_mod.worker_main,
                args=(wid, kind, shard, self.nest, self.deps, self.score,
                      self.candidate_timeout, out_queue, trace_ctx),
                daemon=True)
            proc.start()
            procs.append(proc)
        outcomes: Dict[int, Tuple[object, bool]] = {}
        failed: Dict[int, Tuple] = {}
        error: Optional[BaseException] = None
        done: set = set()
        dead: set = set()
        dead_seen: Dict[int, float] = {}
        observing = _obs.enabled()
        metrics = get_metrics() if observing else None
        per_worker: Dict[str, int] = self.stats["per_worker"]  # type: ignore
        last_message = time.monotonic()
        while len(done) + len(dead) < len(procs):
            try:
                message = out_queue.get(timeout=_POLL)
            except queue_mod.Empty:
                now = time.monotonic()
                for wid, proc in enumerate(procs):
                    if wid in done or wid in dead:
                        continue
                    if not proc.is_alive():
                        first = dead_seen.setdefault(wid, now)
                        if now - first >= _DEATH_GRACE:
                            self._mark_dead(wid, owed, failed, dead,
                                            observing, metrics)
                    else:
                        dead_seen.pop(wid, None)
                if (self.stall_timeout is not None and
                        now - last_message > self.stall_timeout):
                    for wid, proc in enumerate(procs):
                        if wid in done or wid in dead:
                            continue
                        if owed[wid]:
                            proc.terminate()
                            proc.join(1.0)
                            self._mark_dead(wid, owed, failed, dead,
                                            observing, metrics)
                        else:
                            done.add(wid)
                continue
            last_message = time.monotonic()
            tag = message[0]
            if tag == "result":
                _, wid, idx, value, timed_out = message
                outcomes[idx] = (value, timed_out)
                owed[wid].pop(idx, None)
                key = f"{kind}{wid}"
                per_worker[key] = per_worker.get(key, 0) + 1
                if observing:
                    metrics.counter(
                        f"search.parallel.worker.{key}.candidates").inc()
            elif tag == "spans":
                # A tracing worker's completed subtree: collected here
                # (keyed by trace id) so the enclosing request's ship()
                # forwards it toward the trace root.
                _, wid, records, dropped = message
                _dist.get_collector().add(records, dropped)
            elif tag == "error":
                _, wid, idx, payload = message
                if error is None:
                    error = worker_mod.exception_from_wire(payload)
                owed[wid].pop(idx, None)
            elif tag == "done":
                _, wid = message
                done.add(wid)
                failed.update(owed[wid])
                owed[wid] = {}
        for proc in procs:
            proc.join(timeout=1.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        out_queue.close()
        if error is not None:
            raise error
        return outcomes, [failed[idx] for idx in sorted(failed)]

    def _mark_dead(self, wid: int, owed, failed, dead, observing,
                   metrics) -> None:
        dead.add(wid)
        failed.update(owed[wid])
        owed[wid] = {}
        self.stats["crashes"] = int(self.stats["crashes"]) + 1
        if observing:
            metrics.counter("search.parallel.crashes").inc()

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The stats dict plus degradation state, for
        ``SearchResult.parallel``."""
        out = dict(self.stats)
        out["per_worker"] = dict(self.stats["per_worker"])  # type: ignore
        out["degraded"] = self.degraded
        if self.degrade_reason is not None:
            out["degrade_reason"] = self.degrade_reason
        return out
