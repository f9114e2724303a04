"""Transformation search with undo — Section 5's headline advantage.

Because a :class:`~repro.core.sequence.Transformation` is a value
independent of any loop nest, an optimizer can enumerate arbitrarily
many candidate sequences, test each for legality and score the good
ones, all without touching the nest; code is generated once, for the
winner.  This module provides a small beam search over a candidate menu
plus two ready-made scoring functions (static parallelism, simulated
cache locality).
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.simulator import CacheConfig, Layout, simulate_trace
from repro.core.legality_cache import LegalityCache
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.core.sequence import Transformation
from repro.core.template import Template
from repro.core.templates.block import Block
from repro.core.templates.parallelize import Parallelize
from repro.core.templates.reverse_permute import ReversePermute
from repro.deps.vector import DepSet
from repro.ir.loopnest import LoopNest, PARDO
from repro.optimize.prune import prune_step
from repro.runtime.compiled import run_compiled
from repro.util.errors import ReproError

Score = Callable[[Transformation, LoopNest, DepSet], float]


def coerce_score(s: float) -> float:
    """Normalize a user scoring function's return value at the search
    boundary: ``NaN`` becomes ``-inf``.

    ``NaN`` would otherwise poison the beam silently — ``s > best_score``
    is always false for it, and ``list.sort`` over a key containing NaN
    leaves the frontier in an undefined order — so "unscorable" is
    canonicalized to the same value failed candidates use.
    """
    s = float(s)
    return float("-inf") if math.isnan(s) else s


def default_candidates(n: int, tile_size: int = 16) -> List[Template]:
    """A menu of single-step candidates for nests of size *n*: all
    adjacent interchanges, single-loop reversals, single-loop
    parallelizations, and full-range tiling."""
    menu: List[Template] = []
    for a in range(1, n):
        perm = list(range(1, n + 1))
        perm[a - 1], perm[a] = perm[a], perm[a - 1]
        menu.append(ReversePermute(n, [False] * n, perm))
    for k in range(1, n + 1):
        rev = [False] * n
        rev[k - 1] = True
        menu.append(ReversePermute(n, rev, list(range(1, n + 1))))
        flags = [False] * n
        flags[k - 1] = True
        menu.append(Parallelize(n, flags))
    if n >= 2:
        menu.append(Block(n, 1, n, [tile_size] * n))
    return menu


def parallelism_score(transformation: Transformation, nest: LoopNest,
                      deps: DepSet) -> float:
    """Static score: pardo loops weighted by how far out they sit.

    A depth mismatch or a fold the templates reject (a typed
    :class:`ReproError`) scores ``-inf``; any other exception is a
    programming error and propagates.
    """
    if nest.depth != transformation.input_depth:
        return float("-inf")
    try:
        loops = transformation.final_loops(nest)
    except ReproError:
        return float("-inf")
    total = 0.0
    depth = len(loops)
    for position, lp in enumerate(loops):
        if lp.kind == PARDO:
            total += depth - position
    return total


def make_locality_score(arrays, symbols, layout: Layout,
                        config: Optional[CacheConfig] = None,
                        trace_source: Optional[LoopNest] = None) -> Score:
    """A scoring function that *runs* the transformed nest through the
    compiled execution engine and cache simulator; higher is better
    (negated misses).  The compiled engine emits the same address trace
    as the interpreter oracle (enforced by the differential tests), so
    scores are unchanged — only faster."""

    def score(transformation: Transformation, nest: LoopNest,
              deps: DepSet) -> float:
        try:
            out = transformation.apply(nest, deps)
            result = run_compiled(out, arrays, symbols=symbols,
                                  trace_addresses=True)
            stats = simulate_trace(result.address_trace, layout, config)
            return -float(stats.misses)
        except ReproError:
            # Domain rejections only: illegal/unmappable candidates and
            # runtime guards (iteration bound, zero step, codegen) score
            # -inf.  Genuine programming errors — a typo'd symbol dict
            # (NameError), a malformed layout (KeyError), a non-numeric
            # array (TypeError) — propagate instead of masquerading as
            # bad candidates.
            return float("-inf")

    return score


def make_time_score(arrays, symbols, engine: str = "vectorized",
                    funcs=None, repeats: int = 1,
                    max_iterations: int = 10_000_000) -> Score:
    """A scoring function that *times* the transformed nest under the
    named execution engine; higher is better (negated best-of-*repeats*
    wall clock in seconds).

    Unlike :func:`make_locality_score` this measures real time, so it
    can see effects the cache simulator cannot — kernel launch counts
    under the vectorized engine, thread-pool pardo chunking — at the
    cost of being machine-dependent.  *engine* is any
    :data:`repro.runtime.ENGINE_NAMES` entry; resolution failures
    (unknown name, NumPy missing for ``"vectorized"``) raise
    immediately rather than per candidate.
    """
    import time as _time

    from repro.runtime import resolve_engine

    engine_cls = resolve_engine(engine)
    repeats = max(1, int(repeats))

    def score(transformation: Transformation, nest: LoopNest,
              deps: DepSet) -> float:
        try:
            out = transformation.apply(nest, deps)
            runner = engine_cls(out, symbols=symbols, funcs=funcs,
                                max_iterations=max_iterations)
            best = float("inf")
            for _ in range(repeats):
                start = _time.perf_counter()
                runner.run(arrays)
                best = min(best, _time.perf_counter() - start)
            return -best
        except ReproError:
            # Same contract as make_locality_score: domain rejections
            # score -inf, programming errors propagate.
            return float("-inf")

    return score


class SearchResult:
    __slots__ = ("transformation", "score", "explored", "legal_count",
                 "cache_stats", "timeouts", "parallel", "pruned",
                 "prune_reasons", "speculated", "evicted", "exact_verdicts")

    def __init__(self, transformation: Optional[Transformation],
                 score: float, explored: int, legal_count: int,
                 cache_stats: Optional[Dict[str, int]] = None,
                 timeouts: int = 0,
                 parallel: Optional[Dict[str, object]] = None,
                 pruned: int = 0,
                 prune_reasons: Optional[Dict[str, int]] = None,
                 speculated: int = 0,
                 evicted: int = 0,
                 exact_verdicts: int = 0):
        self.transformation = transformation
        self.score = score
        self.explored = explored
        self.legal_count = legal_count
        #: The legality cache's hit/miss/eval counters at the end of the
        #: search (``LegalityCache.stats``), so beam-search efficiency is
        #: visible to callers; None when the supplied cache has no stats.
        self.cache_stats = cache_stats
        #: Candidates whose scoring overran ``candidate_timeout`` (they
        #: scored ``-inf`` but still count toward ``explored``).
        self.timeouts = timeouts
        #: ``ShardedPool.snapshot()`` when the search ran with
        #: ``jobs > 1`` (worker/crash/requeue/fallback accounting);
        #: ``None`` for a serial search.
        self.parallel = parallel
        #: Candidates discarded algebraically before any legality work
        #: (they still count toward ``explored``), and the histogram of
        #: :data:`repro.optimize.prune.PRUNE_REASONS` that caught them.
        self.pruned = pruned
        self.prune_reasons = dict(prune_reasons or {})
        #: Candidates admitted to the beam on the dep-only verdict.
        self.speculated = speculated
        #: Misspeculations caught by exact re-verification at the beam
        #: frontier and evicted.
        self.evicted = evicted
        #: Exact legality verdicts computed during this search (the
        #: legality cache's ``misses`` delta) — the denominator of the
        #: model-guided speedup claim.
        self.exact_verdicts = exact_verdicts

    def __repr__(self):
        sig = self.transformation.signature() if self.transformation else None
        return (f"SearchResult({sig}, score={self.score}, "
                f"explored={self.explored}, legal={self.legal_count}, "
                f"pruned={self.pruned}, speculated={self.speculated}, "
                f"evicted={self.evicted}, "
                f"exact_verdicts={self.exact_verdicts}, "
                f"cache_stats={self.cache_stats})")


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Tuning for :func:`search`, replacing its historical sprawl of
    keyword arguments.

    The first seven fields are the historical tuning surface unchanged;
    the last three select the model-guided paths:

    * ``prune`` — discard algebraically-illegal candidates before any
      legality work (:mod:`repro.optimize.prune`);
    * ``speculate`` — admit model-favored candidates to the beam on the
      cheap dep-only verdict, deferring the exact verdict until a
      candidate reaches the beam frontier;
    * ``model`` — a :class:`repro.optimize.model.CostModel` gating
      speculative admission (a default one is created when ``speculate``
      is set and this is None).

    Frozen so a config can be shared across calls and threads; build
    variants with :func:`dataclasses.replace`.
    """

    score: Score = parallelism_score
    depth: int = 2
    beam: int = 8
    cache: Optional[LegalityCache] = None
    jobs: int = 1
    candidate_timeout: Optional[float] = None
    pool: Optional[object] = None
    prune: bool = False
    speculate: bool = False
    model: Optional[object] = None


_DEFAULT_CONFIG = SearchConfig()


def search(nest: LoopNest, deps: DepSet,
           candidates: Optional[Sequence[Template]] = None,
           config: Optional[SearchConfig] = None,
           *args) -> SearchResult:
    """Beam search over candidate transformation sequences.

    See :func:`_search` for the full contract.  Tuning is a
    :class:`SearchConfig` passed as ``config=`` (the defaults when
    omitted); positional tuning arguments are an error.
    """
    if args or (config is not None and
                not isinstance(config, SearchConfig)):
        raise TypeError(
            "search() positional tuning arguments were removed; pass "
            "config=SearchConfig(...)")
    return _search(nest, deps, candidates,
                   _DEFAULT_CONFIG if config is None else config)


def _search(nest: LoopNest, deps: DepSet,
            candidates: Optional[Sequence[Template]],
            config: SearchConfig) -> SearchResult:
    """Beam search over sequences of up to ``config.depth`` menu steps.

    Every candidate sequence is legality-tested and scored against the
    *unmodified* nest; ties keep the shorter sequence.  The identity
    transformation seeds the beam, so "do nothing" wins when nothing
    scores better.  A scoring function returning ``NaN`` is treated as
    "unscorable": the value is coerced to ``-inf`` at the boundary
    (:func:`coerce_score`) so it can neither win nor scramble the beam
    ordering.

    With ``jobs > 1`` each level's candidate evaluations are sharded
    across forked worker processes (:mod:`repro.parallel`); the workers'
    legality-cache deltas are merged back in serial candidate order, so
    the result — winner, score, ``explored``, ``legal_count``,
    ``cache_stats`` and the pruning/speculation counters — is identical
    to ``jobs=1`` (pruning and all cost-model decisions run parent-side,
    before and after sharding).  Worker crashes requeue the lost
    candidates once, then degrade to in-process evaluation; the
    accounting lands on :attr:`SearchResult.parallel`.
    ``candidate_timeout`` bounds each candidate's scoring wall-clock in
    *both* modes: an overrunning candidate scores ``-inf`` and is
    counted on :attr:`SearchResult.timeouts`.

    **Model-guided paths.**  With ``config.prune`` each surviving base's
    exact mapped dependence set and folded loop headers feed
    :func:`repro.optimize.prune.prune_step`, which discards provably
    illegal extensions before any legality work; pruning is sound-only,
    so the winner (and ``legal_count``) match brute search exactly.
    With ``config.speculate`` candidates are admitted to the beam on the
    cheap dep-only verdict when the cost model favors them; unfavored
    candidates pay the exact verdict up-front, exactly as brute search
    would.  What is deferred is the verdict, not the bounds fold: a
    dep-legal verdict also folds the candidate's loop headers through
    the cache (the scorer reads them next, so they are needed anyway)
    but does not let them decide.  The exact verdict waits until a
    candidate reaches the beam frontier: expanding a base whose bounds
    fold fails evicts it, and the final winner is re-verified with the
    exact test in rank order — misspeculations are evicted
    (:attr:`SearchResult.evicted`) until an exactly-legal winner
    remains, so the returned winner is always exactly legal.  For
    scoring functions that give every exactly-legal candidate a finite
    score and illegal ones ``-inf`` (all the built-ins, by
    construction), speculative fillers rank strictly below legal
    candidates and only occupy otherwise-free beam slots, so the winner
    and score are differentially identical to brute search.  Both paths
    silently disable themselves when a substituted cache lacks the
    dep-only tier (``dep_legality``/``prefix_loops``).

    Legality tests run through a :class:`LegalityCache` (a fresh one per
    call unless ``config.cache`` is supplied), so the shared prefixes
    the beam generates are each mapped and bounds-checked once; before
    each level's expansion the surviving beam's prefixes are re-seeded
    into the cache, so shared prefixes hit even under a bounded cache's
    eviction.  Pass any object with a compatible
    ``legality(transformation, nest, deps)`` method to substitute a
    different policy (parallel mode additionally needs the delta
    protocol and falls back to serial without it).  A long-lived caller
    can likewise pass ``config.pool`` — a
    :class:`~repro.parallel.pool.ShardedPool` to reuse across calls; it
    is rebound to this call's workload instead of forking a fresh pool
    per request (the transformation service does exactly this).  The
    cache's hit/miss counters come back on
    :attr:`SearchResult.cache_stats`; under ``repro.obs`` the search
    additionally records spans (``search``, ``search.level``,
    ``search.candidate``, and ``search.shard``/``search.merge`` when
    parallel) and metrics (explored/legal/pruned/speculated/evicted
    counters, beam gauges, a score histogram, legality-cache gauges,
    parallel timeout/crash/requeue/fallback counters).
    """
    from repro.parallel.worker import call_with_timeout

    score = config.score
    depth, beam = config.depth, config.beam
    cache = config.cache
    candidate_timeout = config.candidate_timeout
    pool = config.pool
    n = nest.depth
    menu = list(candidates) if candidates is not None else default_candidates(n)
    if cache is None:
        cache = LegalityCache()
    prune = bool(config.prune)
    speculate = bool(config.speculate)
    if (prune or speculate) and not (hasattr(cache, "dep_legality")
                                     and hasattr(cache, "prefix_loops")):
        prune = speculate = False
    model = config.model
    if speculate and model is None:
        from repro.optimize.model import CostModel
        model = CostModel()
    if pool is not None:
        pool.rebind(nest, deps, score, menu=menu, speculate=speculate)
        effective_jobs = pool.jobs
    else:
        effective_jobs = int(config.jobs) if config.jobs else 1
        if effective_jobs > 1:
            from repro.parallel.pool import ShardedPool
            pool = ShardedPool(nest, deps, score, effective_jobs,
                               candidate_timeout=candidate_timeout,
                               menu=menu, speculate=speculate)
    identity = Transformation.identity(n)
    observing = _obs.enabled()
    timeouts = 0
    pruned = 0
    prune_reasons: Dict[str, int] = {}
    speculated = 0
    evicted = 0
    start_stats = getattr(cache, "stats", None)
    start_misses = (start_stats.get("misses", 0)
                    if isinstance(start_stats, dict) else 0)
    with _obs.span("search", nest_depth=n, depth=depth, beam=beam,
                   menu=len(menu), jobs=effective_jobs,
                   prune=prune, speculate=speculate):
        value, timed_out = call_with_timeout(
            lambda: score(identity, nest, deps), candidate_timeout)
        if timed_out:
            timeouts += 1
        seed = float("-inf") if timed_out else coerce_score(value)
        frontier: List[Tuple[float, Transformation]] = [(seed, identity)]
        best_score, best = frontier[0]
        explored = 1
        legal_count = 1
        # Every admitted candidate ranked exactly as the brute update
        # rule would (score desc, shorter first, earlier first), for the
        # speculative winner re-verification pass.
        admitted: List[Tuple[float, int, int, Transformation]] = [
            (seed, 0, 0, identity)]
        admit_order = 1
        evicted_ids: set = set()
        if observing:
            metrics = get_metrics()
            score_hist = metrics.histogram("search.score")
            metrics.gauge("search.depth").set(depth)
            metrics.gauge("search.beam_width").set(len(frontier))
        for _level in range(depth):
            nxt: List[Tuple[float, Transformation]] = []
            with _obs.span("search.level", level=_level,
                           frontier=len(frontier)):
                # Expand the surviving beam.  Each base with steps is
                # re-seeded into the shared cache first (so the shared
                # prefixes of this level's candidates hit even after
                # bounded-cache eviction); in guided modes its exact
                # mapped dependence set and folded loop headers feed the
                # pruning rules, and in speculative mode a base whose
                # bounds fold fails has reached the frontier as a
                # misspeculation: it is evicted here, since every
                # extension of a bounds-illegal prefix is illegal too.
                level_candidates: List[Transformation] = []
                for _, base in frontier:
                    base_deps = deps
                    base_loops = nest.loops
                    if base.steps:
                        report = (cache.dep_legality(base, nest, deps)
                                  if speculate
                                  else cache.legality(base, nest, deps))
                        if prune or speculate:
                            base_deps = getattr(report, "final_deps", None)
                            base_loops = cache.prefix_loops(base, nest)
                            if speculate and base_loops is None:
                                evicted += 1
                                evicted_ids.add(id(base))
                                continue
                    for step in menu:
                        if step.n != base.output_depth:
                            continue
                        explored += 1
                        if prune:
                            reason = prune_step(step, base_deps, base_loops)
                            if reason is not None:
                                pruned += 1
                                prune_reasons[reason] = \
                                    prune_reasons.get(reason, 0) + 1
                                continue
                        level_candidates.append(
                            base.then(step, reduce=False))
                outcomes = (pool.evaluate_level(_level, level_candidates,
                                                cache)
                            if pool is not None else {})
                merge_span = (_obs.span("search.merge", level=_level,
                                        worker_results=len(outcomes))
                              if pool is not None else nullcontext())
                with merge_span:
                    for idx, candidate in enumerate(level_candidates):
                        outcome = outcomes.get(idx)
                        if outcome is None:
                            # Serial mode — or a candidate no worker
                            # finished (degraded pool / crashed worker):
                            # evaluate in-process.
                            if pool is not None:
                                pool.stats["parent_evals"] = (
                                    int(pool.stats["parent_evals"]) + 1)
                            with _obs.span("search.candidate") as sp:
                                report = (cache.dep_legality(candidate,
                                                             nest, deps)
                                          if speculate
                                          else cache.legality(candidate,
                                                              nest, deps))
                                if not report.legal:
                                    sp.tag(legal=False)
                                    continue
                                value, timed_out = call_with_timeout(
                                    lambda: score(candidate, nest, deps),
                                    candidate_timeout)
                                if timed_out:
                                    timeouts += 1
                                s = (float("-inf") if timed_out
                                     else coerce_score(value))
                                sp.tag(legal=True, score=s)
                        else:
                            report = cache.merge_delta(
                                nest, deps, outcome.delta, candidate)
                            if report is None or not report.legal:
                                continue
                            if outcome.timed_out:
                                timeouts += 1
                                s = float("-inf")
                            else:
                                s = coerce_score(outcome.value)
                        if speculate:
                            # Parent-side admission control, in serial
                            # candidate order in both modes: favored
                            # candidates ride the dep-only verdict;
                            # unfavored ones pay the exact verdict now,
                            # exactly as brute search would.
                            step = candidate.steps[-1]
                            if model.favored(step, candidate, report):
                                speculated += 1
                            else:
                                exact = cache.legality(candidate, nest,
                                                       deps)
                                model.observe(step, exact.legal)
                                if not exact.legal:
                                    continue
                        legal_count += 1
                        if observing and s != float("-inf"):
                            score_hist.observe(s)
                        nxt.append((s, candidate))
                        if speculate:
                            admitted.append((s, len(candidate),
                                             admit_order, candidate))
                            admit_order += 1
                        elif s > best_score or (s == best_score and
                                                len(candidate) < len(best)):
                            best_score, best = s, candidate
            nxt.sort(key=lambda p: -p[0])
            frontier = nxt[:beam]
            if observing:
                metrics.gauge("search.beam_width").set(len(frontier))
            if not frontier:
                break
        if speculate:
            # The winner must be exactly legal: walk the admitted
            # candidates in brute rank order, paying one exact verdict
            # per rank until one survives.  The identity (rank ties
            # broken toward shorter-then-earlier put it ahead of any
            # equal-scoring candidate) is always legal, so this
            # terminates.  Candidates already evicted at the frontier
            # are skipped without re-counting.
            admitted.sort(key=lambda t: (-t[0], t[1], t[2]))
            for s, _length, _order, candidate in admitted:
                if id(candidate) in evicted_ids:
                    continue
                if not candidate.steps:
                    best_score, best = s, candidate
                    break
                with _obs.span("search.verify") as sp:
                    exact = cache.legality(candidate, nest, deps)
                    sp.tag(legal=exact.legal)
                model.observe(candidate.steps[-1], exact.legal)
                if exact.legal:
                    best_score, best = s, candidate
                    break
                evicted += 1
        stats = getattr(cache, "stats", None)
        exact_verdicts = (stats.get("misses", 0) - start_misses
                          if isinstance(stats, dict) else 0)
        if observing:
            metrics.counter("search.calls").inc()
            metrics.counter("search.explored").inc(explored)
            metrics.counter("search.legal").inc(legal_count)
            if timeouts:
                metrics.counter("search.timeouts").inc(timeouts)
            if pruned:
                metrics.counter("search.pruned").inc(pruned)
            if speculated:
                metrics.counter("search.speculated").inc(speculated)
            if evicted:
                metrics.counter("search.evicted").inc(evicted)
            if stats is not None:
                for key in ("hits", "misses", "dep_map_evals",
                            "bounds_step_evals"):
                    metrics.gauge(f"legality_cache.{key}").set(stats[key])
    return SearchResult(best, best_score, explored, legal_count,
                        cache_stats=dict(stats) if stats is not None else None,
                        timeouts=timeouts,
                        parallel=pool.snapshot() if pool is not None else None,
                        pruned=pruned, prune_reasons=prune_reasons,
                        speculated=speculated, evicted=evicted,
                        exact_verdicts=exact_verdicts)
