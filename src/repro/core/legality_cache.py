"""Memoized legality testing for transformation sequences.

Beam search (:func:`repro.optimize.search.search`) asks
:meth:`Transformation.legality` about thousands of sequences that share
long prefixes and always the same nest and dependence set.  Both halves
of the unified legality test decompose over the sequence:

* the dependence half is a fold of ``step.map_dep_set`` — memoizing on
  ``(dependence-set content, step content)`` means a sequence extension
  maps only its new step;
* the bounds half is a fold of ``check_preconditions``/``map_loops``
  over the loop headers — memoizing per ``(nest, step prefix)`` means an
  extension re-checks only its new step, and a prefix that already
  failed rejects every extension immediately without re-running any
  template code (legality of ``T`` never improves by appending to it,
  because the bounds fold fails at the same step with the same error).

The cache replicates :meth:`Transformation.legality` exactly: identical
``LegalityReport`` fields (reason strings, failed step index, final
dependence set with identical vector order, violation object) for every
input, which the property tests in ``tests/test_legality_cache.py``
enforce against the uncached implementation.

Keys are *content* keys: dependence sets key by their ordered entry
tuples (``DepSet.__hash__`` is order-insensitive, but the failure reason
string enumerates vectors in order, so the cache must not conflate
reorderings); template steps key by type, depth and ``to_spec()`` (plus
``names`` for Unimodular, which its spec omits).  All keys are interned
to small integers so hot lookups never re-hash deep structures.

On a legal verdict (a miss or a content hit) the cache also seeds the
transformation's one-slot fold memo (:meth:`Transformation.final_loops`)
with the final headers its bounds table already holds, so a scorer
reading them next does not fold the sequence again.  Seeding only reads
the tables: it never adds an entry or touches the LRU order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.codegen import collect_taken
from repro.core.sequence import LegalityReport, Transformation
from repro.core.template import Template
from repro.deps.vector import DepSet
from repro.ir.loopnest import Loop, LoopNest
from repro.obs import trace as _obs
from repro.resilience import chaos as _chaos
from repro.util.errors import CodegenError, PreconditionViolation


def depset_key(deps: DepSet) -> Tuple:
    """Order-preserving content key for a dependence set."""
    return tuple(v.entries for v in deps.vectors)


def template_key(step: Template) -> Tuple:
    """Content key for a template instantiation.

    ``to_spec()`` is the canonical serialization, but it omits ``n`` for
    some templates (``block(i, j, sizes)``) and ``names`` for Unimodular,
    so both are folded in explicitly.  A template with no step-language
    spelling falls back to identity keying — always correct, never
    shared: the instantiation object itself is the identity token, so the
    key compares by object identity *and* holds a strong reference.
    Keying by ``id(step)`` instead would go stale: once the step is
    garbage-collected, CPython happily hands the same address to a new
    same-signature template, and a cache still holding the old key would
    serve the dead step's legality report for the new one.
    """
    try:
        spec = step.to_spec()
    except NotImplementedError:
        return (type(step).__name__, step.n, step.signature(), step)
    return (type(step).__name__, step.n, spec, getattr(step, "names", None))


class LegalityCache:
    """Memoizes :meth:`Transformation.legality` across a search session.

    Use one instance per (nest, dependence set) workload — typically one
    per :func:`~repro.optimize.search.search` call.  Sharing an instance
    across nests and dependence sets is safe (keys include both); it
    just grows the tables.

    Long-lived sharing — the transformation service keeps *one* cache
    warm across every request it ever serves — needs bounded memory:
    pass ``max_entries`` to turn on LRU eviction.  The bound applies to
    each memo table (verdicts, dependence maps, bounds prefixes, and
    the object-identity shortcut tables, which pin their key objects),
    so total retained state is ``O(max_entries)`` entries per table.
    The content-interning tables cannot be evicted piecemeal (their
    small-int ids are embedded in other tables' keys), so when they
    alone outgrow ``8 * max_entries`` distinct contents the cache takes
    a generation flush: every table is dropped at once — counted in
    ``stats["flushes"]`` — and the cache rebuilds warm state from the
    traffic that follows.  Eviction only ever forces recomputation,
    never a wrong answer; the bounded-cap property tests re-verify
    report identity under a tiny cap.
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive int or None, "
                f"got {max_entries!r}")
        self.max_entries = max_entries
        self.evictions = 0
        self.flushes = 0
        # When a list, the memoized test appends a content-keyed record
        # of every entry it creates (see legality_with_delta).
        self._delta_log: Optional[List[Tuple]] = None
        # content-key -> small int, so hot paths hash ints not trees
        self._step_ids: Dict[Tuple, int] = {}
        self._deps_ids: Dict[Tuple, int] = {}
        self._nest_ids: Dict[LoopNest, int] = {}
        # Object-identity shortcuts over the content keys: the search
        # loop passes the same template/nest/DepSet objects thousands of
        # times, so compute each deep content key once per object and
        # pin the object (the strong reference keeps its id() valid).
        self._step_by_obj: Dict[int, Tuple[Template, int]] = {}
        self._nest_by_obj: Dict[int, Tuple[LoopNest, int]] = {}
        self._deps_by_obj: Dict[int, Tuple[DepSet, int]] = {}
        # (id(transformation), id(nest), id(deps)) -> (pins, report):
        # repeat queries with the very same objects skip keying entirely.
        self._verdict_by_obj: Dict[Tuple[int, int, int],
                                   Tuple[Tuple, LegalityReport]] = {}
        # (deps_id, step_id) -> (mapped DepSet, its deps_id)
        self._map_cache: Dict[Tuple[int, int], Tuple[DepSet, int]] = {}
        # (nest_id, step_id prefix) -> ("ok", loops, frozen taken)
        #                            | ("pre"|"cg", step index, exception)
        self._bounds_cache: Dict[Tuple[int, Tuple[int, ...]], Tuple] = {}
        # (nest_id, deps_id, step ids) -> LegalityReport
        self._verdicts: Dict[Tuple[int, int, Tuple[int, ...]],
                             LegalityReport] = {}
        # (nest_id, deps_id, step ids) -> dependence-half-only report
        # (the speculative search tier; see dep_legality).
        self._dep_verdicts: Dict[Tuple[int, int, Tuple[int, ...]],
                                 LegalityReport] = {}
        self.hits = 0
        self.misses = 0
        self.dep_hits = 0
        self.dep_misses = 0
        self.dep_map_evals = 0
        self.bounds_step_evals = 0

    # -- interning ---------------------------------------------------------

    def _intern_step(self, step: Template) -> int:
        pinned = self._step_by_obj.get(id(step))
        if pinned is not None:
            return pinned[1]
        key = template_key(step)
        sid = self._step_ids.get(key)
        if sid is None:
            sid = len(self._step_ids)
            self._step_ids[key] = sid
        self._step_by_obj[id(step)] = (step, sid)
        self._bound(self._step_by_obj)
        return sid

    def _intern_deps(self, deps: DepSet) -> int:
        pinned = self._deps_by_obj.get(id(deps))
        if pinned is not None:
            return pinned[1]
        key = depset_key(deps)
        did = self._deps_ids.get(key)
        if did is None:
            did = len(self._deps_ids)
            self._deps_ids[key] = did
        self._deps_by_obj[id(deps)] = (deps, did)
        self._bound(self._deps_by_obj)
        return did

    def _intern_nest(self, nest: LoopNest) -> int:
        pinned = self._nest_by_obj.get(id(nest))
        if pinned is not None:
            return pinned[1]
        nid = self._nest_ids.get(nest)
        if nid is None:
            nid = len(self._nest_ids)
            self._nest_ids[nest] = nid
        self._nest_by_obj[id(nest)] = (nest, nid)
        self._bound(self._nest_by_obj)
        return nid

    # -- bounded-memory LRU ------------------------------------------------
    #
    # Tables are plain dicts in insertion order; with a cap set, a hit
    # re-inserts its entry (LRU touch) and every insert evicts from the
    # front until the table fits.  With no cap (the default) both hooks
    # are a single attribute check, so search workloads pay nothing.

    def _touch(self, table: Dict, key) -> None:
        if self.max_entries is not None:
            table[key] = table.pop(key)

    def _bound(self, table: Dict) -> None:
        cap = self.max_entries
        if cap is None:
            return
        while len(table) > cap:
            del table[next(iter(table))]
            self.evictions += 1

    def _maybe_flush(self) -> None:
        """Generation flush when the un-evictable interning tables have
        outgrown the cap (see the class docstring)."""
        cap = self.max_entries
        if cap is None:
            return
        interned = (len(self._step_ids) + len(self._deps_ids) +
                    len(self._nest_ids))
        if interned > 8 * cap:
            self._drop_tables()
            self.flushes += 1

    def _drop_tables(self) -> None:
        for table in (self._step_ids, self._deps_ids, self._nest_ids,
                      self._step_by_obj, self._nest_by_obj,
                      self._deps_by_obj, self._verdict_by_obj,
                      self._map_cache, self._bounds_cache, self._verdicts,
                      self._dep_verdicts):
            table.clear()

    def entry_count(self) -> int:
        """Entries across the three content-keyed memo tables (the size
        ``max_entries`` bounds per table)."""
        return (len(self._verdicts) + len(self._map_cache) +
                len(self._bounds_cache))

    def sizes(self) -> Dict[str, int]:
        """Per-table entry counts, for service stats and debugging."""
        return {
            "verdicts": len(self._verdicts),
            "dep_verdicts": len(self._dep_verdicts),
            "map_cache": len(self._map_cache),
            "bounds_cache": len(self._bounds_cache),
            "verdict_by_obj": len(self._verdict_by_obj),
            "interned_steps": len(self._step_ids),
            "interned_deps": len(self._deps_ids),
            "interned_nests": len(self._nest_ids),
        }

    # -- the memoized test -------------------------------------------------

    def legality(self, transformation: Transformation, nest: LoopNest,
                 deps: DepSet) -> LegalityReport:
        """Drop-in for ``transformation.legality(nest, deps)``."""
        _chaos.inject("legality")
        self._maybe_flush()
        okey = (id(transformation), id(nest), id(deps))
        pinned = self._verdict_by_obj.get(okey)
        if pinned is not None:
            self.hits += 1
            self._touch(self._verdict_by_obj, okey)
            return pinned[1]
        if nest.depth != transformation.input_depth:
            report = LegalityReport(
                False, f"nest has {nest.depth} loops, transformation "
                       f"expects {transformation.input_depth}")
            self._verdict_by_obj[okey] = ((transformation, nest, deps),
                                          report)
            self._bound(self._verdict_by_obj)
            return report
        steps = transformation.steps
        step_ids = tuple(self._intern_step(s) for s in steps)
        deps_id = self._intern_deps(deps)
        nest_id = self._intern_nest(nest)
        vkey = (nest_id, deps_id, step_ids)
        report = self._verdicts.get(vkey)
        if report is not None:
            self.hits += 1
            self._touch(self._verdicts, vkey)
        else:
            self.misses += 1
            report = self._compute(steps, step_ids, nest, nest_id,
                                   deps, deps_id)
            self._verdicts[vkey] = report
            self._bound(self._verdicts)
        if report.legal:
            # Seed the scorer's fold memo with the final headers the
            # bounds table holds (none for the identity, or for a prefix
            # a bounded cache evicted: the scorer then folds itself).
            state = self._bounds_cache.get((nest_id, step_ids))
            if state is not None and state[0] == "ok":
                transformation._remember_fold(nest, state[1])
        self._verdict_by_obj[okey] = ((transformation, nest, deps), report)
        self._bound(self._verdict_by_obj)
        return report

    def _compute(self, steps: Sequence[Template], step_ids: Tuple[int, ...],
                 nest: LoopNest, nest_id: int,
                 deps: DepSet, deps_id: int) -> LegalityReport:
        # Spans only on the miss path: verdict-cache hits in `legality`
        # stay span-free so the memoized fast path pays nothing.
        # (a) dependence vector test, mapped one memoized step at a time.
        with _obs.span("legality.map_deps", steps=len(steps)):
            final = self._map_deps(steps, step_ids, deps, deps_id,
                                   nest, nest_id)
        if final.can_be_lex_negative():
            bad = [str(v) for v in final if v.can_be_lex_negative()]
            return LegalityReport(
                False,
                "transformed dependence set admits a lexicographically "
                f"negative tuple: {', '.join(bad)}",
                final_deps=final)
        # (b) loop bounds test over the longest novel suffix.
        with _obs.span("legality.bounds", steps=len(steps)):
            state = self._bounds(steps, step_ids, nest, nest_id)
        if state[0] == "pre":
            _, idx, exc = state
            return LegalityReport(False, str(exc), failed_step=idx,
                                  final_deps=final, violation=exc)
        if state[0] == "cg":
            _, idx, exc = state
            return LegalityReport(
                False, f"{steps[idx].signature()}: {exc}", failed_step=idx,
                final_deps=final)
        return LegalityReport(True, final_deps=final)

    def _map_deps(self, steps: Sequence[Template], step_ids: Tuple[int, ...],
                  deps: DepSet, deps_id: int,
                  nest: LoopNest, nest_id: int) -> DepSet:
        current, current_id = deps, deps_id
        # Context-sensitive steps (Block, Interleave) need the loop
        # headers they receive to widen anchored decompositions; fold
        # them through the memoized per-prefix bounds cache, exactly as
        # Transformation._dep_contexts folds them directly.
        sensitive = any(s.dep_context_sensitive for s in steps)
        loops: Optional[Tuple[Loop, ...]] = nest.loops if sensitive else None
        for idx, (step, sid) in enumerate(zip(steps, step_ids)):
            ctx = None
            if loops is not None and step.dep_context_sensitive:
                ctx = step.dep_context(loops)
            mkey = ((current_id, sid) if ctx is None
                    else (current_id, sid, ctx))
            hit = self._map_cache.get(mkey)
            if hit is not None:
                self._touch(self._map_cache, mkey)
            else:
                self.dep_map_evals += 1
                mapped = step.map_dep_set(current, ctx)
                key = depset_key(mapped)
                mapped_id = self._deps_ids.get(key)
                if mapped_id is None:
                    mapped_id = len(self._deps_ids)
                    self._deps_ids[key] = mapped_id
                hit = (mapped, mapped_id)
                self._map_cache[mkey] = hit
                self._bound(self._map_cache)
                if self._delta_log is not None:
                    self._delta_log.append(
                        ("map", depset_key(current), template_key(step),
                         ctx, mapped))
            current, current_id = hit
            if loops is not None and idx + 1 < len(steps):
                state = self._bounds(steps[:idx + 1], step_ids[:idx + 1],
                                     nest, nest_id)
                loops = state[1] if state[0] == "ok" else None
        return current

    def _bounds(self, steps: Sequence[Template], step_ids: Tuple[int, ...],
                nest: LoopNest, nest_id: int) -> Tuple:
        n = len(steps)
        start = 0
        loops: Optional[Tuple[Loop, ...]] = None
        taken_frozen: Optional[frozenset] = None
        for k in range(n, 0, -1):
            state = self._bounds_cache.get((nest_id, step_ids[:k]))
            if state is not None:
                self._touch(self._bounds_cache, (nest_id, step_ids[:k]))
                if state[0] != "ok":
                    return state
                _, loops, taken_frozen = state
                start = k
                break
        if loops is None:
            loops = nest.loops
            taken_frozen = frozenset(collect_taken(nest))
        taken = set(taken_frozen)
        for idx in range(start, n):
            step = steps[idx]
            prefix = (nest_id, step_ids[:idx + 1])
            try:
                self.bounds_step_evals += 1
                step.check_preconditions(loops)
                loops, _ = step.map_loops(loops, taken)
            except PreconditionViolation as exc:
                state = ("pre", idx, exc)
                self._bounds_cache[prefix] = state
                self._bound(self._bounds_cache)
                self._log_bounds(steps, idx, state)
                return state
            except CodegenError as exc:
                state = ("cg", idx, exc)
                self._bounds_cache[prefix] = state
                self._bound(self._bounds_cache)
                self._log_bounds(steps, idx, state)
                return state
            taken_frozen = frozenset(taken)
            state = ("ok", loops, taken_frozen)
            self._bounds_cache[prefix] = state
            self._bound(self._bounds_cache)
            self._log_bounds(steps, idx, state)
        return ("ok", loops, taken_frozen)

    def _log_bounds(self, steps: Sequence[Template], idx: int,
                    state: Tuple) -> None:
        if self._delta_log is not None:
            self._delta_log.append(
                ("bounds", tuple(template_key(s) for s in steps[:idx + 1]),
                 state))

    # -- speculative tier: the dependence half alone -----------------------
    #
    # The dependence half of the unified test never needs the *last*
    # step's bounds fold: context-sensitive steps take their loop
    # headers from the prefix before them.  So a dep-only verdict costs
    # one memoized map_dep_set per novel step — the "cheap dep-mapping"
    # the speculative search tier admits candidates on, deferring the
    # FM/bounds half until a candidate reaches the beam frontier.

    def dep_legality(self, transformation: Transformation, nest: LoopNest,
                     deps: DepSet) -> LegalityReport:
        """The dependence half of :meth:`legality` only.

        ``legal=True`` here means *dep-legal*: the transformed
        dependence set admits no lexicographically negative tuple.  The
        bounds half has not run — a dep-legal sequence can still fail
        its preconditions, so speculative callers must re-verify with
        :meth:`legality` before trusting a winner.  A dep-illegal
        verdict is final: the full test would reject with the same
        reason.  Reports carry ``final_deps`` exactly as the full test
        does.
        """
        self._maybe_flush()
        if nest.depth != transformation.input_depth:
            return LegalityReport(
                False, f"nest has {nest.depth} loops, transformation "
                       f"expects {transformation.input_depth}")
        steps = transformation.steps
        step_ids = tuple(self._intern_step(s) for s in steps)
        deps_id = self._intern_deps(deps)
        nest_id = self._intern_nest(nest)
        vkey = (nest_id, deps_id, step_ids)
        report = self._dep_verdicts.get(vkey)
        if report is not None:
            self.dep_hits += 1
            self._touch(self._dep_verdicts, vkey)
            return report
        self.dep_misses += 1
        with _obs.span("legality.map_deps", steps=len(steps)):
            final = self._map_deps(steps, step_ids, deps, deps_id,
                                   nest, nest_id)
        if final.can_be_lex_negative():
            bad = [str(v) for v in final if v.can_be_lex_negative()]
            report = LegalityReport(
                False,
                "transformed dependence set admits a lexicographically "
                f"negative tuple: {', '.join(bad)}",
                final_deps=final)
        else:
            report = LegalityReport(True, final_deps=final)
        self._dep_verdicts[vkey] = report
        self._bound(self._dep_verdicts)
        return report

    def prefix_loops(self, transformation: Transformation,
                     nest: LoopNest) -> Optional[Tuple[Loop, ...]]:
        """Loop headers after folding *transformation*'s bounds mapping
        over *nest*, memoized per prefix — or None when the fold fails
        (every extension of the sequence is then bounds-illegal too).
        The model-guided search uses this to hand pruning rules the
        headers a candidate step would actually receive."""
        steps = transformation.steps
        if not steps:
            return nest.loops
        step_ids = tuple(self._intern_step(s) for s in steps)
        nest_id = self._intern_nest(nest)
        state = self._bounds(steps, step_ids, nest, nest_id)
        return state[1] if state[0] == "ok" else None

    # -- parallel-search delta protocol ------------------------------------
    #
    # A forked worker evaluates candidates on its *copy* of this cache and
    # ships back, per candidate, the content-keyed entries the evaluation
    # created.  The parent replays deltas with merge_delta in serial
    # candidate order; because every key is a content key, entries another
    # candidate already contributed (in this process or another worker's
    # delta) deduplicate exactly where the serial evaluation would have
    # taken a cache hit, so hits/misses/eval counters — and therefore
    # ``SearchResult.cache_stats`` — come out identical to a serial run.

    def legality_with_delta(
            self, transformation: Transformation, nest: LoopNest,
            deps: DepSet) -> Tuple[LegalityReport, List[Tuple]]:
        """Like :meth:`legality`, additionally returning the delta: the
        content-keyed record of every cache entry this call created, plus
        a trailing ``("verdict", ...)`` entry (always present, even when
        the verdict itself was a local hit, so the replaying cache can
        attribute one hit or miss per candidate)."""
        if nest.depth != transformation.input_depth:
            # Mirrors the depth-mismatch early return in `legality`:
            # no stats, no shared-table entries, nothing to replay.
            return self.legality(transformation, nest, deps), []
        log: List[Tuple] = []
        previous = self._delta_log
        self._delta_log = log
        try:
            report = self.legality(transformation, nest, deps)
        finally:
            self._delta_log = previous
        log.append(
            ("verdict",
             tuple(template_key(s) for s in transformation.steps), report))
        return report, log

    def dep_legality_with_delta(
            self, transformation: Transformation, nest: LoopNest,
            deps: DepSet) -> Tuple[LegalityReport, List[Tuple]]:
        """Like :meth:`dep_legality`, with the same delta contract as
        :meth:`legality_with_delta`; the trailing entry is
        ``("dep_verdict", ...)`` so replay attributes it to the
        dep-verdict table and counters."""
        if nest.depth != transformation.input_depth:
            return self.dep_legality(transformation, nest, deps), []
        log: List[Tuple] = []
        previous = self._delta_log
        self._delta_log = log
        try:
            report = self.dep_legality(transformation, nest, deps)
        finally:
            self._delta_log = previous
        log.append(
            ("dep_verdict",
             tuple(template_key(s) for s in transformation.steps), report))
        return report, log

    def merge_delta(self, nest: LoopNest, deps: DepSet,
                    delta: Sequence[Tuple]) -> Optional[LegalityReport]:
        """Replay a worker delta into this cache.

        Returns the canonical :class:`LegalityReport` for the delta's
        verdict entry — the already-cached report when one exists (the
        serial evaluation would have hit it), else the worker's.  Stats
        attribution matches serial evaluation: an existing verdict is a
        hit, a new one a miss, and only *new* map/bounds entries count as
        evaluations.
        """
        nest_id = self._intern_nest(nest)
        deps_id = self._intern_deps(deps)
        report: Optional[LegalityReport] = None
        step_ids = self._step_ids
        for entry in delta:
            kind = entry[0]
            if kind == "map":
                _, src_key, step_key, ctx, mapped = entry
                src_id = self._deps_ids.setdefault(src_key,
                                                   len(self._deps_ids))
                sid = step_ids.setdefault(step_key, len(step_ids))
                mkey = (src_id, sid) if ctx is None else (src_id, sid, ctx)
                if mkey not in self._map_cache:
                    self.dep_map_evals += 1
                    mapped_id = self._deps_ids.setdefault(
                        depset_key(mapped), len(self._deps_ids))
                    self._map_cache[mkey] = (mapped, mapped_id)
                    self._bound(self._map_cache)
            elif kind == "bounds":
                _, prefix_keys, state = entry
                sids = tuple(step_ids.setdefault(k, len(step_ids))
                             for k in prefix_keys)
                bkey = (nest_id, sids)
                if bkey not in self._bounds_cache:
                    self.bounds_step_evals += 1
                    self._bounds_cache[bkey] = state
                    self._bound(self._bounds_cache)
            elif kind == "verdict":
                _, step_keys, worker_report = entry
                sids = tuple(step_ids.setdefault(k, len(step_ids))
                             for k in step_keys)
                vkey = (nest_id, deps_id, sids)
                cached = self._verdicts.get(vkey)
                if cached is not None:
                    self.hits += 1
                    report = cached
                else:
                    self.misses += 1
                    self._verdicts[vkey] = worker_report
                    self._bound(self._verdicts)
                    report = worker_report
            elif kind == "dep_verdict":
                _, step_keys, worker_report = entry
                sids = tuple(step_ids.setdefault(k, len(step_ids))
                             for k in step_keys)
                vkey = (nest_id, deps_id, sids)
                cached = self._dep_verdicts.get(vkey)
                if cached is not None:
                    self.dep_hits += 1
                    report = cached
                else:
                    self.dep_misses += 1
                    self._dep_verdicts[vkey] = worker_report
                    self._bound(self._dep_verdicts)
                    report = worker_report
            else:
                raise ValueError(f"unknown delta entry kind: {kind!r}")
        return report

    # -- bookkeeping -------------------------------------------------------

    def __getstate__(self):
        """Checkpoint support (:meth:`repro.service.state.WarmState.
        checkpoint`): the content-keyed tables are the warm state worth
        persisting; the object-identity shortcut tables key by ``id()``,
        which is meaningless in another process, and the delta log is
        per-call scratch — all are rebuilt lazily from traffic."""
        state = self.__dict__.copy()
        state["_delta_log"] = None
        state["_step_by_obj"] = {}
        state["_nest_by_obj"] = {}
        state["_deps_by_obj"] = {}
        state["_verdict_by_obj"] = {}
        return state

    @property
    def stats(self) -> Dict[str, int]:
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "dep_map_evals": self.dep_map_evals,
            "bounds_step_evals": self.bounds_step_evals,
            "verdicts": len(self._verdicts),
        }
        # Dep-only keys appear only once the speculative tier has been
        # used, so brute workloads keep the historical dict shape.
        if self.dep_hits or self.dep_misses:
            out["dep_hits"] = self.dep_hits
            out["dep_misses"] = self.dep_misses
            out["dep_verdicts"] = len(self._dep_verdicts)
        # The eviction keys appear only in bounded mode, so unbounded
        # callers (every search workload) see the historical dict shape.
        if self.max_entries is not None:
            out["max_entries"] = self.max_entries
            out["entries"] = self.entry_count()
            out["evictions"] = self.evictions
            out["flushes"] = self.flushes
        return out

    def clear(self) -> None:
        self._drop_tables()
        self.hits = self.misses = 0
        self.dep_hits = self.dep_misses = 0
        self.dep_map_evals = self.bounds_step_evals = 0
        self.evictions = self.flushes = 0
