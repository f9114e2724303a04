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

The cache is the legality fold's long-lived memo: a miss runs
:func:`repro.core.sequence.fold_legality`, the walk
:meth:`Transformation.legality` runs with a one-shot memo, over this
cache's tables (:class:`_TableMemo`), so every ``LegalityReport`` field
is the uncached one by construction.

Keys are *content* keys: dependence sets key by their ordered entry
tuples (``DepSet.__hash__`` is order-insensitive, but the failure reason
string enumerates vectors in order, so the cache must not conflate
reorderings); template steps key by type, depth and ``to_spec()`` (plus
``names`` for Unimodular, which its spec omits).  All keys are interned
to small integers so hot lookups never re-hash deep structures.

On a legal verdict (a miss or a content hit) the cache also seeds the
transformation's one-slot fold memo with the final headers its bounds
table already holds and the dependence set, so a scorer reading
:meth:`Transformation.final_loops` next does not fold the sequence
again, and :meth:`Transformation.apply` on the same nest and dependence
set objects does not test it again.  Seeding only reads the tables: it
never adds an entry or touches the LRU order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sequence import (
    LegalityReport,
    Transformation,
    fold_bounds,
    fold_legality,
    mismatch_report,
)
from repro.core.template import Template
from repro.deps.vector import DepSet
from repro.ir.loopnest import Loop, LoopNest
from repro.resilience import chaos as _chaos


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
        # When a list, the memoized test appends every value its fold
        # reads or computes (see legality_with_delta); while a delta
        # replays, the logged values by fold position (see merge_delta).
        self._delta_log: Optional[List[Tuple]] = None
        self._replay: Optional[Dict[Tuple[str, int], object]] = None
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

    # -- the memoized test -------------------------------------------------

    def legality(self, transformation: Transformation, nest: LoopNest,
                 deps: DepSet) -> LegalityReport:
        """Drop-in for ``transformation.legality(nest, deps)``."""
        _chaos.inject("legality")
        return self._legality(transformation, nest, deps)

    def _legality(self, transformation: Transformation, nest: LoopNest,
                  deps: DepSet) -> LegalityReport:
        self._maybe_flush()
        okey = (id(transformation), id(nest), id(deps))
        pinned = self._verdict_by_obj.get(okey)
        if pinned is not None:
            self.hits += 1
            self._touch(self._verdict_by_obj, okey)
            return pinned[1]
        report = mismatch_report(nest, transformation.input_depth)
        if report is None:
            report, nest_id, step_ids = self._verdict(
                transformation, nest, deps, exact=True)
            if report.legal:
                # Seed the fold memo with the final headers the bounds
                # table holds (none for a prefix a bounded cache evicted:
                # the scorer then folds itself, and apply re-checks).
                state = (self._bounds_cache.get((nest_id, step_ids))
                         if step_ids else ("ok", nest.loops))
                if state is not None and state[0] == "ok":
                    transformation._remember_fold(nest, state[1], deps)
        self._verdict_by_obj[okey] = ((transformation, nest, deps), report)
        self._bound(self._verdict_by_obj)
        return report

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
        report = mismatch_report(nest, transformation.input_depth)
        if report is None:
            report = self._verdict(transformation, nest, deps,
                                   exact=False)[0]
        return report

    def _verdict(self, transformation: Transformation, nest: LoopNest,
                 deps: DepSet, exact: bool
                 ) -> Tuple[LegalityReport, int, Tuple[int, ...]]:
        """The verdict table's answer (the dep-verdict table's when not
        *exact*), folding the sequence through this cache's tables on a
        miss; also the nest's and steps' interned ids."""
        steps = transformation.steps
        step_ids = tuple(self._intern_step(s) for s in steps)
        deps_id = self._intern_deps(deps)
        nest_id = self._intern_nest(nest)
        vkey = (nest_id, deps_id, step_ids)
        table = self._verdicts if exact else self._dep_verdicts
        report = table.get(vkey)
        self._count(exact, report is not None)
        if report is not None:
            self._touch(table, vkey)
        else:
            # The fold's spans sit on this miss path only, so verdict
            # hits stay span-free.
            memo = _TableMemo(self, steps, step_ids, nest_id, deps_id)
            report = fold_legality(steps, nest, deps, memo, exact)[0]
            table[vkey] = report
            self._bound(table)
        return report, nest_id, step_ids

    def _count(self, exact: bool, hit: bool) -> None:
        """Count a verdict (*exact*) or dep-verdict hit or miss."""
        name = ("hits" if hit else "misses") if exact else (
            "dep_hits" if hit else "dep_misses")
        setattr(self, name, getattr(self, name) + 1)

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
        memo = _TableMemo(self, steps, step_ids, self._intern_nest(nest),
                          None)
        state = fold_bounds(steps, nest, memo, len(steps))
        return state[1] if state[0] == "ok" else None

    # -- parallel-search delta protocol ------------------------------------
    #
    # A forked worker evaluates candidates on its *copy* of this cache and
    # ships back, per candidate, a delta: every value the candidate's fold
    # read from or added to the worker's tables, by fold position.  The
    # parent replays deltas with merge_delta in serial candidate order:
    # the replay runs the very test the serial search runs, on the
    # parent's tables, taking the logged values where the serial run
    # would compute.  Hits, misses, evaluations, LRU touches, evictions
    # and flushes — and therefore ``SearchResult.cache_stats`` — come out
    # identical to a serial run, bounded cache or not.

    def legality_with_delta(
            self, transformation: Transformation, nest: LoopNest,
            deps: DepSet) -> Tuple[LegalityReport, List[Tuple]]:
        """Like :meth:`legality`, additionally returning the delta: a
        ``("map", position, mapped set)`` or ``("bounds", prefix length,
        state)`` entry for every value the fold read or computed, and a
        trailing ``("verdict", transformation)`` entry naming the test
        :meth:`merge_delta` replays."""
        return self._with_delta(self.legality, "verdict", transformation,
                                nest, deps)

    def dep_legality_with_delta(
            self, transformation: Transformation, nest: LoopNest,
            deps: DepSet) -> Tuple[LegalityReport, List[Tuple]]:
        """Like :meth:`dep_legality`, with the same delta contract as
        :meth:`legality_with_delta`; the trailing entry is
        ``("dep_verdict", transformation)``, so replay runs the
        dependence half only."""
        return self._with_delta(self.dep_legality, "dep_verdict",
                                transformation, nest, deps)

    def _with_delta(self, test, kind: str, transformation: Transformation,
                    nest: LoopNest, deps: DepSet
                    ) -> Tuple[LegalityReport, List[Tuple]]:
        log: List[Tuple] = []
        previous = self._delta_log
        self._delta_log = log
        try:
            report = test(transformation, nest, deps)
        finally:
            self._delta_log = previous
        log.append((kind, transformation))
        return report, log

    def merge_delta(self, nest: LoopNest, deps: DepSet,
                    delta: Sequence[Tuple],
                    transformation: Optional[Transformation] = None
                    ) -> LegalityReport:
        """Replay a worker delta into this cache and return the verdict.

        Runs the delta's test (exact or dependence-only) on
        *transformation* — the caller's own object for the candidate the
        worker evaluated, so the identity tables see what a serial run
        sees — or, when None, on the transformation the delta carries.
        The fold goes through this cache's tables exactly as the serial
        call would; where it misses, the worker's logged value stands in
        for recomputation (a value the log lacks is computed here).
        """
        values: Dict[Tuple[str, int], object] = {}
        kind = logged = None
        for entry in delta:
            if entry[0] in ("map", "bounds"):
                values[(entry[0], entry[1])] = entry[2]
            elif entry[0] in ("verdict", "dep_verdict"):
                kind, logged = entry
            else:
                raise ValueError(f"unknown delta entry kind: {entry[0]!r}")
        if kind is None:
            raise ValueError("delta has no verdict entry")
        test = self._legality if kind == "verdict" else self.dep_legality
        self._replay = values
        try:
            return test(transformation if transformation is not None
                        else logged, nest, deps)
        finally:
            self._replay = None

    # -- bookkeeping -------------------------------------------------------

    def __getstate__(self):
        """Checkpoint support (:meth:`repro.service.state.WarmState.
        checkpoint`): the content-keyed tables are the warm state worth
        persisting; the object-identity shortcut tables key by ``id()``,
        which is meaningless in another process, and the delta log is
        per-call scratch — all are rebuilt lazily from traffic."""
        state = self.__dict__.copy()
        state["_delta_log"] = None
        state["_replay"] = None
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


class _TableMemo:
    """A cache's tables as the legality fold's memo for one sequence on
    one nest; new entries count as evaluations, every value read or
    added is delta-logged, and a replaying delta supplies the values a
    miss would compute."""

    __slots__ = ("cache", "steps", "step_ids", "nest_id", "deps_id")

    def __init__(self, cache: LegalityCache, steps: Sequence[Template],
                 step_ids: Tuple[int, ...], nest_id: int,
                 deps_id: Optional[int]):
        self.cache = cache
        self.steps = steps
        self.step_ids = step_ids
        self.nest_id = nest_id
        self.deps_id = deps_id  # of the set the next map_step maps

    def map_step(self, idx: int, step: Template, current: DepSet,
                 ctx) -> DepSet:
        cache = self.cache
        sid = self.step_ids[idx]
        mkey = ((self.deps_id, sid) if ctx is None
                else (self.deps_id, sid, ctx))
        hit = cache._map_cache.get(mkey)
        if hit is not None:
            cache._touch(cache._map_cache, mkey)
        else:
            cache.dep_map_evals += 1
            mapped = (cache._replay.get(("map", idx))
                      if cache._replay is not None else None)
            if mapped is None:
                mapped = step.map_dep_set(current, ctx)
            hit = (mapped, cache._deps_ids.setdefault(
                depset_key(mapped), len(cache._deps_ids)))
            cache._map_cache[mkey] = hit
            cache._bound(cache._map_cache)
        if cache._delta_log is not None:
            cache._delta_log.append(("map", idx, hit[0]))
        self.deps_id = hit[1]
        return hit[0]

    def prefix(self, k: int) -> Optional[Tuple]:
        cache = self.cache
        key = (self.nest_id, self.step_ids[:k])
        state = cache._bounds_cache.get(key)
        if state is not None:
            cache._touch(cache._bounds_cache, key)
            if cache._delta_log is not None:
                cache._delta_log.append(("bounds", k, state))
        return state

    def store(self, k: int, state: Tuple) -> None:
        cache = self.cache
        cache.bounds_step_evals += 1
        cache._bounds_cache[(self.nest_id, self.step_ids[:k])] = state
        cache._bound(cache._bounds_cache)
        if cache._delta_log is not None:
            cache._delta_log.append(("bounds", k, state))

    def replayed(self, k: int) -> Optional[Tuple]:
        replay = self.cache._replay
        return replay.get(("bounds", k)) if replay is not None else None
