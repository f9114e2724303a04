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
table already holds, so a scorer reading
:meth:`Transformation.final_loops` next does not fold the sequence
again.  An exact verdict also records the dependence set, so
:meth:`Transformation.apply` on the same nest and dependence set
objects does not test it again; a speculative dep-legal verdict seeds
the headers only, having folded the bounds through the same tables
(the verdict itself still ignores them).  Seeding only reads the
tables: it never adds an entry or touches the LRU order.

The cache holds no caller object alive: the object-identity shortcut
tables hold their objects weakly (:class:`_ObjectTable`), and the
content tables key by contents, never by the caller's nest.
"""

from __future__ import annotations

import copy
import weakref
from typing import Dict, Optional, Sequence, Tuple

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


def nest_key(nest: LoopNest) -> Tuple:
    """Content key for a loop nest: what ``LoopNest.__eq__`` compares,
    without the nest object itself."""
    return (nest.loops, nest.body, nest.inits)


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
    the object-identity shortcut tables, whose entries also leave when
    an object they name dies), so total retained state is
    ``O(max_entries)`` entries per table.
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
        # content-key -> small int, so hot paths hash ints not trees
        self._step_ids: Dict[Tuple, int] = {}
        self._deps_ids: Dict[Tuple, int] = {}
        self._nest_ids: Dict[Tuple, int] = {}
        self._new_object_tables()
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

    def _new_object_tables(self) -> None:
        # Object-identity shortcuts over the content keys: the search
        # loop passes the same template/nest/DepSet objects thousands of
        # times, so compute each deep content key once per object.
        self._step_by_obj = _ObjectTable()
        self._nest_by_obj = _ObjectTable()
        self._deps_by_obj = _ObjectTable()
        # (id(transformation), id(nest), id(deps)) -> (nest, deps,
        # report): repeat queries with the very same objects skip keying
        # entirely.
        self._verdict_by_obj = _ObjectTable()

    def _intern(self, by_obj: "_ObjectTable", ids: Dict[Tuple, int], obj,
                key_of) -> int:
        """The small int for *obj*'s content key (``key_of(obj)``),
        computed once per live object."""
        known = by_obj.get(id(obj))
        if known is not None:
            return known[1]
        key = key_of(obj)
        oid = ids.get(key)
        if oid is None:
            oid = len(ids)
            ids[key] = oid
        by_obj.put(id(obj), obj, oid)
        self._bound(by_obj)
        return oid

    def _intern_step(self, step: Template) -> int:
        return self._intern(self._step_by_obj, self._step_ids, step,
                            template_key)

    def _intern_deps(self, deps: DepSet) -> int:
        return self._intern(self._deps_by_obj, self._deps_ids, deps,
                            depset_key)

    def _intern_nest(self, nest: LoopNest) -> int:
        return self._intern(self._nest_by_obj, self._nest_ids, nest,
                            nest_key)

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
        known = self._verdict_by_obj.get(okey)
        if known is not None:
            self.hits += 1
            self._touch(self._verdict_by_obj, okey)
            return known[1][2]
        report = mismatch_report(nest, transformation.input_depth)
        if report is None:
            report = self._verdict(transformation, nest, deps, exact=True)
        # The entry lives as long as the transformation, which holds its
        # nest and set alive anyway once legal (see _remember_fold); it
        # holds them too, so their ids stay theirs while it exists.
        self._verdict_by_obj.put(okey, transformation, (nest, deps, report))
        self._bound(self._verdict_by_obj)
        return report

    # -- speculative tier: the dependence half decides -----------------------
    #
    # The dependence half of the unified test never needs the *last*
    # step's bounds fold: context-sensitive steps take their loop
    # headers from the prefix before them.  So a dep-only verdict is
    # decided by one memoized map_dep_set per novel step — the "cheap
    # dep-mapping" the speculative search tier admits candidates on,
    # deferring the exact verdict until a candidate reaches the beam
    # frontier.  The bounds fold of a dep-legal candidate is not
    # deferred: the scorer reads the final headers next, so the verdict
    # folds them through this cache's tables (sharing prefixes like
    # every other fold) and seeds the transformation.

    def dep_legality(self, transformation: Transformation, nest: LoopNest,
                     deps: DepSet) -> LegalityReport:
        """The verdict of the dependence half of :meth:`legality` alone.

        ``legal=True`` here means *dep-legal*: the transformed
        dependence set admits no lexicographically negative tuple.  The
        report does not depend on the bounds half — a dep-legal
        sequence can still fail its preconditions, so speculative
        callers must re-verify with :meth:`legality` before trusting a
        winner.  A dep-illegal verdict is final: the full test would
        reject with the same reason.  Reports carry ``final_deps``
        exactly as the full test does.

        A dep-legal verdict also folds the bounds (once per content,
        like the full test) and, when that fold succeeds, seeds the
        transformation's final headers for *nest* — not the dependence
        set, as the verdict is not exact.  A failing fold, or a typed
        error it raises, only leaves the transformation unseeded.
        """
        self._maybe_flush()
        report = mismatch_report(nest, transformation.input_depth)
        if report is None:
            report = self._verdict(transformation, nest, deps, exact=False)
        return report

    def _verdict(self, transformation: Transformation, nest: LoopNest,
                 deps: DepSet, exact: bool) -> LegalityReport:
        """The verdict table's answer (the dep-verdict table's when not
        *exact*), folding the sequence through this cache's tables on a
        miss.  A legal answer seeds the transformation's fold memo."""
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
            if report.final_deps is deps:
                # No step mapped it: the table keeps a copy, never the
                # caller's set.
                report.final_deps = copy.copy(deps)
            table[vkey] = report
            self._bound(table)
        if report.legal:
            # Seed the fold memo with the final headers the bounds table
            # holds (none for a prefix a bounded cache evicted, or a
            # dep-legal sequence whose bounds fail: the scorer then
            # folds itself, and apply re-checks).
            state = (self._bounds_cache.get((nest_id, step_ids))
                     if step_ids else ("ok", nest.loops))
            if state is not None and state[0] == "ok":
                transformation._remember_fold(nest, state[1],
                                              deps if exact else None)
        return report

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

    # -- bookkeeping -------------------------------------------------------

    def __getstate__(self):
        """Checkpoint support (:meth:`repro.service.state.WarmState.
        checkpoint`): the content-keyed tables are the warm state worth
        persisting; the object-identity shortcut tables key by ``id()``,
        which is meaningless in another process, and are rebuilt lazily
        from traffic."""
        state = self.__dict__.copy()
        for name in ("_step_by_obj", "_nest_by_obj", "_deps_by_obj",
                     "_verdict_by_obj"):
            del state[name]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._new_object_tables()

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


class _ObjectTable(dict):
    """An object-identity shortcut table: ``key -> (ref, value)``, where
    *key* is built from ``id(obj)`` (and the ids of objects *value*
    holds) and *ref* holds *obj* weakly.  An entry leaves the table when
    *obj* dies — before its id can be reused — so the table never keeps
    it alive and never serves a dead object's entry."""

    __slots__ = ("__weakref__", "_gone")

    def __init__(self):
        super().__init__()
        table = weakref.ref(self)

        def gone(ref: weakref.KeyedRef) -> None:
            # Every entry under this key names the dying object (a live
            # object's id is unique), so whatever entry is there goes.
            live = table()
            if live is not None:
                live.pop(ref.key, None)

        self._gone = gone

    def put(self, key, obj, value) -> None:
        self[key] = (weakref.KeyedRef(obj, self._gone, key), value)


class _TableMemo:
    """A cache's tables as the legality fold's memo for one sequence on
    one nest; new entries count as evaluations."""

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
            mapped = step.map_dep_set(current, ctx)
            if mapped is current:
                # Handed back unchanged (an empty set): the table keeps a
                # copy, never the caller's set.
                mapped = copy.copy(current)
            hit = (mapped, cache._deps_ids.setdefault(
                depset_key(mapped), len(cache._deps_ids)))
            cache._map_cache[mkey] = hit
            cache._bound(cache._map_cache)
        self.deps_id = hit[1]
        return hit[0]

    def prefix(self, k: int) -> Optional[Tuple]:
        cache = self.cache
        key = (self.nest_id, self.step_ids[:k])
        state = cache._bounds_cache.get(key)
        if state is not None:
            cache._touch(cache._bounds_cache, key)
        return state

    def store(self, k: int, state: Tuple) -> None:
        cache = self.cache
        cache.bounds_step_evals += 1
        cache._bounds_cache[(self.nest_id, self.step_ids[:k])] = state
        cache._bound(cache._bounds_cache)
