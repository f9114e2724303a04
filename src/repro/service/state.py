"""Warm per-session state shared across service requests.

A one-shot CLI invocation pays the full pipeline every time: parse the
nest, analyze its dependences, evaluate legality from scratch.  The
service amortizes all three across the requests of a session:

* a parse memo keyed by ``(text, sink)`` — request texts repeat
  verbatim in replay-style workloads;
* a dependence-analysis memo keyed by ``(nest, level)`` —
  :class:`~repro.ir.loopnest.LoopNest` equality is structural, so two
  differently-formatted texts of the same nest share one analysis;
* the shared bounded :class:`~repro.core.legality_cache.LegalityCache`
  every legality/search request funnels through;
* a :class:`~repro.runtime.compiled.CompiledNestCache` so repeated
  ``run`` requests over equal nests reuse the exec-compiled engine;
* a lazily created :class:`~repro.runtime.vectorized.VectorizedNestCache`
  for ``run`` requests that select the NumPy engine (lazy because NumPy
  is optional — a service without it never pays the import and answers
  such requests with a typed error instead).

All memos are bounded LRU (plain-dict insertion order; a hit reinserts,
overflow evicts the oldest) so a long-lived server's memory stays
proportional to its caps, not to its request history.
"""

from __future__ import annotations

import os
import pickle
from typing import Dict, Optional, Tuple

from repro.core.legality_cache import LegalityCache
from repro.deps.analysis import analyze
from repro.deps.vector import DepSet
from repro.ir import parse_imperfect, parse_nest, sink
from repro.ir.loopnest import LoopNest
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.runtime.compiled import CompiledNestCache

#: Bumped when the checkpoint payload shape changes; a file with any
#: other version is ignored (cold start) rather than misread.  Version 2:
#: the legality cache interns nests by content tuple, not by nest.
CHECKPOINT_VERSION = 2

_CHECKPOINT_MAGIC = b"repro-warmstate"


class WarmState:
    """The caches a transformation service keeps warm between requests."""

    def __init__(self, legality_max_entries: Optional[int] = 4096,
                 compiled_max_entries: int = 128,
                 memo_max_entries: int = 256):
        if memo_max_entries < 1:
            raise ValueError(
                f"memo_max_entries must be >= 1, got {memo_max_entries}")
        self.legality_cache = LegalityCache(max_entries=legality_max_entries)
        self.compiled = CompiledNestCache(max_entries=compiled_max_entries)
        self.compiled_max_entries = compiled_max_entries
        self._vectorized = None
        self.memo_max_entries = memo_max_entries
        self._parse_memo: Dict[Tuple[str, bool], LoopNest] = {}
        self._analysis_memo: Dict[Tuple[LoopNest, str], DepSet] = {}
        self.parse_hits = 0
        self.parse_misses = 0
        self.analysis_hits = 0
        self.analysis_misses = 0
        #: Per-name cost models for model-guided search requests: the
        #: same model object serves every request naming it, so its
        #: observed legality outcomes accumulate across the session.
        self._models: Dict[str, object] = {}
        #: Entries brought back by the last :meth:`restore` (0 = cold).
        self.restored_entries = 0
        self.checkpoints_written = 0

    # -- bounded-LRU plumbing ----------------------------------------------

    def _memo_get(self, memo: Dict, key):
        value = memo.get(key)
        if value is not None:
            memo[key] = memo.pop(key)  # LRU touch
        return value

    def _memo_put(self, memo: Dict, key, value) -> None:
        memo[key] = value
        while len(memo) > self.memo_max_entries:
            del memo[next(iter(memo))]

    # -- the warm pipeline stages ------------------------------------------

    def nest(self, text: str, sink_imperfect: bool = False) -> LoopNest:
        """Parse *text* (optionally sinking an imperfect nest), memoized."""
        key = (text, bool(sink_imperfect))
        cached = self._memo_get(self._parse_memo, key)
        if cached is not None:
            self.parse_hits += 1
            if _obs.enabled():
                get_metrics().counter("service.cache.parse_hits").inc()
            return cached
        self.parse_misses += 1
        if _obs.enabled():
            get_metrics().counter("service.cache.parse_misses").inc()
        nest = (sink(parse_imperfect(text)) if sink_imperfect
                else parse_nest(text))
        self._memo_put(self._parse_memo, key, nest)
        return nest

    def deps(self, nest: LoopNest, level: str = "fm") -> DepSet:
        """Dependence set of *nest* at test-ladder tier *level*, memoized."""
        key = (nest, level)
        cached = self._memo_get(self._analysis_memo, key)
        if cached is not None:
            self.analysis_hits += 1
            if _obs.enabled():
                get_metrics().counter("service.cache.analysis_hits").inc()
            return cached
        self.analysis_misses += 1
        if _obs.enabled():
            get_metrics().counter("service.cache.analysis_misses").inc()
        deps = analyze(nest, level=level)
        self._memo_put(self._analysis_memo, key, deps)
        return deps

    def cost_model(self, name: str):
        """The session's cost model for *name* (see
        :data:`repro.optimize.model.MODEL_NAMES`), created on first use
        and kept warm so its observed legality outcomes accumulate
        across requests.  An ``evidence`` model samples the obs
        counters and legality-cache stats at creation time.
        """
        model = self._models.get(name)
        if model is None:
            from repro.optimize.model import resolve_model
            model = resolve_model(name, cache=self.legality_cache)
            self._models[name] = model
        return model

    def vectorized(self):
        """The vectorized-engine cache, created on first use.

        Raises :class:`~repro.util.errors.ReproError` when NumPy is
        absent — callers turn that into a typed ``bad-request`` rather
        than an ImportError crash.
        """
        if self._vectorized is None:
            from repro.runtime.vectorized import VectorizedNestCache
            self._vectorized = VectorizedNestCache(
                max_entries=self.compiled_max_entries)
        return self._vectorized

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self, path: str) -> bool:
        """Persist the warm state to *path* (versioned pickle, written
        atomically via a temp file + rename so a crash mid-write leaves
        the previous checkpoint intact).

        Persisted: the parse and analysis memos and the legality
        cache's content-keyed tables.  **Not** persisted: the compiled
        cache (its variants are ``exec``-compiled closures, which do
        not pickle) — a restored service re-compiles on first use but
        never re-proves legality it already proved.

        Returns True on success; a payload that fails to pickle (e.g.
        an exotic template pinned in a cache key) is skipped without
        raising — checkpointing is an optimization, never a crash.
        """
        payload = {
            "version": CHECKPOINT_VERSION,
            "parse_memo": self._parse_memo,
            "analysis_memo": self._analysis_memo,
            "legality": self.legality_cache,
            # Additive key (older checkpoints simply lack it): the warm
            # cost models, so a restarted service keeps its calibrated
            # per-template legality rates.
            "models": self._models,
        }
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_CHECKPOINT_MAGIC)
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            return False
        self.checkpoints_written += 1
        if _obs.enabled():
            get_metrics().counter("service.checkpoints").inc()
        return True

    def restore(self, path: str) -> int:
        """Load a checkpoint written by :meth:`checkpoint`; returns the
        number of warm entries brought back (0 = cold start).

        A missing, truncated, corrupt or version-mismatched file is a
        silent cold start: the supervisor must be able to restart into
        *some* service even when the checkpoint was torn by the crash
        that triggered the restart.
        """
        try:
            with open(path, "rb") as fh:
                magic = fh.read(len(_CHECKPOINT_MAGIC))
                if magic != _CHECKPOINT_MAGIC:
                    return 0
                payload = pickle.loads(fh.read())
        except Exception:
            return 0
        if not isinstance(payload, dict) or \
                payload.get("version") != CHECKPOINT_VERSION:
            return 0
        # A right-version dict can still be malformed (a checkpoint
        # torn across the version bump, or hand-edited): missing or
        # wrong-typed entries are a cold start too, never a KeyError
        # that kills the restarting worker.
        parse_memo = payload.get("parse_memo")
        analysis_memo = payload.get("analysis_memo")
        legality = payload.get("legality")
        if (not isinstance(parse_memo, dict)
                or not isinstance(analysis_memo, dict)
                or not isinstance(legality, LegalityCache)):
            return 0
        self._parse_memo = parse_memo
        self._analysis_memo = analysis_memo
        self.legality_cache = legality
        models = payload.get("models")
        if isinstance(models, dict):
            self._models = models
        self.restored_entries = (len(self._parse_memo)
                                 + len(self._analysis_memo)
                                 + self.legality_cache.entry_count())
        if _obs.enabled():
            get_metrics().gauge("service.restored_entries").set(
                self.restored_entries)
        return self.restored_entries

    # -- reporting ---------------------------------------------------------

    def reuse_ratio(self) -> float:
        """Fraction of pipeline-stage lookups served from warm state
        (parse + analysis memos and the legality verdict cache)."""
        leg = self.legality_cache.stats
        hits = self.parse_hits + self.analysis_hits + leg["hits"]
        total = (hits + self.parse_misses + self.analysis_misses
                 + leg["misses"])
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "parse": {"hits": self.parse_hits,
                      "misses": self.parse_misses,
                      "entries": len(self._parse_memo)},
            "analysis": {"hits": self.analysis_hits,
                         "misses": self.analysis_misses,
                         "entries": len(self._analysis_memo)},
            "legality": dict(self.legality_cache.stats),
            "compiled": dict(self.compiled.stats),
            "vectorized": (dict(self._vectorized.stats)
                           if self._vectorized is not None else None),
            "reuse_ratio": round(self.reuse_ratio(), 6),
            "restored_entries": self.restored_entries,
            "checkpoints_written": self.checkpoints_written,
            "models": {name: model.snapshot()
                       for name, model in sorted(self._models.items())},
        }
        if _obs.enabled():
            get_metrics().gauge("service.cache.reuse_ratio").set(
                doc["reuse_ratio"])  # type: ignore[arg-type]
        return doc

    def clear(self) -> None:
        self.legality_cache.clear()
        self.compiled.clear()
        if self._vectorized is not None:
            self._vectorized.clear()
        self._parse_memo.clear()
        self._analysis_memo.clear()
        self._models.clear()
        self.parse_hits = self.parse_misses = 0
        self.analysis_hits = self.analysis_misses = 0
