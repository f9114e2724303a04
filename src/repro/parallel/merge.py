"""Deterministic folding of worker results into the parent search.

Why parallel equals serial, exactly
-----------------------------------

The pool forks workers at the start of each level, so every worker's
cache copy is the parent cache at level start.  A worker evaluates its
candidates on that copy and ships back, per candidate, a delta: every
value the candidate's legality fold read from or added to the worker's
tables, keyed by fold position.

The parent replays deltas in serial candidate order, and a replay *is*
the serial evaluation: it runs the same legality test on the parent's
own candidate object and the parent's tables, so every hit, miss,
evaluation, LRU touch, eviction and flush happens exactly as in a
``jobs=1`` run.  Only where that run would compute a dependence map or
a bounds prefix does the replay take the worker's logged value instead
(computing it itself when the worker took a cache hit the parent has
since evicted).  ``SearchResult.cache_stats`` — and the beam itself —
therefore come out identical to ``jobs=1``, bounded cache or not.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class Outcome:
    """One candidate's evaluation as reported by a worker."""

    __slots__ = ("legal", "value", "timed_out", "delta")

    def __init__(self, legal: bool, value: Optional[float],
                 timed_out: bool, delta: List[Tuple]):
        self.legal = legal
        self.value = value
        self.timed_out = timed_out
        self.delta = delta

    def __repr__(self):
        return (f"Outcome(legal={self.legal}, value={self.value}, "
                f"timed_out={self.timed_out}, delta={len(self.delta)})")


def merge_outcome(cache, nest, deps, outcome: Outcome,
                  transformation=None):
    """Replay *outcome*'s cache delta for *transformation* and return
    the :class:`~repro.core.sequence.LegalityReport` the serial test
    gives (see ``LegalityCache.merge_delta`` for the stats contract)."""
    return cache.merge_delta(nest, deps, outcome.delta, transformation)
