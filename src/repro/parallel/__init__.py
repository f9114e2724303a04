"""Sharded parallel scoring for the beam search.

:func:`repro.optimize.search.search` accepts ``jobs=N``.  Every level's
legality work stays in the calling process; when ``N > 1`` the
candidates that pass are scored across forked worker processes via
:class:`~repro.parallel.pool.ShardedPool`.  Candidates cross the process
boundary as step-spec wire forms (see :mod:`repro.parallel.worker`) and
scores come back; the search folds them into the beam in serial
candidate order, so the parallel search is bit-identical to the serial
one — same winner, same score, same ``explored``/``legal_count``, same
``cache_stats`` — because only the parent ever touches the cache.

Robustness: a crashed worker's unfinished candidates are requeued once
onto a fresh worker; a second failure degrades the search to in-process
scoring for the rest of the call.  Per-candidate wall-clock budgets
(``candidate_timeout``) score overrunning candidates ``-inf`` in both
serial and parallel modes.  :mod:`repro.resilience.chaos` injects worker
crashes and hangs for the robustness tests.
"""

from repro.parallel.pool import ShardedPool
from repro.parallel.worker import (
    call_with_timeout,
    candidate_from_spec,
    candidate_to_spec,
    step_from_spec,
    step_roundtrips,
    step_to_spec,
)

__all__ = [
    "ShardedPool",
    "call_with_timeout",
    "candidate_from_spec",
    "candidate_to_spec",
    "step_from_spec",
    "step_roundtrips",
    "step_to_spec",
]

