"""Sharded parallel evaluation for the beam search.

:func:`repro.optimize.search.search` accepts ``jobs=N``; when ``N > 1``
it shards each level's candidate evaluations across forked worker
processes via :class:`~repro.parallel.pool.ShardedPool`.  Candidates
cross the process boundary as step-spec wire forms (see
:mod:`repro.parallel.worker`), results come back with content-keyed
legality-cache deltas that the parent replays in serial candidate order
(:mod:`repro.parallel.merge`), which makes the parallel search
bit-identical to the serial one — same winner, same score, same
``explored``/``legal_count``, same ``cache_stats``.

Robustness: a crashed worker's unfinished candidates are requeued once
onto a fresh worker; a second failure degrades the search to in-process
evaluation for the rest of the call.  Per-candidate wall-clock budgets
(``candidate_timeout``) score overrunning candidates ``-inf`` in both
serial and parallel modes.  :mod:`repro.resilience.chaos` injects worker
crashes and hangs for the robustness tests.
"""

from repro.parallel.merge import Outcome, merge_outcome
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
    "Outcome",
    "ShardedPool",
    "call_with_timeout",
    "candidate_from_spec",
    "candidate_to_spec",
    "merge_outcome",
    "step_from_spec",
    "step_roundtrips",
    "step_to_spec",
]

