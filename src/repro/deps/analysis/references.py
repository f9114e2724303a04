"""Candidate access pairs for dependence analysis.

The accesses themselves come from the one walk over a nest,
:meth:`~repro.ir.loopnest.LoopNest.accesses`: every reference to a
name the interpreter treats as an array, in evaluation order.  Writes
are the targets of :class:`~repro.ir.loopnest.Assign`, and an
accumulating assignment (``A(i,j) += e``) is both a read and a write of
its target.  A read of an array the nest never writes pairs with
nothing, so it creates no dependence.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.loopnest import ArrayAccess


def dependence_candidate_pairs(accesses: Sequence[ArrayAccess]):
    """Ordered pairs (src, dst) on the same array with at least one write.

    Both orders of each unordered pair are yielded (plus write self-pairs)
    because the driver only enumerates lexicographically positive
    direction vectors per ordered pair.
    """
    for a in accesses:
        for b in accesses:
            if a.array != b.array:
                continue
            if not (a.is_write or b.is_write):
                continue
            if a is b and not a.is_write:
                continue
            yield a, b
