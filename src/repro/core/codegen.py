"""Code-generation helpers shared by the sequence driver.

The actual bounds mapping lives in each template's ``map_loops``; this
module handles the bookkeeping around it: collecting the identifier
names a transformed nest must not collide with, and assembling the final
:class:`~repro.ir.loopnest.LoopNest` with its initialization statements
in the order the paper prescribes (``INIT_k, ..., INIT_1``).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.ir.loopnest import InitStmt, LoopNest


def collect_taken(nest: LoopNest) -> Set[str]:
    """Every identifier in use in *nest*: loop indices, the variables and
    callees of every expression it evaluates, and the arrays and scalars
    it assigns.  Fresh names generated during code generation must avoid
    all of them."""
    return (set(nest.indices) | nest.variables()
            | {f for f, _ in nest.calls()}
            | nest.written_names() | nest.defined_names())


def assemble_nest(nest: LoopNest, final_loops: Sequence,
                  per_step_inits: Sequence[Tuple[InitStmt, ...]]) -> LoopNest:
    """Build the output nest: init statements of later template
    instantiations execute first (paper Section 2, item 4(b))."""
    inits: List[InitStmt] = []
    for step_inits in reversed(list(per_step_inits)):
        inits.extend(step_inits)
    return LoopNest(final_loops, nest.body, tuple(inits) + nest.inits)
