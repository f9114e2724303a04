"""A static locality cost model for ranking loop orders.

The cache simulator measures a specific execution; optimizers want a
*static* estimate they can evaluate for every candidate order without
running anything.  This is the classic innermost-reuse model (in the
spirit of Carr & McKinley): for a candidate loop order, each array
reference costs, per innermost iteration,

* ``0``        when the innermost index does not appear in any subscript
               (loop-invariant reuse — register/cache resident);
* ``1/L``      when the innermost index appears with coefficient ±1 in
               the fastest-varying subscript only (unit stride; ``L`` =
               elements per cache line);
* ``1``        otherwise (large stride or indexed — a new line every
               iteration).

The per-iteration costs are summed over references; since every order
executes the same iteration count, ranking by per-iteration cost ranks
total misses.  :func:`best_loop_order` filters candidates through the
framework's legality test, so the returned permutation is always safe.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sequence import Transformation
from repro.core.templates.reverse_permute import ReversePermute
from repro.deps.vector import DepSet
from repro.expr.linear import affine_form
from repro.expr.nodes import free_vars
from repro.ir.loopnest import LoopNest
from repro.util.errors import PreconditionViolation

#: Cost of a large-stride access, in line-misses per iteration.
STRIDE_MISS = 1.0


def reference_cost(subscripts, innermost: str, line_elements: int,
                   order: str = "row") -> float:
    """Per-innermost-iteration miss cost of one array reference."""
    if not subscripts:
        return 0.0
    used = [innermost in free_vars(s) for s in subscripts]
    if not any(used):
        return 0.0  # loop-invariant reuse
    fastest = len(subscripts) - 1 if order == "row" else 0
    others = [u for d, u in enumerate(used) if d != fastest]
    if any(others):
        return STRIDE_MISS  # innermost index strides a slow dimension
    form = affine_form(subscripts[fastest], (innermost,))
    if form is not None and abs(form.coefficient(innermost)) == 1:
        return 1.0 / line_elements  # unit stride
    return STRIDE_MISS


def loop_cost(nest: LoopNest, innermost: str,
              line_elements: int = 8, order: str = "row") -> float:
    """Total per-iteration miss cost of *nest* with *innermost* as the
    innermost loop index (references deduplicated per array+subscripts).

    The references are every array access under the interpreter's rule
    (:meth:`~repro.ir.loopnest.LoopNest.array_names`), the inits' reads
    included: read-only arrays and indexed lookups cost like arrays here."""
    seen = set()
    total = 0.0
    for access in nest.accesses():
        key = (access.array, access.subscripts)
        if key in seen:
            continue
        seen.add(key)
        total += reference_cost(access.subscripts, innermost,
                                line_elements, order)
    return total


def rank_loop_orders(nest: LoopNest, line_elements: int = 8,
                     order: str = "row"
                     ) -> List[Tuple[Tuple[int, ...], float]]:
    """All loop orders (1-based, outermost first) ranked by cost
    (cheapest first; ties keep identity-closest order)."""
    n = nest.depth
    results = []
    for perm_order in itertools.permutations(range(1, n + 1)):
        innermost = nest.loops[perm_order[-1] - 1].index
        cost = loop_cost(nest, innermost, line_elements, order)
        results.append((perm_order, cost))
    results.sort(key=lambda p: (p[1], p[0]))
    return results


def best_loop_order(nest: LoopNest, deps: DepSet,
                    line_elements: int = 8, order: str = "row"
                    ) -> Optional[Transformation]:
    """The cheapest *legal* loop order as a ReversePermute step.

    Returns None when even the identity order is somehow illegal (it
    never is for a valid input nest); returns the identity transformation
    when the original order is already best.
    """
    n = nest.depth
    for perm_order, _cost in rank_loop_orders(nest, line_elements, order):
        if perm_order == tuple(range(1, n + 1)):
            return Transformation.identity(n)
        perm = [0] * n
        for position, loop_number in enumerate(perm_order, start=1):
            perm[loop_number - 1] = position
        step = ReversePermute(n, [False] * n, perm)
        try:
            step.check_preconditions(nest.loops)
        except PreconditionViolation:
            continue
        candidate = Transformation.of(step)
        if candidate.legality(nest, deps).legal:
            return candidate
    return None
