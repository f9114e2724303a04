"""The LB/UB/STEP matrix representation of loop bounds (Section 4.3).

For a nest of ``n`` loops, each of the three matrices has shape
``(1..n) x (0..n)`` where entry ``(i, 0)`` holds the loop-invariant part
of loop *i*'s bound expression (an arbitrary expression evaluated at run
time) and entry ``(i, j)`` for ``j >= 1`` holds the constant integer
coefficient of index variable ``j`` — defined only for ``i > j`` since a
bound may only reference enclosing indices.  Nonlinear terms involving an
index variable are folded into the ``(i, 0)`` entry and the variable is
tagged nonlinear.  A ``max`` lower bound / ``min`` upper bound stores one
coefficient row *per term* (Figure 5's ``max<n, 3>`` entry).

The matrices exist so the legality test can evaluate the ``type``
predicates of every template's preconditions *without* generating code
(Section 4.1).  :class:`BoundsMatrix` is that queryable artifact;
:meth:`BoundsMatrix.pretty` reproduces Figure 5.

Legality testing asks for the matrix of the same loop headers many times
over: every template in a sequence checks its preconditions on the loops
it receives, and a search re-checks each beam base's headers for every
menu step extending it.  :func:`bounds_matrix_of` serves those queries
from a small LRU memo keyed by header *content* (``Loop.__eq__`` covers
index, bounds, step and kind — everything a matrix reads).  A matrix is
never mutated after construction, so callers may share one.
"""

from __future__ import annotations

import functools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.expr.linear import BoundType, split_affine
from repro.expr.nodes import (
    Const,
    Expr,
    Max,
    Min,
    add,
    from_linear,
    mul,
    to_str,
    var,
)
from repro.ir.loopnest import Loop, LoopNest
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics

LB = "LB"
UB = "UB"
STEP = "STEP"


class BoundTermInfo:
    """One linear-inequality term of a bound cell.

    ``expr == sum(coeffs[name] * name) + rest`` where *rest* is invariant
    in every index variable except those in *nonlinear_vars*, whose
    occurrences live (nonlinearly) inside *rest*.
    """

    __slots__ = ("coeffs", "rest", "nonlinear_vars")

    def __init__(self, coeffs: Dict[str, int], rest: Expr,
                 nonlinear_vars: FrozenSet[str]):
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}
        self.rest = rest
        self.nonlinear_vars = frozenset(nonlinear_vars)

    def type_wrt(self, name: str) -> BoundType:
        if name in self.nonlinear_vars:
            return BoundType.NONLINEAR
        if self.coeffs.get(name, 0) != 0:
            return BoundType.LINEAR
        if self.is_const():
            return BoundType.CONST
        return BoundType.INVAR

    def is_const(self) -> bool:
        return (not self.coeffs and not self.nonlinear_vars and
                isinstance(self.rest, Const))

    def to_expr(self) -> Expr:
        parts = [mul(Const(c), var(v)) for v, c in sorted(self.coeffs.items())]
        parts.append(self.rest)
        return add(*parts)

    def __repr__(self):
        return f"BoundTermInfo({to_str(self.to_expr())})"


class BoundCell:
    """One loop's lower, upper or step bound as a list of terms.

    *combiner* records how multiple terms combine: ``"max"``/``"min"`` for
    the special-cased bounds, ``None`` for a single term, and
    ``"opaque"`` when a max/min appeared in a position where the special
    case does not apply (the whole expression is then one nonlinear term).
    """

    __slots__ = ("expr", "terms", "combiner")

    def __init__(self, expr: Expr, terms: List[BoundTermInfo],
                 combiner: Optional[str]):
        self.expr = expr
        self.terms = terms
        self.combiner = combiner

    def type_wrt(self, name: str) -> BoundType:
        return BoundType.lub(*[t.type_wrt(name) for t in self.terms])

    def is_const(self) -> bool:
        return len(self.terms) == 1 and self.terms[0].is_const()

    def const_value(self) -> Optional[int]:
        if self.is_const():
            rest = self.terms[0].rest
            assert isinstance(rest, Const)
            return rest.value
        return None

    def __repr__(self):
        return f"BoundCell({to_str(self.expr)})"


def _decompose(expr: Expr, index_names: Sequence[str]) -> BoundTermInfo:
    """Split one expression into the matrix-entry form: atoms that use
    an index variable nonlinearly fold into rest, the variable tagged."""
    nonlinear: Set[str] = set()
    coeffs, others, constant = split_affine(expr, set(index_names),
                                            nonlinear)
    rest = from_linear(others, constant) if coeffs else expr
    return BoundTermInfo(coeffs, rest, frozenset(nonlinear))


def _build_cell(expr: Expr, index_names: Sequence[str],
                allow: Optional[str]) -> BoundCell:
    """Build a cell, honouring the max/min special case when *allow* says
    a ``max`` (lower bound, positive step) or ``min`` (upper bound) of
    linear terms may be split into separate inequality rows."""
    if allow == "max" and isinstance(expr, Max):
        return BoundCell(expr, [_decompose(a, index_names) for a in expr.args],
                         "max")
    if allow == "min" and isinstance(expr, Min):
        return BoundCell(expr, [_decompose(a, index_names) for a in expr.args],
                         "min")
    # A wrong-direction max/min is one opaque atom: a single term,
    # nonlinear in the index variables it mentions.
    return BoundCell(expr, [_decompose(expr, index_names)],
                     "opaque" if isinstance(expr, (Max, Min)) else None)


class BoundsMatrix:
    """The LB, UB and STEP coefficient matrices for a loop nest."""

    def __init__(self, loops: Sequence[Loop]):
        self.loops = tuple(loops)
        self.indices = tuple(lp.index for lp in self.loops)
        self.lb: List[BoundCell] = []
        self.ub: List[BoundCell] = []
        self.step: List[BoundCell] = []
        for k, lp in enumerate(self.loops):
            outer = self.indices[:k]
            step_val = lp.step.value if isinstance(lp.step, Const) else None
            if step_val is None or step_val > 0:
                lb_allow, ub_allow = "max", "min"
            else:
                lb_allow, ub_allow = "min", "max"
            self.lb.append(_build_cell(lp.lower, outer, lb_allow))
            self.ub.append(_build_cell(lp.upper, outer, ub_allow))
            self.step.append(_build_cell(lp.step, outer, None))

    @classmethod
    def of_nest(cls, nest: LoopNest) -> "BoundsMatrix":
        return cls(nest.loops)

    # -- queries ---------------------------------------------------------

    def _cell(self, which: str, i: int) -> BoundCell:
        table = {LB: self.lb, UB: self.ub, STEP: self.step}[which]
        if not 1 <= i <= len(self.loops):
            raise IndexError(f"loop number {i} out of range")
        return table[i - 1]

    def type_of(self, which: str, i: int, j_or_name) -> BoundType:
        """``type(expr_i, x_j)`` where *which* selects LB/UB/STEP.

        *j_or_name* is a 1-based loop number or an index variable name.
        """
        name = (j_or_name if isinstance(j_or_name, str)
                else self.indices[j_or_name - 1])
        return self._cell(which, i).type_wrt(name)

    def coefficient(self, which: str, i: int, j: int) -> Tuple[int, ...]:
        """The (i, j) matrix entry: coefficient(s) of index j in bound i.

        Returns one value per inequality term (max/min entries hold a
        list, as in Figure 5's ``max<n, 3>``).
        """
        cell = self._cell(which, i)
        name = self.indices[j - 1]
        return tuple(t.coeffs.get(name, 0) for t in cell.terms)

    def invariant_entry(self, which: str, i: int) -> Tuple[Expr, ...]:
        """The (i, 0) entries: the run-time invariant part per term."""
        cell = self._cell(which, i)
        return tuple(t.rest for t in cell.terms)

    def step_value(self, i: int) -> Optional[int]:
        """The constant step of loop *i*, or None when not compile-time."""
        return self._cell(STEP, i).const_value()

    # -- rendering (Figure 5) ----------------------------------------------

    def pretty(self, which: str) -> str:
        """Render one matrix like Figure 5 of the paper."""
        n = len(self.loops)
        rows = []
        for i in range(1, n + 1):
            cell = self._cell(which, i)
            entries = []
            # column 0: invariant parts
            col0 = [to_str(t.rest) for t in cell.terms]
            entries.append(self._wrap(col0, cell.combiner))
            for j in range(1, n + 1):
                if j >= i:
                    entries.append("-")
                    continue
                coeffs = [str(c) for c in self.coefficient(which, i, j)]
                entries.append(self._wrap(coeffs, cell.combiner))
            rows.append(entries)
        widths = [max(len(r[c]) for r in rows) for c in range(n + 1)]
        lines = []
        for r in rows:
            lines.append("[ " + "  ".join(v.rjust(w) for v, w in zip(r, widths))
                         + " ]")
        return "\n".join(lines)

    @staticmethod
    def _wrap(values: List[str], combiner: Optional[str]) -> str:
        if len(values) == 1:
            return values[0]
        return f"{combiner}<{', '.join(values)}>"

    def pretty_types(self) -> str:
        """List every non-(invar/const) type fact, as under Figure 5."""
        facts = []
        for which, tag in ((LB, "l"), (UB, "u"), (STEP, "s")):
            for i in range(1, len(self.loops) + 1):
                for j in range(1, i):
                    t = self.type_of(which, i, j)
                    if t in (BoundType.LINEAR, BoundType.NONLINEAR):
                        facts.append(
                            f"type({tag}{i}, {self.indices[j - 1]}) = {t}")
        if not facts:
            return "type = invar or const, in all cases."
        facts.append("type = invar or const, in all other cases.")
        return "\n".join(facts)


#: Distinct header tuples whose matrices :func:`bounds_matrix_of` keeps.
#: The reuse is local — a sequence's steps and a beam base's extensions
#: ask about the same few tuples back to back — so a handful suffices.
MATRIX_MEMO_SIZE = 8


@functools.lru_cache(maxsize=MATRIX_MEMO_SIZE)
def _memo_matrix(loops: Tuple[Loop, ...]) -> BoundsMatrix:
    return BoundsMatrix(loops)


def bounds_matrix_of(loops: Sequence[Loop]) -> BoundsMatrix:
    """The :class:`BoundsMatrix` of *loops*, shared with any earlier
    request for content-equal headers still in the memo.

    Under ``repro.obs`` each call counts ``bounds_matrix.built`` or
    ``bounds_matrix.reused`` (approximate when threads race on the memo).
    """
    key = tuple(loops)
    if not _obs.enabled():
        return _memo_matrix(key)
    misses = _memo_matrix.cache_info().misses
    matrix = _memo_matrix(key)
    built = _memo_matrix.cache_info().misses != misses
    get_metrics().counter(
        "bounds_matrix.built" if built else "bounds_matrix.reused").inc()
    return matrix
