"""Exact rational linear systems with Fourier–Motzkin feasibility.

The dependence analyzer reduces "can iteration ``x1`` of one reference
and iteration ``x2`` of another touch the same array element (under a
direction constraint)?" to the feasibility of a system of linear
equalities and inequalities over the 2n iteration variables plus any
symbolic nest invariants (treated as existential unknowns — sound, since
a dependence that exists for *some* ``n`` must be assumed).

Feasibility is decided over the rationals by Fourier–Motzkin
elimination (conservative for integers: rationally infeasible implies
integer infeasible; the integer-only refutations come from the GCD test
in :mod:`repro.deps.analysis.tests`).  The same machinery computes exact
variable bounds, which the driver uses to refine direction entries to
distances.

Representation matters here: constraints are normalized to coprime
*integer* coefficients on construction (any positive rational scaling
preserves a ``>= 0`` constraint), which keeps the hot elimination loop
in machine-int arithmetic — no :class:`~fractions.Fraction` division —
and makes scalar multiples of the same hyperplane collapse in the
dedup pass.  Variables are eliminated cheapest-first (fewest
positive×negative row combinations), which defers — and usually
avoids — the quadratic constraint blowup a fixed order runs into on
mod/div-heavy subscripts.

This module is the repository's one Fourier–Motzkin kernel: the
Unimodular template's polyhedron scanning (:mod:`repro.core.fme`) runs
the same :class:`LinConstraint` rows through the same :func:`_eliminate`
step, in its own fixed innermost-first order.  Both share one safety
valve, ``guards.limits().max_fme_constraints``
(``REPRO_MAX_FME_CONSTRAINTS``), checked on the row count *before* a
step combines rows.  On give-up this module answers "feasible"
(conservative for dependence testing) and counts it on the
``fme.give_up`` metric; codegen raises instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.resilience import guards as _guards


class LinConstraint:
    """``sum(coeffs[v] * v) + const >= 0`` (or ``== 0`` for equalities).

    Stored in canonical form: coefficients and constant are coprime
    integers (the input may be ints or Fractions; construction scales
    by the positive LCM of denominators and divides by the GCD).
    """

    __slots__ = ("coeffs", "const", "equality")

    def __init__(self, coeffs: Dict[str, object], const: object,
                 equality: bool = False):
        ints: Dict[str, object] = {}
        scale = 1
        for v, c in coeffs.items():
            if c == 0:
                continue
            if not isinstance(c, int):
                c = Fraction(c)
                den = c.denominator
                if den != 1:
                    scale = scale * den // gcd(scale, den)
            ints[v] = c
        if not isinstance(const, int):
            const = Fraction(const)
            den = const.denominator
            if den != 1:
                scale = scale * den // gcd(scale, den)
        if scale != 1:
            ints = {v: int(c * scale) for v, c in ints.items()}
            const = int(const * scale)
        else:
            ints = {v: int(c) for v, c in ints.items()}
            const = int(const)
        g = abs(const)
        for x in ints.values():
            g = gcd(g, x if x >= 0 else -x)
        if g > 1:
            ints = {v: x // g for v, x in ints.items()}
            const //= g
        self.coeffs: Dict[str, int] = ints
        self.const: int = const
        self.equality = equality

    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.const, self.equality)

    def __repr__(self):
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items()))
        op = "==" if self.equality else ">="
        return f"LinConstraint({terms} + {self.const} {op} 0)"


class LinearSystem:
    """A mutable collection of constraints over named rational variables."""

    def __init__(self):
        self.constraints: List[LinConstraint] = []

    def copy(self) -> "LinearSystem":
        out = LinearSystem()
        out.constraints = list(self.constraints)
        return out

    # -- building ----------------------------------------------------------

    def add(self, coeffs: Dict[str, Fraction], const, *,
            equality: bool = False) -> None:
        self.constraints.append(LinConstraint(coeffs, const, equality))

    def add_ge(self, coeffs, const) -> None:
        """``sum(coeffs) + const >= 0``."""
        self.add(coeffs, const)

    def add_le(self, coeffs, const) -> None:
        """``sum(coeffs) + const <= 0``."""
        self.add({v: -c for v, c in coeffs.items()}, -Fraction(const))

    def add_eq(self, coeffs, const) -> None:
        self.add(coeffs, const, equality=True)

    def variables(self) -> List[str]:
        seen: List[str] = []
        for c in self.constraints:
            for v in c.coeffs:
                if v not in seen:
                    seen.append(v)
        return seen

    # -- solving -----------------------------------------------------------

    def _as_inequalities(self) -> List[LinConstraint]:
        out = []
        for c in self.constraints:
            if c.equality:
                out.append(LinConstraint(c.coeffs, c.const))
                out.append(LinConstraint(
                    {v: -x for v, x in c.coeffs.items()}, -c.const))
            else:
                out.append(c)
        return out

    def is_feasible(self) -> bool:
        """Rational feasibility via Fourier–Motzkin; conservative ``True``
        when a step would combine past the ``max_fme_constraints`` cap."""
        cap = _guards.limits().max_fme_constraints
        ineqs = _dedupe(self._as_inequalities())
        while True:
            live = {v for c in ineqs for v in c.coeffs}
            if not live:
                return True
            ineqs = _eliminate(ineqs, _cheapest_var(ineqs, live), cap)
            if ineqs is None:
                _count_give_up()
                return True  # gave up: assume feasible
            for c in ineqs:
                if not c.coeffs and c.const < 0:
                    return False
            ineqs = [c for c in ineqs if c.coeffs]

    def bounds_of(self, name: str) -> Tuple[Optional[Fraction],
                                            Optional[Fraction]]:
        """(min, max) of variable *name* over the solution set.

        ``None`` means unbounded in that direction (or the system gave
        up).  An infeasible system returns ``(None, None)``; callers
        should check :meth:`is_feasible` first when it matters.
        """
        cap = _guards.limits().max_fme_constraints
        ineqs = _dedupe(self._as_inequalities())
        while True:
            live = {v for c in ineqs for v in c.coeffs} - {name}
            if not live:
                break
            ineqs = _eliminate(ineqs, _cheapest_var(ineqs, live), cap)
            if ineqs is None:
                _count_give_up()
                return None, None
            for c in ineqs:
                if not c.coeffs and c.const < 0:
                    return None, None
            ineqs = [c for c in ineqs if c.coeffs]
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for c in ineqs:
            a = c.coeffs.get(name, 0)
            if a == 0:
                continue
            bound = Fraction(-c.const, a)
            if a > 0:  # name >= bound
                lo = bound if lo is None else max(lo, bound)
            else:      # name <= bound
                hi = bound if hi is None else min(hi, bound)
        return lo, hi


def _count_give_up() -> None:
    if _obs.enabled():
        get_metrics().counter("fme.give_up").inc()


def _dedupe(ineqs: List[LinConstraint]) -> List[LinConstraint]:
    seen = set()
    out = []
    for c in ineqs:
        k = c.key()
        if k not in seen:
            seen.add(k)
            out.append(c)
    return out


def _cheapest_var(ineqs: Sequence[LinConstraint],
                  candidates: Set[str]) -> str:
    """The candidate whose elimination creates the fewest combined rows
    (Fourier–Motzkin's classic min ``|pos|*|neg|`` heuristic); ties
    break alphabetically so elimination order — and therefore the
    give-up behavior near the cap — is deterministic."""
    counts: Dict[str, List[int]] = {}
    for c in ineqs:
        for v, a in c.coeffs.items():
            if v not in candidates:
                continue
            pn = counts.setdefault(v, [0, 0])
            pn[0 if a > 0 else 1] += 1
    best = None
    best_cost = None
    for v in sorted(candidates):
        pos, neg = counts.get(v, (0, 0))
        cost = pos * neg - (pos + neg)
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def _eliminate(ineqs: List[LinConstraint], name: str,
               cap: int) -> Optional[List[LinConstraint]]:
    """Project out variable *name* (one FM step); None signals a blowup
    give-up: the step would hold more than *cap* rows.

    Combination is by integer cross-multiplication — ``aq*p + ap*q``
    instead of ``p/ap + q/aq`` — so no rational arithmetic happens
    here; the constructor renormalizes each combined row to coprime
    integers.
    """
    kept, pos, neg = [], [], []
    for c in ineqs:
        a = c.coeffs.get(name, 0)
        if a == 0:
            kept.append(c)
        elif a > 0:
            pos.append(c)
        else:
            neg.append(c)
    if len(pos) * len(neg) + len(kept) > cap:
        return None
    for p in pos:
        ap = p.coeffs[name]
        for q in neg:
            aq = -q.coeffs[name]
            coeffs: Dict[str, int] = {}
            for v, c in p.coeffs.items():
                if v != name:
                    coeffs[v] = aq * c
            for v, c in q.coeffs.items():
                if v != name:
                    coeffs[v] = coeffs.get(v, 0) + ap * c
            kept.append(LinConstraint(coeffs, aq * p.const + ap * q.const))
    return _dedupe(kept)
