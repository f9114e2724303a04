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
distances, and projections: :meth:`LinearSystem.project` eliminates
every variable but a kept set and returns the remaining rows.  The
driver projects each pair problem once onto its distance variables and
answers the whole direction hierarchy from that projection; because
Fourier–Motzkin projection is exact over the rationals, the projection
plus rows over the kept variables is feasible (and bounds a kept
variable) exactly when the original system plus those rows is (does).

After every elimination step two kinds of implied rows are dropped —
the step's row count drives both the cost of the next step and the cap
check, and the pure algorithm piles up redundant rows fast:

* a row that a parallel row with the same coefficients and a smaller
  constant implies (:func:`_drop_dominated`: ``d + 1 >= 0`` goes when
  ``d >= 0`` is there) — the same rule Unimodular scanning's
  tightening applies;
* a row over two or more variables that holds everywhere in the box
  the one-variable rows bound (:func:`_drop_box_implied`).

Both only remove rows the remaining rows imply, so every solution set —
hence every verdict, bound and projection — is unchanged; only the
give-up behavior near the cap improves.

The box test is public because it also decides most of the analyzer's
queries before any elimination: :func:`box_of` reads the box of a
row set and :func:`holds_on_box` tests one row against it.  When the
box is empty the rows are infeasible; when every other row holds on
it, the rows' solution set *is* the box, so its bounds are the ones
:meth:`LinearSystem.bounds_of` would compute.  Bounds are ints where
they are integers and exact :class:`~fractions.Fraction` values
otherwise.

Representation matters here: constraints are normalized to coprime
*integer* coefficients on construction (any positive rational scaling
preserves a ``>= 0`` constraint), which keeps the hot elimination loop
in machine-int arithmetic — no :class:`~fractions.Fraction` division —
and makes scalar multiples of the same hyperplane collapse in the
dedup pass.  Variables are eliminated cheapest-first (fewest
positive×negative row combinations, ties broken by name), which
defers — and usually avoids — the quadratic constraint blowup a fixed
order runs into on mod/div-heavy subscripts.

The hot path stays in plain ints end to end:

* rows that :func:`_eliminate` combines are already integers, so they
  go through :meth:`LinConstraint.from_ints`, which skips the general
  constructor's ``Fraction`` handling but drops cancelled coefficients
  and divides out the GCD exactly as the constructor does — the row,
  down to its dict order, is the one ``LinConstraint(...)`` would build;
* rows are never mutated after construction, so each row caches its
  dedupe :meth:`~LinConstraint.key` and, for an equality, its split
  into two inequalities (:meth:`~LinConstraint.as_inequalities`).  Rows
  shared between systems — the driver's loop-bound and direction rows
  — pay for both once.

None of this changes which rows exist or their order.

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
from typing import (Container, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.resilience import guards as _guards

#: A variable bound: an int when it is one, otherwise the exact rational.
Bound = Union[int, Fraction]


class LinConstraint:
    """``sum(coeffs[v] * v) + const >= 0`` (or ``== 0`` for equalities).

    Stored in canonical form: coefficients and constant are coprime
    integers (the input may be ints or Fractions; construction scales
    by the positive LCM of denominators and divides by the GCD).  Rows
    are treated as immutable once built.
    """

    __slots__ = ("coeffs", "const", "equality", "_key", "_split")

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
        self._key = None
        self._split = None

    @classmethod
    def from_ints(cls, coeffs: Dict[str, int], const: int,
                  equality: bool = False) -> "LinConstraint":
        """The row ``LinConstraint(coeffs, const, equality)`` builds, for
        int-only input: zero coefficients are dropped (the others keep
        their order) and the GCD is divided out.  *coeffs* may become
        the row's own dict — the caller must not reuse it."""
        if 0 in coeffs.values():
            coeffs = {v: x for v, x in coeffs.items() if x}
        g = gcd(const, *coeffs.values())
        if g > 1:
            coeffs = {v: x // g for v, x in coeffs.items()}
            const //= g
        row = cls.__new__(cls)
        row.coeffs = coeffs
        row.const = const
        row.equality = equality
        row._key = None
        row._split = None
        return row

    def key(self):
        """Identity for deduplication (cached): equal keys, equal rows."""
        k = self._key
        if k is None:
            k = self._key = (frozenset(self.coeffs.items()), self.const,
                             self.equality)
        return k

    def as_inequalities(self) -> Tuple["LinConstraint", ...]:
        """The row as ``>= 0`` rows: itself, or for an equality the pair
        ``lhs >= 0``, ``-lhs >= 0`` (cached)."""
        if not self.equality:
            return (self,)
        split = self._split
        if split is None:
            split = self._split = (
                LinConstraint.from_ints(dict(self.coeffs), self.const),
                LinConstraint.from_ints(
                    {v: -x for v, x in self.coeffs.items()}, -self.const))
        return split

    def __repr__(self):
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items()))
        op = "==" if self.equality else ">="
        return f"LinConstraint({terms} + {self.const} {op} 0)"


class LinearSystem:
    """A mutable collection of constraints over named rational variables."""

    def __init__(self, constraints: Iterable[LinConstraint] = ()):
        self.constraints: List[LinConstraint] = list(constraints)

    # -- building ----------------------------------------------------------

    def add(self, coeffs: Dict[str, int], const, *,
            equality: bool = False) -> None:
        self.constraints.append(LinConstraint(coeffs, const, equality))

    def add_ge(self, coeffs, const) -> None:
        """``sum(coeffs) + const >= 0``."""
        self.add(coeffs, const)

    def add_le(self, coeffs, const) -> None:
        """``sum(coeffs) + const <= 0``."""
        self.add({v: -c for v, c in coeffs.items()}, -const)

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
        out: List[LinConstraint] = []
        for c in self.constraints:
            out.extend(c.as_inequalities())
        return out

    def _reduce(self, keep: Container[str]):
        """Eliminate every variable not in *keep*, cheapest first: the
        rows over *keep* alone (no variable-free row), ``_INFEASIBLE``,
        or ``None`` when a step would pass the cap (counted on
        ``fme.give_up``)."""
        cap = _guards.limits().max_fme_constraints
        ineqs = _dedupe(self._as_inequalities())
        while True:
            for c in ineqs:
                if not c.coeffs and c.const < 0:
                    return _INFEASIBLE
            ineqs = [c for c in ineqs if c.coeffs]
            name = _cheapest_var(ineqs, keep)
            if name is None:
                return ineqs
            ineqs = _eliminate(ineqs, name, cap)
            if ineqs is None:
                _count_give_up()
                return None
            ineqs = _drop_box_implied(ineqs)

    def is_feasible(self) -> bool:
        """Rational feasibility via Fourier–Motzkin; conservative ``True``
        when a step would combine past the ``max_fme_constraints`` cap."""
        return self._reduce(()) is not _INFEASIBLE

    def project(self, keep: Iterable[str]) -> Optional[List[LinConstraint]]:
        """Rows over the *keep* variables alone whose solution set is the
        rational projection of this system's: every other variable is
        eliminated cheapest-first.  An infeasible system projects to the
        single row ``-1 >= 0``; ``None`` means a step would have passed
        the ``max_fme_constraints`` cap (counted on ``fme.give_up``).

        Projection commutes with constraints on the kept variables: the
        system plus rows over *keep* is feasible, and bounds a kept
        variable, exactly as the projection plus those rows does.
        """
        rows = self._reduce(frozenset(keep))
        return list(rows) if rows is not None else None

    def bounds_of(self, name: str) -> Tuple[Optional[Bound],
                                            Optional[Bound]]:
        """(min, max) of variable *name* over the solution set, each an
        int when it is one and a :class:`~fractions.Fraction` otherwise.

        ``None`` means unbounded in that direction (or the system gave
        up).  An infeasible system returns ``(None, None)``; callers
        should check :meth:`is_feasible` first when it matters.
        """
        rows = self._reduce((name,))
        if rows is None or rows is _INFEASIBLE:
            return None, None
        lo, hi = box_of(rows)
        lo, hi = lo.get(name), hi.get(name)
        if lo is not None and hi is not None and lo > hi:
            return None, None
        return lo, hi


#: The projection of an infeasible system: ``-1 >= 0``.
_INFEASIBLE = (LinConstraint.from_ints({}, -1),)


def _count_give_up() -> None:
    if _obs.enabled():
        get_metrics().counter("fme.give_up").inc()


def _dedupe(ineqs: List[LinConstraint]) -> List[LinConstraint]:
    seen = set()
    out = []
    for c in ineqs:
        k = c._key
        if k is None:
            k = c.key()
        if k not in seen:
            seen.add(k)
            out.append(c)
    return out


def _drop_dominated(ineqs: Iterable[LinConstraint]) -> List[LinConstraint]:
    """Drop every ``>= 0`` row that a parallel row with a smaller
    constant implies: keep, per coefficient vector, the row with the
    smallest constant (ties: the first), in order of the vector's first
    appearance.  The solution set is unchanged; an exact duplicate goes
    too."""
    best: Dict[frozenset, LinConstraint] = {}
    for c in ineqs:
        k = c._key
        if k is None:
            k = c.key()
        old = best.get(k[0])
        if old is None or c.const < old.const:
            best[k[0]] = c
    return list(best.values())


def box_of(ineqs: Iterable[LinConstraint]
           ) -> Tuple[Dict[str, Bound], Dict[str, Bound]]:
    """The box the one-variable ``>= 0`` rows of *ineqs* bound: per
    variable, its greatest lower bound and its least upper bound (a
    variable with no such row in a direction is absent from that
    side's map)."""
    lo: Dict[str, Bound] = {}
    hi: Dict[str, Bound] = {}
    for c in ineqs:
        if len(c.coeffs) == 1:
            (v, a), = c.coeffs.items()
            # a*v + const >= 0: the bound -const/a, an int when it is one.
            b = -c.const // a if c.const % a == 0 else Fraction(-c.const, a)
            if a > 0:
                if v not in lo or b > lo[v]:
                    lo[v] = b
            elif v not in hi or b < hi[v]:
                hi[v] = b
    return lo, hi


def holds_on_box(row: LinConstraint, lo: Dict[str, Bound],
                 hi: Dict[str, Bound]) -> bool:
    """Whether the ``>= 0`` *row* holds everywhere in the box *lo*/*hi*
    bound: its left-hand side's least value there is ``>= 0``.  False
    when the box is open on a side the row needs."""
    least = row.const
    for v, a in row.coeffs.items():
        b = (lo if a > 0 else hi).get(v)
        if b is None:
            return False
        least += a * b
    return least >= 0


def _drop_box_implied(ineqs: List[LinConstraint]) -> List[LinConstraint]:
    """Drop every row over two or more variables that the system's
    one-variable rows imply (:func:`holds_on_box` on :func:`box_of`).
    The one-variable rows stay, so the solution set is unchanged."""
    lo, hi = box_of(ineqs)
    if not lo and not hi:
        return ineqs
    return [c for c in ineqs
            if len(c.coeffs) < 2 or not holds_on_box(c, lo, hi)]


def _cheapest_var(ineqs: Sequence[LinConstraint],
                  skip: Container[str] = ()) -> Optional[str]:
    """The variable (not in *skip*) whose elimination creates the
    fewest combined rows (Fourier–Motzkin's classic min ``|pos|*|neg|``
    heuristic), or None when no such variable occurs; ties break
    alphabetically so elimination order — and therefore the give-up
    behavior near the cap — is deterministic."""
    pos: Dict[str, int] = {}
    neg: Dict[str, int] = {}
    for c in ineqs:
        for v, a in c.coeffs.items():
            if a > 0:
                pos[v] = pos.get(v, 0) + 1
            else:
                neg[v] = neg.get(v, 0) + 1
    best = None
    best_cost = None
    for v in sorted(pos.keys() | neg.keys()):
        if v in skip:
            continue
        p = pos.get(v, 0)
        n = neg.get(v, 0)
        cost = p * n - (p + n)
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def _eliminate(ineqs: List[LinConstraint], name: str,
               cap: int) -> Optional[List[LinConstraint]]:
    """Project out variable *name* (one FM step); None signals a blowup
    give-up: the step would hold more than *cap* rows.  Rows that a
    parallel row with a smaller constant implies are dropped from the
    result (:func:`_drop_dominated`).

    Combination is by integer cross-multiplication — ``aq*p + ap*q``
    instead of ``p/ap + q/aq`` — so no rational arithmetic happens
    here; :meth:`LinConstraint.from_ints` renormalizes each combined
    row to coprime integers.
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
    negs = [(-q.coeffs[name],
             [(v, c) for v, c in q.coeffs.items() if v != name], q.const)
            for q in neg]
    from_ints = LinConstraint.from_ints
    for p in pos:
        ap = p.coeffs[name]
        p_items = [(v, c) for v, c in p.coeffs.items() if v != name]
        for aq, q_items, q_const in negs:
            coeffs = {v: aq * c for v, c in p_items}
            for v, c in q_items:
                coeffs[v] = coeffs.get(v, 0) + ap * c
            kept.append(from_ints(coeffs, aq * p.const + ap * q_const))
    return _drop_dominated(kept)
