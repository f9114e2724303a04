"""The dependence analyzer: from a loop nest to a dependence-vector set.

Pipeline (standard practice per the paper's references [4, 15, 10, 6, 12]):

1. normalize constant non-unit steps to iteration counters (dependence
   entries are iteration-number differences, Def. 3.3);
2. collect array accesses, the inits' before the body's, and form
   candidate pairs (same array, at least one write); a subscript that
   names a scalar with one straight-line definition reads it folded
   (:meth:`~repro.ir.loopnest.LoopNest.scalar_definitions`), so ``it = kk;
   b(it)`` is analysed as ``b(kk)``, and any other scalar is opaque in a
   subscript; such a scalar's own writes and reads are zero-subscript
   accesses, since a guarded or reassigned scalar can carry a value from
   one iteration into another, and their pairs take the conservative
   cover (counted on ``deps.pairs_conservative``);
3. per pair, build the affine subscript equalities and loop-bound
   constraints over the 2n iteration variables (plus symbolic
   invariants as free unknowns);
4. project once, then enumerate: rewrite the pair's rows with
   ``x$2 = x$1 + x$d`` and project them onto the n distance variables
   ``x$d`` (the paper's dependence entries are exactly these
   iteration-number differences), then enumerate direction vectors
   hierarchically (Burke–Cytron style), pruning each partial
   assignment with a test ladder — GCD, then Banerjee intervals, then
   (``level='fm'``) the exact tier on the projection plus the direction
   rows, which bound ``x$d`` alone: integer intervals first, rational
   Fourier–Motzkin only where they cannot decide;
5. refine surviving leaves to distances where the projection forces a
   constant ``x$d`` (the same two-step tier), and emit the paper-domain
   dependence vectors.

Each pair's per-node work is as small as it can be made without
changing an answer.  The GCD verdict reads no direction, so it is
computed once per pair; Banerjee's interval is split once per pair
into a direction-free part and per-code delta parts.  The projection
happens on the pair's first exact-tier query, under a ``deps.project``
span (counted on ``deps.pairs_projected``), and every node and
refinement after that works on it, over at most n variables instead of
all 2n plus the invariants.  This is exact: the change of variables is
unimodular, Fourier–Motzkin projection is exact over the rationals,
and projection commutes with constraints on the kept variables — the
system plus direction rows is feasible, and bounds ``x$d``, exactly
when the projection plus those rows is and does.  If the projection
itself gives up at the cap, that pair's exact tier answers
conservatively (every node feasible, no distance refined) and
``fme.give_up`` counts it once.

The projection is split once more, into the box its one-variable rows
bound and the rows over two or more variables
(:attr:`_PairProblem.box`).  A node narrows the box to its codes'
intervals (:meth:`_PairProblem.interval_answer`): an empty box refutes
the node; a box on which every multi-variable row holds
(:func:`~repro.deps.analysis.linear_system.holds_on_box`, the test
Fourier–Motzkin's box-implied pruning uses) *is* the node's
polyhedron, so the node is feasible and a leaf's ``x$d`` bounds are
read off the box — a distance when both are one integer.  Both readings
are what rational Fourier–Motzkin computes on that polyhedron, so the
interval tier changes no verdict and no distance; it only skips the
elimination, and with it a give-up the cap could force on a large
projection.  Only a node the box cannot settle builds its system and
runs Fourier–Motzkin.  The tier counters ``deps.refuted.{gcd,banerjee,fm}``
and ``deps.feasible`` count one outcome per node, whichever of the two
exact steps gave it; ``deps.interval_decided`` and ``deps.fm_queries``
count, per exact-tier node and per refinement, which step answered.

What does not depend on the pair is built once per analyzer and shared
by every pair problem: the loop-bound rows over both iteration copies
(``$1``/``$2``) and their distance-space rewrite, the constant loop
ranges the Banerjee tier reads, the direction rows the enumeration
appends, and each subscript's affine form.  Coefficients, constants,
ranges and interval ends are plain ints throughout; only a box bound
that falls between two integers is a :class:`~fractions.Fraction`.
Shared rows carry their cached dedupe keys and equality splits
(:mod:`repro.deps.analysis.linear_system`) from pair to pair.

Pairs with identical subscripts — the write→read, read→write and
write→write pairs of ``a(i,j) = a(i,j) + ...`` — pose the same problem,
so one :meth:`DependenceAnalyzer.explain` call memoizes step 4–5's
vectors by the frozenset of the base system's row keys.  The reuse is
exact.  The Fourier–Motzkin verdict, the bounds and any give-up are
functions of the deduplicated row *set*: dedupe is by key, and both the
choice of the next variable and the cap check read only row counts.
The interval tier reads the projection's rows as a set too: the box
keeps each variable's tightest bounds, and every other row must hold.
The GCD and Banerjee verdicts of an equality are unchanged by the
positive scaling that row normalization applies.  The memo lives for
one call — no cross-call cache — and a reused pair is counted on
``deps.pairs_reused`` instead of re-running the test ladder.

Only *cross-iteration* dependences are reported (the all-zero vector
never constrains iteration reordering of a single-body perfect nest).
Anything the analyzer cannot model — non-affine subscripts in every
dimension, symbolic steps — degrades to the conservative
lexicographically-positive cover ``(+, *, ..), (0, +, *, ..), ...``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.deps.analysis.linear_system import (
    Bound,
    LinConstraint,
    LinearSystem,
    box_of,
    holds_on_box,
)
from repro.deps.analysis.references import (
    ArrayAccess,
    dependence_candidate_pairs,
)
from repro.deps.analysis.tests import (
    DIRECTION_INTERVALS,
    BanerjeeForm,
    Equality,
    gcd_test,
)
from repro.deps.vector import DepEntry, DepSet, DepVector
from repro.expr.linear import split_affine
from repro.expr.nodes import (
    Const,
    Expr,
    Max,
    Min,
    Var,
    add,
    call,
    free_vars,
    mul,
    substitute,
    var,
)
from repro.ir.loopnest import InitStmt, LoopNest
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics

LEVELS = ("gcd", "banerjee", "fm")

Coeffs = Dict[str, int]


def _affine_dict(expr: Expr, index_names: Sequence[str], suffix: str,
                 invariants: Sequence[str]
                 ) -> Optional[Tuple[Coeffs, int]]:
    """Express *expr* as integer coefficients over suffixed iteration
    variables and plain invariant symbols (its only allowed atoms), plus
    an integer constant."""
    split = split_affine(expr, set(index_names))
    if split is None:
        return None
    index, others, constant = split
    coeffs: Coeffs = {f"{v}{suffix}": c for v, c in index.items()}
    for atom, c in others.items():
        if not (isinstance(atom, Var) and atom.name in invariants):
            return None
        coeffs[atom.name] = c
    return coeffs, constant


def _distance_name(name: str) -> str:
    """The distance variable ``name$2 - name$1`` of iteration *name*."""
    return f"{name}$d"


def _direction_rows(name: str) -> Dict[str, Tuple[LinConstraint, ...]]:
    """Per direction code, the rows bounding the distance variable
    ``name$d`` to the code's interval."""
    d = _distance_name(name)
    out = {}
    for code, (lo, hi) in DIRECTION_INTERVALS.items():
        rows = []
        if lo is not None:  # d - lo >= 0
            rows.append(LinConstraint.from_ints({d: 1}, -lo))
        if hi is not None:  # hi - d >= 0
            rows.append(LinConstraint.from_ints({d: -1}, hi))
        out[code] = tuple(rows)
    return out


def _to_distance(row: LinConstraint,
                 shift: Dict[str, Tuple[str, str]]) -> LinConstraint:
    """*row* under the unimodular change of variables
    ``x$2 = x$1 + x$d``: *shift* maps each ``x$2`` to ``(x$1, x$d)``."""
    if not any(v in shift for v in row.coeffs):
        return row
    coeffs: Dict[str, int] = {}
    for v, c in row.coeffs.items():
        for w in shift.get(v, (v,)):
            coeffs[w] = coeffs.get(w, 0) + c
    return LinConstraint.from_ints(coeffs, row.const, row.equality)


class _PairProblem:
    """The constraint system for one ordered access pair.

    The cheap tiers' per-pair work happens once: the GCD verdict reads
    no direction, and each equality's Banerjee interval is split into a
    fixed part and per-code delta parts.  On the first exact-tier query
    the base rows are rewritten with ``x$2 = x$1 + x$d`` and projected
    onto the distance variables, and the projection is split into a box
    and its other rows; every direction node and distance refinement
    after that asks the box first (:meth:`interval_answer`) and runs
    Fourier–Motzkin on the projection only when the box cannot decide.
    """

    def __init__(self, equalities: List[Equality], base: LinearSystem,
                 distance_base: List[LinConstraint],
                 index_names: Sequence[str],
                 var_ranges: Dict[str, Tuple],
                 opaque_levels: Set[int],
                 direction_rows: Dict[str, Dict[str, Tuple]]):
        self.equalities = equalities
        self.base = base
        self.distance_base = distance_base
        self.index_names = list(index_names)
        self.var_ranges = var_ranges
        self.opaque_levels = opaque_levels
        self.direction_rows = direction_rows

    @cached_property
    def gcd_passes(self) -> bool:
        return all(gcd_test(eq) for eq in self.equalities)

    @cached_property
    def banerjee_forms(self) -> List[BanerjeeForm]:
        return [BanerjeeForm(eq, self.var_ranges) for eq in self.equalities]

    @cached_property
    def distance_rows(self) -> Optional[List[LinConstraint]]:
        """The base system, rewritten over the distance variables
        (:attr:`distance_base`) and projected onto them, or ``None``
        when the projection gave up."""
        with _obs.span("deps.project", rows=len(self.distance_base)):
            projected = LinearSystem(self.distance_base).project(
                [_distance_name(nm) for nm in self.index_names])
        if _obs.enabled():
            get_metrics().counter("deps.pairs_projected").inc()
        return projected

    @cached_property
    def box(self) -> Optional[Tuple[Dict[str, Bound], Dict[str, Bound],
                                    List[LinConstraint]]]:
        """The projection split once for the interval tier: the box its
        one-variable rows bound (lower and upper bounds by distance
        variable) and its other rows, or ``None`` when the projection
        gave up."""
        rows = self.distance_rows
        if rows is None:
            return None
        lo, hi = box_of(rows)
        return lo, hi, [row for row in rows if len(row.coeffs) != 1]

    def interval_answer(self, directions: Dict[str, str]):
        """The interval tier's answer for the node *directions*: the
        box narrowed to the codes' intervals is ``False`` when empty (the
        node is infeasible), and is returned as ``(lo, hi)`` when every
        other projection row holds on all of it (the node's polyhedron
        is then exactly that box).  ``None``: Fourier–Motzkin decides.
        Each call is counted on ``deps.interval_decided`` or
        ``deps.fm_queries``."""
        answer = self._interval_answer(directions)
        if _obs.enabled():
            get_metrics().counter("deps.fm_queries" if answer is None
                                  else "deps.interval_decided").inc()
        return answer

    def _interval_answer(self, directions: Dict[str, str]):
        box = self.box
        if box is None:
            return None
        lo, hi, rest = box
        lo, hi = dict(lo), dict(hi)
        for name, code in directions.items():
            code_lo, code_hi = DIRECTION_INTERVALS[code]
            d = _distance_name(name)
            if code_lo is not None and (d not in lo or code_lo > lo[d]):
                lo[d] = code_lo
            if code_hi is not None and (d not in hi or code_hi < hi[d]):
                hi[d] = code_hi
        for d, b in lo.items():
            if d in hi and b > hi[d]:
                return False
        for row in rest:
            if not holds_on_box(row, lo, hi):
                return None
        return lo, hi

    def with_directions(self, directions: Dict[str, str]
                        ) -> Optional[LinearSystem]:
        """The projection plus the direction rows of *directions*, or
        ``None`` when the projection gave up."""
        rows = self.distance_rows
        if rows is None:
            return None
        system = LinearSystem(rows)
        for name, code in directions.items():
            system.constraints.extend(self.direction_rows[name][code])
        return system


class DependenceAnalyzer:
    """Configurable analyzer; see the module docstring.

    *level* selects the deepest refutation tier: ``'gcd'``,
    ``'banerjee'`` or ``'fm'`` (default, most precise).
    """

    def __init__(self, nest: LoopNest,
                 arrays: Optional[Iterable[str]] = None,
                 level: str = "fm"):
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        self.nest = nest
        self.level = level
        self.arrays = set(arrays or ())
        self.n = nest.depth
        self._prepare()

    # -- setup -----------------------------------------------------------------

    def _prepare(self) -> None:
        nest = self.nest
        self.index_names = list(nest.indices)
        defs = nest.scalar_definitions()
        # A name the inits read that nothing assigns is as invariant as a
        # bound's symbol.
        self.invariants = sorted(nest.invariants() | (
            set().union(*map(free_vars, defs.values()))
            - set(self.index_names) - nest.defined_names()))
        # Normalize constant non-unit steps: x = l + s*t.
        self.rewrite: Dict[str, Expr] = {}
        self.opaque_levels: Set[int] = set()  # 0-based
        self.norm_names: List[str] = []
        bounds: List[Optional[Tuple[Expr, Expr]]] = []
        index_set = set(self.index_names)
        for k, lp in enumerate(nest.loops):
            lower = substitute(lp.lower, self.rewrite)
            upper = substitute(lp.upper, self.rewrite)
            lower_uses_indices = bool(free_vars(lower) & index_set)
            if isinstance(lp.step, Const) and lp.step.value == 1:
                self.norm_names.append(lp.index)
                bounds.append((lower, upper))
            elif isinstance(lp.step, Const) and not lower_uses_indices:
                t = lp.index + "$t"
                self.norm_names.append(t)
                self.rewrite[lp.index] = add(lower,
                                             mul(lp.step, var(t)))
                # t >= 0 and l + s*t within the travel span; encoded later
                # via the span trick in _bound_constraints.
                bounds.append((lower, upper))
            else:
                # Symbolic step: iteration counting is opaque.  Rewrite
                # the index to a non-affine marker so every subscript or
                # bound mentioning it degrades conservatively.
                t = lp.index + "$t"
                self.norm_names.append(t)
                self.rewrite[lp.index] = call("opaque$step", var(t))
                self.opaque_levels.add(k)
                bounds.append(None)
        self._bounds = bounds
        # A subscript that reads a scalar with one straight-line
        # definition sees that definition folded; any other scalar may
        # hold another definition's or an earlier iteration's value: opaque.
        self._subscript_rewrite = dict(self.rewrite)
        self._unfolded = nest.defined_names() - defs.keys()
        for name in nest.defined_names():
            self._subscript_rewrite[name] = (
                substitute(defs[name], self.rewrite) if name in defs
                else call("opaque$scalar", var(name)))
        self._subscript_forms: Dict[Expr, Optional[Tuple[Coeffs, int]]] = {}
        # Names _affine_dict leaves bare that _suffix_var re-suffixes.
        self._iteration_vars = index_set | set(self.norm_names)
        self._direction_rows = {nm: _direction_rows(nm)
                                for nm in self.norm_names}
        self._shift = {f"{nm}$2": (f"{nm}$1", _distance_name(nm))
                       for nm in self.norm_names}

    @cached_property
    def _bound_rows(self) -> List[LinConstraint]:
        """The loop-bound rows of both iteration copies, built on the
        first pair and shared by every pair problem after it."""
        system = LinearSystem()
        self._bound_constraints(system, "$1")
        self._bound_constraints(system, "$2")
        return system.constraints

    @cached_property
    def _distance_bound_rows(self) -> List[LinConstraint]:
        """:attr:`_bound_rows` under ``x$2 = x$1 + x$d``, shared the
        same way."""
        return [_to_distance(row, self._shift) for row in self._bound_rows]

    def _bound_constraints(self, system: LinearSystem, suffix: str) -> None:
        for k, lp in enumerate(self.nest.loops):
            if k in self.opaque_levels:
                continue
            lower, upper = self._bounds[k]
            name = f"{self.norm_names[k]}{suffix}"
            step = lp.step.value  # const by construction here
            if step == 1:
                self._add_bound(system, lower, name, suffix, is_lower=True)
                self._add_bound(system, upper, name, suffix, is_lower=False)
            else:
                # t >= 0 ; span - |s| t >= 0.
                system.add_ge({name: 1}, 0)
                if step > 0:
                    span = add(upper, mul(Const(-1), lower))
                else:
                    span = add(lower, mul(Const(-1), upper))
                parsed = _affine_dict(span, self.norm_names, "",
                                      self.invariants)
                if parsed is None:
                    continue
                coeffs, const = parsed
                coeffs = {self._suffix_var(v, suffix): c
                          for v, c in coeffs.items()}
                coeffs[name] = coeffs.get(name, 0) - abs(step)
                system.add_ge(coeffs, const)

    def _suffix_var(self, v: str, suffix: str) -> str:
        # _affine_dict with empty suffix leaves iteration vars bare;
        # re-suffix them, leaving invariants alone.
        if v in self._iteration_vars:
            return f"{v}{suffix}"
        return v

    def _add_bound(self, system: LinearSystem, expr: Expr, name: str,
                   suffix: str, is_lower: bool) -> None:
        terms: Tuple[Expr, ...]
        if is_lower and isinstance(expr, Max):
            terms = expr.args
        elif not is_lower and isinstance(expr, Min):
            terms = expr.args
        elif isinstance(expr, (Max, Min)):
            return  # wrong-direction minmax: skip (conservative)
        else:
            terms = (expr,)
        for term in terms:
            rewritten = substitute(term, self.rewrite)
            parsed = _affine_dict(rewritten, self.norm_names, "",
                                  self.invariants)
            if parsed is None:
                continue  # non-affine bound: skip (conservative)
            term_coeffs, const = parsed
            term_coeffs = {self._suffix_var(v, suffix): c
                           for v, c in term_coeffs.items()}
            if is_lower:
                # x - term >= 0
                coeffs = {v: -c for v, c in term_coeffs.items()}
                coeffs[name] = coeffs.get(name, 0) + 1
                system.add_ge(coeffs, -const)
            else:
                # term - x >= 0
                coeffs = dict(term_coeffs)
                coeffs[name] = coeffs.get(name, 0) - 1
                system.add_ge(coeffs, const)

    # -- ranges for the Banerjee tier --------------------------------------------

    @cached_property
    def _const_ranges(self) -> Dict[str, Tuple]:
        out: Dict[str, Tuple] = {}
        for k, lp in enumerate(self.nest.loops):
            if k in self.opaque_levels:
                out[self.norm_names[k]] = (None, None)
                continue
            lower, upper = self._bounds[k]
            step = lp.step.value
            if step == 1:
                lo = lower.value if isinstance(lower, Const) else None
                hi = upper.value if isinstance(upper, Const) else None
            else:
                lo = 0
                hi = None
                if isinstance(lower, Const) and isinstance(upper, Const):
                    span = (upper.value - lower.value if step > 0
                            else lower.value - upper.value)
                    hi = span // abs(step)
            out[self.norm_names[k]] = (lo, hi)
        return out

    # -- per-pair problem construction ------------------------------------------------

    def _subscript_form(self, sub: Expr) -> Optional[Tuple[Coeffs, int]]:
        """*sub* under the subscript rewrite as :func:`_affine_dict` reads
        it, computed once per analyzer: every pair that has *sub* on
        one side reuses it."""
        forms = self._subscript_forms
        if sub not in forms:
            forms[sub] = _affine_dict(substitute(sub, self._subscript_rewrite),
                                      self.norm_names, "", self.invariants)
        return forms[sub]

    def _build_problem(self, src: ArrayAccess,
                       dst: ArrayAccess) -> Optional[_PairProblem]:
        equalities: List[Equality] = []
        for f, g in zip(src.subscripts, dst.subscripts):
            fa = self._subscript_form(f)
            ga = self._subscript_form(g)
            if fa is None or ga is None:
                continue  # non-affine dimension contributes no constraint
            coeffs: Coeffs = {}
            for v, c in fa[0].items():
                key = self._suffix_var(v, "$1")
                coeffs[key] = coeffs.get(key, 0) + c
            for v, c in ga[0].items():
                key = self._suffix_var(v, "$2")
                coeffs[key] = coeffs.get(key, 0) - c
            equalities.append(Equality(coeffs, fa[1] - ga[1]))

        system = LinearSystem()
        for eq in equalities:
            system.add_eq(dict(eq.coeffs), eq.const)
        distance_base = [_to_distance(row, self._shift)
                         for row in system.constraints]
        distance_base.extend(self._distance_bound_rows)
        system.constraints.extend(self._bound_rows)
        return _PairProblem(equalities, system, distance_base,
                            self.norm_names, self._const_ranges,
                            self.opaque_levels, self._direction_rows)

    # -- the direction-vector hierarchy -------------------------------------------------

    def _feasible(self, problem: _PairProblem,
                  directions: Dict[str, str]) -> bool:
        # Test-ladder accounting: which tier refutes each direction-vector
        # node (gcd, then banerjee, then exact FM) — the per-tier counters
        # show how much work the cheap tiers save the expensive ones.
        observing = _obs.enabled()
        metrics = get_metrics() if observing else None
        if not problem.gcd_passes:
            if observing:
                metrics.counter("deps.refuted.gcd").inc()
            return False
        if self.level == "gcd":
            if observing:
                metrics.counter("deps.feasible").inc()
            return True
        for form in problem.banerjee_forms:
            if not form.passes(directions):
                if observing:
                    metrics.counter("deps.refuted.banerjee").inc()
                return False
        if self.level == "banerjee":
            if observing:
                metrics.counter("deps.feasible").inc()
            return True
        answer = problem.interval_answer(directions)
        if answer is None:
            system = problem.with_directions(directions)
            feasible = system is None or system.is_feasible()
        else:
            feasible = answer is not False
        if observing:
            metrics.counter("deps.feasible" if feasible
                            else "deps.refuted.fm").inc()
        return feasible

    def _refine_entry(self, problem: _PairProblem,
                      directions: Dict[str, str], name: str) -> DepEntry:
        code = directions[name]
        base = {"+": DepEntry.direction("+"),
                "-": DepEntry.direction("-"),
                "*": DepEntry.direction("*"),
                "0": DepEntry.distance(0)}[code]
        if code == "*":
            return base
        if self.level != "fm" or code == "0":
            return base
        d = _distance_name(name)
        answer = problem.interval_answer(directions)
        if answer is None:
            system = problem.with_directions(directions)
            if system is None:
                return base
            lo, hi = system.bounds_of(d)
        else:  # a feasible leaf's box
            lo, hi = answer[0].get(d), answer[1].get(d)
        if lo is not None and lo == hi and type(lo) is int:
            return DepEntry.distance(lo)
        return base

    def _enumerate(self, problem: _PairProblem) -> List[DepVector]:
        out: List[DepVector] = []
        self._descend(problem, 0, {}, True, out)
        return out

    def _descend(self, problem: _PairProblem, level: int,
                 directions: Dict[str, str], zero_prefix: bool,
                 out: List[DepVector]) -> None:
        """Append to *out* the feasible direction vectors that extend
        *directions* (fixed for the first *level* indices), depth first.
        A method, not a closure over itself: a self-referencing closure
        is a reference cycle that holds the whole pair problem until the
        cyclic collector runs."""
        names = problem.index_names
        if level == self.n:
            if zero_prefix:
                return  # all-zero: loop-independent, not reported
            entries = [self._refine_entry(problem, directions, nm)
                       for nm in names]
            out.append(DepVector(entries))
            return
        name = names[level]
        if level in problem.opaque_levels:
            # No constraints exist on an opaque level: emit the
            # lex-nonnegative cover for it directly.
            choices = ["0", "+"] if zero_prefix else ["*"]
        else:
            choices = (["0", "+"] if zero_prefix else ["0", "+", "-"])
        for code in choices:
            directions[name] = code
            if self._feasible(problem, directions):
                self._descend(problem, level + 1, directions,
                              zero_prefix and code == "0", out)
        del directions[name]

    def _scalar_accesses(self) -> List[ArrayAccess]:
        """Zero-subscript accesses of every assigned scalar that does not
        fold (:meth:`~repro.ir.loopnest.LoopNest.scalar_definitions`):
        per statement, its reads of them, then its write.  Such a scalar
        may carry a value from one iteration into another, and with no
        subscript to equate, its pairs take the conservative cover."""
        out: List[ArrayAccess] = []
        if not self._unfolded:
            return out
        for pos, stmt in self.nest.statements():
            read = set().union(*map(free_vars, stmt.expressions()))
            out.extend(ArrayAccess(name, (), False, pos)
                       for name in sorted(read & self._unfolded))
            if isinstance(stmt, InitStmt) and stmt.var in self._unfolded:
                out.append(ArrayAccess(stmt.var, (), True, pos))
        return out

    # -- public API ----------------------------------------------------------------------

    def analyze(self) -> DepSet:
        vectors: List[DepVector] = []
        for pair in self.explain():
            vectors.extend(pair.vectors)
        return DepSet([v.coarsen() for v in vectors])

    def explain(self) -> List["PairReport"]:
        """Per-access-pair breakdown of the analysis (what `analyze`
        aggregates): the references involved, how many affine subscript
        equalities constrained the pair, whether the conservative
        lex-positive cover had to be used, and the resulting vectors."""
        with _obs.span("deps.analyze", level=self.level, depth=self.n):
            accesses = self.nest.accesses(
                self.nest.array_names() | self.arrays)
            accesses += self._scalar_accesses()
            reports: List[PairReport] = []
            # Pair problems solved in this call, by base-row key set
            # (see the module docstring for why reuse is exact).
            solved: Dict[frozenset, List[DepVector]] = {}
            reused = 0
            for src, dst in dependence_candidate_pairs(accesses):
                problem = self._build_problem(src, dst)
                if problem is None or not problem.equalities:
                    reports.append(PairReport(
                        src, dst, 0, True, _conservative_cover(self.n)))
                    continue
                key = frozenset(c.key() for c in problem.base.constraints)
                vectors = solved.get(key)
                if vectors is None:
                    vectors = solved[key] = self._enumerate(problem)
                else:
                    reused += 1
                reports.append(PairReport(
                    src, dst, len(problem.equalities), False, list(vectors)))
        if _obs.enabled():
            metrics = get_metrics()
            metrics.counter("deps.pairs").inc(len(reports))
            metrics.counter("deps.pairs_conservative").inc(
                sum(1 for r in reports if r.conservative))
            metrics.counter("deps.pairs_reused").inc(reused)
        return reports


class PairReport:
    """One access pair's analysis outcome (see
    :meth:`DependenceAnalyzer.explain`)."""

    __slots__ = ("src", "dst", "equalities", "conservative", "vectors")

    def __init__(self, src, dst, equalities: int, conservative: bool,
                 vectors: List[DepVector]):
        self.src = src
        self.dst = dst
        self.equalities = equalities
        self.conservative = conservative
        self.vectors = vectors

    def __repr__(self):
        tag = "conservative" if self.conservative else \
            f"{self.equalities} equalities"
        vecs = ", ".join(str(v) for v in self.vectors) or "none"
        return f"PairReport({self.src} -> {self.dst}; {tag}; {vecs})"


def _conservative_cover(n: int) -> List[DepVector]:
    """The lex-positive cover: (+,*,..), (0,+,*,..), ..., (0,..,0,+)."""
    out = []
    for p in range(n):
        entries = ([DepEntry.distance(0)] * p + [DepEntry.direction("+")] +
                   [DepEntry.direction("*")] * (n - p - 1))
        out.append(DepVector(entries))
    return out


def analyze(nest: LoopNest, arrays: Optional[Iterable[str]] = None,
            level: str = "fm") -> DepSet:
    """Analyze *nest* and return its dependence-vector set."""
    from repro.resilience import chaos
    chaos.inject("deps.analysis")
    return DependenceAnalyzer(nest, arrays=arrays, level=level).analyze()
