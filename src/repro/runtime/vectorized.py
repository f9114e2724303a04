"""Vectorized NumPy execution: the third engine behind the interpreter.

:class:`~repro.runtime.compiled.CompiledNest` lowers a nest to Python
loops (14-35x over the interpreter on the four example kernels, untraced,
on a 2-core x86-64); this module lowers the *same
transformed IR* to NumPy whole-array expressions.  The innermost run of
dense loops (the *suffix*) becomes one kernel launch per surrounding
(*prefix*) iteration: affine subscripts become broadcast index vectors,
a suffix index missing from the assignment target becomes a summed
reduction axis, and ``pardo`` prefix loops fan out over a
``concurrent.futures`` thread pool (NumPy releases the GIL in ufuncs).

The engine is *never wrong, only slower*: any statement the planner
cannot prove safe — non-affine subscripts, a loop-carried dependence
inside the vectorized suffix, ``sgn``/relational calls, guarded
statements — falls back to the compiled engine, either per statement
group (legal fission by array-name interference) or for the whole run.
Runtime guards do the same for inputs NumPy's int64 cannot represent
faithfully (non-integer data, provable overflow risk, unbounded or
oversized dense extents), and trace-producing runs delegate entirely so
traces stay bit-identical to the interpreter's.

Differential tests compare final arrays against the interpreter oracle
for every example nest under every :class:`Schedule` policy, exactly as
PR 1 did for ``CompiledNest``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.expr.linear import affine_form
from repro.expr.nodes import (Add, Call, CeilDiv, Const, Expr, FloorDiv, Max,
                              Min, Mod, Mul, Var, builtin, children,
                              contains_call, evaluate, free_vars,
                              subexpressions, substitute)
from repro.ir.loopnest import Assign, If, InitStmt, Loop, LoopNest, PARDO
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.runtime.arrays import Array
from repro.runtime.compiled import CompiledNest, CompiledNestCache
from repro.runtime.interpreter import ExecutionResult, Schedule
from repro.util.errors import ReproError
from repro.util.intmath import sign

try:  # NumPy is an optional dependency; everything degrades gracefully.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via tests' fake-absence
    _np = None

#: Largest dense backing array the engine will materialize (elements).
DENSE_ELEMENT_CAP = 1 << 24
#: Largest single kernel grid (elements), bounding temporary memory.
GRID_ELEMENT_CAP = 1 << 24
#: Values must provably stay below this for int64 arithmetic to be exact.
VALUE_CAP = 1 << 62

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def numpy_available() -> bool:
    """True when the optional NumPy dependency is importable."""
    return _np is not None


def _require_numpy() -> None:
    if _np is None:
        raise ReproError(
            "NumPy is not installed; the vectorized engine is unavailable "
            "(use the 'compiled' or 'interpreter' engine instead)")


# ---------------------------------------------------------------------------
# interval arithmetic over concrete symbol bindings


def _iv_mul(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


def _interval(e: Expr, ienv: Mapping[str, Tuple[int, int]]
              ) -> Optional[Tuple[int, int]]:
    """Conservative value interval of *e*, or None when unbounded (an
    unbound name, an array read, a division whose divisor may be 0)."""
    if isinstance(e, Const):
        return (e.value, e.value)
    if isinstance(e, Var):
        return ienv.get(e.name)
    if isinstance(e, Add):
        lo = hi = 0
        for t in e.terms:
            iv = _interval(t, ienv)
            if iv is None:
                return None
            lo, hi = lo + iv[0], hi + iv[1]
        return (lo, hi)
    if isinstance(e, Mul):
        acc = (1, 1)
        for f in e.factors:
            iv = _interval(f, ienv)
            if iv is None:
                return None
            acc = _iv_mul(acc, iv)
        return acc
    if isinstance(e, (FloorDiv, CeilDiv)):
        num = _interval(e.num, ienv)
        den = _interval(e.den, ienv)
        if num is None or den is None or den[0] <= 0 <= den[1]:
            return None
        from repro.util.intmath import ceil_div, floor_div
        op = floor_div if isinstance(e, FloorDiv) else ceil_div
        vals = [op(n, d) for n in num for d in den]
        return (min(vals), max(vals))
    if isinstance(e, Mod):
        den = _interval(e.den, ienv)
        if den is None or den[0] <= 0 <= den[1]:
            return None
        if den[0] > 0:  # floored mod takes the divisor's sign
            return (0, den[1] - 1)
        return (den[0] + 1, 0)
    if isinstance(e, Min):
        ivs = [_interval(a, ienv) for a in e.args]
        if any(iv is None for iv in ivs):
            return None
        return (min(iv[0] for iv in ivs), min(iv[1] for iv in ivs))
    if isinstance(e, Max):
        ivs = [_interval(a, ienv) for a in e.args]
        if any(iv is None for iv in ivs):
            return None
        return (max(iv[0] for iv in ivs), max(iv[1] for iv in ivs))
    return None  # Call (array read / function) or unknown node


class _Bail(Exception):
    """Internal: abandon planning, the whole run delegates to compiled."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# plan data model


class _VecStmt:
    """One vectorizable ``Assign`` with init statements substituted in."""

    __slots__ = ("pos", "target_name", "target_subs", "expr", "red_axes",
                 "accumulate", "target_vars")

    def __init__(self, pos: int, target_name: str,
                 target_subs: Tuple[Expr, ...], expr: Expr,
                 red_axes: Tuple[int, ...], accumulate: bool,
                 target_vars: Set[str]):
        self.pos = pos
        self.target_name = target_name
        self.target_subs = target_subs
        self.expr = expr
        self.red_axes = red_axes
        self.accumulate = accumulate
        self.target_vars = target_vars


class _VecGroup:
    """A fissioned statement group executed as NumPy kernels."""

    __slots__ = ("suffix_len", "stmts", "positions")

    def __init__(self, suffix_len: int, stmts: List[_VecStmt],
                 positions: List[int]):
        self.suffix_len = suffix_len
        self.stmts = stmts
        self.positions = positions


class _CompGroup:
    """A fissioned statement group delegated to the compiled engine."""

    __slots__ = ("positions", "reason")

    def __init__(self, positions: List[int], reason: str):
        self.positions = positions
        self.reason = reason


class _Plan:
    __slots__ = ("full_fallback", "vec_groups", "comp_groups", "reasons",
                 "extents", "ienv", "iter_bound", "grid_bound", "call_names",
                 "written", "read_only_arrays", "suffix_max")

    def __init__(self) -> None:
        self.full_fallback: Optional[str] = None
        self.vec_groups: List[_VecGroup] = []
        self.comp_groups: List[_CompGroup] = []
        self.reasons: List[str] = []
        self.extents: Dict[str, List[Tuple[int, int]]] = {}
        self.ienv: Dict[str, Tuple[int, int]] = {}
        self.iter_bound = 0
        self.grid_bound = 0
        self.call_names: Set[str] = set()
        self.written: Set[str] = set()
        self.read_only_arrays: Set[str] = set()
        self.suffix_max = 0


# ---------------------------------------------------------------------------
# planner


class _Planner:
    """Builds a :class:`_Plan` for one nest under concrete symbols.

    Planning is purely structural plus interval reasoning over the
    caller's symbol bindings; nothing here reads array data.  Every
    rejection records a reason so the fallback-rate counters and
    :meth:`VectorizedNest.describe` can explain lowering decisions.
    """

    def __init__(self, nest: LoopNest, symbols: Mapping[str, int],
                 funcs: Mapping[str, Callable[..., int]]):
        self.nest = nest
        self.symbols = symbols
        self.funcs = funcs
        self.plan = _Plan()

    def build(self) -> _Plan:
        plan = self.plan
        try:
            self._build()
        except _Bail as bail:
            plan.full_fallback = bail.reason
            plan.vec_groups = []
            plan.comp_groups = []
        return plan

    def _bail(self, reason: str) -> None:
        raise _Bail(reason)

    def _build(self) -> None:
        nest, plan = self.nest, self.plan
        self.arrays = nest.array_names(self.funcs)
        plan.call_names = {f for f, _ in nest.calls()} - self.arrays

        if not any(isinstance(s, (Assign, If)) for s in nest.body):
            self._bail("no-statements")
        for sym, val in self.symbols.items():
            if not isinstance(val, int):
                self._bail("non-integer-symbol")
            plan.ienv[sym] = (val, val)

        self._index_intervals()
        subst = self._fold_inits()
        self._structural_suffix()
        self._group(subst)
        if not plan.vec_groups:
            self._bail(plan.reasons[0] if plan.reasons
                       else "no-vectorizable-statements")
        plan.written = {nest.body[p].target.name
                        for g in plan.vec_groups for p in g.positions}
        plan.read_only_arrays = set(plan.extents) - plan.written

    # -- loop geometry -----------------------------------------------------

    def _index_intervals(self) -> None:
        """Per-loop index interval and trip-count bound; the product
        bounds the total iteration space, and grid_bound the largest
        kernel the maximal suffix could launch."""
        plan = self.plan
        init_vars = self.nest.defined_names()
        iter_bound = 1
        self.trip_bounds: List[int] = []
        for lp in self.nest.loops:
            for e in (lp.lower, lp.upper, lp.step):
                if contains_call(e):
                    self._bail("bound-reads-array")
                if free_vars(e) & init_vars:
                    self._bail("bound-reads-init-var")
            lo = _interval(lp.lower, plan.ienv)
            hi = _interval(lp.upper, plan.ienv)
            if lo is None or hi is None:
                self._bail("unbounded-loop")
            if isinstance(lp.step, Const):
                st = lp.step.value
                if st > 0:
                    trips = max(0, (hi[1] - lo[0]) // st + 1)
                else:
                    trips = max(0, (lo[1] - hi[0]) // (-st) + 1)
            else:
                stiv = _interval(lp.step, plan.ienv)
                if stiv is None:
                    self._bail("unbounded-loop")
                trips = max(0, hi[1] - lo[0] + 1, lo[1] - hi[0] + 1)
            span = (min(lo[0], hi[0]), max(lo[1], hi[1]))
            plan.ienv[lp.index] = span
            if not (_INT64_MIN < span[0] and span[1] < _INT64_MAX):
                self._bail("index-overflow")
            self.trip_bounds.append(trips)
            iter_bound *= trips
        plan.iter_bound = iter_bound

    def _structural_suffix(self) -> None:
        """Longest innermost run of constant-step loops whose bounds are
        free of suffix indices — the deepest legal vectorization."""
        loops = self.nest.loops
        best = 0
        for length in range(1, len(loops) + 1):
            suffix = loops[len(loops) - length:]
            names = {lp.index for lp in suffix}
            ok = all(
                isinstance(lp.step, Const) and
                not ((free_vars(lp.lower) | free_vars(lp.upper)) & names)
                for lp in suffix)
            if not ok:
                break
            best = length
        self.plan.suffix_max = best
        grid = 1
        for t in self.trip_bounds[len(loops) - best:]:
            grid *= t
        self.plan.grid_bound = grid
        if best == 0:
            self._bail("no-constant-step-suffix")

    # -- init-statement folding --------------------------------------------

    def _fold_inits(self) -> Dict[int, Tuple[Tuple[Expr, ...], Expr]]:
        """Substitute the nest's straight-line scalar definitions into
        each Assign, returning per-position (target subs, expr).

        Any other scalar flow (a variable defined under an ``if``,
        redefined, shadowing a loop index, or read before its definition)
        bails out to the compiled engine for the whole run.
        """
        nest = self.nest
        defs = nest.scalar_definitions()
        if nest.defined_names() - defs.keys():
            self._bail("scalar-flow")
        return {pos: (tuple(substitute(x, defs) for x in s.target.subscripts),
                      substitute(s.expr, defs))
                for pos, s in enumerate(nest.body) if isinstance(s, Assign)}

    # -- fission into independent statement groups --------------------------

    def _group(self, folded: Dict[int, Tuple[Tuple[Expr, ...], Expr]]
               ) -> None:
        """Union statements that share an array with a write (legal
        fission boundary), then plan each component independently:
        vectorize at the deepest suffix that passes, else delegate the
        component to the compiled engine."""
        nest, plan = self.nest, self.plan
        members = [pos for pos, s in enumerate(nest.body)
                   if not isinstance(s, InitStmt)]
        # Per statement, (arrays read, arrays written), name-level.
        names = {pos: (set(), set()) for pos in members}
        for access in nest.accesses(self.arrays):
            if access.stmt_index in names:
                names[access.stmt_index][access.is_write].add(access.array)
        parent = {pos: pos for pos in members}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, a in enumerate(members):
            ra, wa = names[a]
            for b in members[i + 1:]:
                rb, wb = names[b]
                if (wa & (rb | wb)) or (wb & ra):
                    parent[find(a)] = find(b)

        comps: Dict[int, List[int]] = {}
        for pos in members:
            comps.setdefault(find(pos), []).append(pos)

        for positions in sorted(comps.values(), key=lambda ps: ps[0]):
            group = self._plan_group(positions, folded)
            if isinstance(group, _VecGroup):
                plan.vec_groups.append(group)
            else:
                plan.comp_groups.append(group)

    def _plan_group(self, positions: List[int],
                    folded: Dict[int, Tuple[Tuple[Expr, ...], Expr]]):
        nest, plan = self.nest, self.plan
        for pos in positions:
            if not isinstance(nest.body[pos], Assign):
                plan.reasons.append("guarded-statement")
                return _CompGroup(positions, "guarded-statement")
        reason = "unvectorizable"
        for length in range(plan.suffix_max, 0, -1):
            suffix = list(nest.indices[nest.depth - length:])
            stmts: List[_VecStmt] = []
            failed: Optional[str] = None
            for pos in positions:
                out = self._classify(pos, folded[pos], suffix)
                if isinstance(out, str):
                    failed = out
                    break
                stmts.append(out)
            if failed is None:
                failed = self._check_group_deps(stmts, suffix)
            if failed is None:
                for vs in stmts:
                    self._record_extents(vs, suffix)
                return _VecGroup(length, stmts, positions)
            reason = failed
        plan.reasons.append(reason)
        return _CompGroup(positions, reason)

    # -- per-statement classification ---------------------------------------

    def _classify(self, pos: int, sub_expr: Tuple[Tuple[Expr, ...], Expr],
                  suffix: List[str]):
        """A :class:`_VecStmt` for the Assign at *pos*, or a reason."""
        stmt = self.nest.body[pos]
        target_subs, expr = sub_expr
        target_vars: Set[str] = set()
        for sub in target_subs:
            af = affine_form(sub, suffix)
            if af is None:
                return "non-affine-subscript"
            if contains_call(af.rest):
                return "subscript-reads-array"
            if _interval(sub, self.plan.ienv) is None:
                return "unbounded-subscript"
            if len(af.coeffs) > 1:
                return "multi-index-target-dim"
            if af.coeffs:
                v = next(iter(af.coeffs))
                if v in target_vars:
                    return "reused-target-index"
                target_vars.add(v)
        red_axes = tuple(axis for axis, v in enumerate(suffix)
                         if v not in target_vars)
        if red_axes and not stmt.accumulate:
            return "reduction-without-accumulate"
        bad = self._check_expr(expr, suffix)
        if bad is not None:
            return bad
        return _VecStmt(pos, stmt.target.name, target_subs, expr,
                        red_axes, stmt.accumulate, target_vars)

    def _check_expr(self, e: Expr, suffix: List[str]) -> Optional[str]:
        if isinstance(e, Call):
            if e.func in self.arrays:
                for sub in e.args:
                    af = affine_form(sub, suffix)
                    if af is None:
                        return "non-affine-subscript"
                    if contains_call(af.rest):
                        return "subscript-reads-array"
                    if _interval(sub, self.plan.ienv) is None:
                        return "unbounded-subscript"
                return None
            if e.func == "abs":
                bad = self._check_expr(e.args[0], suffix)
                if bad is not None:
                    return bad
                if any(free_vars(a) & set(suffix) or contains_call(a)
                       for a in e.args[1:]):
                    return "abs-extra-args"
                return None
            if builtin(e.func, len(e.args)):
                return "relational-call"
            return "user-func-call"
        if isinstance(e, (Const, Var, Add, Mul, FloorDiv, CeilDiv, Mod,
                          Min, Max)):
            for c in children(e):
                bad = self._check_expr(c, suffix)
                if bad is not None:
                    return bad
            return None
        return "unsupported-expr"

    # -- group-level dependence safety --------------------------------------

    def _disjoint(self, a_subs: Tuple[Expr, ...], b_subs: Tuple[Expr, ...],
                  suffix: List[str]) -> bool:
        """True when some dimension proves the two footprints can never
        collide across the whole suffix sweep: both index expressions
        are suffix-invariant there and their difference excludes 0."""
        if len(a_subs) != len(b_subs):
            return True  # different ranks never alias as dict keys
        wanted = set(suffix)
        for a, b in zip(a_subs, b_subs):
            if (free_vars(a) | free_vars(b)) & wanted:
                continue
            from repro.expr.nodes import add, mul
            diff = _interval(add(a, mul(Const(-1), b)), self.plan.ienv)
            if diff is not None and (diff[0] > 0 or diff[1] < 0):
                return True
        return False

    def _check_group_deps(self, stmts: List[_VecStmt],
                          suffix: List[str]) -> Optional[str]:
        """Reject loop-carried dependences inside the vectorized suffix.

        A read of an array some statement writes is safe only when it is
        *aligned* (structurally identical subscripts — it reads exactly
        the element the writer produced at the same iteration point) or
        provably *disjoint* from every writer's footprint.  A reduction
        target may not be read at all: its partial sums are never
        materialized per-iteration the way sequential execution orders
        them.
        """
        writers: Dict[str, List[_VecStmt]] = {}
        for vs in stmts:
            writers.setdefault(vs.target_name, []).append(vs)
        reduction_targets = {vs.target_name for vs in stmts if vs.red_axes}

        def check_read(e: Expr) -> Optional[str]:
            if isinstance(e, Call) and e.func in writers:
                if e.func in reduction_targets:
                    return "read-of-reduction-target"
                for w in writers[e.func]:
                    if tuple(e.args) == w.target_subs:
                        continue
                    if not self._disjoint(tuple(e.args), w.target_subs,
                                          suffix):
                        return "carried-dependence"
            for c in children(e):
                bad = check_read(c)
                if bad is not None:
                    return bad
            return None

        for vs in stmts:
            if vs.red_axes and any(
                    isinstance(c, Call) and c.func == vs.target_name
                    for c in subexpressions(vs.expr)):
                return "reduction-reads-target"
            bad = check_read(vs.expr)
            if bad is not None:
                return bad
            for sub in vs.target_subs:
                bad = check_read(sub)
                if bad is not None:
                    return bad
            for other in stmts:
                if other is vs or other.target_name != vs.target_name:
                    continue
                if other.target_subs == vs.target_subs:
                    continue
                if not self._disjoint(other.target_subs, vs.target_subs,
                                      suffix):
                    return "write-write-conflict"
        return None

    # -- dense extents -------------------------------------------------------

    def _record_extents(self, vs: _VecStmt, suffix: List[str]) -> None:
        refs = [(vs.target_name, vs.target_subs)] + [
            (c.func, c.args) for e in (vs.expr,) + vs.target_subs
            for c in subexpressions(e)
            if isinstance(c, Call) and c.func in self.arrays]
        for name, subs in refs:
            ivs = [_interval(sub, self.plan.ienv) for sub in subs]
            if any(iv is None for iv in ivs):
                self._bail("unbounded-extent")
            known = self.plan.extents.get(name)
            if known is None:
                self.plan.extents[name] = [iv for iv in ivs]  # type: ignore
            else:
                if len(known) != len(ivs):
                    self._bail("rank-mismatch")
                self.plan.extents[name] = [
                    (min(k[0], iv[0]), max(k[1], iv[1]))  # type: ignore
                    for k, iv in zip(known, ivs)]


# ---------------------------------------------------------------------------
# the engine


def _default_workers() -> int:
    env = os.environ.get("REPRO_VEC_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


class VectorizedNest:
    """A :class:`LoopNest` lowered to NumPy kernels, interpreter-true.

    Mirrors the :class:`~repro.runtime.compiled.CompiledNest` constructor
    and :meth:`run` contract.  Final arrays are value-identical to the
    interpreter's; iteration/address traces are produced by delegating
    the whole run to the compiled engine (vector kernels have no
    per-iteration event order to record), as are runs the planner or the
    runtime guards cannot prove exact.  Check :meth:`describe` for what
    was vectorized and why anything fell back.
    """

    def __init__(self, nest: LoopNest,
                 symbols: Optional[Mapping[str, int]] = None,
                 funcs: Optional[Mapping[str, Callable[..., int]]] = None,
                 schedule: Optional[Schedule] = None,
                 trace_vars: Optional[Sequence[str]] = None,
                 trace_addresses: bool = False,
                 max_iterations: Optional[int] = None,
                 workers: Optional[int] = None):
        _require_numpy()
        if max_iterations is None:
            from repro.resilience.guards import limits
            max_iterations = limits().max_iterations
        self.nest = nest
        self.symbols = dict(symbols or {})
        self.funcs = dict(funcs or {})
        self.schedule = schedule or Schedule()
        self.trace_vars = tuple(trace_vars) if trace_vars is not None else None
        self.trace_addresses = trace_addresses
        self.max_iterations = max_iterations
        self.workers = workers if workers is not None else _default_workers()
        self.fallback_runs = 0
        self.vectorized_runs = 0
        self._compiled_full: Optional[CompiledNest] = None
        self._group_engines: Dict[int, CompiledNest] = {}
        if self.trace_vars is not None or self.trace_addresses:
            self._plan = _Plan()
            self._plan.full_fallback = "tracing-requested"
        else:
            with _obs.span("vectorized.plan", depth=nest.depth):
                self._plan = _Planner(nest, self.symbols,
                                      self.funcs).build()
        if _obs.enabled():
            metrics = get_metrics()
            if self._plan.full_fallback:
                metrics.counter("vectorized.fallback."
                                + self._plan.full_fallback).inc()
            for reason in self._plan.reasons:
                metrics.counter("vectorized.fallback." + reason).inc()
            metrics.counter("vectorized.plans").inc()
            metrics.counter("vectorized.vector_groups").inc(
                len(self._plan.vec_groups))
            metrics.counter("vectorized.compiled_groups").inc(
                len(self._plan.comp_groups))

    # -- reporting ----------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """The lowering decision, for stats endpoints and curious users."""
        plan = self._plan
        return {
            "engine": "vectorized",
            "full_fallback": plan.full_fallback,
            "vector_groups": [
                {"statements": list(g.positions), "suffix_len": g.suffix_len}
                for g in plan.vec_groups],
            "compiled_groups": [
                {"statements": list(g.positions), "reason": g.reason}
                for g in plan.comp_groups],
            "fallback_reasons": list(plan.reasons),
            "runs": {"vectorized": self.vectorized_runs,
                     "fallback": self.fallback_runs},
        }

    # -- fallback engines ---------------------------------------------------

    def _full_engine(self) -> CompiledNest:
        if self._compiled_full is None:
            self._compiled_full = CompiledNest(
                self.nest, symbols=self.symbols, funcs=self.funcs,
                schedule=self.schedule, trace_vars=self.trace_vars,
                trace_addresses=self.trace_addresses,
                max_iterations=self.max_iterations)
        return self._compiled_full

    def _group_engine(self, idx: int, group: _CompGroup) -> CompiledNest:
        engine = self._group_engines.get(idx)
        if engine is None:
            keep = set(group.positions)
            body = tuple(s for pos, s in enumerate(self.nest.body)
                         if isinstance(s, InitStmt) or pos in keep)
            sub = LoopNest(self.nest.loops, body, self.nest.inits)
            engine = CompiledNest(
                sub, symbols=self.symbols, funcs=self.funcs,
                schedule=self.schedule,
                max_iterations=self.max_iterations)
            self._group_engines[idx] = engine
        return engine

    def _delegate(self, arrays: Mapping[str, Array],
                  schedule: Optional[Schedule],
                  reason: str) -> ExecutionResult:
        self.fallback_runs += 1
        if _obs.enabled():
            get_metrics().counter("vectorized.fallback_runs").inc()
            get_metrics().counter("vectorized.fallback." + reason).inc()
        return self._full_engine().run(arrays, schedule)

    # -- runtime guards -----------------------------------------------------

    def _guard(self, arrays: Mapping[str, Array]) -> Optional[str]:
        """Reason to delegate this particular run, or None to vectorize.
        On success ``self._prepared`` holds the inputs bulk-converted to
        NumPy (keys matrix, values vector, default, |value| bound) so
        the dense build never walks dicts in Python."""
        plan = self._plan
        self._prepared: Dict[str, Tuple] = {}
        if plan.full_fallback:
            return plan.full_fallback
        if set(arrays) & plan.call_names:
            return "array-shadows-call"
        if plan.grid_bound > GRID_ELEMENT_CAP:
            return "grid-cap"
        for name, dims in plan.extents.items():
            arr = arrays.get(name)
            if arr is None:
                self._prepared[name] = (None, None, 0, 0)
                continue
            default = arr.default
            if not isinstance(default, int) or isinstance(default, bool):
                return "non-integer-data"
            bound = abs(default)
            keys = vals = None
            if arr.data:
                try:
                    keys = _np.array(list(arr.data.keys()))
                    vals = _np.array(list(arr.data.values()))
                except (ValueError, TypeError):
                    return "key-shape"
                if (keys.ndim != 2 or keys.shape[1] != len(dims)
                        or keys.dtype.kind != "i"):
                    return "key-shape"
                if vals.dtype.kind != "i" or vals.dtype.itemsize > 8:
                    return "non-integer-data"
                bound = max(bound, int(_np.abs(vals).max()))
            self._prepared[name] = (keys, vals, default, bound)
        return self._overflow_guard(arrays)

    def _overflow_guard(self, arrays: Mapping[str, Array]) -> Optional[str]:
        """Prove every intermediate fits int64, or delegate.

        Each statement's value is bounded as an affine function
        ``c0 + c1*V`` of the running bound ``V`` on vectorized-written
        arrays (reads of read-only arrays and indices contribute
        constants).  Writes form the recurrence ``V' = c0 + c1_eff*V``
        over at most ``iter_bound`` generations, solved in log space; a
        nonlinear feedback term (written-array reads multiplied
        together) is unbounded here and delegates.
        """
        plan = self._plan
        v0: Dict[str, int] = {name: prep[3]
                              for name, prep in self._prepared.items()}
        idx_bound = 1
        for lo, hi in plan.ienv.values():
            idx_bound = max(idx_bound, abs(lo), abs(hi))
        if idx_bound >= VALUE_CAP:
            return "overflow-risk"

        def mag(e: Expr, nodes: List[Tuple[int, int]]
                ) -> Optional[Tuple[int, int]]:
            if isinstance(e, Const):
                out: Optional[Tuple[int, int]] = (abs(e.value), 0)
            elif isinstance(e, Var):
                iv = plan.ienv.get(e.name)
                if iv is None:
                    return None
                out = (max(abs(iv[0]), abs(iv[1])), 0)
            elif isinstance(e, Add):
                c0 = c1 = 0
                for t in e.terms:
                    m = mag(t, nodes)
                    if m is None:
                        return None
                    c0, c1 = c0 + m[0], c1 + m[1]
                out = (c0, c1)
            elif isinstance(e, Mul):
                c0, c1 = 1, 0
                for f in e.factors:
                    m = mag(f, nodes)
                    if m is None:
                        return None
                    if c1 and m[1]:
                        return None  # quadratic feedback: unbounded here
                    c0, c1 = c0 * m[0], c0 * m[1] + c1 * m[0]
                out = (c0, c1)
            elif isinstance(e, (FloorDiv, CeilDiv)):
                m = mag(e.num, nodes)
                d = mag(e.den, nodes)
                if m is None or d is None:
                    return None
                out = (max(m[0], 1), m[1])
            elif isinstance(e, Mod):
                m = mag(e.num, nodes)
                d = mag(e.den, nodes)
                if m is None or d is None:
                    return None
                out = d
            elif isinstance(e, (Min, Max)):
                c0 = c1 = 0
                for a in e.args:
                    m = mag(a, nodes)
                    if m is None:
                        return None
                    c0, c1 = max(c0, m[0]), max(c1, m[1])
                out = (c0, c1)
            elif isinstance(e, Call):
                for a in e.args:
                    if mag(a, nodes) is None:
                        return None
                if e.func in plan.written:
                    out = (0, 1)
                elif e.func in plan.extents:
                    out = (v0.get(e.func, 0), 0)
                else:  # abs(...) — bounded by its first argument
                    out = mag(e.args[0], nodes)
                    if out is None:
                        return None
            else:
                return None
            nodes.append(out)
            return out

        all_nodes: List[Tuple[int, int]] = []
        c0_max, c1_max = 0, 1
        for group in plan.vec_groups:
            for vs in group.stmts:
                m = mag(vs.expr, all_nodes)
                if m is None:
                    return "overflow-risk"
                for sub in vs.target_subs:
                    if mag(sub, all_nodes) is None:
                        return "overflow-risk"
                c0, c1 = m
                if vs.red_axes:
                    red_bound = max(1, plan.grid_bound)
                    c0, c1 = c0 * red_bound, c1 * red_bound
                if vs.accumulate:
                    c1 += 1
                c0_max = max(c0_max, c0)
                c1_max = max(c1_max, max(1, c1))

        v_start = max([1, idx_bound] + list(v0.values()))
        gens = max(1, plan.iter_bound)
        if c1_max <= 1:
            v_final = v_start + gens * c0_max
        else:
            bits = gens * math.log2(c1_max)
            if bits > 128:
                return "overflow-risk"
            v_final = (c1_max ** gens) * (v_start + c0_max)
        if v_final >= VALUE_CAP:
            return "overflow-risk"
        for c0, c1 in all_nodes:
            if c0 + c1 * v_final >= VALUE_CAP:
                return "overflow-risk"
        return None

    # -- execution ----------------------------------------------------------

    def run(self, arrays: Mapping[str, Array],
            schedule: Optional[Schedule] = None) -> ExecutionResult:
        """Execute on copies of *arrays*; the inputs are not mutated."""
        reason = self._guard(arrays)
        if reason is not None:
            return self._delegate(arrays, schedule, reason)
        plan = self._plan
        with _obs.span("vectorized.run", depth=self.nest.depth,
                       groups=len(plan.vec_groups)):
            extents = self._merged_extents(arrays)
            if extents is None:
                return self._delegate(arrays, schedule, "extent-cap")
            dense, offsets = self._build_dense(arrays, extents)

            out: Dict[str, Array] = {}
            count: Optional[int] = None
            for idx, group in enumerate(plan.comp_groups):
                result = self._group_engine(idx, group).run(arrays, schedule)
                out.update(result.arrays)
                if count is None:
                    count = result.body_count
            launches = [0]
            for group in plan.vec_groups:
                got = self._exec_group(group, dense, offsets,
                                       counting=count is None,
                                       launches=launches)
                if count is None:
                    count = got
            for name in plan.written:
                out[name] = self._write_back(name, dense[name],
                                             offsets[name])
            for name, arr in arrays.items():
                if name not in out:
                    out[name] = arr.copy()
        self.vectorized_runs += 1
        if _obs.enabled():
            metrics = get_metrics()
            metrics.counter("vectorized.runs").inc()
            metrics.counter("vectorized.iterations").inc(count or 0)
            metrics.counter("vectorized.kernel_launches").inc(launches[0])
        return ExecutionResult(out, None, None, count or 0)

    def _merged_extents(self, arrays: Mapping[str, Array]
                        ) -> Optional[Dict[str, List[Tuple[int, int]]]]:
        """Planned extents widened by the input arrays' actual keys."""
        merged: Dict[str, List[Tuple[int, int]]] = {}
        for name, dims in self._plan.extents.items():
            dims = list(dims)
            keys = self._prepared[name][0]
            if keys is not None and keys.size:
                kmin = keys.min(axis=0).tolist()
                kmax = keys.max(axis=0).tolist()
                dims = [(min(lo, kl), max(hi, kh))
                        for (lo, hi), kl, kh in zip(dims, kmin, kmax)]
            cells = 1
            for lo, hi in dims:
                cells *= (hi - lo + 1)
            if cells > DENSE_ELEMENT_CAP:
                return None
            merged[name] = dims
        return merged

    def _build_dense(self, arrays: Mapping[str, Array],
                     extents: Dict[str, List[Tuple[int, int]]]):
        dense: Dict[str, "_np.ndarray"] = {}
        offsets: Dict[str, Tuple[int, ...]] = {}
        for name, dims in extents.items():
            shape = tuple(hi - lo + 1 for lo, hi in dims)
            offs = tuple(lo for lo, _ in dims)
            keys, vals, default, _ = self._prepared[name]
            arr = _np.full(shape, default, dtype=_np.int64)
            if keys is not None and keys.size:
                shifted = keys - _np.array(offs, dtype=_np.int64)
                arr[tuple(shifted.T)] = vals
            dense[name] = arr
            offsets[name] = offs
        return dense, offsets

    def _write_back(self, name: str, arr: "_np.ndarray",
                    offs: Tuple[int, ...]) -> Array:
        default = self._prepared[name][2]
        hot = arr != default
        # One list per axis, zipped into key tuples: the same keys in the
        # same (row-major) order as argwhere rows, without a tuple() call
        # per cell.
        keys = zip(*((ax + off if off else ax).tolist()
                     for ax, off in zip(hot.nonzero(), offs)))
        data: Dict[Tuple[int, ...], int] = dict(zip(keys, arr[hot].tolist()))
        return Array(default, name, data)

    # -- prefix walk + kernel launch ----------------------------------------

    def _exec_group(self, group: _VecGroup, dense, offsets,
                    counting: bool, launches: List[int]) -> int:
        depth = self.nest.depth
        prefix = self.nest.loops[:depth - group.suffix_len]
        suffix = self.nest.loops[depth - group.suffix_len:]
        env: Dict[str, int] = dict(self.symbols)
        total = self._walk(group, prefix, suffix, 0, env, dense, offsets,
                           counting, launches)
        if counting and total > self.max_iterations:
            raise ReproError(
                f"interpreter exceeded {self.max_iterations} iterations")
        return total

    def _walk(self, group: _VecGroup, prefix: Tuple[Loop, ...],
              suffix: Tuple[Loop, ...], level: int, env: Dict[str, int],
              dense, offsets, counting: bool, launches: List[int]) -> int:
        if level == len(prefix):
            return self._launch(group, suffix, env, dense, offsets, launches)
        lp = prefix[level]
        lo = evaluate(lp.lower, env)
        hi = evaluate(lp.upper, env)
        st = evaluate(lp.step, env)
        if st == 0:
            raise ReproError(f"loop {lp.index} has zero step at run time")
        values = range(lo, hi + sign(st), st)
        if (level == 0 and lp.kind == PARDO and self.workers > 1
                and len(values) > 1):
            return self._walk_pardo(group, prefix, suffix, lp, list(values),
                                    env, dense, offsets, counting, launches)
        total = 0
        for v in values:
            env[lp.index] = v
            total += self._walk(group, prefix, suffix, level + 1, env,
                                dense, offsets, counting, launches)
            if counting and total > self.max_iterations:
                raise ReproError(
                    f"interpreter exceeded {self.max_iterations} iterations")
        env.pop(lp.index, None)
        return total

    def _walk_pardo(self, group: _VecGroup, prefix, suffix, lp: Loop,
                    values: List[int], env: Dict[str, int], dense, offsets,
                    counting: bool, launches: List[int]) -> int:
        """Chunk a parallel outermost prefix loop over a thread pool.

        Legal ``pardo`` iterations are independent, so contiguous chunks
        write disjoint dense regions; NumPy kernels release the GIL, so
        the chunks genuinely overlap.
        """
        chunk_count = min(self.workers, len(values))
        size = -(-len(values) // chunk_count)
        chunks = [values[i:i + size] for i in range(0, len(values), size)]

        def run_chunk(chunk: List[int]) -> Tuple[int, int]:
            local_env = dict(env)
            local_launches = [0]
            total = 0
            for v in chunk:
                local_env[lp.index] = v
                total += self._walk(group, prefix, suffix, 1, local_env,
                                    dense, offsets, False, local_launches)
            return total, local_launches[0]

        with _obs.span("vectorized.pardo", chunks=len(chunks)):
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                results = list(pool.map(run_chunk, chunks))
        launches[0] += sum(n for _, n in results)
        if _obs.enabled():
            get_metrics().counter("vectorized.pardo_chunks").inc(len(chunks))
        return sum(t for t, _ in results)

    def _launch(self, group: _VecGroup, suffix: Tuple[Loop, ...],
                env: Dict[str, int], dense, offsets,
                launches: List[int]) -> int:
        """Run every kernel in the group once for the current prefix
        point.  Suffix bounds evaluate outer-to-inner and a zero-trip
        axis short-circuits, preserving the interpreter's laziness about
        names referenced only inside never-entered loops."""
        length = len(suffix)
        idxs: Dict[str, "_np.ndarray"] = {}
        cells = 1
        for axis, lp in enumerate(suffix):
            lo = evaluate(lp.lower, env)
            hi = evaluate(lp.upper, env)
            st = lp.step.value  # suffix steps are Const by construction
            trips = len(range(lo, hi + sign(st), st))
            if trips == 0:
                return 0
            shape = [1] * length
            shape[axis] = trips
            idxs[lp.index] = (_np.arange(trips, dtype=_np.int64) * st
                              + lo).reshape(shape)
            cells *= trips
        grid_shape = tuple(max(idxs[lp.index].shape) for lp in suffix)
        for vs in group.stmts:
            self._kernel(vs, env, idxs, dense, offsets, grid_shape)
        launches[0] += 1
        return cells

    def _kernel(self, vs: _VecStmt, env: Dict[str, int],
                idxs: Dict[str, "_np.ndarray"], dense, offsets,
                grid_shape: Tuple[int, ...]) -> None:
        rhs = self._veval(vs.expr, env, idxs, dense, offsets)
        if vs.red_axes:
            rhs = _np.broadcast_to(_np.asarray(rhs, dtype=_np.int64),
                                   grid_shape)
            rhs = rhs.sum(axis=vs.red_axes, keepdims=True)
        target = dense[vs.target_name]
        offs = offsets[vs.target_name]
        index = tuple(
            self._veval(sub, env, idxs, dense, offsets) - off
            for sub, off in zip(vs.target_subs, offs))
        if vs.accumulate:
            target[index] += rhs
        else:
            target[index] = rhs

    def _veval(self, e: Expr, env: Dict[str, int],
               idxs: Dict[str, "_np.ndarray"], dense, offsets):
        """Evaluate an expression to an int or a broadcastable ndarray."""
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            got = idxs.get(e.name)
            if got is not None:
                return got
            try:
                return env[e.name]
            except KeyError:
                raise NameError(f"unbound variable {e.name!r}") from None
        if isinstance(e, Add):
            total = 0
            for t in e.terms:
                total = total + self._veval(t, env, idxs, dense, offsets)
            return total
        if isinstance(e, Mul):
            result = 1
            for f in e.factors:
                result = result * self._veval(f, env, idxs, dense, offsets)
            return result
        if isinstance(e, (FloorDiv, CeilDiv)):
            num = self._veval(e.num, env, idxs, dense, offsets)
            den = self._veval(e.den, env, idxs, dense, offsets)
            _check_nonzero(den, "floor_div" if isinstance(e, FloorDiv)
                           else "ceil_div")
            if isinstance(e, FloorDiv):
                return num // den
            return -((-num) // den)
        if isinstance(e, Mod):
            num = self._veval(e.num, env, idxs, dense, offsets)
            den = self._veval(e.den, env, idxs, dense, offsets)
            _check_nonzero(den, "floor_div")
            return num - den * (num // den)
        if isinstance(e, Min):
            vals = [self._veval(a, env, idxs, dense, offsets)
                    for a in e.args]
            result = vals[0]
            for v in vals[1:]:
                result = _np.minimum(result, v)
            return result
        if isinstance(e, Max):
            vals = [self._veval(a, env, idxs, dense, offsets)
                    for a in e.args]
            result = vals[0]
            for v in vals[1:]:
                result = _np.maximum(result, v)
            return result
        if isinstance(e, Call):
            if e.func in dense:
                offs = offsets[e.func]
                index = tuple(
                    self._veval(a, env, idxs, dense, offsets) - off
                    for a, off in zip(e.args, offs))
                return dense[e.func][index]
            # abs is the only callable the planner admits besides arrays.
            args = [self._veval(a, env, idxs, dense, offsets)
                    for a in e.args]
            return _np.abs(args[0])
        raise ReproError(f"vectorized engine cannot evaluate {e!r}")


def _check_nonzero(den, what: str) -> None:
    if isinstance(den, int):
        if den == 0:
            raise ZeroDivisionError(f"{what} by zero")
    elif not den.all():
        raise ZeroDivisionError(f"{what} by zero")


class VectorizedNestCache(CompiledNestCache):
    """A bounded LRU of :class:`VectorizedNest` engines keyed by nest
    content — the vectorized twin of :class:`CompiledNestCache`, which
    supplies all the keying/eviction machinery via its ``factory`` hook.
    """

    def __init__(self, max_entries: int = 64):
        _require_numpy()
        super().__init__(max_entries=max_entries, factory=VectorizedNest)


def run_vectorized(nest: LoopNest, arrays: Mapping[str, Array],
                   symbols: Optional[Mapping[str, int]] = None,
                   funcs: Optional[Mapping[str, Callable[..., int]]] = None,
                   schedule: Optional[Schedule] = None,
                   workers: Optional[int] = None) -> ExecutionResult:
    """One-shot convenience mirroring :func:`repro.runtime.run_nest`."""
    engine = VectorizedNest(nest, symbols=symbols, funcs=funcs,
                            schedule=schedule, workers=workers)
    return engine.run(arrays)
