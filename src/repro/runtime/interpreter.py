"""A reference interpreter for perfect loop nests.

The interpreter is the semantic ground truth behind the whole test
suite: an iteration-reordering transformation is correct exactly when
the transformed nest computes the same final arrays as the original —
for *every* legal ``pardo`` schedule.  To that end ``pardo`` loops can be
executed in sequential, reversed or seeded-shuffled order
(:class:`Schedule`), so an illegal Parallelize shows up as a wrong
answer under some schedule.

Executions can record:

* the *iteration trace* — the tuple of original index-variable values at
  each body execution (after init statements run), used to check that a
  reordering respects a dependence partial order;
* the *address trace* — every (array, element, kind) access, which feeds
  the cache simulator.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.expr.nodes import (
    Add,
    Call,
    CeilDiv,
    Const,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Var,
    builtin,
)
from repro.ir.loopnest import Assign, If, InitStmt, Loop, LoopNest, PARDO, Statement
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.runtime.arrays import Array
from repro.util.intmath import ceil_div, floor_div, sign
from repro.util.errors import ReproError

class Schedule:
    """Ordering policy for ``pardo`` loops.

    ``"seq"`` runs parallel loops forward (one legal schedule),
    ``"reverse"`` backwards, and ``"shuffle"`` in a seeded random
    permutation — three easy witnesses that the result of a legal
    transformation must not depend on parallel interleaving.
    """

    def __init__(self, policy: str = "seq", seed: int = 0):
        if policy not in ("seq", "reverse", "shuffle"):
            raise ValueError(f"unknown pardo policy {policy!r}")
        self.policy = policy
        self.seed = seed

    def order(self, values: List[int], depth: int) -> List[int]:
        if self.policy == "seq":
            return values
        if self.policy == "reverse":
            return list(reversed(values))
        rng = random.Random((self.seed * 1000003) ^ depth)
        shuffled = list(values)
        rng.shuffle(shuffled)
        return shuffled


class ExecutionResult:
    """Arrays and traces produced by one execution."""

    __slots__ = ("arrays", "iteration_trace", "address_trace", "body_count")

    def __init__(self, arrays: Dict[str, Array],
                 iteration_trace: Optional[List[Tuple[int, ...]]],
                 address_trace: Optional[List[Tuple[str, Tuple[int, ...], str]]],
                 body_count: int):
        self.arrays = arrays
        self.iteration_trace = iteration_trace
        self.address_trace = address_trace
        self.body_count = body_count


class Interpreter:
    """Executes a :class:`LoopNest` over concrete arrays and symbols."""

    def __init__(self, nest: LoopNest,
                 symbols: Optional[Mapping[str, int]] = None,
                 funcs: Optional[Mapping[str, Callable[..., int]]] = None,
                 schedule: Optional[Schedule] = None,
                 trace_vars: Optional[Sequence[str]] = None,
                 trace_addresses: bool = False,
                 max_iterations: Optional[int] = None):
        """*trace_vars* names the variables whose values are recorded per
        body execution (defaults to the nest's own loop indices — pass
        the *original* nest's indices when executing a transformed nest,
        so traces are comparable)."""
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
        # Names written by the body are arrays even before first write.
        self._array_names = nest.written_names()

    def run(self, arrays: Mapping[str, Array]) -> ExecutionResult:
        """Execute on copies of *arrays*; the inputs are not mutated."""
        state = {name: arr.copy() for name, arr in arrays.items()}
        env: Dict[str, int] = dict(self.symbols)
        iteration_trace: Optional[List[Tuple[int, ...]]] = (
            [] if self.trace_vars is not None else None)
        address_trace = [] if self.trace_addresses else None
        counter = [0]
        with _obs.span("interpreter.run", depth=len(self.nest.loops),
                       traced=self.trace_addresses):
            self._run_level(0, env, state, iteration_trace, address_trace,
                            counter)
        if _obs.enabled():
            metrics = get_metrics()
            metrics.counter("interpreter.runs").inc()
            metrics.counter("interpreter.iterations").inc(counter[0])
        return ExecutionResult(state, iteration_trace, address_trace,
                               counter[0])

    # -- loops -----------------------------------------------------------------

    def _run_level(self, depth: int, env, state, itrace, atrace, counter):
        if depth == len(self.nest.loops):
            self._run_body(env, state, itrace, atrace, counter)
            return
        lp = self.nest.loops[depth]
        lo = self._eval(lp.lower, env, state, atrace)
        hi = self._eval(lp.upper, env, state, atrace)
        step = self._eval(lp.step, env, state, atrace)
        if step == 0:
            raise ReproError(f"loop {lp.index} has zero step at run time")
        values = list(range(lo, hi + sign(step), step))
        if lp.kind == PARDO:
            values = self.schedule.order(values, depth)
        for v in values:
            env[lp.index] = v
            self._run_level(depth + 1, env, state, itrace, atrace, counter)
        env.pop(lp.index, None)

    def _run_body(self, env, state, itrace, atrace, counter):
        counter[0] += 1
        if counter[0] > self.max_iterations:
            raise ReproError(
                f"interpreter exceeded {self.max_iterations} iterations")
        for init in self.nest.inits:
            env[init.var] = self._eval(init.expr, env, state, atrace)
        if itrace is not None:
            vars_ = self.trace_vars or self.nest.indices
            itrace.append(tuple(env[v] for v in vars_))
        for stmt in self.nest.body:
            self._exec_stmt(stmt, env, state, atrace)

    def _exec_stmt(self, stmt: Statement, env, state, atrace):
        if isinstance(stmt, Assign):
            value = self._eval(stmt.expr, env, state, atrace)
            index = tuple(self._eval(s, env, state, atrace)
                          for s in stmt.target.subscripts)
            target = self._array(stmt.target.name, state)
            if stmt.accumulate:
                value = target[index] + value
                if atrace is not None:
                    atrace.append((stmt.target.name, index, "R"))
            target[index] = value
            if atrace is not None:
                atrace.append((stmt.target.name, index, "W"))
        elif isinstance(stmt, If):
            if self._eval(stmt.cond, env, state, atrace) != 0:
                self._exec_stmt(stmt.then, env, state, atrace)
        elif isinstance(stmt, InitStmt):
            env[stmt.var] = self._eval(stmt.expr, env, state, atrace)
        else:
            raise TypeError(f"cannot execute {stmt!r}")

    def _array(self, name: str, state) -> Array:
        arr = state.get(name)
        if arr is None:
            arr = Array(0, name)
            state[name] = arr
        return arr

    # -- expressions ---------------------------------------------------------------

    def _eval(self, e: Expr, env, state, atrace):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            try:
                return env[e.name]
            except KeyError:
                raise NameError(f"unbound variable {e.name!r}") from None
        if isinstance(e, Add):
            return sum(self._eval(t, env, state, atrace) for t in e.terms)
        if isinstance(e, Mul):
            result = 1
            for f in e.factors:
                result *= self._eval(f, env, state, atrace)
            return result
        if isinstance(e, FloorDiv):
            return floor_div(self._eval(e.num, env, state, atrace),
                             self._eval(e.den, env, state, atrace))
        if isinstance(e, CeilDiv):
            return ceil_div(self._eval(e.num, env, state, atrace),
                            self._eval(e.den, env, state, atrace))
        if isinstance(e, Mod):
            num = self._eval(e.num, env, state, atrace)
            den = self._eval(e.den, env, state, atrace)
            return num - den * floor_div(num, den)
        if isinstance(e, Min):
            return min(self._eval(a, env, state, atrace) for a in e.args)
        if isinstance(e, Max):
            return max(self._eval(a, env, state, atrace) for a in e.args)
        if isinstance(e, Call):
            return self._eval_call(e, env, state, atrace)
        raise TypeError(f"cannot evaluate {e!r}")

    def _eval_call(self, e: Call, env, state, atrace):
        args = [self._eval(a, env, state, atrace) for a in e.args]
        if e.func in state or e.func in self._array_names:
            index = tuple(args)
            if atrace is not None:
                atrace.append((e.func, index, "R"))
            return self._array(e.func, state)[index]
        entry = builtin(e.func, len(args))
        if entry is not None:
            return entry.impl(*args)
        if e.func in self.funcs:
            return int(self.funcs[e.func](*args))
        # Fortran-ish default: an unknown callee is a read of a
        # never-written array (all elements at their default value).
        index = tuple(args)
        if atrace is not None:
            atrace.append((e.func, index, "R"))
        return self._array(e.func, state)[index]


def run_nest(nest: LoopNest, arrays: Mapping[str, Array],
             symbols: Optional[Mapping[str, int]] = None,
             funcs: Optional[Mapping[str, Callable[..., int]]] = None,
             schedule: Optional[Schedule] = None,
             trace_vars: Optional[Sequence[str]] = None,
             trace_addresses: bool = False) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    interp = Interpreter(nest, symbols=symbols, funcs=funcs,
                         schedule=schedule, trace_vars=trace_vars,
                         trace_addresses=trace_addresses)
    return interp.run(arrays)
