"""Compiled loop-nest execution: the fast path behind the interpreter oracle.

:class:`~repro.runtime.interpreter.Interpreter` walks the expression tree
for every evaluation; that makes it a trustworthy semantic ground truth
and a very slow executor.  This module lowers a :class:`LoopNest` to
Python source — nested ``for`` loops over ``range``, init statements
inlined, expressions folded to native arithmetic — and ``exec``-compiles
it into a closure.  The contract is *bit-for-bit agreement* with the
interpreter:

* final arrays are identical (the differential tests check every nest in
  ``examples/loops`` under every :class:`Schedule` policy);
* the optional iteration trace and address trace are identical,
  element-for-element, because the generated code preserves the
  interpreter's left-to-right, depth-first evaluation order (reads are
  recorded through a tracing helper exactly where ``Interpreter._eval``
  records them);
* ``pardo`` loops go through the same :meth:`Schedule.order` hook, so an
  illegal Parallelize shows up as a wrong answer under the same
  schedules that expose it in the interpreter.

Traced and untraced variants are compiled differently.  Both check the
iteration cap once per innermost-loop entry rather than per iteration,
raising the interpreter's error after the same iterations.  A variant
compiled with ``trace_addresses=True`` keeps the interpreter's per-read
evaluation order, so its address trace is exact.  An untraced variant
has no trace to keep in order, so it also computes each loop-invariant
subexpression once per innermost-loop entry and keeps an accumulator
``X(s) += e`` whose element does not move in a local, storing it after
the loop.  It adds in the same order, so the arrays it returns are
identical, float data included.

The interpreter stays the oracle; :class:`CompiledNest` is what the
optimizer's scoring loops and the cache simulator feed on.
:func:`emit_python` prints the same untraced code as a standalone module
(``repro transform --emit python``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

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
    children,
)
from repro.ir.loopnest import Assign, If, InitStmt, LoopNest, PARDO, Statement
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.resilience import chaos as _chaos
from repro.resilience import guards as _guards
from repro.runtime.arrays import Array
from repro.runtime.interpreter import ExecutionResult, Schedule
from repro.util.errors import CodegenError, ReproError

#: The helpers generated code calls, as source, so the compiled engine and
#: the emitted module share one definition.  Like the interpreter,
#: ``abs``/``sgn`` use their first argument; the others are evaluated
#: and ignored.
_HELPERS = """\
def _sgn(x, *_):
    return 1 if x > 0 else (-1 if x < 0 else 0)


def _fst(x, *_):
    return x
"""
_HELPER_NS: Dict[str, object] = {}
exec(_HELPERS, _HELPER_NS)


class _Emitter:
    """Lowers one nest (for one fixed array-name set) to Python source.

    The innermost loop is where the time goes, so it gets three rewrites.
    Its iteration sequence ``_r`` is materialized once per entry and cut to
    the remaining iteration budget, so the cap costs one check per entry
    instead of one per iteration.  Untraced variants also compute every
    loop-invariant subexpression once per entry (:meth:`_invariant` says
    which qualify) and keep an accumulator whose element does not move in a
    local (:meth:`_accumulators`).
    """

    def __init__(self, nest: LoopNest, arrays: Set[str], funcs: Set[str],
                 trace_vars: Optional[Tuple[str, ...]],
                 trace_addresses: bool):
        self.nest = nest
        self.arrays = arrays
        self.funcs = funcs
        self.trace_vars = trace_vars
        self.trace_addresses = trace_addresses
        self.lines: List[str] = []
        self._tmp = 0
        # Hoisting state, set only while the innermost body of an untraced
        # variant is emitted: the names that stay fixed over that loop, the
        # arrays the nest writes, the hoisted source -> temp name, and
        # whether an array read may be hoisted from the current position.
        self._fixed: Optional[Set[str]] = None
        self._written: Set[str] = set()
        self._hoisted: Dict[str, str] = {}
        self._reads_ok = True
        #: Body index -> accumulator temp, for scalar-replaced statements.
        self._acc: Dict[int, str] = {}

    # -- expressions -------------------------------------------------------

    def expr(self, e: Expr) -> str:
        if (self._fixed is not None and not isinstance(e, (Const, Var))
                and self._invariant(e)):
            return self._hoist(e)
        if isinstance(e, Const):
            return str(e.value) if e.value >= 0 else f"({e.value})"
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Add):
            return "(" + " + ".join(self.expr(t) for t in e.terms) + ")"
        if isinstance(e, Mul):
            return "(" + " * ".join(self.expr(f) for f in e.factors) + ")"
        if isinstance(e, FloorDiv):
            return f"({self.expr(e.num)} // {self.expr(e.den)})"
        if isinstance(e, CeilDiv):
            return f"(-((-{self.expr(e.num)}) // {self.expr(e.den)}))"
        if isinstance(e, Mod):
            return f"({self.expr(e.num)} % {self.expr(e.den)})"
        if isinstance(e, Min):
            return "min(" + ", ".join(self.expr(a) for a in e.args) + ")"
        if isinstance(e, Max):
            return "max(" + ", ".join(self.expr(a) for a in e.args) + ")"
        if isinstance(e, Call):
            return self.call(e)
        raise CodegenError(f"cannot compile expression {e!r}")

    def call(self, e: Call) -> str:
        args = ", ".join(self.expr(a) for a in e.args)
        # Precedence mirrors Interpreter._eval_call: arrays shadow the
        # builtins and user functions.
        if e.func in self.arrays:
            return self.read(e.func, f"({args},)")
        entry = builtin(e.func, len(e.args))
        if entry is not None:
            if entry.infix is not None:
                a, b = (self.expr(x) for x in e.args)
                return f"(1 if {a} {entry.infix} {b} else 0)"
            if e.func == "sgn":
                return f"_sgn({args})"
            if len(e.args) == 1:
                return f"abs({args})"
            return f"abs(_fst({args}))"
        if e.func in self.funcs:
            return f"int(_fn_{e.func}({args}))"
        # Interpreter fallback: an unknown callee reads a never-written
        # array; the variant compiler routes those into `self.arrays`, so
        # reaching this point is a compile-time inconsistency.
        raise CodegenError(f"call {e.func!r} is neither array nor function")

    def read(self, name: str, index_src: str) -> str:
        if self.trace_addresses:
            return f"_rd({name!r}, _arr_{name}, {index_src})"
        return f"_arr_{name}[{index_src}]"

    # -- loop-invariant code motion ----------------------------------------

    def _invariant(self, e: Expr) -> bool:
        """Whether *e* may be computed once per innermost-loop entry.

        It must not raise and must give the same value on every iteration:
        only fixed names, arithmetic that cannot divide by zero, the pure
        builtins, and reads of arrays the nest never writes.  A user
        function may have effects, so it stays in the loop.  A read under
        an ``If`` stays too: hoisted, it would add an array the
        interpreter never touches to the result.
        """
        if isinstance(e, Const):
            return True
        if isinstance(e, Var):
            return e.name in self._fixed
        if isinstance(e, (FloorDiv, CeilDiv, Mod)):
            if not isinstance(e.den, Const) or e.den.value == 0:
                return False
        elif isinstance(e, Call):
            if e.func in self.arrays:
                if e.func in self._written or not self._reads_ok:
                    return False
            elif not (e.args and builtin(e.func, len(e.args))):
                return False
        elif not isinstance(e, (Add, Mul, Min, Max)):
            return False
        return all(self._invariant(c) for c in children(e))

    def _hoist(self, e: Expr) -> str:
        fixed, self._fixed = self._fixed, None
        try:
            src = self.expr(e)
        finally:
            self._fixed = fixed
        name = self._hoisted.get(src)
        if name is None:
            name = self._hoisted[src] = f"_h{len(self._hoisted) + 1}"
        return name

    def _accumulators(self) -> List[int]:
        """Body indices of the statements ``X(s) += e`` to scalar-replace.

        ``s`` must be loop-invariant and ``X`` must be neither read
        anywhere in the nest nor written by another statement, so no other
        access can observe the element while its running sum lives in a
        local.
        """
        called = {f for f, _ in self.nest.calls()}
        targets = [s.target.name for _, s in self.nest.statements()
                   if isinstance(s, Assign)]
        return [k for k, s in enumerate(self.nest.body)
                if isinstance(s, Assign) and s.accumulate
                and s.target.name not in called
                and targets.count(s.target.name) == 1
                and all(self._invariant(x) for x in s.target.subscripts)]

    # -- statements --------------------------------------------------------

    def emit(self, text: str, depth: int) -> None:
        self.lines.append("    " * (depth + 1) + text)

    def stmt(self, s: Statement, depth: int) -> None:
        if isinstance(s, Assign):
            self._assign(s, depth)
        elif isinstance(s, If):
            self.emit(f"if {self.expr(s.cond)} != 0:", depth)
            reads_ok, self._reads_ok = self._reads_ok, False
            self.stmt(s.then, depth + 1)
            self._reads_ok = reads_ok
        elif isinstance(s, InitStmt):
            self.emit(f"{s.var} = {self.expr(s.expr)}", depth)
        else:
            raise CodegenError(f"cannot compile statement {s!r}")

    def _assign(self, s: Assign, depth: int) -> None:
        name = s.target.name
        value = self.expr(s.expr)
        subs = ", ".join(self.expr(x) for x in s.target.subscripts)
        index_src = f"({subs},)"
        if not self.trace_addresses and not s.accumulate:
            self.emit(f"_arr_{name}[{index_src}] = {value}", depth)
            return
        self._tmp += 1
        v, ix = f"_v{self._tmp}", f"_ix{self._tmp}"
        # Interpreter order: value, then subscripts, then (for accumulate)
        # the read of the old element, then the write.
        self.emit(f"{v} = {value}", depth)
        if not self.trace_addresses:
            self.emit(f"_arr_{name}[{index_src}] += {v}", depth)
            return
        self.emit(f"{ix} = {index_src}", depth)
        if s.accumulate:
            self.emit(f"{v} = {self.read(name, ix)} + {v}", depth)
        self.emit(f"_arr_{name}[{ix}] = {v}", depth)
        self.emit(f"_ap(({name!r}, {ix}, 'W'))", depth)

    def body(self, depth: int) -> None:
        """One iteration: inits, the iteration-trace record, statements."""
        for init in self.nest.inits:
            self.emit(f"{init.var} = {self.expr(init.expr)}", depth)
        if self.trace_vars is not None:
            vars_src = ", ".join(self.trace_vars)
            comma = "," if len(self.trace_vars) == 1 else ""
            self.emit(f"_it(({vars_src}{comma}))", depth)
        for k, s in enumerate(self.nest.body):
            acc = self._acc.get(k)
            if acc is None:
                self.stmt(s, depth)
            else:
                self.emit(f"{acc} += {self.expr(s.expr)}", depth)

    def innermost(self, index: str, seq: str, depth: int,
                  symbols: Sequence[str]) -> None:
        """The innermost loop over *seq*: the iteration cap checked once
        per entry, invariants hoisted in front, accumulators stored after.
        Hoists and loads run only when the loop runs, so a zero-trip loop
        neither raises on an unbound name nor touches an array."""
        self.emit(f"_r = {seq}", depth)
        # The budget is clamped at 0, so an empty _r never trips the cap,
        # even a negative one: the interpreter checks only in the body.
        self.emit("_left = max(_max_iterations - _count, 0)", depth)
        self.emit("_over = len(_r) > _left", depth)
        self.emit("if _over:", depth)
        self.emit("    _r = _r[:_left]", depth)
        self.emit("if _r:", depth)
        outer, self.lines = self.lines, []
        stores: List[str] = []
        if not self.trace_addresses:
            self._written = self.nest.written_names()
            self._fixed = ((set(symbols) | set(self.nest.indices[:-1]))
                           - self.nest.defined_names() - {index})
            for k in self._accumulators():
                s = self.nest.body[k]
                self._tmp += 1
                acc, ix = f"_acc{self._tmp}", f"_ix{self._tmp}"
                subs = ", ".join(self.expr(x) for x in s.target.subscripts)
                self.emit(f"{ix} = ({subs},)", depth + 1)
                self.emit(f"{acc} = _arr_{s.target.name}[{ix}]", depth + 1)
                stores.append(f"_arr_{s.target.name}[{ix}] = {acc}")
                self._acc[k] = acc
        self.emit(f"for {index} in _r:", depth + 1)
        self.body(depth + 2)
        inner, self.lines = self.lines, outer
        for src, name in self._hoisted.items():
            self.emit(f"{name} = {src}", depth + 1)
        self.lines += inner
        for store in stores:
            self.emit(store, depth + 1)
        self.emit("_count += len(_r)", depth + 1)
        self.emit("if _over:", depth)
        self.emit("    raise _ReproError('interpreter exceeded %d iterations'"
                  " % _max_iterations)", depth)
        self._fixed = None

    # -- the function ------------------------------------------------------

    def source(self, symbols: Sequence[str]) -> str:
        nest = self.nest
        self.lines = [
            "def _kernel(_arrays, _symbols, _funcs, _order, "
            "_itrace, _atrace, _max_iterations):",
        ]
        self.emit("_count = 0", 0)
        for name in sorted(self.arrays):
            self.emit(f"_arr_{name} = _arrays[{name!r}]", 0)
        for name in symbols:
            self.emit(f"{name} = _symbols[{name!r}]", 0)
        for name in sorted(self.funcs):
            self.emit(f"_fn_{name} = _funcs[{name!r}]", 0)
        if self.trace_addresses:
            self.emit("_ap = _atrace.append", 0)
            self.emit("def _rd(_name, _arr, _idx):", 0)
            self.emit("    _ap((_name, _idx, 'R'))", 0)
            self.emit("    return _arr[_idx]", 0)
        if self.trace_vars is not None:
            self.emit("_it = _itrace.append", 0)

        depth = 0
        for level, lp in enumerate(nest.loops):
            lo, hi, st = f"_lo{level}", f"_hi{level}", f"_st{level}"
            # Bounds evaluate once per entry, in the interpreter's order
            # (lower, upper, step) so any array reads they contain land in
            # the address trace at the same positions.
            self.emit(f"{lo} = {self.expr(lp.lower)}", depth)
            self.emit(f"{hi} = {self.expr(lp.upper)}", depth)
            if isinstance(lp.step, Const):
                step_val = lp.step.value
                end = f"{hi} + 1" if step_val > 0 else f"{hi} - 1"
                rng = f"range({lo}, {end}, {step_val})"
            else:
                self.emit(f"{st} = {self.expr(lp.step)}", depth)
                self.emit(f"if {st} == 0:", depth)
                self.emit(f"    raise _ReproError("
                          f"'loop {lp.index} has zero step at run time')",
                          depth)
                rng = f"range({lo}, {hi} + (1 if {st} > 0 else -1), {st})"
            if lp.kind == PARDO:
                rng = f"_order(list({rng}), {level})"
            if level == nest.depth - 1:
                self.innermost(lp.index, rng, depth, symbols)
            else:
                self.emit(f"for {lp.index} in {rng}:", depth)
                depth += 1

        if not nest.loops:
            self.emit("_count += 1", 0)
            self.emit("if _count > _max_iterations:", 0)
            self.emit("    raise _ReproError('interpreter exceeded %d "
                      "iterations' % _max_iterations)", 0)
            self.body(0)
        self.emit("return _count", 0)
        return "\n".join(self.lines) + "\n"


class CompiledNest:
    """A :class:`LoopNest` compiled to native Python, interpreter-compatible.

    The constructor mirrors :class:`Interpreter`; :meth:`run` mirrors
    :meth:`Interpreter.run` and returns the same :class:`ExecutionResult`
    shape (arrays as :class:`Array`, optional iteration/address traces,
    body count).  Because the interpreter decides name-is-array at run
    time (any name present in the caller's arrays mapping is an array),
    compilation is specialized per distinct extra-array-name set and the
    specializations are cached on the instance.
    """

    def __init__(self, nest: LoopNest,
                 symbols: Optional[Mapping[str, int]] = None,
                 funcs: Optional[Mapping[str, Callable[..., int]]] = None,
                 schedule: Optional[Schedule] = None,
                 trace_vars: Optional[Sequence[str]] = None,
                 trace_addresses: bool = False,
                 max_iterations: Optional[int] = None):
        _chaos.inject("compiled.codegen")
        if max_iterations is None:
            max_iterations = _guards.limits().max_iterations
        self.nest = nest
        self.symbols = dict(symbols or {})
        self.funcs = dict(funcs or {})
        self.schedule = schedule or Schedule()
        self.trace_vars = tuple(trace_vars) if trace_vars is not None else None
        self.trace_addresses = trace_addresses
        self.max_iterations = max_iterations
        self._names = nest.variables()
        self._calls = nest.calls()
        self._base_arrays = nest.array_names(self.funcs)
        self._variants: Dict[frozenset, Tuple[str, Callable]] = {}

    # -- compilation -------------------------------------------------------

    def _variant(self, extra: frozenset) -> Tuple[str, Callable]:
        cached = self._variants.get(extra)
        if cached is not None:
            if _obs.enabled():
                get_metrics().counter("compiled.source_cache_hits").inc()
            return cached
        if _obs.enabled():
            get_metrics().counter("compiled.source_cache_misses").inc()
        arrays = self._base_arrays | set(extra)
        funcs = {f for f, _ in self._calls
                 if f in self.funcs and f not in arrays}
        # Bind up-front only the names the caller actually supplied;
        # anything else stays unbound so a use raises NameError at the
        # same point in execution as the interpreter (a name referenced
        # only inside a zero-trip loop never raises).
        symbols = sorted(n for n in self._names if n in self.symbols)
        tv = self.trace_vars
        if tv is not None and not tv:
            tv = tuple(self.nest.indices)
        emitter = _Emitter(self.nest, arrays, funcs, tv,
                           self.trace_addresses)
        with _obs.span("compiled.codegen", depth=self.nest.depth,
                       arrays=len(arrays)):
            source = emitter.source(symbols)
        if _obs.enabled():
            metrics = get_metrics()
            metrics.counter("compiled.hoisted_exprs").inc(
                len(emitter._hoisted))
            metrics.counter("compiled.scalar_replaced").inc(len(emitter._acc))
        namespace = dict(_HELPER_NS, _ReproError=ReproError)
        with _obs.span("compiled.exec_compile", lines=source.count("\n")):
            exec(compile(source, "<repro:compiled-nest>", "exec"), namespace)
        variant = (source, namespace["_kernel"])  # type: ignore[assignment]
        self._variants[extra] = variant
        return variant

    @property
    def source(self) -> str:
        """The generated Python source of the no-extra-arrays variant."""
        return self._variant(frozenset())[0]

    # -- execution ---------------------------------------------------------

    def run(self, arrays: Mapping[str, Array],
            schedule: Optional[Schedule] = None) -> ExecutionResult:
        """Execute on copies of *arrays*; the inputs are not mutated."""
        extra = frozenset(set(arrays) - self._base_arrays)
        _, fn = self._variant(extra)
        state: Dict[str, defaultdict] = {}
        defaults: Dict[str, object] = {}
        for name in sorted(self._base_arrays | set(arrays)):
            src = arrays.get(name)
            default = src.default if src is not None else 0
            factory = (int if default == 0
                       else (lambda d=default: d))  # noqa: B008
            state[name] = defaultdict(factory,
                                      src.data if src is not None else ())
            defaults[name] = default
        itrace: Optional[List[Tuple[int, ...]]] = (
            [] if self.trace_vars is not None else None)
        atrace: Optional[List[Tuple[str, Tuple[int, ...], str]]] = (
            [] if self.trace_addresses else None)
        sched = schedule or self.schedule
        with _obs.span("compiled.run", depth=self.nest.depth,
                       traced=self.trace_addresses):
            count = fn(state, self.symbols, self.funcs, sched.order,
                       itrace, atrace, self.max_iterations)
        if _obs.enabled():
            metrics = get_metrics()
            metrics.counter("compiled.runs").inc()
            metrics.counter("compiled.iterations").inc(count)
        # The interpreter materializes an array only when it is actually
        # touched; a defaultdict records every touch as an inserted key,
        # so an untouched non-input array is exactly an empty one.
        out = {name: Array(defaults[name], name, dict(data))
               for name, data in state.items()
               if name in arrays or data}
        return ExecutionResult(out, itrace, atrace, count)


_MODULE_HEAD = f'''\
# Generated by repro: one loop nest as a standalone kernel.
# Entry: kernel(arrays, symbols, funcs=None).


class _ReproError(Exception):
    pass


{_HELPERS}

def _in_order(values, level):
    return values


'''

_MODULE_ENTRY = '''

#: The callees this module evaluates as builtins or functions.
_CALLS = %r


def kernel(arrays, symbols, funcs=None):
    """Run the nest on *arrays* in place; return the body count."""
    for name in _CALLS:
        if name in arrays:
            raise _ReproError(
                f"array {name!r} names a call this kernel evaluates; "
                f"the interpreter would read the array instead")
    return _kernel(arrays, symbols, funcs or {}, _in_order, None, None,
                   float("inf"))
'''


def emit_python(nest: LoopNest, funcs: Iterable[str] = ()) -> str:
    """The nest as a standalone Python module, needing only the standard
    library: the untraced kernel :class:`CompiledNest` runs, behind the
    entry ``kernel(arrays, symbols, funcs=None)``.

    *arrays* maps every array the nest names to a mutable tuple-indexed
    mapping (``collections.defaultdict(int)``, a NumPy array), updated
    in place; *symbols* binds the nest's free names.  *funcs* names the
    callees that are functions, looked up in ``funcs`` at call time;
    every other non-builtin callee is an array, as in the interpreter.
    The array set is fixed here, so ``kernel`` raises ``_ReproError``
    when *arrays* has a key naming a callee it evaluates as a builtin
    or function, which the interpreter would read as an array.
    ``pardo`` loops run in order and there is no iteration cap.
    """
    funcs = set(funcs)
    arrays = nest.array_names(funcs)
    assigned = set(nest.indices) | nest.defined_names()
    calls = {f for f, _ in nest.calls() if f not in arrays}
    emitter = _Emitter(nest, arrays, calls & funcs, None, False)
    return (_MODULE_HEAD + emitter.source(sorted(nest.variables() - assigned))
            + _MODULE_ENTRY % (tuple(sorted(calls)),))


def nest_fingerprint(nest: LoopNest) -> str:
    """A stable content hash of a nest — its canonical ``pretty()`` text
    digested to a short hex token.  Structurally equal nests produce the
    same fingerprint, so it can key cross-request memo tables (the
    transformation service's analysis and compilation caches) and name
    nests in stats without holding the nest itself."""
    import hashlib

    return hashlib.sha256(nest.pretty().encode("utf-8")).hexdigest()[:16]


class CompiledNestCache:
    """A bounded LRU of :class:`CompiledNest` instances, keyed by nest
    content and compilation options.

    A search session compiles each *winner* once, but a long-lived
    service sees the same nests (and the same transformed nests) arrive
    over and over across requests; recompiling them per request throws
    away exactly the codegen + ``exec``-compile work the engine already
    paid for.  :meth:`get` returns a warm instance when an equal nest
    was compiled with equal options before — :class:`LoopNest` equality
    is structural, so re-parsed request text hits — and compiles + caches
    otherwise.  Entries whose options include unhashable parts (user
    function mappings, custom schedules) are compiled but not cached.

    Not thread-safe; the service serializes access through its single
    request-processing loop.
    """

    def __init__(self, max_entries: int = 128,
                 factory: Optional[Callable[..., "CompiledNest"]] = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        #: Engine constructor; subclasses (the vectorized cache) swap it.
        self._factory = factory if factory is not None else CompiledNest
        self._entries: Dict[Tuple, CompiledNest] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.uncacheable = 0

    def _key(self, nest: LoopNest, symbols, trace_vars,
             trace_addresses: bool, max_iterations: Optional[int]) -> Tuple:
        sym_key = (tuple(sorted(symbols.items()))
                   if symbols is not None else ())
        tv_key = tuple(trace_vars) if trace_vars is not None else None
        return (nest, sym_key, tv_key, trace_addresses, max_iterations)

    def get(self, nest: LoopNest,
            symbols: Optional[Mapping[str, int]] = None,
            funcs: Optional[Mapping[str, Callable[..., int]]] = None,
            schedule: Optional[Schedule] = None,
            trace_vars: Optional[Sequence[str]] = None,
            trace_addresses: bool = False,
            max_iterations: Optional[int] = None) -> CompiledNest:
        """A compiled engine for *nest*, warm when possible."""
        if funcs or schedule is not None:
            # Callables/schedules compare by identity, which would make
            # "equal" keys incidental; skip the cache rather than serve
            # a stale closure.
            self.uncacheable += 1
            return self._factory(nest, symbols=symbols, funcs=funcs,
                                 schedule=schedule, trace_vars=trace_vars,
                                 trace_addresses=trace_addresses,
                                 max_iterations=max_iterations)
        key = self._key(nest, symbols, trace_vars, trace_addresses,
                        max_iterations)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries[key] = self._entries.pop(key)  # LRU touch
            if _obs.enabled():
                get_metrics().counter("compiled.nest_cache_hits").inc()
            return cached
        self.misses += 1
        if _obs.enabled():
            get_metrics().counter("compiled.nest_cache_misses").inc()
        compiled = self._factory(nest, symbols=symbols,
                                 trace_vars=trace_vars,
                                 trace_addresses=trace_addresses,
                                 max_iterations=max_iterations)
        self._entries[key] = compiled
        while len(self._entries) > self.max_entries:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1
        return compiled

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "uncacheable": self.uncacheable,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.evictions = self.uncacheable = 0


def run_compiled(nest: LoopNest, arrays: Mapping[str, Array],
                 symbols: Optional[Mapping[str, int]] = None,
                 funcs: Optional[Mapping[str, Callable[..., int]]] = None,
                 schedule: Optional[Schedule] = None,
                 trace_vars: Optional[Sequence[str]] = None,
                 trace_addresses: bool = False) -> ExecutionResult:
    """One-shot convenience mirroring :func:`repro.runtime.run_nest`."""
    compiled = CompiledNest(nest, symbols=symbols, funcs=funcs,
                            schedule=schedule, trace_vars=trace_vars,
                            trace_addresses=trace_addresses)
    return compiled.run(arrays)
