"""The perfect loop-nest intermediate representation.

The paper's framework operates on *perfect loop nests*: a stack of ``do``
or ``pardo`` loops whose innermost loop contains the (loop-free) body.
A transformed nest additionally carries *initialization statements* that
define the original index variables as functions of the new ones
(Section 2, item 4(b); Figure 1(b)).

Array references inside body expressions are represented as opaque
:class:`~repro.expr.nodes.Call` nodes (``a(i, j)`` is ``Call("a", (i, j))``).
Which calls are arrays is decided here, once, for every engine, emitter
and analysis: :meth:`LoopNest.array_names` is the interpreter's rule (the
names the nest writes, plus every callee that is neither a
:data:`~repro.expr.nodes.BUILTINS` entry at its arity nor named as a
function).  :meth:`LoopNest.statements` is the one walk over what an
iteration runs; the other queries here read it.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.expr.nodes import (Call, Const, Expr, builtin, free_vars,
                              subexpressions, substitute, to_str)
from repro.util.errors import ReproError

DO = "do"
PARDO = "pardo"


class Loop:
    """One loop level: ``<kind> <index> = <lower>, <upper>, <step>``."""

    __slots__ = ("index", "lower", "upper", "step", "kind")

    def __init__(self, index: str, lower: Expr, upper: Expr,
                 step: Expr = Const(1), kind: str = DO):
        if kind not in (DO, PARDO):
            raise ValueError(f"loop kind must be 'do' or 'pardo', got {kind!r}")
        if not isinstance(index, str) or not index:
            raise TypeError("loop index must be a non-empty string")
        for name, e in (("lower", lower), ("upper", upper), ("step", step)):
            if not isinstance(e, Expr):
                raise TypeError(f"loop {name} bound must be an Expr")
        if isinstance(step, Const) and step.value == 0:
            raise ValueError("loop step must be nonzero")
        self.index = index
        self.lower = lower
        self.upper = upper
        self.step = step
        self.kind = kind

    def with_kind(self, kind: str) -> "Loop":
        return Loop(self.index, self.lower, self.upper, self.step, kind)

    def with_bounds(self, lower: Optional[Expr] = None,
                    upper: Optional[Expr] = None,
                    step: Optional[Expr] = None) -> "Loop":
        return Loop(self.index,
                    lower if lower is not None else self.lower,
                    upper if upper is not None else self.upper,
                    step if step is not None else self.step,
                    self.kind)

    @property
    def is_parallel(self) -> bool:
        return self.kind == PARDO

    def header(self) -> str:
        """Render the loop header line (no indentation)."""
        parts = f"{self.kind} {self.index} = {to_str(self.lower)}, {to_str(self.upper)}"
        if not (isinstance(self.step, Const) and self.step.value == 1):
            parts += f", {to_str(self.step)}"
        return parts

    def __repr__(self):
        return f"Loop({self.header()!r})"

    def __eq__(self, other):
        return (isinstance(other, Loop) and self.index == other.index and
                self.lower == other.lower and self.upper == other.upper and
                self.step == other.step and self.kind == other.kind)

    def __hash__(self):
        return hash((self.index, self.lower, self.upper, self.step, self.kind))


class ArrayRef:
    """An array element reference used as an assignment target."""

    __slots__ = ("name", "subscripts")

    def __init__(self, name: str, subscripts: Sequence[Expr]):
        self.name = name
        self.subscripts = tuple(subscripts)
        for s in self.subscripts:
            if not isinstance(s, Expr):
                raise TypeError("subscripts must be expressions")

    def __str__(self):
        if not self.subscripts:
            return self.name
        return self.name + "(" + ", ".join(to_str(s) for s in self.subscripts) + ")"

    def __repr__(self):
        return f"ArrayRef({self})"

    def __eq__(self, other):
        return (isinstance(other, ArrayRef) and self.name == other.name and
                self.subscripts == other.subscripts)

    def __hash__(self):
        return hash((self.name, self.subscripts))

    def free_vars(self) -> frozenset:
        if not self.subscripts:
            return frozenset()
        return frozenset().union(*(free_vars(s) for s in self.subscripts))


class Statement:
    """Base class for body statements."""

    __slots__ = ()

    def expressions(self) -> Tuple[Expr, ...]:
        """The expressions this statement evaluates itself, in the
        interpreter's order (a guarded statement is not included)."""
        raise NotImplementedError


class Assign(Statement):
    """``target = expr`` or ``target += expr`` (accumulate)."""

    __slots__ = ("target", "expr", "accumulate")

    def __init__(self, target: ArrayRef, expr: Expr, accumulate: bool = False):
        if not isinstance(target, ArrayRef):
            raise TypeError("assignment target must be an ArrayRef")
        if not isinstance(expr, Expr):
            raise TypeError("assignment value must be an Expr")
        self.target = target
        self.expr = expr
        self.accumulate = accumulate

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.expr,) + self.target.subscripts

    def __str__(self):
        op = "+=" if self.accumulate else "="
        return f"{self.target} {op} {to_str(self.expr)}"

    def __repr__(self):
        return f"Assign({self})"

    def __eq__(self, other):
        return (isinstance(other, Assign) and self.target == other.target and
                self.expr == other.expr and self.accumulate == other.accumulate)

    def __hash__(self):
        return hash((self.target, self.expr, self.accumulate))


class If(Statement):
    """``if (cond) <stmt>`` — a guarded single statement (Figure 2)."""

    __slots__ = ("cond", "then")

    def __init__(self, cond: Expr, then: Statement):
        self.cond = cond
        self.then = then

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.cond,)

    def __str__(self):
        return f"if ({to_str(self.cond)}) {self.then}"

    def __repr__(self):
        return f"If({self})"

    def __eq__(self, other):
        return (isinstance(other, If) and self.cond == other.cond and
                self.then == other.then)

    def __hash__(self):
        return hash((self.cond, self.then))


class InitStmt(Statement):
    """``var = expr`` — defines an original index variable in terms of the
    new index variables at the top of a transformed loop body."""

    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Expr):
        self.var = var
        self.expr = expr

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def __str__(self):
        return f"{self.var} = {to_str(self.expr)}"

    def __repr__(self):
        return f"InitStmt({self})"

    def __eq__(self, other):
        return (isinstance(other, InitStmt) and self.var == other.var and
                self.expr == other.expr)

    def __hash__(self):
        return hash((self.var, self.expr))


class ArrayAccess:
    """One textual array reference.

    *stmt_index* is the position of the statement making it: ``0..`` in
    the body, ``-len(inits)..-1`` in the inits (which run first).
    """

    __slots__ = ("array", "subscripts", "is_write", "stmt_index")

    def __init__(self, array: str, subscripts: Tuple[Expr, ...],
                 is_write: bool, stmt_index: int):
        self.array = array
        self.subscripts = subscripts
        self.is_write = is_write
        self.stmt_index = stmt_index

    def __repr__(self):
        kind = "W" if self.is_write else "R"
        subs = ", ".join(str(s) for s in self.subscripts)
        return f"{kind}:{self.array}({subs})@stmt{self.stmt_index}"


class LoopNest:
    """A perfect loop nest: loops (outer to inner), init statements, body.

    ``inits`` are the scalar assignments that run first in every
    iteration: those code generation emits to define the original index
    variables (paper Section 2, item 4(b)) and, in a parsed nest, the
    leading scalar assignments of the innermost body.  ``body`` is the
    original loop body and is never changed by an iteration-reordering
    transformation.
    """

    __slots__ = ("loops", "inits", "body", "__weakref__")

    def __init__(self, loops: Sequence[Loop], body: Sequence[Statement],
                 inits: Sequence[InitStmt] = ()):
        self.loops = tuple(loops)
        self.body = tuple(body)
        self.inits = tuple(inits)
        if not self.loops:
            raise ValueError("a loop nest needs at least one loop")
        names = [lp.index for lp in self.loops]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate loop index names: {names}")
        for stmt in self.body:
            if not isinstance(stmt, Statement):
                raise TypeError(f"body entries must be Statements, got {stmt!r}")
        for init in self.inits:
            if not isinstance(init, InitStmt):
                raise TypeError("inits entries must be InitStmt")

    # -- structure --------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def indices(self) -> Tuple[str, ...]:
        return tuple(lp.index for lp in self.loops)

    def loop(self, k: int) -> Loop:
        """1-based accessor matching the paper's loop numbering."""
        if not 1 <= k <= self.depth:
            raise IndexError(f"loop number {k} out of range 1..{self.depth}")
        return self.loops[k - 1]

    def with_loops(self, loops: Sequence[Loop],
                   extra_inits: Sequence[InitStmt] = ()) -> "LoopNest":
        """A copy with replaced loops; *extra_inits* are prepended (they
        come from a later template instantiation so must execute first)."""
        return LoopNest(loops, self.body, tuple(extra_inits) + self.inits)

    def bound_free_vars(self) -> frozenset:
        result = frozenset()
        for lp in self.loops:
            result |= free_vars(lp.lower) | free_vars(lp.upper) | free_vars(lp.step)
        return result

    def invariants(self) -> frozenset:
        """Names used by bounds that are not loop indices (e.g. ``n``)."""
        return self.bound_free_vars() - set(self.indices)

    # -- the walk ------------------------------------------------------------

    def statements(self) -> Iterator[Tuple[int, Statement]]:
        """Every statement one iteration runs, in order, with its position:
        the inits (at ``-len(inits)..-1``), then the body (at ``0..``), each
        ``If`` followed by its guarded statement at the same position."""
        first = -len(self.inits)
        for k, init in enumerate(self.inits):
            yield first + k, init
        for k, stmt in enumerate(self.body):
            while isinstance(stmt, If):
                yield k, stmt
                stmt = stmt.then
            yield k, stmt

    def expressions(self) -> Iterator[Expr]:
        """Every expression the nest evaluates: the loop bounds, then
        what each of :meth:`statements` evaluates."""
        for lp in self.loops:
            yield lp.lower
            yield lp.upper
            yield lp.step
        for _, stmt in self.statements():
            yield from stmt.expressions()

    def variables(self) -> Set[str]:
        """Every plain-variable name the nest reads."""
        return set().union(*(free_vars(e) for e in self.expressions()))

    def calls(self) -> Set[Tuple[str, int]]:
        """Every ``(callee, arity)`` pair the nest evaluates."""
        return {(c.func, len(c.args)) for e in self.expressions()
                for c in subexpressions(e) if isinstance(c, Call)}

    def written_names(self) -> Set[str]:
        """The arrays the nest assigns to."""
        return {s.target.name for _, s in self.statements()
                if isinstance(s, Assign)}

    def defined_names(self) -> Set[str]:
        """The scalars the nest assigns to (init statements, guarded or
        not)."""
        return {s.var for _, s in self.statements()
                if isinstance(s, InitStmt)}

    def array_names(self, funcs: Iterable[str] = ()) -> Set[str]:
        """The interpreter's array rule: the names the nest writes, plus
        every callee that is neither a builtin at its arity nor named in
        *funcs* (a read of an array the nest never writes)."""
        funcs = set(funcs)
        return self.written_names() | {
            f for f, k in self.calls()
            if f not in funcs and builtin(f, k) is None}

    def scalar_definitions(self) -> Dict[str, Expr]:
        """The scalars every read of which sees this iteration's one
        straight-line definition, each folded over the loop indices, the
        invariants and the definitions before it.

        A scalar qualifies when a single unguarded init statement assigns
        it, it is no loop index, nothing reads it before that statement
        (its own right-hand side included) and that statement reads no
        scalar that failed to qualify.  Any other scalar the nest assigns
        may hold another definition's or another iteration's value at a
        read, so it is left out."""
        defs: Dict[str, Expr] = {}
        left_out: Set[str] = set()
        read: Set[str] = set()
        for pos, stmt in self.statements():
            for e in stmt.expressions():
                read |= free_vars(e)
            if not isinstance(stmt, InitStmt):
                continue
            name = stmt.var
            if (name in self.indices or name in defs or name in left_out
                    or name in read or free_vars(stmt.expr) & left_out
                    or (pos >= 0 and self.body[pos] is not stmt)):
                defs.pop(name, None)
                left_out.add(name)
            else:
                defs[name] = substitute(stmt.expr, defs)
        return defs

    def accesses(self, arrays: Optional[Iterable[str]] = None
                 ) -> List[ArrayAccess]:
        """Every reference to an array of *arrays* (default
        :meth:`array_names`), in the interpreter's evaluation order: per
        statement, an accumulation's read of its target, the reads in
        what it evaluates, then its write."""
        known = set(self.array_names() if arrays is None else arrays)
        out: List[ArrayAccess] = []
        for pos, stmt in self.statements():
            if isinstance(stmt, Assign) and stmt.accumulate:
                out.append(ArrayAccess(stmt.target.name,
                                       stmt.target.subscripts, False, pos))
            for e in stmt.expressions():
                out.extend(ArrayAccess(c.func, c.args, False, pos)
                           for c in subexpressions(e)
                           if isinstance(c, Call) and c.func in known)
            if isinstance(stmt, Assign):
                out.append(ArrayAccess(stmt.target.name,
                                       stmt.target.subscripts, True, pos))
        return out

    # -- rendering ---------------------------------------------------------

    def pretty(self, indent: str = "  ") -> str:
        """Render in the paper's surface syntax."""
        lines: List[str] = []
        for depth, lp in enumerate(self.loops):
            lines.append(indent * depth + lp.header())
        inner = indent * self.depth
        for init in self.inits:
            lines.append(inner + str(init))
        for stmt in self.body:
            lines.append(inner + str(stmt))
        for depth in range(self.depth - 1, -1, -1):
            lines.append(indent * depth + "enddo")
        return "\n".join(lines)

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"LoopNest(depth={self.depth}, indices={self.indices})"

    def __eq__(self, other):
        return (isinstance(other, LoopNest) and self.loops == other.loops and
                self.body == other.body and self.inits == other.inits)

    def __hash__(self):
        return hash((self.loops, self.body, self.inits))


def validate_nest(nest: LoopNest) -> None:
    """Check the structural invariants the framework relies on.

    * loop bound expressions may reference only outer loop indices and
      nest invariants (no self- or inner-index references);
    * constant steps are nonzero (already enforced by :class:`Loop`);
    * init statements reference only loop indices, invariants and earlier
      init-defined variables.

    Raises :class:`ReproError` on violation.
    """
    indices = nest.indices
    for k, lp in enumerate(nest.loops):
        allowed_outer = set(indices[:k])
        banned = (set(indices[k:]) )
        for which, e in (("lower", lp.lower), ("upper", lp.upper),
                         ("step", lp.step)):
            used = free_vars(e)
            illegal = used & banned
            if illegal:
                raise ReproError(
                    f"loop {lp.index}: {which} bound references "
                    f"{sorted(illegal)} which are not enclosing indices")
    later_init_vars = {init.var for init in nest.inits}
    defined = set(indices)
    for init in nest.inits:
        later_init_vars.discard(init.var)
        used = free_vars(init.expr)
        # Unknown names are treated as nest invariants; only referencing
        # an init variable before its own definition is an error.
        forward = used & later_init_vars
        if forward:
            raise ReproError(
                f"init statement {init}: references later-defined "
                f"{sorted(forward)}")
        defined.add(init.var)
