"""Symbolic integer expressions for loop bounds and subscripts.

The framework manipulates loop bound expressions symbolically: bounds may
mention integer constants, index variables of enclosing loops, loop-nest
invariants (``n``), ``max``/``min`` of several terms, exact floor/ceiling
division, ``mod``, ``abs``/``sgn``, and opaque calls such as ``colstr(j)``
(Figure 4(c) of the paper) or ``sqrt(i)`` (Figure 5).

Expressions are immutable and hash-consed *structurally* (equal structure
compares and hashes equal).  All construction goes through the smart
constructors at the bottom of this module (:func:`add`, :func:`mul`,
:func:`vmin`, ...) which normalize aggressively:

* sums are flattened, constants folded, like terms collected;
* products are flattened, constants folded, and distributed over sums
  (bounded, to keep normal forms small);
* ``min``/``max`` are flattened, deduplicated, and constant arguments
  folded; arguments whose difference is a known constant are pruned;
* ``div``/``mod`` simplify for constant operands and unit divisors.

Each node's *linear normal form* (:func:`linear_parts`: atom such as
``n``, ``i*j`` or ``div(i, 2)`` -> integer coefficient, plus a constant,
as :func:`add` collects them) is computed at most once and cached on
sums and products.  ``min``/``max`` folding compares arguments by it, and every
affine view in :mod:`repro.expr.linear` is a filter over it.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, Mapping, NamedTuple, Optional,
                    Tuple)

from repro.util.intmath import ceil_div, floor_div, sign

# Maximum number of terms we are willing to create when distributing a
# product over sums.  Past this, the product is kept factored (still a
# valid expression, merely less canonical).
_DISTRIBUTE_LIMIT = 64


class Expr:
    """Base class of all expression nodes.  Immutable."""

    __slots__ = ("_hash", "_free")

    # Subclasses fill in _key() returning a hashable structural identity.

    def _key(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (
            type(self) is type(other) and self._key() == other._key())

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self).__name__, self._key()))
            object.__setattr__(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        # Allow only the lazily-cached private fields to be set.
        if name in ("_hash", "_free", "_form"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("expressions are immutable")

    # The guarded __setattr__ breaks pickle's default slot-state
    # restoration, so spell the state protocol out.  ``_hash`` caches
    # ``hash(str)`` values, which are salted per process — dropping it
    # keeps a pickled expression from carrying a foreign process's hash;
    # dropping ``_form`` keeps the bytes independent of cached forms.
    def __getstate__(self):
        state = {}
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name not in ("_hash", "_form") and hasattr(self, name):
                    state[name] = getattr(self, name)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # Operator sugar so tests and examples read naturally -----------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Expr({to_str(self)})"

    def __str__(self):
        return to_str(self)


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Const(value)
    raise TypeError(f"cannot use {value!r} as an expression")


class Const(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"Const requires an int, got {value!r}")
        object.__setattr__(self, "value", value)

    def _key(self):
        return self.value


class Var(Expr):
    """A named integer variable (loop index or loop-nest invariant)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise TypeError("Var requires a non-empty name")
        object.__setattr__(self, "name", name)

    def _key(self):
        return self.name


class Add(Expr):
    """A flattened n-ary sum.  Use :func:`add` to construct."""

    __slots__ = ("terms", "_form")

    def __init__(self, terms: Tuple[Expr, ...]):
        object.__setattr__(self, "terms", terms)

    def _key(self):
        return self.terms


class Mul(Expr):
    """A flattened n-ary product.  Use :func:`mul` to construct."""

    __slots__ = ("factors", "_form")

    def __init__(self, factors: Tuple[Expr, ...]):
        object.__setattr__(self, "factors", factors)

    def _key(self):
        return self.factors


class FloorDiv(Expr):
    """``floor(num / den)``; use :func:`floordiv`."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _key(self):
        return (self.num, self.den)


class CeilDiv(Expr):
    """``ceil(num / den)``; use :func:`ceildiv`."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _key(self):
        return (self.num, self.den)


class Mod(Expr):
    """Floored modulus ``a - b*floor(a/b)``; use :func:`mod`."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _key(self):
        return (self.num, self.den)


class Min(Expr):
    """n-ary minimum; use :func:`vmin`."""

    __slots__ = ("args",)

    def __init__(self, args: Tuple[Expr, ...]):
        object.__setattr__(self, "args", args)

    def _key(self):
        return self.args


class Max(Expr):
    """n-ary maximum; use :func:`vmax`."""

    __slots__ = ("args",)

    def __init__(self, args: Tuple[Expr, ...]):
        object.__setattr__(self, "args", args)

    def _key(self):
        return self.args


class Call(Expr):
    """An opaque function call such as ``colstr(j)`` or ``sqrt(i)``.

    The framework treats calls as nonlinear black boxes.  A few pure
    functions (``abs``, ``sgn``) fold when all arguments are constant.
    """

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Tuple[Expr, ...]):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", args)

    def _key(self):
        return (self.func, self.args)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

ZERO = Const(0)
ONE = Const(1)


def const(value: int) -> Const:
    """Integer literal expression."""
    return Const(value)


def var(name: str) -> Var:
    """Named variable expression."""
    return Var(name)


def _split_coeff(e: Expr) -> Tuple[int, Optional[Expr]]:
    """Split *e* into (integer coefficient, residual factor or None)."""
    if isinstance(e, Const):
        return e.value, None
    if isinstance(e, Mul) and isinstance(e.factors[0], Const):
        c = e.factors[0].value
        rest = e.factors[1:]
        if len(rest) == 1:
            return c, rest[0]
        return c, Mul(rest)
    return 1, e


def _sort_key(e: Expr):
    return (type(e).__name__, to_str(e))


def _collect(terms) -> Tuple[Dict[Expr, int], int]:
    """Flatten a sum of *terms* into (residual factor -> summed integer
    coefficient, in first-appearance order; constant part)."""
    constant = 0
    buckets: Dict[Expr, int] = {}
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
            continue
        c, rest = _split_coeff(t)
        if rest is None:
            constant += c
        else:
            buckets[rest] = buckets.get(rest, 0) + c
    return buckets, constant


def linear_parts(e: Expr) -> Tuple[Dict[Expr, int], int]:
    """*e* as ``sum(coeff * atom) + constant``: the distinct non-constant
    summands (atoms) of its :func:`add` normal form with their nonzero
    integer coefficients, in order, and the constant part.  Cached on
    sums and products (other nodes are a constant or one atom): callers
    share the map and must not mutate it."""
    if not isinstance(e, (Add, Mul)):
        return ({}, e.value) if isinstance(e, Const) else ({e: 1}, 0)
    form = getattr(e, "_form", None)
    if form is None:
        buckets, constant = _collect((e,))
        form = ({r: c for r, c in buckets.items() if c != 0}, constant)
        object.__setattr__(e, "_form", form)
    return form


def from_linear(parts: Mapping[Expr, int], constant: int = 0) -> Expr:
    """The normalized ``sum(parts[atom] * atom) + constant`` over atoms
    as :func:`linear_parts` returns them; ``from_linear(*linear_parts(e))
    == e``."""
    result_terms = []
    for rest in sorted(parts, key=_sort_key):
        c = parts[rest]
        if c == 0:
            continue
        result_terms.append(rest if c == 1 else _raw_mul(c, rest))
    if constant != 0:
        result_terms.append(Const(constant))
    if not result_terms:
        return ZERO
    if len(result_terms) == 1:
        return result_terms[0]
    return Add(tuple(result_terms))


def add(*terms) -> Expr:
    """Normalized sum of the given expressions/ints."""
    return from_linear(*_collect([_coerce(t) for t in terms]))


def _raw_mul(c: int, rest: Expr) -> Expr:
    """c * rest with c a plain non-zero, non-one integer, rest non-Add."""
    if isinstance(rest, Mul):
        return Mul((Const(c),) + rest.factors)
    return Mul((Const(c), rest))


def sub(a, b) -> Expr:
    """``a - b``."""
    return add(_coerce(a), neg(_coerce(b)))


def neg(a) -> Expr:
    """``-a``."""
    return mul(Const(-1), _coerce(a))


def mul(*factors) -> Expr:
    """Normalized product of the given expressions/ints."""
    flat = []
    stack = [_coerce(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        else:
            flat.append(f)
    constant = 1
    rest = []
    for f in flat:
        if isinstance(f, Const):
            constant *= f.value
        else:
            rest.append(f)
    if constant == 0:
        return ZERO
    if not rest:
        return Const(constant)
    # Distribute over sums when the expansion stays small.
    sums = [f for f in rest if isinstance(f, Add)]
    if sums:
        n_terms = 1
        for s in sums:
            n_terms *= len(s.terms)
        if n_terms <= _DISTRIBUTE_LIMIT:
            others = [f for f in rest if not isinstance(f, Add)]
            expanded = [[]]
            for s in sums:
                expanded = [acc + [t] for acc in expanded for t in s.terms]
            return add(*[
                mul(Const(constant), *(others + combo)) for combo in expanded
            ])
    rest.sort(key=_sort_key)
    if constant == 1 and len(rest) == 1:
        return rest[0]
    if constant == 1:
        return Mul(tuple(rest))
    return Mul((Const(constant),) + tuple(rest))


def floordiv(a, b) -> Expr:
    """``floor(a / b)`` with constant folding and unit-divisor removal."""
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("floordiv by constant zero")
        if b.value == 1:
            return a
        if isinstance(a, Const):
            return Const(floor_div(a.value, b.value))
        # floor(floor(x/m)/n) == floor(x/(m*n)) for positive divisors.
        if (b.value > 0 and isinstance(a, FloorDiv) and
                isinstance(a.den, Const) and a.den.value > 0):
            return floordiv(a.num, Const(a.den.value * b.value))
        # (c*e) / b when b divides every additive coefficient exactly is
        # not safe in general (floor of sum != sum of floors), so we only
        # fold the all-constant case and exact single products.
        c, rest = _split_coeff(a)
        if rest is not None and c % b.value == 0:
            return mul(Const(c // b.value), rest)
    if a == b:
        return ONE
    return FloorDiv(a, b)


def ceildiv(a, b) -> Expr:
    """``ceil(a / b)`` with constant folding and unit-divisor removal."""
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("ceildiv by constant zero")
        if b.value == 1:
            return a
        if isinstance(a, Const):
            return Const(ceil_div(a.value, b.value))
        # ceil(ceil(x/m)/n) == ceil(x/(m*n)) for positive divisors.
        if (b.value > 0 and isinstance(a, CeilDiv) and
                isinstance(a.den, Const) and a.den.value > 0):
            return ceildiv(a.num, Const(a.den.value * b.value))
        c, rest = _split_coeff(a)
        if rest is not None and c % b.value == 0:
            return mul(Const(c // b.value), rest)
    if a == b:
        return ONE
    return CeilDiv(a, b)


def mod(a, b) -> Expr:
    """Floored modulus with constant folding; ``mod(x, 1) == 0``."""
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("mod by constant zero")
        if b.value in (1, -1):
            return ZERO
        if isinstance(a, Const):
            return Const(a.value - b.value * floor_div(a.value, b.value))
    if a == b:
        return ZERO
    return Mod(a, b)


def _fold_minmax(args, op: Callable[[int, int], int], cls):
    flat = []
    stack = [_coerce(a) for a in reversed(args)]
    while stack:
        a = stack.pop()
        if isinstance(a, cls):
            stack.extend(reversed(a.args))
        else:
            flat.append(a)
    constant = None
    seen = list(dict.fromkeys(a for a in flat if not isinstance(a, Const)))
    for a in flat:
        if isinstance(a, Const):
            constant = a.value if constant is None else op(constant, a.value)
    # Prune arguments dominated by another argument: if sub(x, y) folds
    # to a constant d we know which one wins (for Max x loses when
    # d < 0, for Min when d > 0; ties keep the earlier argument).
    # sub(x, y) = add(x, neg(y)) folds exactly when x's atoms cancel
    # those of neg(y), whose form is y's own negated, so arguments are
    # grouped by atoms instead of compared pairwise.  Each group keeps
    # its two strongest rivals, ranked (sign * const, -index).  As in
    # neg(), a product over sums competes as its expansion, and a sum too
    # long to distribute over is a single atom there, so it is no rival.
    sign = 1 if cls is Max else -1
    ranked = []
    rivals: Dict[frozenset, list] = {}
    for idx, y in enumerate(seen):
        parts, c = linear_parts(y)
        ranked.append((frozenset(parts.items()), (sign * c, -idx), idx))
        if type(y) is Mul and Add in map(type, y.factors):
            parts, c = linear_parts(mul(*y.factors))
        elif isinstance(y, Add) and len(y.terms) > _DISTRIBUTE_LIMIT:
            continue
        top = rivals.setdefault(frozenset(parts.items()), [])
        top.append(((sign * c, -idx), idx))
        top.sort(reverse=True)
        del top[2:]
    result = []
    for x, (key, rank, idx) in zip(seen, ranked):
        rival = next((r for r, j in rivals.get(key, ()) if j != idx), None)
        if rival is None or rival < rank:
            result.append(x)
    if constant is not None:
        result.append(Const(constant))
    if not result:
        raise ValueError("min/max of no arguments")
    if len(result) == 1:
        return result[0]
    result.sort(key=_sort_key)
    return cls(tuple(result))


def vmin(*args) -> Expr:
    """n-ary minimum (``min`` is taken by the builtin)."""
    return _fold_minmax(args, min, Min)


def vmax(*args) -> Expr:
    """n-ary maximum."""
    return _fold_minmax(args, max, Max)


class Builtin(NamedTuple):
    """A call every evaluator and emitter implements itself."""

    #: The arity it is builtin at; ``None`` for any arity, the first
    #: argument being the one used (the others are evaluated and ignored).
    arity: Optional[int]
    #: The implementation over argument values.
    impl: Callable[..., int]
    #: The comparison operator a relational form is (``None`` otherwise).
    infix: Optional[str] = None


#: The one builtin-call table.  A call is a builtin when its name and
#: arity match an entry here; otherwise it is an array read or a function.
#: A relational name at another arity is therefore an array or function,
#: and so is ``ne``.  An array the caller binds under a builtin's name
#: shadows the builtin at run time.
BUILTINS: Dict[str, Builtin] = {
    "le": Builtin(2, lambda a, b: 1 if a <= b else 0, "<="),
    "ge": Builtin(2, lambda a, b: 1 if a >= b else 0, ">="),
    "lt": Builtin(2, lambda a, b: 1 if a < b else 0, "<"),
    "gt": Builtin(2, lambda a, b: 1 if a > b else 0, ">"),
    "eq": Builtin(2, lambda a, b: 1 if a == b else 0, "=="),
    "abs": Builtin(None, lambda x, *_: abs(x)),
    "sgn": Builtin(None, lambda x, *_: sign(x)),
}


def builtin(func: str, arity: int) -> Optional[Builtin]:
    """The builtin a call of *func* with *arity* arguments is, or None."""
    entry = BUILTINS.get(func)
    if entry is None or entry.arity not in (None, arity):
        return None
    return entry


def call(func: str, *args) -> Expr:
    """Opaque call; folds the arithmetic builtins (``abs``, ``sgn``) over
    constant arguments.  A comparison stays a call, so a guard prints as
    written."""
    cargs = tuple(_coerce(a) for a in args)
    entry = builtin(func, len(cargs))
    if (entry is not None and entry.infix is None and cargs
            and all(isinstance(a, Const) for a in cargs)):
        return Const(entry.impl(*[a.value for a in cargs]))
    if func == "abs" and len(cargs) == 1:
        # abs(-e) == abs(e); normalize the sign of the leading coefficient.
        c, rest = _split_coeff(cargs[0])
        if c < 0:
            cargs = (mul(Const(-c), rest) if rest is not None else Const(-c),)
    return Call(func, cargs)


def abs_(a) -> Expr:
    """``abs(a)`` as an expression."""
    return call("abs", a)


def sgn(a) -> Expr:
    """``sgn(a)`` as an expression (-1, 0 or +1)."""
    return call("sgn", a)


# ---------------------------------------------------------------------------
# Traversal, substitution, evaluation
# ---------------------------------------------------------------------------

def children(e: Expr) -> Tuple[Expr, ...]:
    """Immediate sub-expressions of *e* (empty for leaves)."""
    if isinstance(e, (Const, Var)):
        return ()
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, (FloorDiv, CeilDiv, Mod)):
        return (e.num, e.den)
    if isinstance(e, (Min, Max)):
        return e.args
    if isinstance(e, Call):
        return e.args
    raise TypeError(f"unknown expression node {e!r}")


def free_vars(e: Expr) -> frozenset:
    """The set of variable names occurring in *e* (cached per node)."""
    cached = getattr(e, "_free", None)
    if cached is not None:
        return cached
    if isinstance(e, Var):
        result = frozenset((e.name,))
    elif isinstance(e, Const):
        result = frozenset()
    else:
        result = frozenset().union(*(free_vars(c) for c in children(e)))
    object.__setattr__(e, "_free", result)
    return result


def subexpressions(e: Expr) -> Iterator[Expr]:
    """*e* and every node below it, in pre-order, left to right (the
    order the interpreter evaluates array reads in)."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (Const, Var)):
            stack.extend(reversed(children(node)))


def contains_call(e: Expr) -> bool:
    """True iff *e* contains any opaque :class:`Call` node."""
    return any(isinstance(c, Call) for c in subexpressions(e))


def is_constant(e: Expr) -> bool:
    """True iff *e* is a compile-time constant (a folded literal)."""
    return isinstance(e, Const)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, renormalizing along the way."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if not (free_vars(e) & set(mapping)):
        return e
    if isinstance(e, Add):
        return add(*[substitute(t, mapping) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[substitute(f, mapping) for f in e.factors])
    if isinstance(e, FloorDiv):
        return floordiv(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, CeilDiv):
        return ceildiv(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, Mod):
        return mod(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, Min):
        return vmin(*[substitute(a, mapping) for a in e.args])
    if isinstance(e, Max):
        return vmax(*[substitute(a, mapping) for a in e.args])
    if isinstance(e, Call):
        return call(e.func, *[substitute(a, mapping) for a in e.args])
    raise TypeError(f"unknown expression node {e!r}")


def evaluate(e: Expr, env: Mapping[str, int],
             funcs: Optional[Mapping[str, Callable[..., int]]] = None) -> int:
    """Evaluate *e* to an integer under variable bindings *env*.

    ``funcs`` supplies implementations for opaque calls (e.g. a ``colstr``
    lookup backed by a CSR array).  The :data:`BUILTINS` are built in
    and come first, as in the interpreter.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise NameError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Add):
        return sum(evaluate(t, env, funcs) for t in e.terms)
    if isinstance(e, Mul):
        result = 1
        for f in e.factors:
            result *= evaluate(f, env, funcs)
        return result
    if isinstance(e, FloorDiv):
        return floor_div(evaluate(e.num, env, funcs), evaluate(e.den, env, funcs))
    if isinstance(e, CeilDiv):
        return ceil_div(evaluate(e.num, env, funcs), evaluate(e.den, env, funcs))
    if isinstance(e, Mod):
        num = evaluate(e.num, env, funcs)
        den = evaluate(e.den, env, funcs)
        return num - den * floor_div(num, den)
    if isinstance(e, Min):
        return min(evaluate(a, env, funcs) for a in e.args)
    if isinstance(e, Max):
        return max(evaluate(a, env, funcs) for a in e.args)
    if isinstance(e, Call):
        entry = builtin(e.func, len(e.args))
        if entry is not None:
            impl = entry.impl
        elif funcs and e.func in funcs:
            impl = funcs[e.func]
        else:
            raise NameError(f"no implementation for function {e.func!r}")
        return int(impl(*[evaluate(a, env, funcs) for a in e.args]))
    raise TypeError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_ATOM = 3


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = str(e.value)
        return f"({s})" if e.value < 0 and parent_prec >= _PREC_MUL else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        # Show positive-coefficient terms first so "jj - ii" never prints
        # as "(-1)*ii + jj"; the order is cosmetic only.
        split = [(_split_coeff(t), t) for t in e.terms]
        display = ([p for p in split if p[0][0] >= 0] +
                   [p for p in split if p[0][0] < 0])
        parts = []
        for i, ((c, rest), t) in enumerate(display):
            if i == 0 and c >= 0:
                parts.append(_render(t, _PREC_ADD))
            elif c < 0:
                pos = (Const(-c) if rest is None
                       else rest if c == -1 else _raw_mul(-c, rest))
                parts.append(("-" if i == 0 else " - ") +
                             _render(pos, _PREC_ADD + 1))
            else:
                parts.append(f" + {_render(t, _PREC_ADD + 1)}")
        s = "".join(parts)
        return f"({s})" if parent_prec > _PREC_ADD else s
    if isinstance(e, Mul):
        c, rest = _split_coeff(e)
        if c < 0 and rest is not None:
            pos = rest if c == -1 else _raw_mul(-c, rest)
            s = "-" + _render(pos, _PREC_MUL)
            return f"({s})" if parent_prec >= _PREC_MUL else s
        s = "*".join(_render(f, _PREC_MUL) for f in e.factors)
        return f"({s})" if parent_prec > _PREC_MUL else s
    if isinstance(e, FloorDiv):
        return f"div({_render(e.num, 0)}, {_render(e.den, 0)})"
    if isinstance(e, CeilDiv):
        return f"ceil({_render(e.num, 0)}, {_render(e.den, 0)})"
    if isinstance(e, Mod):
        return f"mod({_render(e.num, 0)}, {_render(e.den, 0)})"
    if isinstance(e, Min):
        return "min(" + ", ".join(_render(a, 0) for a in e.args) + ")"
    if isinstance(e, Max):
        return "max(" + ", ".join(_render(a, 0) for a in e.args) + ")"
    if isinstance(e, Call):
        return e.func + "(" + ", ".join(_render(a, 0) for a in e.args) + ")"
    raise TypeError(f"unknown expression node {e!r}")


def to_str(e: Expr) -> str:
    """Render an expression in the paper's surface syntax."""
    return _render(e, 0)
