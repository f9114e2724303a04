"""Polyhedron scanning for unimodular code generation.

The Unimodular template's loop-bounds mapping ("studied in detail in
[Irigoin 88; Wolf & Lam 91]") is polyhedron scanning: the input bounds
``l_k <= x_k <= u_k`` (affine, steps normalized to 1) form a system
``A x + r >= 0``; substituting ``x = M^-1 y`` gives a system over the new
indices, and eliminating ``y_n, y_{n-1}, ...`` with Fourier–Motzkin
yields, for every ``y_k``, lower bounds ``y_k >= ceil(e / a)`` and upper
bounds ``y_k <= floor(e / a)`` whose ``max``/``min`` become the new loop
bounds — exactly the `max(2, jj-n+1) .. min(n-1, jj-2)` shape of
Figure 1(b).

The system is a list of the dependence analyzer's integer
:class:`~repro.deps.analysis.linear_system.LinConstraint` rows, and each
projection is that module's shared ``_eliminate`` step.  Row variables
are the index variables (keyed by name) and the invariant *atoms*: the
distinct non-constant summands of a bound's invariant part in ``add``
normal form (``n``, ``div(n, 2)``, ``colstr(1)``), each keyed by
``"$"`` plus its printed form, so ``n`` stays symbolic.  The atom table
maps keys back to expressions; expressions are rebuilt only when a
level's bounds are extracted.

What stays specific to scanning is the fixed innermost-first
elimination order and a post-pass after every step (:func:`_tighten`):
rows over index variables alone are floor-tightened, rows with no index
variable are dropped (they relate invariants only, and their emptiness
shows up in some variable's max-lower/min-upper pair), and the tightest
row per coefficient vector is kept (the dominated-row rule the
analyzer's elimination applies too, :func:`_drop_dominated`).
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.deps.analysis.linear_system import (
    LinConstraint,
    LinearSystem,
    _drop_dominated,
    _eliminate,
)
from repro.expr.linear import split_affine
from repro.expr.nodes import (
    Const,
    Expr,
    Max,
    Min,
    add,
    ceildiv,
    floordiv,
    mul,
    neg,
    to_str,
    var,
    vmax,
    vmin,
)
from repro.resilience import guards as _guards
from repro.util.errors import CodegenError
from repro.util.matrices import IntMatrix

#: Atom key -> atom expression, shared by the rows of one system.
Atoms = Dict[str, Expr]


def affine_row(expr: Expr, names: Sequence[str], scale: int,
               extra: Mapping[str, int],
               atoms: Atoms) -> Optional[LinConstraint]:
    """The row ``scale * expr + sum(extra[v] * v) >= 0`` from one read of
    *expr*'s linear form: its coefficients over the index variables
    *names*, then *extra*'s, then its invariant atoms, registered in
    *atoms*.  ``None`` when *expr* is not affine in *names*."""
    split = split_affine(expr, set(names))
    if split is None:
        return None
    index, others, const = split
    row = {v: scale * c for v, c in index.items()}
    for v, c in extra.items():
        row[v] = row.get(v, 0) + c
    for atom, c in others.items():
        key = "$" + to_str(atom)
        atoms[key] = atom
        row[key] = row.get(key, 0) + scale * c
    return LinConstraint(row, scale * const)


def make_row(coeffs: Mapping[str, int], rest: Expr,
             atoms: Atoms) -> LinConstraint:
    """The row ``sum(coeffs[v] * v) + rest >= 0``, *rest*'s atoms
    registered in *atoms*."""
    return affine_row(rest, (), 1, coeffs, atoms)


def constraint_from_bound(expr: Expr, names: Sequence[str],
                          own_index: int, is_lower: bool,
                          atoms: Atoms) -> List[LinConstraint]:
    """Rows for ``x_k >= expr`` (lower) or ``x_k <= expr`` (upper), with
    ``x_k = names[own_index]``.

    A ``max`` lower bound / ``min`` upper bound contributes one row per
    term.
    """
    if is_lower and isinstance(expr, Max):
        terms = expr.args
    elif not is_lower and isinstance(expr, Min):
        terms = expr.args
    else:
        terms = (expr,)
    own = names[own_index]
    sign = 1 if is_lower else -1  # x_k - term >= 0, or term - x_k >= 0
    out = []
    for term in terms:
        row = affine_row(term, names, -sign, {own: sign}, atoms)
        if row is None:
            raise CodegenError(
                f"bound {term} is not affine in {list(names)}; "
                "unimodular codegen requires linear bounds")
        out.append(row)
    return out


def transform_constraints(rows: Sequence[LinConstraint],
                          m_inverse: IntMatrix, x_names: Sequence[str],
                          y_names: Sequence[str]) -> List[LinConstraint]:
    """Rewrite rows over ``x`` into rows over ``y = M x`` using
    ``x = M^-1 y``: index coefficient rows multiply by ``M^-1``, atoms
    pass through."""
    n = m_inverse.nrows
    if len(x_names) != n or len(y_names) != n:
        raise ValueError("constraint arity mismatch")
    out = []
    for row in rows:
        coeffs = {v: c for v, c in row.coeffs.items() if v not in x_names}
        for j, y in enumerate(y_names):
            coeffs[y] = sum(row.coeffs.get(x, 0) * m_inverse[k, j]
                            for k, x in enumerate(x_names))
        out.append(LinConstraint(coeffs, row.const))
    return out


def _tighten(rows: Sequence[LinConstraint],
             names: Sequence[str]) -> List[LinConstraint]:
    """Scanning's post-pass: drop rows with no index variable,
    floor-tighten rows over index variables only (sound for ``>= 0``),
    and keep the tightest (smallest constant) row per coefficient
    vector, in order of first appearance."""
    index = set(names)
    out: List[LinConstraint] = []
    for row in rows:
        if not any(v in index for v in row.coeffs):
            continue
        if all(v in index for v in row.coeffs):
            g = gcd(*row.coeffs.values())
            if g > 1:
                row = LinConstraint(
                    {v: c // g for v, c in row.coeffs.items()},
                    row.const // g)
        out.append(row)
    return _drop_dominated(out)


def _expr(row: LinConstraint, atoms: Atoms,
          skip: Optional[str] = None) -> Expr:
    """``row``'s left-hand side without the *skip* variable's term."""
    terms = [mul(Const(c), atoms[v] if v in atoms else var(v))
             for v, c in row.coeffs.items() if v != skip]
    return add(*terms, Const(row.const))


def _bound_exprs(rows: Sequence[LinConstraint], name: str,
                 atoms: Atoms) -> Tuple[List[Expr], List[Expr]]:
    """Lower/upper bound expressions for variable *name* from the rows
    that mention it."""
    lowers, uppers = [], []
    for row in rows:
        a = row.coeffs.get(name, 0)
        if a == 0:
            continue
        inner = _expr(row, atoms, name)
        if a > 0:
            lowers.append(ceildiv(neg(inner), Const(a)))
        else:
            uppers.append(floordiv(inner, Const(-a)))
    return lowers, uppers


def remove_redundant(rows: List[LinConstraint]) -> List[LinConstraint]:
    """Drop rows implied by the rest of the system.

    Exact over the rationals: a row is redundant iff the system with it
    replaced by its strict negation (``-(lhs) - 1 >= 0`` over integers)
    is infeasible.  Atoms are free variables of the system, a sound
    relaxation (it can only miss redundancies, never create them).
    """
    if len(rows) > 60:
        return rows
    kept = list(rows)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept) - 1, -1, -1):
            row = kept[idx]
            system = LinearSystem()
            system.constraints = kept[:idx] + kept[idx + 1:] + [
                LinConstraint({v: -c for v, c in row.coeffs.items()},
                              -row.const - 1)]
            if not system.is_feasible():
                kept.pop(idx)
                changed = True
    return kept


def scan_bounds(rows: Sequence[LinConstraint], names: Sequence[str],
                atoms: Atoms,
                prune_redundant: bool = True) -> List[Tuple[Expr, Expr]]:
    """Compute ``(lower, upper)`` bound expressions for every variable.

    *names* lists the output index variables outermost first; the bound
    of variable *k* may reference variables ``0..k-1``.  *atoms* is the
    table the rows' invariant atoms were registered in.
    ``prune_redundant`` removes implied rows before each level's bound
    extraction (so Figure 4(b) reads ``ii <= jj``, not ``min(jj, n)``).
    """
    n = len(names)
    bounds: List[Optional[Tuple[Expr, Expr]]] = [None] * n
    # Variable-free input rows: a constant falsehood makes the whole
    # polyhedron empty (emit a statically empty nest); a constant truth
    # is dropped; a symbolic one cannot be attached to any loop bound
    # and is rejected.  (FM-*generated* variable-free rows are different
    # — their emptiness is reflected in some variable's max-lower/
    # min-upper pair — and are dropped by _tighten.)
    empty = ([(Const(0), Const(-1))] + [(Const(0), Const(0))] * (n - 1))[:n]
    for row in rows:
        if any(v in row.coeffs for v in names):
            continue
        if row.coeffs:
            raise CodegenError(
                f"variable-free symbolic constraint {_expr(row, atoms)}"
                " >= 0 cannot be expressed as a loop bound")
        if row.const < 0:
            return empty
    cap = _guards.limits().max_fme_constraints
    current = _tighten(rows, names)
    for level in range(n - 1, -1, -1):
        if prune_redundant:
            current = remove_redundant(current)
        lowers, uppers = _bound_exprs(current, names[level], atoms)
        if not lowers or not uppers:
            # An empty polyhedron can lose a variable's bounds on the
            # way here: pruning an infeasible system strips rows (each
            # is "implied"), and _tighten drops the constant falsehood
            # elimination derives.  It scans as an empty nest.
            if not LinearSystem(rows).is_feasible():
                return empty
            raise CodegenError(
                f"variable {names[level]} is unbounded "
                f"{'below' if not lowers else 'above'}; the input nest's "
                "bounds do not define a scannable polyhedron")
        bounds[level] = (vmax(*lowers), vmin(*uppers))
        combined = _eliminate(current, names[level], cap)
        if combined is None:
            raise CodegenError(
                f"Fourier-Motzkin blowup eliminating {names[level]}: more "
                f"than {cap} constraints (REPRO_MAX_FME_CONSTRAINTS); the "
                "transformed polyhedron is too complex")
        current = _tighten(combined, names)
    return bounds  # type: ignore[return-value]
