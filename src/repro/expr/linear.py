"""Affine views of the linear normal form and the ``type(expr, x)`` lattice.

Section 4.1 of the paper classifies how a bounds expression ``expr`` uses
an index variable ``x``::

    type(expr, x) = const      if expr is a compile-time constant
                    invar      if expr is invariant in x
                    linear     if expr is linear in x with a compile-time
                               constant coefficient
                    nonlinear  otherwise

with the total order ``const < invar < linear < nonlinear``.  A
precondition ``type(expr, x) <= V`` is satisfied by any type at or below
``V`` in the lattice.

Max/min functions are nonlinear in general, but the paper's special case
(Section 4.1) treats a *lower* bound that is a ``max`` of linear terms
(with positive step) or an *upper* bound that is a ``min`` of linear terms
as linear, since each term is a separate linear inequality.  That decision
depends on bound position and step sign, so it is exposed here as
:func:`bound_type_through_minmax` and applied by the bounds-matrix layer.

Nothing here walks an expression tree: :func:`split_affine` filters a
node's cached linear form (:func:`repro.expr.nodes.linear_parts`), and
:func:`affine_form`, :func:`bound_type`, the bounds matrices, the
analyzer's subscript rows and Fourier–Motzkin rows all read that filter.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Dict, Iterable, Optional, Set, Tuple

from repro.expr.nodes import (
    Const,
    Expr,
    Max,
    Min,
    Var,
    add,
    free_vars,
    from_linear,
    linear_parts,
    mul,
)


class BoundType(enum.IntEnum):
    """The paper's type lattice: const ⊑ invar ⊑ linear ⊑ nonlinear."""

    CONST = 0
    INVAR = 1
    LINEAR = 2
    NONLINEAR = 3

    def leq(self, other: "BoundType") -> bool:
        """Lattice order test (a total order here)."""
        return int(self) <= int(other)

    @staticmethod
    def lub(*types: "BoundType") -> "BoundType":
        """Least upper bound of any number of types (CONST for none)."""
        result = BoundType.CONST
        for t in types:
            if int(t) > int(result):
                result = t
        return result

    def __str__(self):
        return self.name.lower()


class AffineForm:
    """``expr == sum(coeffs[v] * v) + rest`` with integer coefficients.

    *rest* is invariant in the variables the form was extracted against.
    """

    __slots__ = ("coeffs", "rest")

    def __init__(self, coeffs: Dict[str, int], rest: Expr):
        self.coeffs = {v: c for v, c in coeffs.items() if c != 0}
        self.rest = rest

    def coefficient(self, name: str) -> int:
        return self.coeffs.get(name, 0)

    def to_expr(self) -> Expr:
        terms = [mul(Const(c), Var(v)) for v, c in sorted(self.coeffs.items())]
        terms.append(self.rest)
        return add(*terms)

    def __repr__(self):
        return f"AffineForm({self.coeffs!r}, rest={self.rest})"

    def __eq__(self, other):
        return (isinstance(other, AffineForm) and
                self.coeffs == other.coeffs and self.rest == other.rest)


def split_affine(e: Expr, wanted: AbstractSet[str],
                 nonlinear: Optional[Set[str]] = None
                 ) -> Optional[Tuple[Dict[str, int], Dict[Expr, int], int]]:
    """*e*'s linear form split over the names *wanted*: ``(coeffs,
    others, constant)``, *coeffs* mapping each wanted ``Var`` atom's name
    to its coefficient and *others* holding the other atoms with theirs.
    Any other atom that mentions a wanted variable (``n*i``, ``div(i,
    2)``) makes *e* non-affine: the result is ``None``, unless a
    *nonlinear* set is given to collect those variables."""
    parts, constant = linear_parts(e)
    coeffs: Dict[str, int] = {}
    others: Dict[Expr, int] = {}
    for atom, c in parts.items():
        if isinstance(atom, Var) and atom.name in wanted:
            coeffs[atom.name] = c
            continue
        touched = free_vars(atom) & wanted
        if touched:
            if nonlinear is None:
                return None
            nonlinear |= touched
        others[atom] = c
    return coeffs, others, constant


def affine_form(e: Expr, wrt: Iterable[str]) -> Optional[AffineForm]:
    """Extract an affine form of *e* over the variables *wrt*.

    Returns ``None`` when *e* is not affine in those variables with
    compile-time integer coefficients (the paper's `linear` requirement).
    Variables outside *wrt* are left symbolic inside ``rest``.  A filter
    over :func:`split_affine`; the tree is not walked again.
    """
    split = split_affine(e, set(wrt))
    if split is None:
        return None
    coeffs, others, constant = split
    # With no wanted atom removed, rest is e's own form rebuilt: e.
    return AffineForm(coeffs, from_linear(others, constant) if coeffs else e)


def bound_type(e: Expr, x: str) -> BoundType:
    """The paper's ``type(expr, x)`` for a single expression node."""
    if isinstance(e, Const):
        return BoundType.CONST
    if x not in free_vars(e):
        return BoundType.INVAR
    if affine_form(e, (x,)) is not None:
        return BoundType.LINEAR
    return BoundType.NONLINEAR


def bound_type_through_minmax(e: Expr, x: str,
                              allow: Optional[str] = None) -> BoundType:
    """``type(expr, x)`` honouring the max/min special case.

    *allow* is ``"max"`` for positions where a max of linear terms is
    itself linear (lower bound, positive step), ``"min"`` for the dual
    case, or ``None`` to disable the special case entirely.
    """
    if allow == "max" and isinstance(e, Max):
        return BoundType.lub(*[bound_type(a, x) for a in e.args])
    if allow == "min" and isinstance(e, Min):
        return BoundType.lub(*[bound_type(a, x) for a in e.args])
    return bound_type(e, x)


def classify_over(e: Expr, variables: Iterable[str]) -> Dict[str, BoundType]:
    """Map each variable name to ``type(e, var)``; convenience for display."""
    return {v: bound_type(e, v) for v in variables}
