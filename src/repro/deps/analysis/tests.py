"""The classic dependence tests: ZIV, GCD, and Banerjee bounds.

These are the cheap tiers of the analyzer's test ladder (the expensive
exact tier is rational Fourier–Motzkin in
:mod:`repro.deps.analysis.linear_system`):

* **ZIV** — a dimension whose subscripts use no iteration variables is
  independent iff the two constants differ;
* **GCD** — an affine equality has integer solutions only if the gcd of
  its variable coefficients divides its constant term;
* **Banerjee** — interval bounds of ``f(x1) - g(x2)`` under the loop
  ranges and a direction-vector constraint; independence when the
  interval excludes zero.

All three are *refutation* tests: "pass" means a dependence cannot be
ruled out.

Everything here is integer arithmetic: the analyzer's subscripts have
integer coefficients (:func:`~repro.expr.nodes.linear_parts`), loop
ranges and direction intervals are integers, and an :class:`Equality`
built from :class:`~fractions.Fraction` coefficients is scaled once, on
construction, to coprime integers.  A positive scale changes none of
the three verdicts: the gcd of the scaled coefficients divides the
scaled constant exactly when the original gcd divides the original
constant, and a scaled interval contains zero exactly when the
original does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Optional, Tuple

Coeffs = Dict[str, int]
Interval = Tuple[Optional[int], Optional[int]]  # None = infinite


class Equality:
    """``sum(coeffs[v] * v) + const == 0`` over suffixed iteration
    variables (``i$1``/``i$2``) and invariant symbols, with integer
    coefficients: a non-integer input is scaled once to coprime
    integers (see the module docstring for why no verdict moves)."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Dict[str, object], const: object):
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        if not all(type(c) is int for c in (const, *coeffs.values())):
            coeffs, const = _coprime_ints(coeffs, const)
        self.coeffs: Coeffs = coeffs
        self.const: int = const

    def __repr__(self):
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items()))
        return f"Equality({terms} + {self.const} == 0)"


def _coprime_ints(coeffs: Dict[str, object], const: object
                  ) -> Tuple[Coeffs, int]:
    """*coeffs* and *const*, rationals, times the one positive scale
    that makes them coprime integers."""
    values = [Fraction(c) for c in (const, *coeffs.values())]
    scale = lcm(*(x.denominator for x in values))
    ints = [int(x * scale) for x in values]
    g = gcd(*ints) or 1
    return ({v: x // g for v, x in zip(coeffs, ints[1:])}, ints[0] // g)


def gcd_test(eq: Equality) -> bool:
    """True when integer solutions may exist (pass), False = refuted."""
    g = gcd(*eq.coeffs.values())
    if g == 0:
        return eq.const == 0
    return eq.const % g == 0


def _iv_add(a: Interval, b: Interval) -> Interval:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return lo, hi


def _iv_scale(a: Interval, k: int) -> Interval:
    if k == 0:
        return 0, 0
    lo, hi = a
    if k > 0:
        return (None if lo is None else lo * k,
                None if hi is None else hi * k)
    return (None if hi is None else hi * k,
            None if lo is None else lo * k)


def _iv_intersect(a: Interval, b: Interval) -> Optional[Interval]:
    lo = a[0] if b[0] is None else b[0] if a[0] is None else max(a[0], b[0])
    hi = a[1] if b[1] is None else b[1] if a[1] is None else min(a[1], b[1])
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


#: Direction codes to delta intervals (delta = x2 - x1).
DIRECTION_INTERVALS: Dict[str, Interval] = {
    "+": (1, None),
    "0": (0, 0),
    "-": (None, -1),
    "*": (None, None),
}


class BanerjeeForm:
    """One equality's Banerjee interval, split by what reads a direction.

    Rewriting ``x$2 = x$1 + delta`` moves each ``x$2`` coefficient onto
    ``x$1`` and ``delta``.  The constant, the ``x$1`` terms over the loop
    ranges and any unbounded extra symbol form :attr:`fixed`, built
    once; :attr:`deltas` holds, per base variable and direction code,
    the scaled ``delta`` interval (``None`` when the direction cannot
    happen inside the range at all).  :meth:`passes` then only adds one
    precomputed interval per constrained variable.
    """

    __slots__ = ("fixed", "deltas")

    def __init__(self, eq: Equality, var_ranges: Dict[str, Interval]):
        combined: Coeffs = {}
        delta_coeffs: Coeffs = {}
        extra: Coeffs = {}
        for v, c in eq.coeffs.items():
            if v.endswith("$1"):
                base = v[:-2]
                combined[base] = combined.get(base, 0) + c
            elif v.endswith("$2"):
                base = v[:-2]
                combined[base] = combined.get(base, 0) + c
                delta_coeffs[base] = delta_coeffs.get(base, 0) + c
            else:
                extra[v] = extra.get(v, 0) + c

        total: Interval = (eq.const, eq.const)
        for base, c in combined.items():
            rng = var_ranges.get(base, (None, None))
            total = _iv_add(total, _iv_scale(rng, c))
        for v, c in extra.items():
            total = _iv_add(total, _iv_scale((None, None), c))
        self.fixed = total
        self.deltas: Dict[str, Dict[str, Optional[Interval]]] = {}
        for base, c in delta_coeffs.items():
            rng = var_ranges.get(base, (None, None))
            width: Interval = (None, None)
            if rng[0] is not None and rng[1] is not None:
                width = (rng[0] - rng[1], rng[1] - rng[0])
            per_code: Dict[str, Optional[Interval]] = {}
            for code, dir_iv in DIRECTION_INTERVALS.items():
                delta_iv = _iv_intersect(dir_iv, width)
                per_code[code] = (None if delta_iv is None
                                  else _iv_scale(delta_iv, c))
            self.deltas[base] = per_code

    def passes(self, direction: Dict[str, str]) -> bool:
        """True when a dependence cannot be ruled out under *direction*
        (base name -> code; an absent name is ``'*'``)."""
        total = self.fixed
        for base, per_code in self.deltas.items():
            iv = per_code[direction.get(base, "*")]
            if iv is None:
                return False  # direction impossible inside the range at all
            total = _iv_add(total, iv)
        lo, hi = total
        if lo is not None and lo > 0:
            return False
        if hi is not None and hi < 0:
            return False
        return True


def banerjee_test(eq: Equality,
                  var_ranges: Dict[str, Interval],
                  direction: Dict[str, str]) -> bool:
    """Banerjee-style interval refutation under a direction constraint.

    *var_ranges* maps base iteration-variable names to their (possibly
    infinite) value intervals; *direction* maps base names to one of
    ``'+' '0' '-' '*'`` constraining ``x$2 - x$1``.  Any variable in the
    equality that is neither a suffixed iteration variable nor in
    *var_ranges* (e.g. a symbolic invariant) is unbounded.

    Returns True when a dependence cannot be ruled out.  The analyzer
    builds one :class:`BanerjeeForm` per equality and reuses it for
    every direction it asks about.
    """
    return BanerjeeForm(eq, var_ranges).passes(direction)
