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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Optional, Tuple

Coeffs = Dict[str, Fraction]
Interval = Tuple[Optional[Fraction], Optional[Fraction]]  # None = infinite


class Equality:
    """``sum(coeffs[v] * v) + const == 0`` over suffixed iteration
    variables (``i$1``/``i$2``) and invariant symbols."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Coeffs, const: Fraction):
        self.coeffs = {v: Fraction(c) for v, c in coeffs.items() if c != 0}
        self.const = Fraction(const)

    def __repr__(self):
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items()))
        return f"Equality({terms} + {self.const} == 0)"


def gcd_test(eq: Equality) -> bool:
    """True when integer solutions may exist (pass), False = refuted."""
    scale = lcm(eq.const.denominator,
                *(c.denominator for c in eq.coeffs.values()))
    g = gcd(*(int(c * scale) for c in eq.coeffs.values()))
    if g == 0:
        return eq.const == 0
    return int(eq.const * scale) % g == 0


def _iv_add(a: Interval, b: Interval) -> Interval:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return lo, hi


def _iv_scale(a: Interval, k: Fraction) -> Interval:
    if k == 0:
        return Fraction(0), Fraction(0)
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
    "+": (Fraction(1), None),
    "0": (Fraction(0), Fraction(0)),
    "-": (None, Fraction(-1)),
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
        combined: Dict[str, Fraction] = {}
        delta_coeffs: Dict[str, Fraction] = {}
        extra: Dict[str, Fraction] = {}
        for v, c in eq.coeffs.items():
            if v.endswith("$1"):
                base = v[:-2]
                combined[base] = combined.get(base, Fraction(0)) + c
            elif v.endswith("$2"):
                base = v[:-2]
                combined[base] = combined.get(base, Fraction(0)) + c
                delta_coeffs[base] = delta_coeffs.get(base, Fraction(0)) + c
            else:
                extra[v] = extra.get(v, Fraction(0)) + c

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
