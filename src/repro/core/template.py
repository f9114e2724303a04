"""The transformation-template protocol (Section 2).

A *transformation template* has parameters; supplying values creates a
*template instantiation* (here: an instance of a :class:`Template`
subclass).  Every template defines:

* ``map_dep_vector`` — the Table 2 dependence-vector mapping rule (one
  input vector may map to several output vectors, e.g. for Block);
* ``check_preconditions`` — the Table 3/4 loop-bounds preconditions,
  evaluated on the :class:`~repro.core.bounds_matrix.BoundsMatrix` of the
  *current* loops (never on generated code);
* ``map_loops`` — the Table 3/4 loop-bounds mapping rules plus the
  initialization-statement rules; returns the new loop headers and the
  ``INIT`` statements that define this template's input index variables
  as functions of its output index variables.

Templates are value objects, independent of any loop nest: they can be
created, composed into sequences, tested for legality against many nests
and discarded, without ever mutating a nest (Section 5's
"search and undo" property).
"""

from __future__ import annotations

import abc
from typing import Iterable, List, NamedTuple, Sequence, Set, Tuple

from repro.core.bounds_matrix import BoundsMatrix, bounds_matrix_of
from repro.deps.vector import DepSet, DepVector
from repro.ir.loopnest import InitStmt, Loop


class TransformedLoops(NamedTuple):
    """Result of one template's loop mapping."""

    loops: Tuple[Loop, ...]
    inits: Tuple[InitStmt, ...]


class Template(abc.ABC):
    """Base class for kernel transformation templates.

    Instances are immutable once constructed.  ``n`` is the input loop
    nest size; ``output_depth`` the output nest size (they differ for
    Block, Coalesce and Interleave).
    """

    #: Template name as it appears in the paper's kernel set (Table 1).
    kernel_name: str = "?"

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"loop nest size must be a positive int, got {n!r}")
        self.n = n

    # -- structure ---------------------------------------------------------

    @property
    def output_depth(self) -> int:
        """Size of the output loop nest (defaults to ``n``)."""
        return self.n

    @abc.abstractmethod
    def params(self) -> str:
        """Human-readable parameter rendering, e.g. ``perm=[3 1 2]``."""

    def signature(self) -> str:
        return f"{self.kernel_name}({self.params()})"

    def to_spec(self) -> str:
        """Rendering in the CLI step mini-language; kernel templates all
        implement this so sequences serialize via
        :meth:`Transformation.to_spec`."""
        raise NotImplementedError(
            f"{type(self).__name__} has no step-language spelling")

    def __repr__(self):
        return self.signature()

    # -- dependence vectors (Table 2) -----------------------------------------

    #: True for templates whose Table 2 rule is only exact when the
    #: decomposition anchor (a range loop's lower bound) is invariant in
    #: the other loop variables; legality passes them a
    #: :meth:`dep_context` so the mapping can widen (see DESIGN.md,
    #: soundness tightening 4).
    dep_context_sensitive: bool = False

    @abc.abstractmethod
    def map_dep_vector(self, vec: DepVector) -> List[DepVector]:
        """Apply this template's Table 2 rule to one dependence vector."""

    def dep_context(self, loops: Sequence[Loop]):
        """A hashable summary of whatever the Table 2 rule's exactness
        depends on in the loop headers this step receives, or None when
        the rule is exact unconditionally (the default)."""
        return None

    def map_dep_set(self, deps: DepSet, ctx=None) -> DepSet:
        """Apply the rule to a whole dependence set.

        *ctx* is this step's :meth:`dep_context` for the loops it
        receives (None when unknown or not needed); context-sensitive
        templates use it to widen entries whose rule would otherwise be
        unsound.  The base implementation ignores it.
        """
        if deps.is_empty():
            return deps
        if deps.depth != self.n:
            raise ValueError(
                f"{self.signature()}: dependence vectors have "
                f"{deps.depth} entries, expected {self.n}")
        out: List[DepVector] = []
        for vec in deps:
            out.extend(self.map_dep_vector(vec))
        return DepSet(out)

    # -- loop bounds (Tables 3 and 4) -------------------------------------------

    def check_preconditions(self, loops: Sequence[Loop]) -> None:
        """Raise :class:`PreconditionViolation` when the loop-bounds
        preconditions are not met.  Default: no preconditions."""
        self._require_depth(loops)

    @abc.abstractmethod
    def map_loops(self, loops: Sequence[Loop],
                  taken: Set[str]) -> TransformedLoops:
        """Produce the transformed loop headers and INIT statements.

        *taken* is the set of identifier names already in use (loop
        indices, invariants, array names); fresh names must avoid it.
        Implementations must not mutate *taken* except through
        :func:`fresh_name`, which records the names it hands out.
        """

    # -- helpers -------------------------------------------------------------

    def _require_depth(self, loops: Sequence[Loop]) -> None:
        if len(loops) != self.n:
            raise ValueError(
                f"{self.signature()}: expected a nest of {self.n} loops, "
                f"got {len(loops)}")

    def _bounds_matrix(self, loops: Sequence[Loop]) -> BoundsMatrix:
        return bounds_matrix_of(loops)


def fresh_name(base: str, taken: Set[str]) -> str:
    """A deterministic fresh identifier: the doubled base name (``i`` ->
    ``ii``, matching the paper's examples), then numbered fallbacks.

    The chosen name is added to *taken*.
    """
    candidates = [base, base * 2 if len(base) == 1 else base + base[-1]]
    candidates += [f"{base}{k}" for k in range(2, 100)]
    for cand in candidates:
        if cand not in taken:
            taken.add(cand)
            return cand
    raise RuntimeError(f"could not find a fresh name for {base!r}")


def check_contiguous_range(name: str, n: int, i: int, j: int) -> None:
    """Validate a template's 1-based contiguous loop range ``i..j``."""
    if not (1 <= i <= j <= n):
        raise ValueError(
            f"{name}: range i..j must satisfy 1 <= i <= j <= n, "
            f"got i={i}, j={j}, n={n}")


def anchor_dep_context(tmpl, loops: Sequence[Loop]):
    """Shared :meth:`Template.dep_context` for Block and Interleave.

    Both decompose each range loop ``k`` against an *anchor* — the
    residue class (Interleave) or tile origin (Block) is measured from
    ``l_k`` on the lattice ``{l_k + m*s_k}``.  When ``l_k`` (or ``s_k``)
    references another loop variable ``x_h``, source and target of a
    dependence with a nonzero distance in ``x_h`` see *different*
    anchors, and the loop-invariant Table 2 rule under-approximates the
    mapped set (DESIGN.md, soundness tightening 4).

    Returns ``((k, (h, ...)), ...)`` listing, per range loop with a
    variant anchor, the 1-based loops its anchor references — or None
    when every anchor is invariant (the common rectangular case).
    """
    from repro.expr.linear import BoundType

    bm = tmpl._bounds_matrix(loops)
    ctx = []
    for k in range(tmpl.i, tmpl.j + 1):
        refs = tuple(
            h for h in range(1, tmpl.n + 1)
            if h != k and not (bm.type_of("LB", k, h).leq(BoundType.INVAR)
                               and bm.type_of("STEP", k, h).leq(
                                   BoundType.INVAR)))
        if refs:
            ctx.append((k, refs))
    return tuple(ctx) if ctx else None


def map_anchored_dep_set(tmpl, deps: DepSet, ctx) -> DepSet:
    """Shared context-aware :meth:`Template.map_dep_set` body for Block
    and Interleave.

    For each vector, range entries whose anchor references a loop with a
    possibly-nonzero distance are widened to the unconstrained pair
    ``{(*, *)}`` (the anchors may differ, so neither the offset/tile nor
    the element relation is known); all other entries keep the exact
    rule.
    """
    if deps.is_empty():
        return deps
    if deps.depth != tmpl.n:
        raise ValueError(
            f"{tmpl.signature()}: dependence vectors have "
            f"{deps.depth} entries, expected {tmpl.n}")
    refs_by_k = dict(ctx)
    out: List[DepVector] = []
    for vec in deps:
        widen = frozenset(
            k for k, hs in refs_by_k.items()
            if not all(vec.entry(h).is_zero() for h in hs))
        out.extend(tmpl.map_dep_vector(vec, widen=widen))
    return DepSet(out)
