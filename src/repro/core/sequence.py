"""The sequence representation of iteration-reordering transformations.

Section 2: an iteration-reordering transformation is ``T = <t_1, ..., t_k>``
where each ``t_i`` instantiates a kernel template.  Composition is
sequence concatenation (``T . U = <t_1..t_k, u_1..u_l>``), optionally
reduced in length by fusing adjacent instantiations that compose into a
single instantiation — e.g. two adjacent Unimodular steps fuse by
multiplying their matrices.

The class provides the paper's two uniform operations:

* :meth:`Transformation.legality` — the single legality test for any
  sequence: (a) map the dependence set through all steps and look for a
  possible lexicographically negative tuple (only the *final* set
  matters — intermediate stages may be individually illegal); (b) check
  every step's loop-bounds preconditions against the loops it receives.
  Both halves are one fold, :func:`fold_legality`, over a memo: a
  one-shot one here, :class:`~repro.core.legality_cache.LegalityCache`
  in search.
* :meth:`Transformation.apply` — uniform code generation: fold the loop
  headers through every step's bounds mapping and emit initialization
  statements in the order ``INIT_k, ..., INIT_1``.

Transformations are independent of loop nests: building, composing and
testing them never mutates a nest (Section 5).  A transformation does
remember one thing about the last nest it was folded over — the final
loop headers, in a one-slot memo keyed by that nest's identity — so a
scorer asking for the headers right after a legality test does not fold
the sequence again; after a legal verdict it also holds the dependence
set object, so :meth:`apply` on that nest and set does not test again.
The slot caches pure functions of its keys, is filled only by a
successful fold, and is dropped on pickling; it never changes any
answer.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.codegen import assemble_nest, collect_taken
from repro.core.template import Template
from repro.core.templates.parallelize import Parallelize
from repro.core.templates.reverse_permute import ReversePermute
from repro.core.templates.unimodular import Unimodular
from repro.deps.vector import DepSet
from repro.ir.loopnest import Loop, LoopNest
from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.util.errors import (
    CodegenError,
    IllegalTransformationError,
    PreconditionViolation,
    ReproError,
)


class LegalityReport:
    """Outcome of the unified legality test, with an explanation."""

    __slots__ = ("legal", "reason", "failed_step", "final_deps", "violation")

    def __init__(self, legal: bool, reason: str = "",
                 failed_step: Optional[int] = None,
                 final_deps: Optional[DepSet] = None,
                 violation: Optional[PreconditionViolation] = None):
        self.legal = legal
        self.reason = reason
        self.failed_step = failed_step
        self.final_deps = final_deps
        self.violation = violation

    def __bool__(self):
        return self.legal

    def __repr__(self):
        if self.legal:
            return "LegalityReport(legal)"
        return f"LegalityReport(illegal: {self.reason})"


class Transformation:
    """An immutable sequence of kernel template instantiations."""

    __slots__ = ("steps", "_n", "_fold", "__weakref__")

    def __init__(self, steps: Sequence[Template], n: Optional[int] = None):
        """*steps* may be empty only when *n* (the nest size) is given."""
        steps = tuple(steps)
        if not steps and n is None:
            raise ValueError("an empty transformation needs an explicit n")
        for prev, nxt in zip(steps, steps[1:]):
            if prev.output_depth != nxt.n:
                raise ValueError(
                    f"cannot chain {prev.signature()} (outputs "
                    f"{prev.output_depth} loops) with {nxt.signature()} "
                    f"(expects {nxt.n})")
        if steps and n is not None and steps[0].n != n:
            raise ValueError(
                f"first step expects {steps[0].n} loops, not n={n}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_n", n if n is not None else steps[0].n)
        # (nest, final loop headers, DepSet or None) of the last
        # successful bounds fold; the DepSet is set when a legality test
        # found the sequence legal for (nest, DepSet).
        object.__setattr__(self, "_fold", None)

    def __setattr__(self, name, value):
        raise AttributeError("Transformation is immutable")

    # The guarded __setattr__ breaks pickle's default slot-state
    # restoration (sequences cross process boundaries in parallel search).
    # The fold memo stays behind: its nest lives in this process.
    def __getstate__(self):
        return (self.steps, self._n)

    def __setstate__(self, state):
        object.__setattr__(self, "steps", state[0])
        object.__setattr__(self, "_n", state[1])
        object.__setattr__(self, "_fold", None)

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Transformation":
        return Transformation((), n=n)

    @staticmethod
    def of(*steps: Template) -> "Transformation":
        return Transformation(steps)

    @staticmethod
    def from_spec(spec: str, n: int,
                  reduce: bool = True) -> "Transformation":
        """Rebuild a transformation from its :meth:`to_spec` rendering
        for an *n*-deep nest — the inverse wire form used by the CLI,
        the parallel-search workers and the transformation service.
        ``reduce=False`` skips the peephole reduction and keeps the
        spelled steps verbatim."""
        # Deferred: repro.core.spec imports this module.
        from repro.core.spec import parse_steps
        return parse_steps(spec, n, reduce=reduce)

    def then(self, other: Union[Template, "Transformation"],
             reduce: bool = True) -> "Transformation":
        """Compose: apply *self* first, then *other* (sequence
        concatenation, Section 2 item 2), peephole-reducing by default."""
        other_steps = (other.steps if isinstance(other, Transformation)
                       else (other,))
        combined = Transformation(self.steps + tuple(other_steps),
                                  n=self._n)
        return combined.reduced() if reduce else combined

    def reduced(self) -> "Transformation":
        """Peephole reduction: drop identity steps and fuse adjacent
        instantiations of the same fusable template (Section 2 item 2:
        "the concatenated sequence can be reduced in length")."""
        out: List[Template] = []
        for step in self.steps:
            if _is_identity(step):
                continue
            if out:
                fused = _fuse(out[-1], step)
                if fused is not None:
                    out.pop()
                    if not _is_identity(fused):
                        out.append(fused)
                    continue
            out.append(step)
        return Transformation(out, n=self._n)

    # -- structure ------------------------------------------------------------

    @property
    def input_depth(self) -> int:
        return self._n

    @property
    def output_depth(self) -> int:
        return self.steps[-1].output_depth if self.steps else self._n

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def signature(self) -> str:
        if not self.steps:
            return f"<identity(n={self._n})>"
        return "<" + ", ".join(s.signature() for s in self.steps) + ">"

    def to_spec(self) -> str:
        """Serialize to the CLI step mini-language.

        ``repro.core.spec.parse_steps(T.to_spec(), T.input_depth)``
        rebuilds an equivalent transformation (modulo peephole
        reduction), so sequences can be saved, replayed and shipped as
        plain strings.
        """
        return "; ".join(step.to_spec() for step in self.steps)

    def __repr__(self):
        return self.signature()

    # -- dependence vectors ------------------------------------------------------

    def map_dep_set(self, deps: DepSet,
                    nest: Optional[LoopNest] = None) -> DepSet:
        """``T(D)``: fold every step's Table 2 rule over the set.

        When *nest* is given, each context-sensitive step (Block,
        Interleave, Coalesce) receives its :meth:`~Template.dep_context`
        for the loops it would see, so anchored decompositions widen
        soundly (DESIGN.md, soundness tightening 4); without a nest the
        fold is the paper's loop-independent — possibly
        under-approximate — mapping.
        """
        return self.dep_set_trace(deps, nest)[-1]

    def dep_set_trace(self, deps: DepSet,
                      nest: Optional[LoopNest] = None) -> List[DepSet]:
        """The dependence set after each stage, ``[D_0, D_1, ..., D_k]``
        (used to regenerate the paper's Figure 7 table) — with a *nest*,
        the very sets the legality test reads."""
        return [deps, *_walk_deps(self.steps, nest, deps,
                                  _OneShot(len(self.steps)))]

    # -- the unified legality test (Section 2, item 3) -----------------------------

    def legality(self, nest: LoopNest, deps: DepSet) -> LegalityReport:
        """Run both halves of the legality test; never mutates *nest*."""
        report = mismatch_report(nest, self._n)
        if report is None:
            report, loops = fold_legality(self.steps, nest, deps,
                                          _OneShot(len(self.steps)))
            if report.legal:
                self._remember_fold(nest, loops, deps)
        return report

    def is_legal(self, nest: LoopNest, deps: DepSet) -> bool:
        """Boolean form of :meth:`legality`."""
        return self.legality(nest, deps).legal

    # -- code generation --------------------------------------------------------------

    def apply(self, nest: LoopNest, deps: Optional[DepSet] = None,
              check: bool = True) -> LoopNest:
        """Generate the transformed loop nest.

        With ``check=True`` (default) a *deps* set must be supplied and
        the unified legality test runs first, raising
        :class:`IllegalTransformationError` on failure — unless this
        transformation already holds a legal verdict for this very
        *nest* and *deps* object (from :meth:`legality` or a
        :class:`~repro.core.legality_cache.LegalityCache`), which it
        then reuses.  ``check=False`` skips the dependence half
        (callers doing their own analysis).
        """
        if check:
            if deps is None:
                raise ValueError("apply(check=True) requires a dependence set")
            fold = self._fold
            if fold is None or fold[0] is not nest or fold[2] is not deps:
                report = self.legality(nest, deps)
                if not report.legal:
                    raise IllegalTransformationError(
                        f"{self.signature()} is illegal for this nest: "
                        f"{report.reason}")
        with _obs.span("codegen.apply", steps=len(self.steps)):
            loops = nest.loops
            taken = collect_taken(nest)
            per_step_inits = []
            for step in self.steps:
                if not check:
                    step.check_preconditions(loops)
                loops, inits = step.map_loops(loops, taken)
                per_step_inits.append(inits)
            return assemble_nest(nest, loops, per_step_inits)

    def final_loops(self, nest: LoopNest) -> Tuple[Loop, ...]:
        """The loop headers after every step — ``loop_trace(nest)[-1]`` —
        reusing the headers a legality test or an earlier call already
        folded for this very *nest* object.  A failed fold raises, as
        :meth:`loop_trace` does, and is not remembered."""
        fold = self._fold
        if fold is not None and fold[0] is nest:
            if _obs.enabled():
                get_metrics().counter("legality.folds_reused").inc()
            return fold[1]
        loops = self.loop_trace(nest)[-1]
        self._remember_fold(nest, loops)
        return loops

    def _remember_fold(self, nest: LoopNest, loops: Tuple[Loop, ...],
                       deps: Optional[DepSet] = None) -> None:
        """Record *loops* as this sequence's final headers on *nest*
        (callers guarantee they come from a successful fold), and *deps*
        when the sequence is legal for ``(nest, deps)``.  Headers already
        remembered for this nest are kept: a cache may have seeded ones
        it shares across transformations.  So is a legal verdict
        already remembered for this nest when *deps* is None."""
        fold = self._fold
        if fold is not None and fold[0] is nest:
            loops = fold[1]
            if deps is None:
                deps = fold[2]
        object.__setattr__(self, "_fold", (nest, loops, deps))

    def loop_trace(self, nest: LoopNest) -> List[Tuple[Loop, ...]]:
        """Loop headers after each stage (used for Figure 7); a step
        whose bounds mapping fails raises its error."""
        trace, error = self.folded_loop_trace(nest)
        if error is not None:
            try:
                raise error
            finally:
                error = None  # the traceback holds this frame: no cycle
        return trace

    def folded_loop_trace(self, nest: LoopNest
                          ) -> Tuple[List[Tuple[Loop, ...]],
                                     Optional[ReproError]]:
        """The loop headers after each stage that folds, and the error
        of the first step whose bounds mapping fails (None when every
        stage folds)."""
        memo = _OneShot(len(self.steps))
        state = fold_bounds(self.steps, nest, memo, len(self.steps))
        trace = [nest.loops] + [s[1] for s in memo.states[1:]
                                if s is not None and s[0] == "ok"]
        return trace, (None if state[0] == "ok" else state[2])


# -- the legality fold ---------------------------------------------------------------
#
# A memo serves ``map_step(idx, step, current, ctx)`` (the set ``step``
# maps ``current``, the set after ``idx`` steps, to) and the bounds state
# after the first ``k`` steps through ``prefix(k)`` (None when unknown) and
# ``store(k, state)``; ``replayed(k)`` may hand over an already-computed
# state for a prefix the fold would otherwise compute.  A state is
# ``("ok", loops, frozenset of taken names)`` or ``("pre"|"cg", failing
# step index, exception)``.


class _OneShot:
    """The per-call memo: plain prefix states, mappings computed
    directly, so each prefix is folded at most once per call."""

    __slots__ = ("states",)

    def __init__(self, steps: int):
        self.states: List[Optional[Tuple]] = [None] * (steps + 1)

    def map_step(self, idx: int, step: Template, current: DepSet,
                 ctx) -> DepSet:
        return step.map_dep_set(current, ctx)

    def prefix(self, k: int) -> Optional[Tuple]:
        return self.states[k]

    def store(self, k: int, state: Tuple) -> None:
        self.states[k] = state

    def replayed(self, k: int) -> Optional[Tuple]:
        return None


def mismatch_report(nest: LoopNest, n: int) -> Optional[LegalityReport]:
    """The verdict on a nest of the wrong depth for an *n*-deep
    transformation, or None when the depths agree."""
    if nest.depth == n:
        return None
    return LegalityReport(
        False, f"nest has {nest.depth} loops, transformation expects {n}")


def fold_bounds(steps: Sequence[Template], nest: LoopNest, memo,
                k: int) -> Tuple:
    """The bounds state after the first *k* steps, folded on from the
    longest prefix *memo* already holds; a failed prefix is final for
    every extension."""
    start, loops, taken = 0, nest.loops, None
    for j in range(k, 0, -1):
        state = memo.prefix(j)
        if state is not None:
            if state[0] != "ok":
                return state
            start, loops, taken = j, state[1], state[2]
            break
    names = set(collect_taken(nest) if taken is None else taken)
    state = ("ok", loops, taken)
    for idx in range(start, k):
        state = memo.replayed(idx + 1)
        if state is not None:
            if state[0] == "ok":
                loops, names = state[1], set(state[2])
        else:
            step = steps[idx]
            try:
                step.check_preconditions(loops)
                loops, _ = step.map_loops(loops, names)
            # A kept state drops its error's traceback: the frames would
            # hold the state (a reference cycle) and the caller's stack.
            except PreconditionViolation as exc:
                state = ("pre", idx, exc.with_traceback(None))
            except CodegenError as exc:
                # A mapping the preconditions admit but codegen cannot
                # realize (e.g. Fourier-Motzkin blowup) is still a
                # rejection, not a crash.
                state = ("cg", idx, exc.with_traceback(None))
            else:
                state = ("ok", loops, frozenset(names))
        memo.store(idx + 1, state)
        if state[0] != "ok":
            break
    return state


def _walk_deps(steps: Sequence[Template], nest: Optional[LoopNest],
               deps: DepSet, memo) -> Iterator[DepSet]:
    """The dependence half: yield the set after each step.  Mappings
    are context-free without a nest and after a failed bounds prefix."""
    loops: Optional[Tuple[Loop, ...]] = None
    if nest is not None and any(s.dep_context_sensitive for s in steps):
        loops = nest.loops
    current = deps
    for idx, step in enumerate(steps):
        if loops is not None and idx:
            state = fold_bounds(steps, nest, memo, idx)
            loops = state[1] if state[0] == "ok" else None
        ctx = (step.dep_context(loops)
               if loops is not None and step.dep_context_sensitive else None)
        current = memo.map_step(idx, step, current, ctx)
        yield current


def fold_legality(steps: Sequence[Template], nest: LoopNest, deps: DepSet,
                  memo, exact: bool = True
                  ) -> Tuple[LegalityReport, Optional[Tuple[Loop, ...]]]:
    """The legality test of *steps* on a nest of matching depth: the
    report, and the final headers when legal.

    ``exact=False`` gives the speculative *dep-legal* verdict: the
    report is the dependence half's alone, whatever the bounds half
    says.  The bounds fold still runs for a dep-legal sequence, so the
    final headers come back when it succeeds (None when it fails, also
    when it raises a typed error the exact test would let out)."""
    with _obs.span("legality.map_deps", steps=len(steps)):
        final = deps
        for final in _walk_deps(steps, nest, deps, memo):
            pass
    if final.can_be_lex_negative():
        bad = [str(v) for v in final if v.can_be_lex_negative()]
        return LegalityReport(
            False,
            "transformed dependence set admits a lexicographically "
            f"negative tuple: {', '.join(bad)}",
            final_deps=final), None
    with _obs.span("legality.bounds", steps=len(steps)):
        try:
            state = fold_bounds(steps, nest, memo, len(steps))
        except ReproError:
            if exact:
                raise
            state = ("error",)
    if not exact:
        return (LegalityReport(True, final_deps=final),
                state[1] if state[0] == "ok" else None)
    if state[0] == "ok":
        return LegalityReport(True, final_deps=final), state[1]
    kind, idx, exc = state
    if kind == "pre":
        return LegalityReport(False, str(exc), failed_step=idx,
                              final_deps=final, violation=exc), None
    return LegalityReport(False, f"{steps[idx].signature()}: {exc}",
                          failed_step=idx, final_deps=final), None


def _is_identity(step: Template) -> bool:
    if isinstance(step, ReversePermute):
        return (not any(step.rev) and
                step.perm == tuple(range(1, step.n + 1)))
    if isinstance(step, Parallelize):
        return not any(step.parflag)
    if isinstance(step, Unimodular):
        return all(step.matrix[i, j] == (1 if i == j else 0)
                   for i in range(step.n) for j in range(step.n))
    return False


def _rp_matrix(step: ReversePermute):
    """The unimodular matrix equivalent of a ReversePermute step."""
    from repro.util.matrices import IntMatrix

    n = step.n
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[step.perm[k] - 1][k] = -1 if step.rev[k] else 1
    return IntMatrix(rows)


def _fuse(a: Template, b: Template) -> Optional[Template]:
    """Compose two adjacent instantiations into one when possible
    (Section 2: "whenever it is possible to do so")."""
    if isinstance(a, Unimodular) and isinstance(b, Unimodular):
        # y = Mb (Ma x)  =>  combined matrix Mb @ Ma.
        return Unimodular(a.n, b.matrix @ a.matrix, names=b.names)
    if isinstance(a, ReversePermute) and isinstance(b, ReversePermute):
        n = a.n
        perm = [b.perm[a.perm[k] - 1] for k in range(n)]
        rev = [a.rev[k] != b.rev[a.perm[k] - 1] for k in range(n)]
        return ReversePermute(n, rev, perm)
    # A ReversePermute adjacent to a Unimodular folds into the matrix
    # (this is what makes "skew then interchange" one fused step, as in
    # Figure 1, even when the interchange was written the cheap way).
    if isinstance(a, Unimodular) and isinstance(b, ReversePermute):
        return Unimodular(a.n, _rp_matrix(b) @ a.matrix)
    if isinstance(a, ReversePermute) and isinstance(b, Unimodular):
        return Unimodular(a.n, b.matrix @ _rp_matrix(a), names=b.names)
    if isinstance(a, Parallelize) and isinstance(b, Parallelize):
        return Parallelize(a.n, [x or y
                                 for x, y in zip(a.parflag, b.parflag)])
    return None
