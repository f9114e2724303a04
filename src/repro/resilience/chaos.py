"""Unified fault injection for the whole pipeline.

Every layer that can fail in production exposes a *named injection
point*; tests and chaos drills arm a :class:`ChaosPlan` and the points
misbehave on cue while the disarmed hot path stays a single ``is
None`` check:

========================  ==================================================
point                     fires in
========================  ==================================================
``ir.parse``              :func:`repro.ir.parser.parse_nest` /
                          ``parse_imperfect``
``deps.analysis``         :func:`repro.deps.analysis.analyze`
``legality``              :meth:`repro.core.legality_cache.LegalityCache.legality`
``compiled.codegen``      :class:`repro.runtime.compiled.CompiledNest`
                          construction (code generation + exec-compile)
``service.dispatch``      :class:`repro.service.server.TransformationService`
                          request handling
``pool.worker``           :func:`repro.parallel.worker.worker_main`, once
                          per shard task
========================  ==================================================

A plan is a comma-separated spec, armed programmatically
(:func:`arm`), from the environment (:func:`arm_from_env`, reading
``REPRO_CHAOS``) or from the CLI (``repro serve --chaos SPEC``)::

    SPEC  := RULE ("," RULE)*
    RULE  := POINT ":" KIND [":" TIMES [":" ARG]]
    KIND  := "error" | "crash" | "hang" | "drop"
    TIMES := <int>            -- firings before the rule exhausts
           | "p" <float>      -- fire with this probability instead
                                (seeded by REPRO_CHAOS_SEED)
    ARG   := <float>          -- hang duration in seconds (default 30)

Kinds: ``error`` raises :class:`ChaosError` (a typed
:class:`~repro.util.errors.ReproError` the service answers with the
retryable ``unavailable`` code); ``crash`` kills the process via
``os._exit`` exactly as a segfaulting worker would; ``hang`` sleeps
inside the point, long enough to trip timeouts, stall backstops or the
supervisor's heartbeat; ``drop`` is consumed by the service transport
*after* executing the request — the work happens, the response line is
never written (a lost-reply fault the idempotent retry layer must
absorb).

Count-based rules are deterministic: the first ``TIMES`` arrivals at
the point fire, later ones pass through.  Firing counts persist to the
``REPRO_CHAOS_STATE`` file (when set), so a supervised child that
crashed on its budgeted firing does **not** crash again after restart —
without the state file every ``crash`` rule would be a crash loop.

:class:`FaultPlan` and its hooks are the index-addressed pool-worker
fault layer.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.util.errors import ReproError

#: Every injection point a pipeline layer consults.
POINTS = ("ir.parse", "deps.analysis", "legality", "compiled.codegen",
          "service.dispatch", "pool.worker")

KINDS = ("error", "crash", "hang", "drop")

#: Exit status used by injected crashes; chosen to be distinguishable
#: from interpreter deaths in worker/supervisor logs (the pool and the
#: supervisor treat every abnormal death the same way).
CRASH_EXIT_CODE = 87

ENV_SPEC = "REPRO_CHAOS"
ENV_SEED = "REPRO_CHAOS_SEED"
ENV_STATE = "REPRO_CHAOS_STATE"


class ChaosError(ReproError):
    """An injected fault (kind ``error``).

    Derives from :class:`~repro.util.errors.ReproError` so it travels
    every path a real transient failure would, but the service maps it
    to the retryable ``unavailable`` code instead of ``bad-input``.
    """


class ChaosSpecError(ReproError):
    """A malformed ``--chaos`` / ``REPRO_CHAOS`` spec string."""


class Rule:
    """One ``point:kind[:times[:arg]]`` clause of a plan."""

    __slots__ = ("point", "kind", "times", "probability", "arg", "fired")

    def __init__(self, point: str, kind: str, times: Optional[int] = 1,
                 probability: Optional[float] = None,
                 arg: Optional[float] = None):
        if point not in POINTS:
            raise ChaosSpecError(
                f"unknown injection point {point!r}; expected one of "
                + ", ".join(POINTS))
        if kind not in KINDS:
            raise ChaosSpecError(
                f"unknown fault kind {kind!r}; expected one of "
                + ", ".join(KINDS))
        self.point = point
        self.kind = kind
        self.times = times              # None = unlimited
        self.probability = probability  # None = count-based
        self.arg = arg
        self.fired = 0

    @property
    def key(self) -> str:
        return f"{self.point}:{self.kind}"

    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times

    def __repr__(self):
        sel = (f"p={self.probability}" if self.probability is not None
               else f"times={self.times}")
        return (f"Rule({self.key}, {sel}, fired={self.fired}"
                + (f", arg={self.arg}" if self.arg is not None else "")
                + ")")


def parse_spec(spec: str) -> List[Rule]:
    """Parse a chaos spec string into rules (see the module docstring
    for the grammar)."""
    rules: List[Rule] = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ChaosSpecError(
                f"bad chaos clause {clause!r}; expected "
                f"point:kind[:times[:arg]]")
        point, kind = parts[0].strip(), parts[1].strip()
        times: Optional[int] = 1
        probability: Optional[float] = None
        if len(parts) >= 3:
            sel = parts[2].strip()
            try:
                if sel.startswith("p"):
                    probability, times = float(sel[1:]), None
                elif sel == "*":
                    times = None
                else:
                    times = int(sel)
            except ValueError:
                raise ChaosSpecError(
                    f"bad times/probability {sel!r} in {clause!r}") from None
        arg = None
        if len(parts) == 4:
            try:
                arg = float(parts[3].strip())
            except ValueError:
                raise ChaosSpecError(
                    f"bad argument {parts[3]!r} in {clause!r}") from None
        rules.append(Rule(point, kind, times=times,
                          probability=probability, arg=arg))
    return rules


class ChaosPlan:
    """An armed set of rules plus the deterministic RNG and the
    cross-restart firing-count state."""

    def __init__(self, rules: Iterable[Rule], seed: int = 0,
                 state_path: Optional[str] = None):
        self.rules = list(rules)
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.state_path = state_path
        if state_path:
            self._load_state()

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0,
                  state_path: Optional[str] = None) -> "ChaosPlan":
        return cls(parse_spec(spec), seed=seed, state_path=state_path)

    # -- cross-restart persistence ------------------------------------

    def _load_state(self) -> None:
        try:
            with open(self.state_path) as fh:
                doc = json.load(fh)
            fired = doc.get("fired", {})
        except (OSError, ValueError):
            return  # no state yet (or corrupt): start fresh
        for rule in self.rules:
            rule.fired = int(fired.get(rule.key, 0))

    def _save_state(self) -> None:
        if not self.state_path:
            return
        doc = {"fired": {r.key: r.fired for r in self.rules}}
        tmp = self.state_path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, self.state_path)
        except OSError:
            pass  # injection must never fail because bookkeeping did

    # -- firing --------------------------------------------------------

    def _select(self, point: str, kinds: Tuple[str, ...]) -> Optional[Rule]:
        """Consume one firing of the first live matching rule, persist
        the count, and return the rule (None = pass through)."""
        for rule in self.rules:
            if rule.point != point or rule.kind not in kinds:
                continue
            if rule.probability is not None:
                if self.rng.random() >= rule.probability:
                    continue
            elif rule.exhausted():
                continue
            rule.fired += 1
            self._save_state()
            if _obs.enabled():
                get_metrics().counter(
                    f"chaos.injected.{rule.point}.{rule.kind}").inc()
                _obs.event("chaos.fired", point=rule.point,
                           kind=rule.kind)
            return rule
        return None

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready report of the plan: per-rule firing counts."""
        return {
            "seed": self.seed,
            "rules": [{"point": r.point, "kind": r.kind,
                       "times": r.times, "probability": r.probability,
                       "arg": r.arg, "fired": r.fired}
                      for r in self.rules],
        }


_PLAN: Optional[ChaosPlan] = None


def arm(plan: ChaosPlan) -> ChaosPlan:
    """Install *plan* process-wide (forked workers inherit it)."""
    global _PLAN
    _PLAN = plan
    return plan


def disarm() -> None:
    global _PLAN
    _PLAN = None


def current_plan() -> Optional[ChaosPlan]:
    return _PLAN


def arm_from_env() -> Optional[ChaosPlan]:
    """Arm from ``REPRO_CHAOS`` (+ ``REPRO_CHAOS_SEED`` /
    ``REPRO_CHAOS_STATE``); returns the plan, or None when unset."""
    spec = os.environ.get(ENV_SPEC)
    if not spec:
        return None
    seed = int(os.environ.get(ENV_SEED, "0") or 0)
    return arm(ChaosPlan.from_spec(
        spec, seed=seed, state_path=os.environ.get(ENV_STATE) or None))


def inject(point: str) -> None:
    """The pipeline-side hook: act out any armed ``error``/``crash``/
    ``hang`` rule for *point*.  ``drop`` rules are transport semantics
    and are consumed separately via :func:`decide`."""
    plan = _PLAN
    if plan is None:
        return
    rule = plan._select(point, ("error", "crash", "hang"))
    if rule is None:
        return
    if rule.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if rule.kind == "hang":
        time.sleep(rule.arg if rule.arg is not None else 30.0)
        return
    raise ChaosError(f"chaos: injected fault at {point} "
                     f"(firing {rule.fired}"
                     + (f" of {rule.times}" if rule.times else "") + ")")


def decide(point: str, kind: str) -> bool:
    """Consume one firing of a *kind* rule at *point* without acting it
    out; the caller implements the semantics (the service transport
    uses this for ``drop`` — execute, then lose the reply)."""
    plan = _PLAN
    if plan is None:
        return False
    return plan._select(point, (kind,)) is not None


def snapshot() -> Optional[Dict[str, object]]:
    """The armed plan's report, or None when disarmed."""
    return _PLAN.snapshot() if _PLAN is not None else None


# ---------------------------------------------------------------------------
# The pool fault layer.  Index-addressed worker faults complement the
# point-addressed rules above: a FaultPlan perturbs specific candidates
# of specific worker generations, which the pool differential tests
# need; a ChaosPlan perturbs layers.
# ---------------------------------------------------------------------------

class FaultPlan:
    """A deterministic script of worker misbehavior.

    ``crash_indices`` — candidate indices whose evaluation dies via
    ``os._exit`` (no cleanup, no "done" sentinel: a genuine crash as the
    pool observes it).  ``hang_indices`` — candidate indices that sleep
    ``hang_seconds`` inside the scored region, to trip per-candidate
    timeouts or the pool's stall backstop.  ``kinds`` limits which
    worker generations misbehave (``"primary"`` for a level's first
    dispatch, ``"requeue"`` for the single retry worker).
    """

    def __init__(self, crash_indices: Iterable[int] = (),
                 hang_indices: Iterable[int] = (),
                 hang_seconds: float = 30.0,
                 kinds: Iterable[str] = ("primary",)):
        self.crash_indices = frozenset(crash_indices)
        self.hang_indices = frozenset(hang_indices)
        self.hang_seconds = float(hang_seconds)
        self.kinds = frozenset(kinds)


_FAULT_PLAN: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    global _FAULT_PLAN
    _FAULT_PLAN = plan


def clear() -> None:
    global _FAULT_PLAN
    _FAULT_PLAN = None


def current() -> Optional[FaultPlan]:
    return _FAULT_PLAN


def maybe_crash(kind: str, index: int) -> None:
    """Worker hook, called before each candidate evaluation."""
    plan = _FAULT_PLAN
    if plan is not None and kind in plan.kinds and \
            index in plan.crash_indices:
        os._exit(CRASH_EXIT_CODE)


def maybe_hang(kind: str, index: int) -> None:
    """Worker hook, called inside the timed scoring region."""
    plan = _FAULT_PLAN
    if plan is not None and kind in plan.kinds and \
            index in plan.hang_indices:
        time.sleep(plan.hang_seconds)
