"""Cost model for model-guided beam search.

The model answers one question per candidate: is this step likely
enough to be exactly legal that the beam should admit it on the cheap
dependence half alone (speculative admission), deferring the exact
FM/bounds verdict until the candidate reaches the beam frontier?

It is fed by the evidence the ``repro.obs`` layer already collects —
dependence-test tier refutation counters (``deps.refuted.*``), legality
cache statistics, and the cache simulator's hit-ratio gauge — plus an
online per-template-kind legality rate it calibrates from every exact
verdict the search pays.  Two named models are exposed:

* ``static`` — structural priors only (no metrics snapshot taken);
* ``evidence`` — additionally snapshots the live metrics registry at
  construction (a no-op when observability is off).

Both are deterministic: same evidence + same observation sequence gives
the same favored/unfavored decisions, which is what keeps ``jobs=N``
model-guided search field-identical to ``jobs=1`` (all model queries
and updates happen parent-side, in serial candidate order).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs import trace as _obs
from repro.obs.metrics import get_metrics
from repro.options import MODEL_NAMES

_REFUTATION_TIERS = ("gcd", "banerjee", "fm")


class Evidence:
    """A point-in-time snapshot of the observability signals the cost
    model conditions on.  All fields tolerate absence (empty dicts /
    None): evidence improves the priors, it is never required."""

    __slots__ = ("refuted", "legality", "cachesim_hit_ratio")

    def __init__(self, refuted: Optional[Dict[str, int]] = None,
                 legality: Optional[Dict[str, int]] = None,
                 cachesim_hit_ratio: Optional[float] = None):
        self.refuted = dict(refuted or {})
        self.legality = dict(legality or {})
        self.cachesim_hit_ratio = cachesim_hit_ratio

    @classmethod
    def collect(cls, cache=None) -> "Evidence":
        """Snapshot the live metrics registry (only when observability
        is enabled — the gate every instrumented site honors) and,
        optionally, a legality cache's counters."""
        refuted: Dict[str, int] = {}
        hit_ratio: Optional[float] = None
        if _obs.enabled():
            snap = get_metrics().snapshot()
            counters = snap.get("counters", {})
            for tier in _REFUTATION_TIERS:
                count = counters.get(f"deps.refuted.{tier}")
                if count:
                    refuted[tier] = count
            hit_ratio = snap.get("gauges", {}).get("cachesim.hit_ratio")
        legality = {}
        if cache is not None and hasattr(cache, "stats"):
            legality = dict(cache.stats)
        return cls(refuted, legality, hit_ratio)

    def snapshot(self) -> Dict[str, object]:
        return {
            "refuted": dict(self.refuted),
            "legality": dict(self.legality),
            "cachesim_hit_ratio": self.cachesim_hit_ratio,
        }


class CostModel:
    """Scores candidate steps before legality ever runs.

    ``favored(step, ...)`` gates speculative admission: a favored
    candidate enters the beam on its dep-only verdict; an unfavored one
    pays the exact verdict up-front, exactly as brute search would —
    so a maximally skeptical model degrades to brute behavior, never
    below it.  ``observe(step, legal)`` feeds every exact verdict back
    into a Laplace-smoothed per-template-kind legality rate, so a kind
    that keeps failing its bounds check eventually loses speculative
    admission and stops wasting beam slots.
    """

    #: Smoothing pseudo-counts: the prior starts at 8/9 ~ 0.89 (beam
    #: search menus are dominated by legal steps) and needs a sustained
    #: run of observed failures to drop below any sane threshold.
    _PRIOR_LEGAL = 8.0
    _PRIOR_TOTAL = 9.0

    def __init__(self, evidence: Optional[Evidence] = None,
                 threshold: float = 0.25, name: str = "static"):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {threshold!r}")
        self.evidence = evidence if evidence is not None else Evidence()
        self.threshold = threshold
        self.name = name
        # kind -> [exact-legal count, exact-verdict count]
        self._outcomes: Dict[str, List[int]] = {}
        self.queries = 0
        self.observations = 0

    @classmethod
    def from_evidence(cls, cache=None, threshold: float = 0.25) -> "CostModel":
        return cls(Evidence.collect(cache), threshold=threshold,
                   name="evidence")

    # -- scoring -----------------------------------------------------------

    def prior(self, kind: str) -> float:
        """Smoothed exact-legality rate observed for *kind* so far."""
        legal, total = self._outcomes.get(kind, (0, 0))
        return (legal + self._PRIOR_LEGAL) / (total + self._PRIOR_TOTAL)

    def score_step(self, step, base=None, report=None) -> float:
        """A [0, 1] score for appending *step*; higher means more likely
        to be exactly legal and worth a beam slot.  *report* is the
        candidate's dep-only legality report when available (its
        ``final_deps`` are already exact) — unused by the default
        structural terms but part of the stable signature."""
        kind = getattr(step, "kernel_name", type(step).__name__)
        score = self.prior(kind)
        if kind == "Parallelize":
            # Deeper dep-test tiers having refuted dependences means the
            # analyzed sets are sparser than syntax suggests: outer
            # parallelization is likelier to survive.
            refuted = self.evidence.refuted
            if refuted.get("banerjee") or refuted.get("fm"):
                score += 0.05
        elif kind in ("Block", "Interleave"):
            # A poor simulated cache hit ratio is the signal tiling is
            # worth speculating on at all.
            ratio = self.evidence.cachesim_hit_ratio
            if ratio is not None and ratio < 0.9:
                score += 0.05
        return min(1.0, score)

    def favored(self, step, base=None, report=None) -> bool:
        """Should *step* be admitted speculatively?  Pure with respect
        to model state — only :meth:`observe` mutates it."""
        self.queries += 1
        return self.score_step(step, base, report) >= self.threshold

    # -- online calibration ------------------------------------------------

    def observe(self, step, legal: bool) -> None:
        """Feed back one exact legality verdict for *step*'s kind."""
        kind = getattr(step, "kernel_name", type(step).__name__)
        counts = self._outcomes.setdefault(kind, [0, 0])
        if legal:
            counts[0] += 1
        counts[1] += 1
        self.observations += 1

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "threshold": self.threshold,
            "queries": self.queries,
            "observations": self.observations,
            "outcomes": {k: tuple(v) for k, v in sorted(
                self._outcomes.items())},
            "evidence": self.evidence.snapshot(),
        }


def resolve_model(name: str, cache=None) -> CostModel:
    """A fresh :class:`CostModel` for a registered name, mirroring
    :func:`repro.runtime.engines.resolve_engine`.  *cache* (a
    :class:`~repro.core.legality_cache.LegalityCache`) feeds its
    counters into an ``evidence`` model's snapshot."""
    if name not in MODEL_NAMES:
        raise ValueError(
            f"unknown cost model {name!r} "
            f"(choose from {', '.join(MODEL_NAMES)})")
    if name == "evidence":
        return CostModel.from_evidence(cache)
    return CostModel()
