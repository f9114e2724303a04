"""``search``: what ``repro search`` does, on kernel-shaped nests.

One op is parse -> analyze -> search -> apply the winner, under the CLI
default configuration: brute force, depth 2, beam 8, the parallelism
scorer and a fresh ``LegalityCache`` per nest.  Legality and the
per-search cache do most of the work, with heavy prefix sharing inside a
search and none across searches.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

import gen
from common import SerialWorkload, interpreter_equivalent
from repro.api import (LegalityCache, SearchConfig, Transformation, analyze,
                       parse_nest, search)
from repro.optimize.search import parallelism_score
from repro.runtime.arrays import Array

CHECK_N = 5


def check_arrays():
    """Interpreter inputs for every array name the search nests use: dense
    data arrays, and CSC-style index arrays (nondecreasing column starts,
    row indices in 1..n)."""
    span = range(-1, CHECK_N + 3)
    out = {}
    for pos, name in enumerate("ABCabcXYZ"):
        data = {}
        for i in span:
            data[(i,)] = (3 * i + pos) % 7 - 2
            for j in span:
                data[(i, j)] = (i * 5 + j * 3 + pos) % 11 - 4
                for k in span:
                    data[(i, j, k)] = (i + 2 * j + 3 * k + pos) % 9 - 3
        out[name] = Array(0, name, data)
    for name, kind in gen.INDIRECT.items():
        if kind == "ptr":
            data = {(j,): 2 * j - 1 for j in range(-2, 4 * CHECK_N)}
        else:
            data = {(k,): (3 * k) % CHECK_N + 1
                    for k in range(-4, 8 * CHECK_N)}
        out[name] = Array(0, name, data)
    return out


class Search(SerialWorkload):
    def __init__(self, seed: int):
        self.cases = gen.search_set(seed)
        self.counts: Counter = Counter()
        self.arrays = check_arrays()
        self.verified: Dict[tuple, Optional[str]] = {}

    def prepare(self, i: int) -> gen.Case:
        return self.cases[i % len(self.cases)]

    def row(self, case: gen.Case) -> str:
        return case.name

    @staticmethod
    def _config(rec) -> SearchConfig:
        if not rec.enabled:
            return SearchConfig()

        def timed_score(transformation, nest, deps):
            with rec.span("optimize.score"):
                return parallelism_score(transformation, nest, deps)

        return SearchConfig(score=timed_score, cache=TimedLegalityCache(rec))

    def execute(self, rec, case: gen.Case):
        with rec.span("ir.parse"):
            nest = parse_nest(case.text)
        with rec.span("deps.analysis"):
            deps = analyze(nest)
        config = self._config(rec)
        with rec.span("optimize.search"):
            result = search(nest, deps, config=config)
        out = None
        if result.transformation is not None:
            with rec.span("core.codegen"):
                out = result.transformation.apply(nest, deps)
        return nest, deps, result, out

    def after(self, case: gen.Case, result, traced: bool) -> Optional[str]:
        if isinstance(result, Exception):
            return f"{case.name}: search raised {result}"
        nest, deps, found, out = result
        if traced:
            c = self.counts
            c["deps_out"] += len(deps)
            c["explored"] += found.explored
            c["exact_verdicts"] += found.exact_verdicts
            c["pruned"] += found.pruned
            stats = found.cache_stats or {}
            c["cache_hits"] += stats.get("hits", 0)
            c["cache_misses"] += stats.get("misses", 0)
            if out is not None:
                c["codegen"] += 1
                c["loops_out"] += out.depth
        if out is None:
            return None
        spec = found.transformation.to_spec()
        key = (case.name, spec, out.pretty())
        if key not in self.verified:  # the same answer is checked once
            self.verified[key] = self._verify(case, nest, spec, out)
        return self.verified[key]

    def _verify(self, case: gen.Case, nest, spec: str, out) -> Optional[str]:
        fresh = parse_nest(case.text)
        winner = Transformation.from_spec(spec, fresh.depth)
        if not winner.legality(fresh, analyze(fresh)).legal:
            return f"{case.name}: winner {winner.signature()} is illegal"
        diff = interpreter_equivalent(nest, out, self.arrays, case.symbols)
        if diff:
            return (f"{case.name}: winner {winner.signature()} changed "
                    f"results: {diff}")
        return None

    def layer_counts(self) -> Dict[str, float]:
        c = self.counts
        lookups = c["cache_hits"] + c["cache_misses"]
        return {
            "deps.analysis.deps_out": c["deps_out"],
            "core.legality_cache.hit_ratio": (c["cache_hits"] / lookups
                                              if lookups else 0.0),
            "optimize.search.explored": c["explored"],
            "optimize.search.exact_verdicts": c["exact_verdicts"],
            "optimize.search.pruned": c["pruned"],
            "core.codegen.loops_out": (c["loops_out"] / c["codegen"]
                                       if c["codegen"] else 0.0),
        }


class TimedLegalityCache(LegalityCache):
    """A fresh ``LegalityCache`` whose verdict lookups are layer spans."""

    def __init__(self, rec):
        super().__init__()
        self._rec = rec

    def legality(self, transformation, nest, deps):
        with self._rec.span("core.legality_cache"):
            return super().legality(transformation, nest, deps)

    def dep_legality(self, transformation, nest, deps):
        with self._rec.span("core.legality_cache"):
            return super().dep_legality(transformation, nest, deps)
