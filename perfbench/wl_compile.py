"""``compile``: what ``repro transform`` does, on a stream of distinct nests.

One op is parse -> analyze -> legality -> apply-if-legal.  No input
repeats, so every memo and cache is bypassed: this is the no-reuse
control for any cache change, and dependence analysis does most of the
work.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Optional

import gen
from common import SerialWorkload, interpreter_equivalent
from repro.api import Transformation, analyze, parse_nest
from repro.runtime.arrays import Array
from repro.util.errors import ReproError


class CodegenError(Exception):
    """A typed error raised by ``Transformation.apply``, kept apart from
    the earlier stages' typed errors so it can be counted."""


class Compile(SerialWorkload):
    def __init__(self, seed: int):
        self.seed = seed
        self.counts: Counter = Counter()
        self.seen = set()
        self.arrays = check_arrays(seed)

    def prepare(self, i: int) -> gen.Case:
        case = gen.compile_case(self.seed, i)
        while case.text in self.seen:  # keep the stream free of repeats
            i += len(gen.COMPILE_SHAPES) * 1_000_000
            case = gen.compile_case(self.seed, i)
        self.seen.add(case.text)
        return case

    def row(self, case: gen.Case) -> str:
        return case.name.split("-", 1)[0]

    def execute(self, rec, case: gen.Case):
        with rec.span("ir.parse"):
            nest = parse_nest(case.text)
        with rec.span("deps.analysis"):
            deps = analyze(nest)
        transformation = Transformation.from_spec(case.steps, nest.depth)
        with rec.span("core.legality"):
            report = transformation.legality(nest, deps)
        out = None
        if report.legal:
            try:
                with rec.span("core.codegen"):
                    out = transformation.apply(nest, deps)
            except ReproError as exc:
                out = CodegenError(str(exc))
        return nest, deps, transformation, report, out

    def after(self, case: gen.Case, result, traced: bool) -> Optional[str]:
        if isinstance(result, Exception):
            return None  # a typed rejection before codegen
        nest, deps, transformation, report, out = result
        if traced:
            c = self.counts
            c["deps_out"] += len(deps)
            c["verdicts"] += 1
            c["legal"] += bool(report.legal)
            if isinstance(out, CodegenError):
                c["codegen_errors"] += 1
            elif out is not None:
                c["codegen_ok"] += 1
                c["loops_out"] += out.depth
        if not report.legal or isinstance(out, CodegenError):
            return None
        fresh = parse_nest(case.text)
        if not transformation.legality(fresh, analyze(fresh)).legal:
            return f"{case.name}: accepted {case.steps!r} fails re-check"
        diff = interpreter_equivalent(nest, out, self.arrays, case.symbols)
        if diff:
            return f"{case.name}: {case.steps!r} changed results: {diff}"
        return None

    def layer_counts(self) -> Dict[str, float]:
        c = self.counts
        return {
            "deps.analysis.deps_out": c["deps_out"],
            "core.legality.legal_share": (c["legal"] / c["verdicts"]
                                          if c["verdicts"] else 0.0),
            "core.codegen.errors": c["codegen_errors"],
            "core.codegen.loops_out": (c["loops_out"] / c["codegen_ok"]
                                       if c["codegen_ok"] else 0.0),
        }


def check_arrays(seed: int):
    """Nonzero interpreter inputs: every array gets rank-1 and rank-2
    entries over a window wide enough for offset and skewed subscripts;
    reads outside it see the default 0."""
    rng = random.Random(f"check-arrays:{seed}")
    span = range(-3, 10)
    out = {}
    for name in gen.ARRAYS:
        data = {(i,): rng.randint(-9, 9) for i in span}
        data.update({(i, j): rng.randint(-9, 9) for i in span for j in span})
        out[name] = Array(0, name, data)
    return out
