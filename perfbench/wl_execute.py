"""``execute``: engine runs of fixed kernels at a stated working-set size.

Each kernel runs under seeded legal sequences on the default ``compiled``
engine and on the ``vectorized`` engine; transformation and engine
construction (with its lazy compile, via one warm-up run) happen during
set-up, so one op is one engine ``.run``.  Only ``repro.runtime`` works
here.  The kernel set holds nests the vectorized engine lowers and nests
it hands back to the compiled engine.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import gen
from common import SerialWorkload
from repro.api import CompiledNest, Transformation, VectorizedNest, analyze
from repro.api import parse_nest
from repro.runtime.arrays import Array

ENGINE_CLASSES = {"compiled": CompiledNest, "vectorized": VectorizedNest}
#: The array each kernel writes, the one its reference computes.
WRITTEN = {"matmul": "A", "jacobi": "b", "triangular": "a", "sparse": "a",
           "wavefront": "a"}


class Row:
    __slots__ = ("name", "kernel", "engine_name", "engine", "arrays",
                 "symbols", "first", "verified")

    def __init__(self, name, kernel, engine_name, engine, arrays, symbols,
                 first):
        self.name = name
        self.kernel = kernel
        self.engine_name = engine_name
        self.engine = engine
        self.arrays = arrays
        self.symbols = symbols
        self.first = first
        self.verified: Optional[str] = None


class Execute(SerialWorkload):
    def __init__(self, seed: int, setup_rec):
        self.counts: Counter = Counter()
        kernels = {k[0]: k for k in gen.KERNELS}
        self.rows: List[Row] = []
        for kernel, spec, engine_name in gen.execute_rows(seed):
            _, text, symbols, _menu = kernels[kernel]
            nest = parse_nest(text)
            deps = analyze(nest)
            transformation = Transformation.from_spec(spec, nest.depth)
            report = transformation.legality(nest, deps)
            if not report.legal:
                raise RuntimeError(f"{kernel}: menu sequence {spec!r} is "
                                   f"illegal: {report.reason}")
            out = transformation.apply(nest, deps)
            arrays = {name: Array(0, name, data) for name, data in
                      gen.kernel_arrays(kernel, symbols, seed).items()}
            with setup_rec.span("runtime.construct"):
                engine = ENGINE_CLASSES[engine_name](out, symbols=symbols)
                first = engine.run(arrays)
            self.rows.append(Row(f"{kernel}|{spec}|{engine_name}", kernel,
                                 engine_name, engine, arrays, symbols,
                                 first))

    def prepare(self, i: int) -> Row:
        return self.rows[i % len(self.rows)]

    def row(self, row: Row) -> str:
        return row.name

    def execute(self, rec, row: Row):
        with rec.span("runtime." + row.engine_name):
            return row.engine.run(row.arrays)

    def after(self, row: Row, result, traced: bool) -> Optional[str]:
        if isinstance(result, Exception):
            return f"{row.name}: run raised {result}"
        if traced:
            self.counts["iterations"] += result.body_count
        if row.verified is None:
            row.verified = verify(row, row.first) or "ok"
        if row.verified != "ok":
            return row.verified
        name = WRITTEN[row.kernel]
        if result.arrays[name].data != row.first.arrays[name].data:
            return verify(row, result) or None
        return None

    def layer_counts(self) -> Dict[str, float]:
        return {"runtime.vectorized.fallback_share": self.fallback_share()}

    def fallback_share(self) -> float:
        """Statements the vectorized engine hands back to the compiled
        engine, over all statements of the vectorized rows."""
        handed = total = 0
        for row in self.rows:
            if row.engine_name != "vectorized":
                continue
            plan = row.engine.describe()
            count = len(row.engine.nest.body)
            total += count
            if plan["full_fallback"] or plan["runs"]["fallback"]:
                handed += count
            else:
                handed += sum(len(g["statements"])
                              for g in plan["compiled_groups"])
        return handed / total if total else 0.0


# ---------------------------------------------------------------------------
# references: the kernels' semantics written out in NumPy / plain Python

def _dense(data: Dict[Tuple[int, ...], int], n: int) -> np.ndarray:
    out = np.zeros((n + 2, n + 2), dtype=np.int64)
    for (i, j), v in data.items():
        out[i, j] = v
    return out


def reference(kernel: str, arrays: Dict[str, Array],
              symbols: Dict[str, int]) -> Dict[Tuple[int, ...], int]:
    n = symbols["n"]
    if kernel == "matmul":
        prod = _dense(arrays["B"].data, n) @ _dense(arrays["C"].data, n)
        return {(i, j): int(prod[i, j])
                for i in range(1, n + 1) for j in range(1, n + 1)}
    if kernel == "jacobi":
        a = _dense(arrays["a"].data, n)
        out = dict(arrays["b"].data)
        core = (a[1:n - 1, 2:n] + a[3:n + 1, 2:n] + a[2:n, 1:n - 1]
                + a[2:n, 3:n + 1]) // 4
        for i in range(2, n):
            for j in range(2, n):
                out[(i, j)] = (arrays["b"].data.get((i, j), 0)
                               + symbols["m"] * int(core[i - 2, j - 2]))
        return out
    if kernel == "triangular":
        return {(i, j): i + j for i in range(1, n + 1)
                for j in range(i, n + 1)}
    if kernel == "sparse":
        colstr, rowidx = arrays["colstr"].data, arrays["rowidx"].data
        b, c = arrays["b"].data, arrays["c"].data
        out = {}
        for j in range(1, n + 1):
            nz = range(colstr[(j,)], colstr[(j + 1,)])
            for i in range(1, n + 1):
                out[(i, j)] = sum(b.get((i, rowidx[(k,)]), 0) * c[(k,)]
                                  for k in nz)
        return out
    a = dict(arrays["a"].data)  # wavefront: a strictly ordered sweep
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            a[(i, j)] = (a.get((i - 1, j), 0) + a.get((i, j - 1), 0)) // 2
    return a


def verify(row: Row, result) -> Optional[str]:
    name = WRITTEN[row.kernel]
    want = Array(0, name, reference(row.kernel, row.arrays, row.symbols))
    got = result.arrays.get(name, Array(0, name))
    if got != want:
        return (f"{row.name}: array {name!r} differs from the reference "
                f"(max abs diff {got.max_abs_difference(want)})")
    return None
