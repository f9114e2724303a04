"""Seeded inputs for every workload: the benchmark's own generator.

Every input is plain text (loop-nest sources, step specs) and integers,
drawn from ``random.Random`` seeded by ``(stream, seed, index)``.  String
seeds are hashed with SHA-512 by ``random``, so the same seed yields
byte-identical inputs in any process, whatever ``PYTHONHASHSEED`` is.
Nothing here imports ``repro``: a change to the program (its fuzzer
included) cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Tuple

INDICES = ("i", "j", "k", "l")
ARRAYS = ("a", "b", "c")
#: Transformed nests stay within this many loops.  Legality of Wavefront
#: on 5-6 loop nests grown by Block/Interleave takes 1-25 s at the commit
#: that defined the benchmark (see LAYERS.md), long enough to time runs
#: out; the cap keeps every step kind in the menu.
MAX_SEQ_DEPTH = 4


def rng_for(stream: str, seed: int, index: int = 0) -> random.Random:
    return random.Random(f"{stream}:{seed}:{index}")


class Case:
    """One nest with a step sequence and the symbol values to check it at."""

    __slots__ = ("name", "text", "steps", "symbols")

    def __init__(self, name: str, text: str, steps: Optional[str],
                 symbols: Dict[str, int]):
        self.name = name
        self.text = text
        self.steps = steps
        self.symbols = dict(symbols)

    def to_json(self) -> Dict[str, object]:
        return {"name": self.name, "text": self.text, "steps": self.steps,
                "symbols": dict(sorted(self.symbols.items()))}


def _nest(headers: List[str], body: List[str]) -> str:
    lines = []
    for depth, head in enumerate(headers):
        lines.append("  " * depth + head)
    pad = "  " * len(headers)
    lines += [pad + stmt for stmt in body]
    for depth in reversed(range(len(headers))):
        lines.append("  " * depth + "enddo")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compile: distinct general nests, each with one 1-3 step sequence

def _bound_pair(rng: random.Random, level: int) -> Tuple[str, str]:
    outer = INDICES[:level]
    kinds = ["const", "param", "div", "mod"]
    if outer:
        kinds += ["tri_lo", "tri_hi", "min", "max"]
    kind = rng.choice(kinds)
    if kind == "const":
        lo = rng.randint(0, 2)
        return str(lo), str(lo + rng.randint(2, 5))
    if kind == "param":
        return str(rng.randint(0, 1)), rng.choice(("n", "n - 1"))
    if kind == "div":
        return "0", f"div(n, 2) + {rng.randint(1, 2)}"
    if kind == "mod":
        return "1", f"mod(n, 3) + {rng.randint(2, 3)}"
    anchor = rng.choice(outer)
    if kind == "tri_lo":
        return anchor, "n"
    if kind == "tri_hi":
        return "0", anchor
    if kind == "min":
        return "1", f"min(n, {anchor} + {rng.randint(1, 2)})"
    return f"max(1, {anchor} - {rng.randint(1, 2)})", "n"


def _subscript(rng: random.Random, idx: List[str]) -> str:
    roll = rng.random()
    a = rng.choice(idx)
    if roll < 0.1:
        return f"mod({a} + {rng.randint(0, 2)}, {rng.randint(2, 4)})"
    if roll < 0.2 and len(idx) > 1:
        b = rng.choice([x for x in idx if x != a])
        return f"div({a} + {b}, 2)"
    if roll < 0.4 and len(idx) > 1:
        b = rng.choice([x for x in idx if x != a])
        return f"{a} + {b}"
    off = rng.choice((0, 0, 0, 1, -1, 2))
    return a if off == 0 else f"{a} {'+' if off > 0 else '-'} {abs(off)}"


def _ref(rng: random.Random, name: str, rank: int, idx: List[str]) -> str:
    return f"{name}({', '.join(_subscript(rng, idx) for _ in range(rank))})"


def _statement(rng: random.Random, idx: List[str],
               ranks: Dict[str, int]) -> str:
    target = rng.choice(ARRAYS)
    terms = []
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if roll < 0.5:
            name = rng.choice(ARRAYS)
            terms.append(_ref(rng, name, ranks[name], idx))
        elif roll < 0.85:
            terms.append(rng.choice(idx))
        else:
            terms.append(str(rng.randint(1, 5)))
    rhs = " + ".join(terms)
    if rng.random() < 0.15:
        rhs = f"{rng.choice((2, 3))}*({rhs})"
    op = "+=" if rng.random() < 0.3 else "="
    stmt = f"{_ref(rng, target, ranks[target], idx)} {op} {rhs}"
    if rng.random() < 0.25:
        rel = rng.choice(("lt", "le", "gt", "ge", "ne"))
        left = rng.choice(idx)
        right = rng.choice([x for x in idx if x != left] or ["2"])
        stmt = f"if ({rel}({left}, {right})) {stmt}"
    return stmt


def _step(rng: random.Random, n: int) -> Tuple[str, int]:
    """One step spec valid at depth *n* and the depth it leaves."""
    menu = ["reverse", "parallelize"]
    if n + 1 <= MAX_SEQ_DEPTH:
        menu.append("stripmine")
    if n >= 2:
        menu += ["interchange", "permute", "skew", "coalesce", "wavefront"]
    if n >= 2 and n + 2 <= MAX_SEQ_DEPTH:
        menu += ["block", "interleave"]
    name = rng.choice(menu)
    if name == "reverse":
        return f"reverse({rng.randint(1, n)})", n
    if name == "parallelize":
        return f"parallelize({rng.randint(1, n)})", n
    if name == "stripmine":
        return f"stripmine({rng.randint(1, n)},{rng.choice((2, 4))})", n + 1
    if name == "interchange":
        a, b = rng.sample(range(1, n + 1), 2)
        return f"interchange({a},{b})", n
    if name == "permute":
        order = list(range(1, n + 1))
        rng.shuffle(order)
        return "permute(" + ",".join(map(str, order)) + ")", n
    if name == "skew":
        t, s = rng.sample(range(1, n + 1), 2)
        return f"skew({t},{s},{rng.randint(1, 2)})", n
    if name == "coalesce":
        i = rng.randint(1, n - 1)
        return f"coalesce({i},{i + 1})", n - 1
    if name == "wavefront":
        return "wavefront()", n
    i = rng.randint(1, n - 1)
    return f"{name}({i},{i + 1},{rng.choice((2, 4))})", n + 2


def steps_for(rng: random.Random, depth: int, lo: int = 1,
              hi: int = 3) -> str:
    parts, n = [], depth
    for _ in range(rng.randint(lo, hi)):
        spec, n = _step(rng, n)
        parts.append(spec)
    return "; ".join(parts)


def general_nest(rng: random.Random, depth: int, statements: int) -> str:
    """A *depth*-deep nest of *statements* statements over arrays
    :data:`ARRAYS` of rank 1 or 2."""
    headers = []
    for level in range(depth):
        lo, hi = _bound_pair(rng, level)
        step = ", 2" if rng.random() < 0.1 else ""
        headers.append(f"do {INDICES[level]} = {lo}, {hi}{step}")
    idx = list(INDICES[:depth])
    ranks = {name: rng.randint(1, min(2, depth)) for name in ARRAYS}
    body = [_statement(rng, idx, ranks) for _ in range(statements)]
    return _nest(headers, body)


#: Nest shapes the ``compile`` stream cycles through, as (depth,
#: statements).  Fixing the shape per position and drawing the rest from
#: the seed keeps the op-cost mix the same on every seed.
COMPILE_SHAPES = ((2, 2), (2, 3), (3, 2), (2, 2), (2, 3), (3, 2), (2, 4),
                  (4, 1))


def compile_case(seed: int, index: int) -> Case:
    """Op *index* of the ``compile`` stream: a 2-4 deep nest with
    ``min``/``max``, ``mod``/``div`` bounds and ``if`` guards, and one 1-3
    step sequence."""
    depth, statements = COMPILE_SHAPES[index % len(COMPILE_SHAPES)]
    rng = rng_for("compile", seed, index)
    text = general_nest(rng, depth, statements)
    return Case(f"d{depth}s{statements}-{index}", text,
                steps_for(rng, depth), {"n": rng.randint(4, 6)})


# ---------------------------------------------------------------------------
# search: the example kernels plus seeded single-accumulate variants

EXAMPLES = {
    "matmul": _nest(["do i = 1, n", "do j = 1, n", "do k = 1, n"],
                    ["A(i, j) += B(i, k) * C(k, j)"]),
    "sparse": _nest(["do i = 1, n", "do j = 1, n",
                     "do k = colstr(j), colstr(j+1)-1"],
                    ["a(i, j) += b(i, rowidx(k)) * c(k)"]),
    "stencil": _nest(["do i = 2, n-1", "do j = 2, n-1"],
                     ["a(i, j) = (a(i, j) + a(i-1, j) + a(i, j-1) + "
                      "a(i+1, j) + a(i, j+1)) / 5"]),
    "triangular": _nest(["do i = 1, n", "do j = i, n"],
                        ["a(i, j) = i + j"]),
}

#: Index arrays of the indirect-bound nests and how to fill them.
INDIRECT = {"colstr": "ptr", "rowidx": "idx", "ptr": "ptr", "idx": "idx"}

#: (bound kind, depth) of the variants, cycled so every seed gets the same
#: mix of search-space sizes.
VARIANT_SHAPES = tuple((kind, depth) for kind in ("rect", "tri", "indirect")
                       for depth in (3, 4))
SEARCH_VARIANTS = 4 * len(VARIANT_SHAPES)


def _variant(rng: random.Random, index: int) -> Case:
    kind, depth = VARIANT_SHAPES[index % len(VARIANT_SHAPES)]
    order = list(INDICES[:depth])
    rng.shuffle(order)
    headers = [f"do {x} = 1, n" for x in order]
    inner, outer = order[-1], order[:-1]
    if kind == "tri":
        pos = rng.randint(1, depth - 1)
        anchor = rng.choice(order[:pos])
        headers[pos] = f"do {order[pos]} = {anchor}, n"
    if depth == 3:
        a, b, c = rng.sample(order, 3)
        target, left, right = f"{a}, {b}", f"{a}, {c}", f"{c}, {b}"
    else:
        a, b, c, d = rng.sample(order, 4)
        target = f"{a}, {b}, {d}"
        left, right = f"{a}, {c}, {d}", f"{c}, {b}"
    if kind == "indirect":
        host = outer[-1]
        headers[-1] = f"do {inner} = ptr({host}), ptr({host} + 1) - 1"
        others = [x for x in order if x != inner]
        t = rng.sample(others, min(2, len(others)))
        target = ", ".join(t)
        left = f"{t[0]}, idx({inner})"
        right = f"{inner}"
    body = [f"X({target}) += Y({left}) * Z({right})"]
    return Case(f"{kind}{depth}-{index}", _nest(headers, body), None,
                {"n": 5})


def search_set(seed: int) -> List[Case]:
    """The ``search`` workload's nests: the four example kernels plus
    :data:`SEARCH_VARIANTS` seeded depth 3-4 variants."""
    cases = [Case(name, text, None, {"n": 5})
             for name, text in sorted(EXAMPLES.items())]
    for index in range(SEARCH_VARIANTS):
        cases.append(_variant(rng_for("search", seed, index), index))
    return cases


# ---------------------------------------------------------------------------
# execute: fixed kernels at a stated working-set size

#: (kernel, nest text, symbols, legal step sequences to draw from).  The
#: working set is set by the symbol values: 40x40 matmul, 4 sweeps of a
#: 48x48 Jacobi stencil, a 160-wide triangle, 40x40 CSC sparse and a
#: 100x100 wavefront.  Each menu holds sequences of similar run time, so
#: the seed changes the schedules but not the cost mix.
KERNELS = (
    ("matmul", EXAMPLES["matmul"], {"n": 40},
     ("interchange(1,2)", "interchange(2,3)", "permute(3,1,2)",
      "parallelize(1)", "parallelize(2)", "reverse(1)")),
    ("jacobi", _nest(["do t = 1, m", "do i = 2, n-1", "do j = 2, n-1"],
                     ["b(i, j) += (a(i-1, j) + a(i+1, j) + a(i, j-1) + "
                      "a(i, j+1)) / 4"]),
     {"m": 4, "n": 48},
     ("interchange(1,2)", "interchange(2,3)", "reverse(2)", "reverse(3)",
      "parallelize(2)")),
    ("triangular", EXAMPLES["triangular"], {"n": 160},
     ("reverse(1)", "reverse(2)", "parallelize(1)", "parallelize(2)",
      "skew(2,1,1)")),
    ("sparse", EXAMPLES["sparse"], {"n": 40},
     ("interchange(1,2)", "parallelize(1)", "parallelize(2)",
      "reverse(1)", "reverse(2)")),
    ("wavefront", _nest(["do i = 2, n", "do j = 2, n"],
                        ["a(i, j) = (a(i-1, j) + a(i, j-1)) / 2"]),
     {"n": 100},
     ("skew(2,1,1); interchange(1,2)", "wavefront()",
      "skew(2,1,1); interchange(1,2); parallelize(2)", "stripmine(2,8)")),
)

ENGINES = ("compiled", "vectorized")
SEQUENCES_PER_KERNEL = 2


def execute_rows(seed: int) -> List[Tuple[str, str, str]]:
    """(kernel, step spec, engine) rows: each kernel under
    :data:`SEQUENCES_PER_KERNEL` seeded sequences on both engines."""
    rng = rng_for("execute", seed)
    rows = []
    for kernel, _text, _symbols, menu in KERNELS:
        picks = rng.sample(menu, SEQUENCES_PER_KERNEL)
        for spec in sorted(picks):
            for engine in ENGINES:
                rows.append((kernel, spec, engine))
    return rows


def kernel_arrays(kernel: str, symbols: Dict[str, int],
                  seed: int) -> Dict[str, Dict[Tuple[int, ...], int]]:
    """Seeded input arrays of an execute kernel, as index -> value maps."""
    rng = rng_for("arrays:" + kernel, seed)
    n = symbols["n"]

    def dense(lo: int, hi: int) -> Dict[Tuple[int, ...], int]:
        return {(i, j): rng.randint(0, 99)
                for i in range(lo, hi + 1) for j in range(lo, hi + 1)}

    if kernel == "matmul":
        return {"B": dense(1, n), "C": dense(1, n)}
    if kernel == "jacobi":
        return {"a": dense(1, n), "b": dense(1, n)}
    if kernel == "triangular":
        return {}
    if kernel == "wavefront":
        return {"a": dense(1, n)}
    # sparse: CSC with 2-6 nonzeros per column
    colstr: Dict[Tuple[int, ...], int] = {}
    rowidx: Dict[Tuple[int, ...], int] = {}
    c: Dict[Tuple[int, ...], int] = {}
    k = 1
    for j in range(1, n + 2):
        colstr[(j,)] = k
        if j > n:
            break
        for row in sorted(rng.sample(range(1, n + 1), rng.randint(2, 6))):
            rowidx[(k,)] = row
            c[(k,)] = rng.randint(1, 9)
            k += 1
    return {"b": dense(1, n), "colstr": colstr, "rowidx": rowidx, "c": c}


# ---------------------------------------------------------------------------
# serve: a Zipf-skewed replay over a pool larger than the service memos

#: Larger than the service's 256-entry parse/analysis memos.
SERVE_POOL = 320
#: Assumption, not taken from traffic: a mild skew, chosen so the figures
#: do not depend on which few nests the seed makes hot.
ZIPF_S = 0.5
#: (op, weight) of the request mix.  parse/analyze/legality/search are the
#: per-100-request shares of the tool loop in benchmarks/bench_service.py
#: (Perf-10), the repo's one documented client shape.  That loop has no
#: apply or run, so these two weights are assumptions: the client applies
#: one sequence per five legality verdicts, and runs half of what it
#: applies.
SERVE_MIX = (("parse", 10), ("analyze", 20), ("legality", 50),
             ("search", 20), ("apply", 10), ("run", 5))


#: Assumption, not taken from traffic: (depth, statements) of the pool
#: nests, cycled.  Small nests, so a memo miss costs milliseconds, not the
#: ``compile`` workload's tens of them, and the rare 50-80 ms analyses of
#: deeper nests do not set the tail.
SERVE_SHAPES = ((2, 1), (2, 2))


def serve_pool(seed: int) -> List[Case]:
    pool = []
    for index in range(SERVE_POOL):
        rng = rng_for("serve-pool", seed, index)
        depth, statements = SERVE_SHAPES[index % len(SERVE_SHAPES)]
        text = general_nest(rng, depth, statements)
        pool.append(Case(f"serve-{index}", text, steps_for(rng, depth, 1, 2),
                         {"n": rng.randint(6, 10)}))
    return pool


def serve_ops(seed: int, count: int) -> List[Tuple[str, int]]:
    """*count* (op, pool index) requests: Zipf-ranked nests, ops drawn
    from :data:`SERVE_MIX`.  The ranking is a seeded shuffle within each
    pool shape, interleaved so the shape of rank r is fixed: the seed
    picks which nests are hot, not how large they are."""
    rng = rng_for("serve-ops", seed)
    shapes = len(SERVE_SHAPES)
    classes = [list(range(k, SERVE_POOL, shapes)) for k in range(shapes)]
    for members in classes:
        rng.shuffle(members)
    ranking = [classes[r % shapes][r // shapes] for r in range(SERVE_POOL)]
    cum, total = [], 0.0
    for rank in range(SERVE_POOL):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(total)
    ops = [op for op, _ in SERVE_MIX]
    weights = [w for _, w in SERVE_MIX]
    picks = rng.choices(range(SERVE_POOL), cum_weights=cum, k=count)
    kinds = rng.choices(ops, weights=weights, k=count)
    return [(kind, ranking[pick]) for kind, pick in zip(kinds, picks)]


# ---------------------------------------------------------------------------

def inputs_digest_doc(workload: str, seed: int, count: int = 64) -> str:
    """Canonical JSON of a workload's first inputs (for determinism tests)."""
    if workload == "compile":
        doc: object = [compile_case(seed, i).to_json() for i in range(count)]
    elif workload == "search":
        doc = [case.to_json() for case in search_set(seed)]
    elif workload == "execute":
        doc = {"rows": execute_rows(seed),
               "arrays": {kernel: {name: sorted(data.items())
                                   for name, data in kernel_arrays(
                                       kernel, symbols, seed).items()}
                          for kernel, _text, symbols, _menu in KERNELS}}
    else:
        doc = {"pool": [c.to_json() for c in serve_pool(seed)[:count]],
               "ops": serve_ops(seed, count)}
    return json.dumps(doc, sort_keys=True)
