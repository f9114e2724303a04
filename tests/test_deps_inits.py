"""Dependence analysis sees what the init statements do.

A nest's inits run at the top of every iteration (paper Section 2, item
4(b)); a parsed nest puts its leading scalar assignments there too.  An
array read in an init is an access like any other, so it takes part in
dependence pairs, and a subscript that names a scalar with one
straight-line definition reads it folded.  Any other scalar is opaque
in a subscript, and its writes and reads are zero-subscript accesses
whose pairs take the conservative cover: it may carry a value from one
iteration into another.  Every answer that folding narrows is checked here
against brute force: each pair of iterations that touch one element, one
of them writing, must be ordered by the analysed dependence set
(:func:`repro.runtime.oracle.check_dependence_order`).
"""

from collections import defaultdict

import pytest

from repro.core.sequence import Transformation
from repro.core.spec import parse_steps
from repro import obs
from repro.deps.analysis import DependenceAnalyzer, analyze
from repro.deps.analysis.driver import _conservative_cover
from repro.deps.graph import DependenceGraph
from repro.expr.nodes import Const, evaluate
from repro.fuzz.gen import CaseGen
from repro.ir.parser import parse_nest
from repro.runtime import Array, Interpreter
from repro.runtime.oracle import (OracleFailure, check_dependence_order,
                                  check_equivalence)
from repro.util.errors import ReproError

INIT_READ = "do i = 2, n\n  t = a(i - 1)\n  a(i) = t\nenddo"


def test_init_read_is_a_dependence():
    nest = parse_nest(INIT_READ)
    assert [str(init) for init in nest.inits] == ["t = a(i - 1)"]
    assert str(analyze(nest)) == str(analyze(parse_nest(
        "do i = 2, n\n  a(i) = a(i - 1)\nenddo"))) == "{(1)}"


def test_reversing_an_init_read_is_illegal():
    nest = parse_nest(INIT_READ)
    report = parse_steps("reverse(1)", 1).legality(nest, analyze(nest))
    assert not report.legal


def test_stripmine_keeps_an_init_read_in_order():
    """The legal direction still runs: the transformed nest computes the
    original's arrays."""
    nest = parse_nest(INIT_READ)
    deps = analyze(nest)
    out = parse_steps("stripmine(1,2)", 1).apply(nest, deps)
    a = Array(0, "a", {(v,): 3 * v - 7 for v in range(1, 8)})
    check_equivalence(nest, out, {"a": a}, symbols={"n": 7})


def test_init_accesses_come_first_at_negative_positions():
    nest = parse_nest(INIT_READ)
    assert [repr(a) for a in nest.accesses()] == [
        "R:a(i - 1)@stmt-1", "W:a(i)@stmt0"]
    edges = DependenceGraph.from_nest(nest).edges
    assert [(e.src_stmt, e.dst_stmt, e.kind) for e in edges] == [
        (0, -1, "flow")]


ALIAS = ("do kk = 1, n\n  do jj = 0, 0\n    it = kk\n    b(it) = 1\n"
         "  enddo\nenddo")


def test_subscript_reads_the_folded_init():
    nest = parse_nest(ALIAS)
    assert str(analyze(nest)) == str(analyze(parse_nest(
        ALIAS.replace("b(it)", "b(kk)")))) == "{}"
    empty = parse_nest(ALIAS.replace("1, n", "0, -1"))
    assert str(analyze(empty)) == "{}"


def test_a_scalar_the_body_reassigns_stays_opaque():
    """A guarded scalar assignment may leave an earlier iteration's value
    in place, so the subscript it feeds is not folded."""
    nest = parse_nest("do i = 1, n\n  t = i\n  if (i > 2) t = 1\n"
                      "  a(t) = a(t) + 1\nenddo")
    assert str(analyze(nest)) == "{(+)}"


REDEFINED = ("do i = 2, n\n  t = i - 1\n  u = a(t)\n  t = i\n  a(i) = u\n"
             "enddo")


@pytest.mark.parametrize("src,expected", [
    ("do i = 1, n\n  t = i - 1\n  u = t * 2\n  a(u) = 1\nenddo",
     {"t": "i - 1", "u": "2*i - 2"}),
    (REDEFINED, {"u": "a(i - 1)"}),
    ("do i = 1, n\n  i = i + 1\n  t = i\n  a(t) = 1\nenddo", {}),
    ("do i = 1, n\n  t = t + i\n  a(t) = 1\nenddo", {}),
    ("do i = 1, n\n  t = i\n  if (i > 2) t = 1\n  a(t) = 1\nenddo", {}),
], ids=["chain", "redefined", "shadows-index", "reads-itself", "guarded"])
def test_scalar_definitions_leave_out_every_other_scalar(src, expected):
    """Only a scalar with one unguarded definition, read after it, folds;
    a definition reading a left-out scalar is left out too."""
    defs = parse_nest(src).scalar_definitions()
    assert {name: str(value) for name, value in defs.items()} == expected


def test_a_scalar_the_inits_redefine_stays_opaque():
    """``a(t)`` reads the first ``t``, ``i - 1``: a flow dependence at
    distance 1 that folding ``t`` to its last definition would hide."""
    nest = parse_nest(REDEFINED)
    assert true_distances(nest, {"n": 6}) == {(1,)}
    deps = analyze(nest)
    assert_orders(deps, {(1,)})
    assert not parse_steps("reverse(1)", 1).legality(nest, deps).legal


GUARDED = "do i = 1, 4\n  if (i == 1) t = 5\n  a(i) = t\nenddo"


def test_a_guarded_scalar_carries_a_dependence():
    """``t`` keeps iteration 1's value in every later iteration, so the
    read of it depends on that write: the nest cannot be reversed."""
    nest = parse_nest(GUARDED)
    obs.disable()
    obs.get_metrics().clear()
    obs.enable()
    try:
        reports = DependenceAnalyzer(nest).explain()
        counters = obs.get_metrics().snapshot()["counters"]
    finally:
        obs.disable()
        obs.get_metrics().clear()
    scalar = [r for r in reports if r.src.array == "t"]
    assert [(repr(r.src), repr(r.dst)) for r in scalar] == [
        ("W:t()@stmt0", "W:t()@stmt0"), ("W:t()@stmt0", "R:t()@stmt1"),
        ("R:t()@stmt1", "W:t()@stmt0")]
    assert all(r.conservative for r in scalar)
    assert counters["deps.pairs_conservative"] == len(scalar)
    deps = analyze(nest)
    assert str(deps) == "{(+)}"
    assert not parse_steps("reverse(1)", 1).legality(nest, deps).legal


@pytest.mark.parametrize("src", [
    "do i = 1, n\n  t = i\n  if (i > 2) t = 1\n  b(i) = t\nenddo",
    "do i = 1, n\n  t = t + i\n  a(i) = 1\nenddo",
    "do i = 1, n\n  do j = 1, n\n    a(i, j) = t\n"
    "    if (j > 1) t = i\n  enddo\nenddo",
], ids=["reassigned", "reads-itself", "read-before-guarded"])
def test_every_unfolded_scalar_takes_the_conservative_cover(src):
    nest = parse_nest(src)
    unfolded = nest.defined_names() - nest.scalar_definitions().keys()
    assert unfolded
    reports = DependenceAnalyzer(nest).explain()
    pairs = [r for r in reports if r.src.array in unfolded]
    assert pairs and all(r.conservative and not r.src.subscripts
                         for r in pairs)
    assert set(analyze(nest)) >= set(_conservative_cover(nest.depth))


def test_a_folded_scalar_gets_no_scalar_access():
    reports = DependenceAnalyzer(parse_nest(INIT_READ)).explain()
    assert {r.src.array for r in reports} == {"a"}


class _Marking(Interpreter):
    """The interpreter, marking each iteration in the address trace with
    the iteration numbers the analyzer's entries count: the index itself
    for a unit step, else the trips taken so far."""

    def _run_body(self, env, state, itrace, atrace, counter):
        coords = []
        for lp in self.nest.loops:
            x = env[lp.index]
            if lp.step == Const(1):
                coords.append(x)
            else:
                lower = evaluate(lp.lower, env)
                coords.append((x - lower) // evaluate(lp.step, env))
        atrace.append(("", tuple(coords), "M"))
        super()._run_body(env, state, itrace, atrace, counter)


def true_distances(nest, symbols):
    """Brute force: the iteration-number difference, later minus
    earlier, of every two iterations that touch one element with at
    least one write."""
    run = _Marking(nest, symbols=symbols, trace_addresses=True).run({})
    touched = defaultdict(list)
    here, count = None, 0
    for name, index, kind in run.address_trace:
        if kind == "M":
            here, count = index, count + 1
            continue
        touched[(name, index)].append((count, here, kind))
    out = set()
    for refs in touched.values():
        for k, (late, late_at, late_kind) in enumerate(refs):
            for early, early_at, early_kind in refs[:k]:
                if early != late and "W" in (early_kind, late_kind):
                    out.add(tuple(a - b for a, b in zip(late_at, early_at)))
    return out


def assert_orders(deps, distances):
    """Running each later iteration first must violate *deps*."""
    for d in sorted(distances):
        with pytest.raises(OracleFailure):
            check_dependence_order([d, (0,) * len(d)], deps)


def test_brute_force_sees_the_init_read():
    nest = parse_nest(INIT_READ)
    assert true_distances(nest, {"n": 6}) == {(1,)}
    assert_orders(analyze(nest), {(1,)})


def _applied_with_inits():
    for seed in (7, 11):
        for case in CaseGen(seed).cases(150):
            if not case.steps:
                continue
            nest = parse_nest(case.text)
            try:
                out = Transformation.from_spec(case.steps, nest.depth).apply(
                    nest, analyze(nest), check=False)
            except ReproError:
                continue
            if out.inits:
                yield f"{seed}/{case.case_id}", out, case.symbols


APPLIED = list(_applied_with_inits())


def test_corpus_has_init_carrying_outputs():
    assert len(APPLIED) == 71


@pytest.mark.parametrize("label,nest,symbols", APPLIED,
                         ids=[a[0] for a in APPLIED])
def test_folded_answers_order_every_true_dependence(label, nest, symbols):
    assert_orders(analyze(nest), true_distances(nest, symbols))
