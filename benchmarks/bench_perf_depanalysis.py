"""Perf-5 — the dependence-test ladder (DESIGN.md ablation 4).

Precision and speed of the analyzer when the refutation ladder stops at
GCD, Banerjee, or exact Fourier–Motzkin.  Expected shape: gcd is
fastest and coarsest (often the full lex-positive cover), banerjee
removes range-infeasible directions, fm is exact on coupled subscripts
and the slowest.  This module reports and times; the precision gates
(deeper tiers never lose precision, the coupled and transpose cases)
are tier-1 tests in ``tests/test_analysis.py``.
"""

import pytest

from repro.deps.analysis import analyze
from repro.ir import parse_nest

CASES = {
    "stencil": """
        do i = 2, n-1
          do j = 2, n-1
            a(i, j) = (a(i-1, j) + a(i, j-1)) / 2
          enddo
        enddo
    """,
    "matmul": """
        do i = 1, n
          do j = 1, n
            do k = 1, n
              A(i, j) += B(i, k) * C(k, j)
            enddo
          enddo
        enddo
    """,
    "coupled": """
        do i = 1, n
          a(i, i) = a(i, i + 1) * 2
        enddo
    """,
    "parity": """
        do i = 1, n
          a(2*i) = a(2*i + 1) + 1
        enddo
    """,
    "transpose": """
        do i = 1, n
          do j = 1, n
            A(i, j) += A(j, i)
          enddo
        enddo
    """,
}


def _tuple_weight(deps):
    """A crude precision metric: number of vectors plus summary entries
    (lower is more precise, 0 is fully independent)."""
    weight = 0
    for vec in deps:
        weight += 1
        for e in vec:
            if not e.is_distance:
                weight += 1
    return weight


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("level", ["gcd", "banerjee", "fm"])
def test_ladder(report, benchmark, case, level):
    nest = parse_nest(CASES[case])
    deps = benchmark(analyze, nest, None, level)
    report(f"Perf-5: {case} at level {level}",
           f"D = {deps}  (precision weight {_tuple_weight(deps)})")


def test_precision_summary(report, benchmark):
    lines = [f"{'case':10} | {'gcd':>5} | {'banerjee':>8} | {'fm':>4}",
             "-" * 40]
    for case in sorted(CASES):
        nest = parse_nest(CASES[case])
        weights = [
            _tuple_weight(analyze(nest, level=lvl))
            for lvl in ("gcd", "banerjee", "fm")
        ]
        lines.append(f"{case:10} | {weights[0]:>5} | {weights[1]:>8} | "
                     f"{weights[2]:>4}")
    report("Perf-5: precision weight by tier (lower = sharper)",
           "\n".join(lines))
    nest = parse_nest(CASES["matmul"])
    benchmark(analyze, nest, None, "fm")


def test_fm_exactness_on_coupled(report, benchmark):
    """The GCD tier keeps a false dependence on the coupled-subscript
    case; the interval (Banerjee) tier refutes it, since both dimensions
    constrain the same delta."""
    nest = parse_nest(CASES["coupled"])
    report("Perf-5: coupled subscripts",
           "gcd keeps a false dependence; banerjee/fm prove independence")
    benchmark(analyze, nest, None, "fm")


def test_fm_only_precision_on_transpose(report, benchmark):
    """Where only FM helps: the transposed access ``A(i,j) += A(j,i)``
    needs the cross-dimension coupling i2 = j1, j2 = i1 — intervals
    cannot see it, Fourier-Motzkin collapses the set to {(+, -)}."""
    nest = parse_nest(CASES["transpose"])
    fm = analyze(nest, level="fm")
    banerjee = analyze(nest, level="banerjee")
    report("Perf-5: transpose",
           f"banerjee: {banerjee}\nfm:       {fm}")
    benchmark(analyze, nest, None, "fm")


def test_dependence_graph_construction(report, benchmark):
    """The Allen-Kennedy/Wolfe artifact on top of the analyzer: build the
    statement-level graph for Figure 2's two-statement body and report
    its edges and carried levels."""
    from repro.deps.graph import DependenceGraph

    nest = parse_nest("""
        do i = 2, n-1
          do j = 2, n-1
            a(i, j) = b(j)
            if (c(i, j) > 0) b(j) = a(i-1, j+1)
          enddo
        enddo
    """)
    graph = benchmark(DependenceGraph.from_nest, nest)
    report("Perf-5: statement-level dependence graph (Figure 2 nest)",
           graph.pretty() + f"\n\nparallel levels: "
           f"{graph.parallel_levels()}")
    assert graph.carrying_levels() == {1}
    assert graph.parallel_levels() == [2]
