"""Figure 2 bench: maximal vertex deletion for tau = 3..6 on one network.

Paper's Figure 2 (b-e): the same deployment thinned at increasing confine
sizes keeps fewer and fewer nodes, and the criterion is preserved
throughout (Theorem 5).  Shape check: monotone shrinkage with tau.
"""

from repro.analysis.experiments import run_fig2_vertex_deletion


def test_fig2_vertex_deletion(benchmark, paper_scale):
    count, degree = (1600, 25.0) if paper_scale else (320, 22.0)
    result = benchmark.pedantic(
        run_fig2_vertex_deletion,
        kwargs=dict(
            count=count,
            degree=degree,
            taus=(3, 4, 5, 6),
            seed=0,
            workers=1,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.format_table())
    sizes = result.active_by_tau
    # Theorem 5 on every tau
    for tau in sizes:
        assert result.preserved(tau)
    # the paper's qualitative shape: tau=6 never needs more than tau=3
    assert sizes[6] <= sizes[3]
    # some thinning must actually happen
    assert sizes[3] < result.total_nodes
