"""Figure 3 bench: coverage-set size ratio vs confine size.

Paper's Figure 3: with 1600 nodes at average degree ~25 (100 runs), the
coverage-set size normalised by the tau=3 set falls monotonically with
tau, levelling off around 0.4-0.6 by tau = 9.  We reproduce the series at
laptop scale and check the shape: ratio 1.0 at tau=3, decreasing in tau,
with a substantial drop by the largest tau.
"""

from repro.analysis.experiments import run_fig3_confine_size


def test_fig3_confine_size(benchmark, paper_scale):
    if paper_scale:
        kwargs = dict(paper_scale=True, workers=1)
    else:
        kwargs = dict(
            count=300,
            degree=22.0,
            taus=(3, 4, 5, 6, 7),
            runs=1,
            seed=0,
            workers=1,
        )
    result = benchmark.pedantic(
        run_fig3_confine_size, kwargs=kwargs, rounds=1, iterations=1
    )
    print()
    print(result.format_table())
    ratios = result.mean_ratio_by_tau
    taus = result.taus
    assert ratios[taus[0]] == 1.0
    # near-monotone decrease (tiny jitter tolerated on small instances)
    for a, b in zip(taus, taus[1:]):
        assert ratios[b] <= ratios[a] + 0.05
    # the headline effect: larger confine sizes save a real fraction
    assert ratios[taus[-1]] < 0.95
