"""Figure 4 bench: saved nodes lambda = (n1 - n2)/n1, DCC vs HGC.

Paper's Figure 4: lambda grows when the sensing range grows (gamma falls
from 2 to 1) and when the application relaxes the hole-diameter
requirement (Full -> 1.2 Rc), because DCC exploits larger feasible confine
sizes while HGC is pinned to triangles.  Shape checks: lambda is (weakly)
larger for relaxed requirements, and the Full curve rises as gamma falls.
"""

from repro.analysis.experiments import run_fig4_hgc_comparison

GAMMAS = (2.0, 1.6, 1.2, 1.0)
REQUIREMENTS = (0.0, 0.4, 0.8, 1.2)


def test_fig4_hgc_comparison(benchmark, paper_scale):
    count, degree, runs = (1600, 25.0, 10) if paper_scale else (220, 25.0, 1)
    result = benchmark.pedantic(
        run_fig4_hgc_comparison,
        kwargs=dict(
            count=count,
            degree=degree,
            gammas=GAMMAS,
            requirements=REQUIREMENTS,
            runs=runs,
            seed=3,
            workers=1,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.format_table())

    # blanket coverage demanded at gamma = 2: no connectivity-based scheme
    # can promise it, DCC saves nothing over HGC
    assert result.saved[(0.0, 2.0)] == 0.0

    # DCC never does worse than HGC anywhere
    assert all(lam >= 0.0 for lam in result.saved.values())

    # relaxing the requirement at fixed gamma (weakly) grows the saving;
    # a small tolerance absorbs scheduler randomness at laptop scale
    tolerance = 0.05
    for gamma in GAMMAS:
        lams = [result.saved[(dmax, gamma)] for dmax in REQUIREMENTS]
        for a, b in zip(lams, lams[1:]):
            assert b >= a - tolerance, f"lambda not monotone at gamma={gamma}"

    # shrinking gamma at the strictest requirement (weakly) grows the saving
    full_curve = [result.saved[(0.0, gamma)] for gamma in GAMMAS]
    for a, b in zip(full_curve, full_curve[1:]):
        assert b >= a - tolerance

    # somewhere DCC actually wins; measured over the schedulable interior
    # (the protected periphery, identical under both methods, is a large
    # fraction at laptop scale and dilutes the full-network ratio)
    assert max(result.saved_internal.values()) > 0.05
