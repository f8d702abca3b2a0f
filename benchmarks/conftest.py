"""Shared benchmark fixtures.

The benches regenerate every figure of the paper's evaluation at
laptop scale (see DESIGN.md for the scaling rationale).  Expensive
artefacts — the synthetic GreenOrbs trace, the deployed comparison
network — are built once per session and shared.
"""

from __future__ import annotations

import pytest

from repro.traces.greenorbs import GreenOrbsConfig, generate_greenorbs_trace


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run benches at the paper's original sizes (very slow)",
    )


@pytest.fixture(scope="session")
def paper_scale(request) -> bool:
    return request.config.getoption("--paper-scale")


@pytest.fixture(scope="session")
def greenorbs_trace():
    """The Figure 5-7 synthetic trace (one generation per session)."""
    return generate_greenorbs_trace(GreenOrbsConfig(), seed=1)
