"""The paper's radii, checked directly on ``repro.topology.radii``."""

import math

import pytest

from repro.core.vpt import deletion_radius as public_deletion_radius
from repro.topology.radii import (
    deletion_radius,
    halo_radius,
    mis_separation,
    neighborhood_radius,
)


@pytest.mark.parametrize("tau", range(3, 17))
def test_radii_match_the_paper(tau):
    k = math.ceil(tau / 2)  # Definition 5
    assert neighborhood_radius(tau) == k
    assert deletion_radius(tau) == k
    assert public_deletion_radius(tau) == k
    assert halo_radius(tau) == k
    assert mis_separation(tau) == k + 1


def test_public_deletion_radius_is_the_radii_function():
    """``repro.core.vpt`` re-exports the one definition, not a copy."""
    assert public_deletion_radius is deletion_radius


@pytest.mark.parametrize(
    "radius", [neighborhood_radius, deletion_radius, halo_radius, mis_separation]
)
@pytest.mark.parametrize("tau", [-1, 0, 1, 2])
def test_confine_below_three_raises(radius, tau):
    with pytest.raises(ValueError, match="at least 3"):
        radius(tau)
