"""Incremental local-topology computation shared by every coverage path.

This subpackage owns the primitive that the VPT deletability test
(Definition 5), the DCC scheduler rounds, boundary repair, lifetime
rotation and the distributed protocol all reduce to: extract a punctured
k-hop neighbourhood and decide whether short cycles span its GF(2) cycle
space.  :class:`LocalTopologyEngine` maintains that state incrementally
under vertex/edge mutation instead of recomputing it from scratch — see
``DESIGN.md`` ("The topology-engine layer") for the invalidation
invariant and the instrumentation counters.
"""

from repro.topology.counters import TopologyCounters
from repro.topology.engine import LocalTopologyEngine, OwnedRegionError
from repro.topology.radii import (
    halo_radius,
    mis_separation,
    neighborhood_radius,
)

__all__ = [
    "LocalTopologyEngine",
    "OwnedRegionError",
    "TopologyCounters",
    "halo_radius",
    "mis_separation",
    "neighborhood_radius",
]
