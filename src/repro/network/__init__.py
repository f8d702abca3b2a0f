"""Network substrate: graphs, unit-disk deployments, energy."""

from repro.network.energy import EnergyModel, EnergyState
from repro.network.graph import Edge, NetworkGraph, SubgraphView, canonical_edge

__all__ = [
    "Edge",
    "EnergyModel",
    "EnergyState",
    "NetworkGraph",
    "SubgraphView",
    "canonical_edge",
]
