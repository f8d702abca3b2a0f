"""Valid-embedding checks for communication models (Definition 1 context).

Confine coverage is defined over all *valid embeddings* of the connectivity
graph: node placements in the plane consistent with the communication
model.  The simulator works the other way around — it places nodes first —
so these checks assert that a generated (graph, positions) pair really is a
valid embedding of the model it claims to follow.
"""

from __future__ import annotations

from typing import Dict

from repro.network.graph import NetworkGraph
from repro.network.node import Position, distance


def edges_within_range(
    graph: NetworkGraph, positions: Dict[int, Position], rc: float
) -> bool:
    """Every communication link is at most ``Rc`` long.

    This is the *only* geometric constraint confine coverage places on the
    communication model (no UDG assumption).
    """
    return all(
        distance(positions[u], positions[v]) <= rc + 1e-9
        for u, v in graph.edges()
    )


def is_valid_udg_embedding(
    graph: NetworkGraph, positions: Dict[int, Position], rc: float
) -> bool:
    """UDG validity: links iff distance <= Rc."""
    if not edges_within_range(graph, positions, rc):
        return False
    nodes = sorted(graph.vertices())
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            close = distance(positions[u], positions[v]) <= rc - 1e-9
            if close and not graph.has_edge(u, v):
                return False
    return True
