"""Cycles, incidence vectors and the GF(2) cycle space of a graph.

The paper identifies a cycle ``C`` with its incidence vector ``b(C)`` over
the edges of the host graph; cycle addition is the symmetric difference of
edge sets.  We realise incidence vectors as bitmask integers through an
:class:`EdgeIndex` that assigns one bit per edge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.network.graph import Edge, NetworkGraph, canonical_edge


class EdgeIndex:
    """A fixed assignment of bit positions to the edges of a graph."""

    __slots__ = ("_bit_of", "_edge_of")

    def __init__(self, edges: Iterable[Edge]) -> None:
        self._bit_of: Dict[Edge, int] = {}
        self._edge_of: List[Edge] = []
        for edge in edges:
            edge = canonical_edge(*edge)
            if edge in self._bit_of:
                continue
            self._bit_of[edge] = len(self._edge_of)
            self._edge_of.append(edge)

    @classmethod
    def from_graph(cls, graph: NetworkGraph) -> "EdgeIndex":
        return cls(sorted(graph.edges()))

    def __len__(self) -> int:
        return len(self._edge_of)

    def __contains__(self, edge: Edge) -> bool:
        return canonical_edge(*edge) in self._bit_of

    def bit(self, u: int, v: int) -> int:
        """Bit position of edge ``(u, v)``."""
        return self._bit_of[canonical_edge(u, v)]

    def mask_of_edges(self, edges: Iterable[Edge]) -> int:
        mask = 0
        for u, v in edges:
            mask ^= 1 << self._bit_of[canonical_edge(u, v)]
        return mask

    def mask_of_vertex_cycle(self, cycle: Sequence[int]) -> int:
        """Incidence mask of a cycle given as a closed vertex sequence.

        ``cycle`` lists the vertices in order; the closing edge from the last
        vertex back to the first is implicit.
        """
        if len(cycle) < 3:
            raise ValueError("a simple cycle needs at least three vertices")
        mask = 0
        for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
            mask ^= 1 << self._bit_of[canonical_edge(a, b)]
        return mask

    def edges(self) -> List[Edge]:
        return list(self._edge_of)


class Cycle:
    """A simple cycle with both a vertex sequence and an incidence mask."""

    __slots__ = ("vertices", "mask")

    def __init__(self, vertices: Sequence[int], mask: int) -> None:
        self.vertices = tuple(vertices)
        self.mask = mask

    @classmethod
    def from_vertices(cls, vertices: Sequence[int], index: EdgeIndex) -> "Cycle":
        return cls(vertices, index.mask_of_vertex_cycle(vertices))

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def length(self) -> int:
        """Number of edges, equal to the number of vertices of a simple cycle."""
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cycle) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cycle({list(self.vertices)})"


def cycle_space_dimension(graph: NetworkGraph) -> int:
    """``|E| - |V| + c``: the dimension of the cycle space."""
    return graph.num_edges() - len(graph) + len(graph.connected_components())
