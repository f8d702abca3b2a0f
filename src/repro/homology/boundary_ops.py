"""GF(2) boundary operators of a 2-complex, as bitmask column lists.

``partial_2`` maps a triangle to the sum of its three edges; ``partial_1``
maps an edge to the sum of its endpoints.  Ranks are computed by the same
pivot-indexed elimination used for cycle spaces.  For relative chains the
fence simplices are simply projected out (their bits dropped).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.homology.simplicial import RipsComplex
from repro.network.graph import Edge, NetworkGraph


class ChainBasis:
    """Bit numbering for the simplices of one chain group."""

    __slots__ = ("bit_of",)

    def __init__(self, simplices: Sequence) -> None:
        self.bit_of: Dict = {s: i for i, s in enumerate(simplices)}

    def __len__(self) -> int:
        return len(self.bit_of)

    def __contains__(self, simplex) -> bool:
        return simplex in self.bit_of

    def mask(self, simplices: Sequence) -> int:
        out = 0
        for s in simplices:
            out ^= 1 << self.bit_of[s]
        return out


def edge_chain_basis(
    graph: NetworkGraph, exclude: Optional[Set[Edge]] = None
) -> ChainBasis:
    """Chain basis over the graph's edges, minus an excluded (fence) set."""
    exclude = exclude or set()
    return ChainBasis(
        [e for e in sorted(graph.edges()) if e not in exclude]
    )


def vertex_chain_basis(
    graph: NetworkGraph, exclude: Optional[Set[int]] = None
) -> ChainBasis:
    exclude = exclude or set()
    return ChainBasis([v for v in sorted(graph.vertices()) if v not in exclude])


def boundary_2_columns(
    complex_: RipsComplex, edge_basis: ChainBasis
) -> List[int]:
    """One column per triangle: the mask of its (non-excluded) edges."""
    columns: List[int] = []
    bit_of = edge_basis.bit_of
    for u, v, w in complex_.triangles:
        mask = 0
        for e in ((u, v), (u, w), (v, w)):
            bit = bit_of.get(e)
            if bit is not None:
                mask ^= 1 << bit
        columns.append(mask)
    return columns


def boundary_1_columns(
    graph: NetworkGraph,
    edge_basis: ChainBasis,
    vertex_basis: ChainBasis,
) -> List[int]:
    """One column per (non-excluded) edge: the mask of its endpoints."""
    columns: List[int] = []
    v_bit = vertex_basis.bit_of
    for u, v in edge_basis.bit_of:
        mask = 0
        bit = v_bit.get(u)
        if bit is not None:
            mask ^= 1 << bit
        bit = v_bit.get(v)
        if bit is not None:
            mask ^= 1 << bit
        columns.append(mask)
    return columns
