"""Betti numbers and relative first homology over GF(2).

For a 2-complex ``R``:

* ``b0 = c`` (connected components);
* ``b1 = dim Z1 - rank(partial_2) = (|E| - |V| + c) - rank(partial_2)``.

For the pair ``(R, F)`` with a fence subcomplex ``F`` (no triangles), the
relative chain groups drop the fence simplices and

* ``b1(R, F) = (|E_rel| - rank(partial_1^rel)) - rank(partial_2^rel)``.

``rank(partial_1^rel)`` has a combinatorial shortcut: grounding the fence
vertices, it equals ``|V_rel|`` minus the number of connected components of
``R`` that contain no fence vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cycles.cycle_space import cycle_space_dimension
from repro.cycles.gf2 import gf2_rank
from repro.homology.boundary_ops import boundary_2_columns, edge_chain_basis
from repro.homology.simplicial import FenceSubcomplex, RipsComplex


@dataclass(frozen=True)
class BettiNumbers:
    b0: int
    b1: int
    b2: int = 0

    def euler_characteristic(self) -> int:
        """``b0 - b1 + b2`` — must equal ``V - E + T`` of the complex."""
        return self.b0 - self.b1 + self.b2


def betti_numbers(complex_: RipsComplex) -> BettiNumbers:
    """Absolute Betti numbers ``(b0, b1, b2)`` of the 2-complex over GF(2).

    With no 3-simplices, ``b2`` is simply the kernel dimension of the
    triangle boundary operator.
    """
    graph = complex_.graph
    components = len(graph.connected_components())
    z1 = cycle_space_dimension(graph)
    edge_basis = edge_chain_basis(graph)
    rank_d2 = gf2_rank(boundary_2_columns(complex_, edge_basis))
    return BettiNumbers(
        b0=components,
        b1=z1 - rank_d2,
        b2=complex_.num_triangles - rank_d2,
    )


def first_homology_trivial(complex_: RipsComplex) -> bool:
    """Is ``H1(R)`` trivial?  (Every cycle spanned by triangle boundaries.)"""
    return betti_numbers(complex_).b1 == 0


def relative_betti_1(
    complex_: RipsComplex, fence: FenceSubcomplex
) -> int:
    """``dim H1(R, F)`` over GF(2)."""
    graph = complex_.graph
    fence_vertices = set(fence.vertices)
    missing = fence_vertices - graph.vertex_set()
    if missing:
        raise KeyError(
            f"fence vertices not in complex: {sorted(missing)[:5]}"
        )
    edge_basis = edge_chain_basis(graph, exclude=set(fence.edges))
    num_rel_edges = len(edge_basis)
    num_rel_vertices = len(graph) - len(fence_vertices)

    free_components = sum(
        1
        for component in graph.connected_components()
        if not component & fence_vertices
    )
    rank_d1_rel = num_rel_vertices - free_components

    rank_d2_rel = gf2_rank(boundary_2_columns(complex_, edge_basis))
    return (num_rel_edges - rank_d1_rel) - rank_d2_rel


def relative_first_homology_trivial(
    complex_: RipsComplex, fence: FenceSubcomplex
) -> bool:
    """Ghrist et al.'s verification condition: ``H1(R, F) = 0``."""
    return relative_betti_1(complex_, fence) == 0
